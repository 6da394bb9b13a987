import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from byzgrad import check_zeta, consensus_diameter, lyapunov_v, max_distance


class TestLyapunov:
    def test_zero_at_solution(self):
        x_star = np.array([1.0, -2.0])
        assert lyapunov_v(np.stack([x_star, x_star]), x_star) == 0.0

    def test_single_agent_is_squared_distance(self):
        x = np.array([3.0, 4.0])
        assert lyapunov_v(x[None, :], np.zeros(2)) == pytest.approx(25.0, abs=1e-12)

    def test_per_coordinate_max_then_sum(self):
        ests = np.array([[1.0, 0.0], [0.0, -2.0]])
        assert lyapunov_v(ests, np.zeros(2)) == pytest.approx(5.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_v(np.empty((0, 2)), np.zeros(2))

    def test_zero_iff_all_estimates_equal_solution(self):
        # even a one-ulp disagreement makes V positive
        x_star = np.array([0.25, -1.5])
        off = x_star.copy()
        off[1] = np.nextafter(off[1], 0.0)
        assert lyapunov_v(np.stack([x_star, off]), x_star) > 0.0

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_bounded_by_sum_of_squared_distances(self, agents, d, seed):
        rng = np.random.default_rng(seed)
        ests = rng.normal(size=(agents, d)) * 5
        x_star = rng.normal(size=d)
        total = sum(float(np.linalg.norm(x - x_star) ** 2) for x in ests)
        assert lyapunov_v(ests, x_star) <= total + 1e-9


class TestConsensusDiameter:
    def test_identical_estimates(self):
        x = np.array([1.0, 2.0])
        assert consensus_diameter(np.stack([x, x, x])) == (0.0, 0.0)

    def test_hand_computed_pair(self):
        ests = np.array([[0.0, 0.0], [3.0, 4.0]])
        diameter_inf, diameter_l2 = consensus_diameter(ests)
        assert diameter_inf == pytest.approx(4.0, abs=1e-12)
        assert diameter_l2 == pytest.approx(5.0, abs=1e-12)

    def test_singleton(self):
        assert consensus_diameter(np.array([[7.0]])) == (0.0, 0.0)

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_inf_dominated_by_l2(self, agents, d, seed):
        rng = np.random.default_rng(seed)
        ests = rng.normal(size=(agents, d)) * 3
        diameter_inf, diameter_l2 = consensus_diameter(ests)
        assert diameter_inf <= diameter_l2 + 1e-12


class TestMaxDistance:
    def test_largest_honest_distance(self):
        ests = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert max_distance(ests, np.zeros(2)) == pytest.approx(5.0, abs=1e-12)


class TestCheckZeta:
    def test_zero_gradients_pass(self):
        assert check_zeta(np.zeros((2, 3)), 1.0) == (0.0, False)

    def test_constructed_violation(self):
        zeta = 2.0
        norm_max, violated = check_zeta(np.array([[1.0, 0.0], [2 * zeta, 0.0]]), zeta)
        assert violated and norm_max == pytest.approx(2 * zeta)

    def test_slack_is_tight(self):
        assert not check_zeta(np.array([[1.0 + 5e-10]]), 1.0)[1]
        assert check_zeta(np.array([[1.0 + 5e-9]]), 1.0)[1]

    @pytest.mark.parametrize("rows", [[[1.0, 0.0], [np.nan, 0.0]], [[np.nan, 0.0], [1.0, 0.0]]], ids=["nan_last", "nan_first"])
    def test_nan_row_exceeds_in_either_order(self, rows):
        norm_max, violated = check_zeta(np.array(rows), 2.0)
        assert violated and np.isnan(norm_max)

    def test_finite_rows_keep_their_norm_bits(self):
        rows = np.random.default_rng(4).normal(size=(6, 5))
        assert check_zeta(rows, 1e9) == (max(float(np.linalg.norm(r)) for r in rows), False)
