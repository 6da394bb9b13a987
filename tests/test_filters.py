import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from byzgrad import Hypercube, cge_f, fuse_estimates, project_box


def sort_slice_oracle(values, f):
    ordered = sorted(float(v) for v in values)
    return ordered[f : len(ordered) - f]


def fusion_oracle(own, received, f):
    """The exact mean of `own` and the sort-slice survivors, and the survivors."""
    kept = sort_slice_oracle(received, f)
    return math.fsum([float(own), *kept]) / (1 + len(kept)), kept


def rounding_slack(values):
    # a float mean of k values may round a few units in the last place past
    # the exact mean, and past the range of its inputs
    return 4 * len(values) * np.finfo(float).eps * max(abs(v) for v in values)


def cge_oracle(vectors, f):
    """Independent elimination: stable sort by norm, sum the survivors."""
    vecs = [list(map(float, v)) for v in vectors]
    order = sorted(range(len(vecs)), key=lambda i: math.sqrt(sum(c * c for c in vecs[i])))
    out = np.zeros(len(vecs[0]))
    for i in order[: len(vecs) - f]:
        out = out + np.asarray(vecs[i])
    return out


class TestProjectBox:
    def test_clamps_per_coordinate(self):
        out = project_box(np.array([1.5, -0.2]), Hypercube(1.0, 2))
        assert np.array_equal(out, [1.0, -0.2])

    def test_interior_point_is_fixed(self):
        out = project_box(np.array([0.0, 0.0, 0.0]), Hypercube(5.0, 3))
        assert np.array_equal(out, [0.0, 0.0, 0.0])

    def test_mixed_clamp(self):
        out = project_box(np.array([-3.7, 2.2, 0.5]), Hypercube(2.0, 3))
        assert np.array_equal(out, [-2.0, 2.0, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_box(np.array([1.0, 2.0]), Hypercube(1.0, 3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            project_box(np.array([np.nan, 0.0]), Hypercube(1.0, 2))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
    def test_idempotent(self, coords):
        box = Hypercube(3.0, len(coords))
        once = project_box(np.asarray(coords), box)
        assert np.array_equal(project_box(once, box), once)

    @given(
        st.integers(1, 5).flatmap(
            lambda d: st.tuples(
                st.lists(st.floats(-1e9, 1e9), min_size=d, max_size=d),
                st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d),
            )
        )
    )
    def test_non_expansion_toward_box_points(self, xy):
        # clamping toward any point already inside the box never increases
        # the per-coordinate distance, with no floating-point slack at all
        x, y = (np.asarray(v) for v in xy)
        box = Hypercube(2.0, x.size)
        projected = project_box(x, box)
        assert (np.abs(projected - y) <= np.abs(x - y)).all()


class TestTrim:
    """The trim inside fusion, checked through `fuse_estimates`."""

    def test_drops_one_extreme_each_side(self):
        # survivors 2, 3, 4 averaged with own 0; without the trim, 2.5
        assert fuse_estimates(0.0, [5, 1, 3, 2, 4], 1) == 2.25

    def test_identity_when_f_zero(self):
        assert fuse_estimates(1.0, [7], 0) == 4.0

    def test_duplicates_preserved(self):
        values = [1, 1, 9, 1, 1, -9, 1]
        expected = sort_slice_oracle(values, 2)
        assert expected == [1, 1, 1]
        # own 5 with the three surviving 1s; a set of survivors would give 3
        assert fuse_estimates(5.0, values, 2) == 2.0

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            fuse_estimates(0.0, [1.0], 1)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            fuse_estimates(0.0, [1.0, np.inf, 2.0], 0)
        # refused even where the trim would have dropped it
        with pytest.raises(ValueError):
            fuse_estimates(0.0, [1.0, np.inf, 2.0], 1)
        with pytest.raises(ValueError):
            fuse_estimates(np.nan, [1.0, 2.0, 3.0], 1)

    @given(
        st.integers(0, 3).flatmap(
            lambda f: st.tuples(
                st.just(f),
                st.floats(-1e9, 1e9),
                st.lists(st.floats(-1e9, 1e9), min_size=2 * f, max_size=2 * f + 9),
            )
        )
    )
    def test_containment_and_size(self, case):
        f, own, values = case
        want, kept = fusion_oracle(own, values, f)
        assert len(kept) == len(values) - 2 * f
        fused = fuse_estimates(own, values, f)
        slack = rounding_slack([own, *kept])
        assert abs(fused - want) <= slack
        assert min([own, *kept]) - slack <= fused <= max([own, *kept]) + slack

    @given(st.floats(-1e6, 1e6), st.integers(0, 3), st.integers(0, 5))
    def test_constant_sequence_stays_constant(self, c, f, extra):
        values = [c] * (2 * f + extra)
        assert abs(fuse_estimates(c, values, f) - c) <= rounding_slack([c] * (1 + extra))

    def test_vectors_fuse_per_coordinate(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            f = int(rng.integers(0, 4))
            m = int(rng.integers(2 * f, 2 * f + 8))
            d = int(rng.integers(1, 5))
            own = rng.normal(size=d) * 10
            received = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 4, size=(m, d))
            fused = fuse_estimates(own, received, f)
            assert fused.shape == (d,)
            for k in range(d):
                want, kept = fusion_oracle(own[k], received[:, k], f)
                assert abs(fused[k] - want) <= rounding_slack([own[k], *kept])


class TestCge:
    def test_drops_largest_norm(self):
        out = cge_f([[1, 0], [0, 2], [3, 0]], 1)
        assert np.array_equal(out, [1, 2])
        assert np.array_equal(out, cge_oracle([[1, 0], [0, 2], [3, 0]], 1))

    def test_f_zero_sums_everything(self):
        vectors = [[1.5, -2], [0, 4], [-1, -1]]
        assert np.array_equal(cge_f(vectors, 0), np.asarray(vectors).sum(axis=0))

    def test_stable_tie_rule_keeps_first_inputs(self):
        out = cge_f([[1, 0], [0, 1], [0, -1]], 1)
        assert np.array_equal(out, [1, 1])

    def test_too_few_vectors(self):
        with pytest.raises(ValueError):
            cge_f([[1.0, 2.0]], 1)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            cge_f([[1.0], [np.nan]], 0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            f = int(rng.integers(0, min(n, 4)))
            vectors = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-2, 3)
            assert np.array_equal(cge_f(vectors, f), cge_oracle(vectors, f))

    def test_sums_survivors_sequentially_in_norm_order(self):
        # numpy's pairwise summation regroups long sums and changes the last
        # bits for mixed magnitudes; elimination must add one survivor at a time
        rng = np.random.default_rng(2101)
        for _ in range(300):
            n = int(rng.integers(2, 121))
            f = int(rng.integers(0, n))
            vectors = rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-6, 7, size=(n, 1))
            order = np.argsort(np.abs(vectors[:, 0]), kind="stable")
            total = 0.0
            for i in order[: n - f]:
                total += float(vectors[i, 0])
            assert cge_f(vectors, f)[0] == total

    def test_permutation_invariant_for_distinct_norms(self):
        # the kept set and its norm-ascending summation order are both
        # permutation-independent, so outputs match bit for bit
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, 5))
            f = int(rng.integers(0, n))
            vectors = rng.normal(size=(n, d))
            if len(set(np.linalg.norm(vectors, axis=1).tolist())) < n:
                continue
            perm = rng.permutation(n)
            assert np.array_equal(cge_f(vectors, f), cge_f(vectors[perm], f))

    def test_bounded_by_largest_honest_norm(self):
        # with at most f adversarial inputs, the output norm never exceeds
        # (n - f) times the largest honest input norm
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(3, 10))
            f = int(rng.integers(1, (n + 1) // 2))
            d = int(rng.integers(1, 5))
            honest = rng.normal(size=(n - f, d))
            bad = rng.normal(size=(f, d)) * 10 ** rng.uniform(0, 9)
            vectors = np.concatenate([honest, bad])
            rng.shuffle(vectors)  # adversarial rows land anywhere
            honest_max = np.linalg.norm(honest, axis=1).max()
            assert np.linalg.norm(cge_f(vectors, f)) <= (n - f) * honest_max + 1e-9

    def test_pure(self):
        vectors = np.random.default_rng(0).normal(size=(5, 3))
        first = cge_f(vectors, 2)
        second = cge_f(vectors.copy(), 2)
        assert np.array_equal(first, second)


class TestFuseEstimates:
    def test_trims_outlier_then_averages(self):
        assert fuse_estimates(0, [1, 2, 100], 1) == 1.0

    def test_constant_inputs(self):
        assert fuse_estimates(3.25, [3.25] * 5, 2) == 3.25

    def test_two_sided_trim(self):
        assert fuse_estimates(0, [-5, 1, 3, 7, 50], 2) == 1.5

    def test_propagates_trim_errors(self):
        with pytest.raises(ValueError):
            fuse_estimates(0.0, [1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError):
            fuse_estimates(0.0, [1.0, 2.0], -1)
        with pytest.raises(ValueError):
            fuse_estimates(np.zeros(2), np.zeros((4, 3)), 1)

    def test_exactly_2f_received_returns_own(self):
        # the minimum system n = 2f + 1: the trim discards every received value
        assert fuse_estimates(0.5, [1.0, 2.0], 1) == 0.5
        own = np.array([0.25, -3.0])
        assert np.array_equal(fuse_estimates(own, np.array([[9.0, 9.0], [-9.0, 1.0]]), 1), own)
        assert np.array_equal(fuse_estimates(own, np.empty((0, 2)), 0), own)

    def test_containment_under_adversarial_values(self):
        # up to f received values are arbitrary (huge magnitude); the fused
        # output must stay inside the honest range including our own value
        rng = np.random.default_rng(123)
        for _ in range(2000):
            f = int(rng.integers(1, 4))
            honest_count = int(rng.integers(f + 1, f + 8))
            own = float(rng.normal() * 10)
            honest = rng.normal(size=honest_count) * 10
            n_bad = int(rng.integers(0, f + 1))
            bad = rng.choice([-1, 1], size=n_bad) * 10 ** rng.uniform(6, 12, size=n_bad)
            received = np.concatenate([honest, bad])
            rng.shuffle(received)
            if received.size < 2 * f + 1:
                continue
            fused = fuse_estimates(own, received, f)
            lo = min(own, honest.min())
            hi = max(own, honest.max())
            assert lo <= fused <= hi
