import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import byzgrad.costs as costs_module
from byzgrad import (
    CostEnsemble,
    Hypercube,
    QuadraticCost,
    aggregate_minimizer,
    check_redundancy_sufficient,
    make_redundant_ensemble,
    spectral_constants,
)

FD_STEP = 1e-6


def fd_gradient(cost, x):
    """Central finite differences, the independent gradient oracle."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = FD_STEP
        out[k] = (cost(x + step) - cost(x - step)) / (2 * FD_STEP)
    return out


def random_psd_ensemble(rng, n, d, honest=None):
    costs = []
    for _ in range(n):
        m = rng.normal(size=(d, d))
        A = m @ m.T + 0.1 * np.eye(d)
        costs.append(QuadraticCost(A=A, b=rng.normal(size=d), c=float(rng.normal())))
    ids = frozenset(range(n)) if honest is None else frozenset(honest)
    return CostEnsemble(costs=tuple(costs), honest_set=ids)


# The full 2^d enumeration that spectral_constants ran before the blocked,
# bound-pruned sweep, kept verbatim as the oracle for zeta's exact bits.
def _max_gradient_norm_on_box(cost: QuadraticCost, xi: float, chunk: int = 1 << 16) -> float:
    """Exact max of ||Ax - b|| over the box, swept vertex by vertex."""
    d = cost.dim
    total = 1 << d
    shifts = np.arange(d, dtype=np.uint64)
    best = 0.0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)[:, None]
        signs = ((idx >> shifts) & np.uint64(1)).astype(np.float64)
        vertices = xi * (2.0 * signs - 1.0)
        grads = vertices @ cost.A.T - cost.b
        best = max(best, float(np.sqrt((grads * grads).sum(axis=1)).max()))
    return best


class CountedHessianReads:
    """A cost whose Hessian reads are counted: the sweep reads .A once to stack it, then once per evaluated block."""

    def __init__(self, cost, reads):
        self.cost, self.dim, self.b, self.reads = cost, cost.dim, cost.b, reads

    @property
    def A(self):
        self.reads.append(1)
        return self.cost.A


class TestQuadraticCost:
    def test_identity_hessian_gradient(self):
        cost = QuadraticCost(A=np.eye(2), b=np.zeros(2))
        assert np.array_equal(cost.gradient([2.0, 3.0]), [2.0, 3.0])

    def test_gradient_vanishes_at_minimizer(self):
        cost = QuadraticCost(A=np.eye(2), b=np.array([1.0, 1.0]))
        assert np.array_equal(cost.gradient([1.0, 1.0]), [0.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        cost = QuadraticCost(A=np.diag([2.0, 1.0]), b=np.array([2.0, 0.0]))
        x = np.array([0.0, 1.0])
        grad = cost.gradient(x)
        assert np.array_equal(grad, [-2.0, 1.0])
        assert np.allclose(grad, fd_gradient(cost, x), rtol=0, atol=1e-6)

    def test_rejects_asymmetric_hessian(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticCost(A=np.array([[1.0, 0.5], [0.0, 1.0]]), b=np.zeros(2))

    def test_rejects_indefinite_hessian(self):
        with pytest.raises(ValueError, match="semidefinite"):
            QuadraticCost(A=np.array([[-1.0]]), b=np.zeros(1))

    def test_dimension_mismatch(self):
        cost = QuadraticCost(A=np.eye(2), b=np.zeros(2))
        with pytest.raises(ValueError):
            cost.gradient([1.0, 2.0, 3.0])

    def test_fd_agreement_over_random_points(self):
        rng = np.random.default_rng(5)
        for ensemble in (random_psd_ensemble(rng, 3, 2), random_psd_ensemble(rng, 2, 4)):
            for cost in ensemble.costs:
                for _ in range(25):
                    x = rng.uniform(-5, 5, size=cost.dim)
                    grad = cost.gradient(x)
                    err = np.linalg.norm(grad - fd_gradient(cost, x))
                    assert err <= 1e-5 * max(1.0, np.linalg.norm(grad))


class TestAggregateMinimizer:
    def test_common_minimizer(self):
        c = np.array([1.5, -2.0])
        costs = tuple(QuadraticCost(A=np.eye(2), b=c) for _ in range(4))
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset(range(4)))
        assert np.allclose(aggregate_minimizer(ensemble), c, rtol=0, atol=1e-12)

    def test_identity_hessians_average_minimizers(self):
        costs = (
            QuadraticCost(A=np.eye(1), b=np.array([1.0])),
            QuadraticCost(A=np.eye(1), b=np.array([3.0])),
        )
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset({0, 1}))
        assert aggregate_minimizer(ensemble)[0] == pytest.approx(2.0, abs=1e-12)

    def test_stationarity_on_random_ensembles(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ensemble = random_psd_ensemble(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)))
            x_star = aggregate_minimizer(ensemble)
            total = sum(c.gradient(x_star) for c in ensemble.costs)
            assert np.linalg.norm(total) <= 1e-8

    def test_singular_aggregate_rejected(self):
        costs = (QuadraticCost(A=np.zeros((2, 2)), b=np.zeros(2)),)
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset({0}))
        with pytest.raises(ValueError, match="aggregate not strongly convex"):
            aggregate_minimizer(ensemble)

    def test_overflowing_sum_rejected(self):
        # each Hessian is finite, their sum is not; refused without a numpy warning
        costs = tuple(QuadraticCost(A=np.array([[1.0e308]]), b=np.zeros(1)) for _ in range(2))
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset({0, 1}))
        with pytest.raises(ValueError, match="summed honest costs overflow float64"):
            aggregate_minimizer(ensemble)

    def test_only_honest_agents_count(self):
        # the faulty agent's cost would drag the minimizer to +10 if included
        costs = (
            QuadraticCost(A=np.eye(1), b=np.array([0.0])),
            QuadraticCost(A=np.eye(1), b=np.array([2.0])),
            QuadraticCost(A=np.eye(1), b=np.array([10.0])),
        )
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset({0, 1}))
        assert aggregate_minimizer(ensemble)[0] == pytest.approx(1.0, abs=1e-12)


class TestMakeRedundantEnsemble:
    def test_unit_quadratics(self):
        ensemble = make_redundant_ensemble(3, 0, 1, [0.0], seed=1, eig_min=1.0, eig_max=1.0)
        for cost in ensemble.costs:
            assert np.array_equal(cost.A, np.eye(1))
            assert np.array_equal(cost.b, [0.0])

    def test_every_gradient_vanishes_at_x_star(self):
        x_star = [1.25, -3.5, 2.0]
        ensemble = make_redundant_ensemble(9, 2, 3, x_star, seed=4, eig_min=0.5, eig_max=3.0)
        for cost in ensemble.costs:
            assert np.linalg.norm(cost.gradient(np.asarray(x_star))) <= 1e-10

    def test_passes_redundancy_check(self):
        ensemble = make_redundant_ensemble(7, 3, 2, [0.5, 0.5], seed=9, eig_min=0.2, eig_max=5.0)
        assert check_redundancy_sufficient(ensemble, 3)

    def test_bit_reproducible(self):
        a = make_redundant_ensemble(5, 1, 4, [0.0] * 4, seed=123, eig_min=0.5, eig_max=2.0)
        b = make_redundant_ensemble(5, 1, 4, [0.0] * 4, seed=123, eig_min=0.5, eig_max=2.0)
        for ca, cb in zip(a.costs, b.costs):
            assert np.array_equal(ca.A, cb.A) and np.array_equal(ca.b, cb.b)

    def test_draws_are_pinned(self):
        # numpy does not hold Generator.uniform and .standard_normal stable across
        # versions (NEP 19), so their stream is pinned here; other OpenBLAS kernels
        # move these entries by up to 2.2e-16, well inside 1e-12
        ensemble = make_redundant_ensemble(n=2, f=0, d=3, x_star=np.zeros(3), seed=7, eig_min=0.5, eig_max=2.0)
        pinned = [
            [
                [1.5202356618681887, -0.024575547914977083, -0.1209303302594372],
                [-0.024575547914977083, 1.8086326488703275, 0.07123483061955692],
                [-0.1209303302594372, 0.07123483061955692, 1.6181241259906383],
            ],
            [
                [1.1566576434796403, 0.10345576893008007, -0.025240258740296853],
                [0.10345576893008007, 0.9264991344465493, -0.05143087550828884],
                [-0.025240258740296853, -0.05143087550828884, 1.2235844508158975],
            ],
        ]
        for cost, A in zip(ensemble.costs, pinned, strict=True):
            np.testing.assert_allclose(cost.A, A, rtol=0, atol=1e-12)

    def test_eigenvalues_within_spec(self):
        ensemble = make_redundant_ensemble(6, 1, 3, [0.0] * 3, seed=2, eig_min=0.5, eig_max=2.0)
        for cost in ensemble.costs:
            lo, hi = cost.eig_bounds()
            assert lo >= 0.5 - 1e-9 and hi <= 2.0 + 1e-9

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            make_redundant_ensemble(4, 2, 1, [0.0], seed=0, eig_min=1.0, eig_max=1.0)
        with pytest.raises(ValueError):
            make_redundant_ensemble(5, 1, 1, [0.0], seed=0, eig_min=0.0, eig_max=1.0)

    def test_refuses_hessians_larger_than_memory(self):
        # refused before x_star is read at dimension d or any Hessian is built
        with pytest.raises(ValueError, match="d = 100000000 is too large"):
            make_redundant_ensemble(5, 1, 10**8, [0.0], seed=0, eig_min=1.0, eig_max=1.0)


class TestRedundancyCheck:
    def test_distinct_minimizers_fail(self):
        costs = (
            QuadraticCost(A=np.eye(1), b=np.array([1.0])),
            QuadraticCost(A=np.eye(1), b=np.array([3.0])),
            QuadraticCost(A=np.eye(1), b=np.array([2.0])),
        )
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset(range(3)))
        assert not check_redundancy_sufficient(ensemble, 1)

    def test_f_zero_is_always_redundant(self):
        rng = np.random.default_rng(3)
        ensemble = random_psd_ensemble(rng, 4, 2)
        assert check_redundancy_sufficient(ensemble, 0)

    def test_requires_strict_convexity(self):
        costs = (
            QuadraticCost(A=np.zeros((1, 1)), b=np.zeros(1)),
            QuadraticCost(A=np.eye(1), b=np.zeros(1)),
            QuadraticCost(A=np.eye(1), b=np.zeros(1)),
        )
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset(range(3)))
        with pytest.raises(ValueError, match="strictly convex"):
            check_redundancy_sufficient(ensemble, 1)


class TestSpectralConstants:
    def test_isotropic_d1(self):
        ensemble = make_redundant_ensemble(5, 0, 1, [0.0], seed=0, eig_min=1.0, eig_max=1.0)
        consts = spectral_constants(ensemble, 0, Hypercube(1.0, 1))
        assert consts.mu == pytest.approx(1.0, abs=1e-12)
        assert consts.lam == pytest.approx(1.0, abs=1e-12)
        assert consts.alpha == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_margin_formula_d3(self):
        ensemble = make_redundant_ensemble(10, 2, 3, [0.0] * 3, seed=0, eig_min=1.0, eig_max=1.0)
        consts = spectral_constants(ensemble, 2, Hypercube(10.0, 3))
        expected = 1.0 / (1.0 + 2.0 * np.sqrt(3.0)) - 0.2
        assert consts.alpha == pytest.approx(expected, abs=1e-12)
        assert consts.alpha > 0

    def test_gradient_bound_by_vertex_enumeration(self):
        # Q = x^2/2 on [-1, 1]: the largest gradient magnitude is 1, and
        # four survive elimination
        ensemble = make_redundant_ensemble(5, 1, 1, [0.0], seed=0, eig_min=1.0, eig_max=1.0)
        consts = spectral_constants(ensemble, 1, Hypercube(1.0, 1))
        assert consts.zeta == pytest.approx(4.0, abs=1e-12)
        assert consts.zeta_exact

    def test_zeta_matches_grid_search(self):
        rng = np.random.default_rng(21)
        ensemble = random_psd_ensemble(rng, 4, 2, honest=range(3))
        box = Hypercube(2.0, 2)
        consts = spectral_constants(ensemble, 1, box)
        # dense grid over the box can only undershoot the true vertex max
        grid = np.linspace(-2.0, 2.0, 41)
        best = 0.0
        for cost in ensemble.honest_costs():
            for x0 in grid:
                for x1 in grid:
                    best = max(best, np.linalg.norm(cost.gradient(np.array([x0, x1]))))
        assert consts.zeta >= 3 * best - 1e-9
        assert consts.zeta == pytest.approx(3 * best, rel=1e-9)  # max sits at a grid corner

    @settings(max_examples=120, deadline=None)
    @given(
        d=st.integers(1, 13),
        h=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        log_xi=st.floats(-3.0, 3.0),
        b_at_minimizer=st.booleans(),
    )
    def test_zeta_equals_full_enumeration_bit_for_bit(self, d, h, seed, log_xi, b_at_minimizer):
        rng = np.random.default_rng(seed)
        costs = []
        for _ in range(h):
            m = rng.normal(size=(d, int(rng.integers(0, d + 1)))) * 10.0 ** rng.uniform(-2.0, 2.0)
            A = m @ m.T  # rank 0 to d
            b = A @ rng.normal(size=d) if b_at_minimizer else rng.normal(size=d) * 10.0 ** rng.uniform(-3.0, 3.0)
            costs.append(QuadraticCost(A=0.5 * (A + A.T), b=b))
        xi = 10.0**log_xi
        expected = max(_max_gradient_norm_on_box(c, xi) for c in costs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(costs_module, "_BLOCK_DIM", 2)  # many blocks, so pruning is exercised at small d
            assert costs_module._max_gradient_norm_on_box(costs, xi) == expected
        assert costs_module._max_gradient_norm_on_box(costs, xi) == expected

    @pytest.mark.parametrize("d", [1, 3, 7, 13])
    def test_zeta_with_every_vertex_tied(self, d, monkeypatch):
        # A = 1.5 I, b = 0: every vertex has norm 1.5 xi sqrt(d), so no bound can skip a block
        monkeypatch.setattr(costs_module, "_BLOCK_DIM", 2)
        costs = tuple(QuadraticCost(A=1.5 * np.eye(d), b=np.zeros(d)) for _ in range(3))
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset(range(3)))
        box = Hypercube(0.7, d)
        zeta = spectral_constants(ensemble, 1, box).zeta
        assert zeta == 2 * _max_gradient_norm_on_box(costs[0], box.xi)
        assert zeta == pytest.approx(2 * 1.5 * 0.7 * np.sqrt(d), rel=1e-14)

    def test_bounds_skip_blocks_that_cannot_hold_the_maximum(self, monkeypatch):
        # one stiff coordinate among many soft ones: most blocks' bounds fall
        # below the first block's maximum, so few of the 2^(d-2) blocks are evaluated
        monkeypatch.setattr(costs_module, "_BLOCK_DIM", 2)
        d = 10
        cost = QuadraticCost(A=np.diag([1.0] * (d - 1) + [50.0]), b=np.full(d, 0.25))
        evaluated = []
        got = costs_module._max_gradient_norm_on_box([CountedHessianReads(cost, evaluated)], 1.0)
        assert got == _max_gradient_norm_on_box(cost, 1.0)
        assert 1 <= len(evaluated) - 1 < 2 ** (d - 2) // 4

    def test_estimates_skip_blocks_the_bounds_visit(self):
        # a generated d = 14 ensemble at the default block size: every pair whose
        # bound clearly exceeds the maximum is visited, yet few blocks are evaluated
        d, xi = 14, 1.5
        ensemble = make_redundant_ensemble(8, 0, d, np.full(d, 0.3), seed=1, eig_min=0.5, eig_max=2.0)
        evaluated = []
        honest = ensemble.honest_costs()
        got = costs_module._max_gradient_norm_on_box([CountedHessianReads(c, evaluated) for c in honest], xi)
        assert got == max(_max_gradient_norm_on_box(c, xi) for c in honest)
        low = costs_module._BLOCK_DIM
        v_low, v_high = costs_module._box_vertices(low, xi), costs_module._box_vertices(d - low, xi)
        vertices = costs_module._box_vertices(d, xi)
        top = max(float(((vertices @ c.A.T - c.b) ** 2).sum(axis=1).max()) for c in honest)
        visited = 0  # the bound-ordered sweep stops only below the maximum, so these pairs are all visited
        for cost in honest:
            a_low, a_high = cost.A[:, :low], cost.A[:, low:]
            quad_max = ((v_low @ (a_low.T @ a_low)) * v_low).sum(axis=1).max()
            for v in v_high:
                c = a_high @ v - cost.b
                visited += c @ c + 2 * xi * np.abs(a_low.T @ c).sum() + quad_max > top * (1 + 1e-3)
        assert 1 <= len(evaluated) - len(honest) < visited

    @pytest.mark.parametrize("block_dim", [2, costs_module._BLOCK_DIM], ids=["block_dim_2", "block_dim_default"])
    @pytest.mark.parametrize("seed", [4, 29, 93, 148, 169, 721, 822])
    def test_near_tie_copies_equal_full_enumeration(self, seed, block_dim, monkeypatch):
        # one cost and copies whose A or b sit an ulp away, so blocks of different
        # costs tie within rounding. Among 1500 seeds, these are ones where a skip
        # or a stop without its margin, or a skip that ends the sweep, returned
        # a different zeta (a few in the last ulp)
        monkeypatch.setattr(costs_module, "_BLOCK_DIM", block_dim)
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 15))
        m = rng.normal(size=(d, d))
        A, b = m @ m.T, rng.normal(size=d) * 10.0 ** rng.uniform(-2.0, 2.0)
        costs = [
            QuadraticCost(A=A, b=b),
            QuadraticCost(A=A * (1 + 2.0**-52), b=b),
            QuadraticCost(A=A, b=b * (1 - 2.0**-53)),
            QuadraticCost(A=A * (1 + 2.0**-52), b=b * (1 - 2.0**-53)),
        ]
        xi = 10.0 ** rng.uniform(-1.0, 1.0)
        expected = max(_max_gradient_norm_on_box(c, xi) for c in costs)
        for order in (costs, costs[::-1]):
            assert costs_module._max_gradient_norm_on_box(order, xi) == expected

    def test_block_whose_bound_overflows_is_evaluated(self, monkeypatch):
        # A_L'A_L overflows to [[inf, -inf], [-inf, inf]], so the stiff cost's bound
        # is NaN, yet every squared norm on the small box is finite; the flat costs'
        # finite bounds, 1 and then 0.25, must not end the sweep before the stiff
        # cost is evaluated
        monkeypatch.setattr(costs_module, "_BLOCK_DIM", 2)  # two blocks per cost, so the bounds are used
        stiff = QuadraticCost(A=1.0e155 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), b=np.zeros(3))
        flat = [QuadraticCost(A=np.zeros((3, 3)), b=np.array([0.0, 0.0, b])) for b in (1.0, 0.5)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = costs_module._max_gradient_norm_on_box([*flat, stiff], 1e-3)
        assert got == _max_gradient_norm_on_box(stiff, 1e-3) == pytest.approx(3.0e152, rel=1e-15)

    def test_high_dim_falls_back_to_bound(self):
        d = 21
        ensemble = make_redundant_ensemble(3, 1, d, [0.0] * d, seed=0, eig_min=1.0, eig_max=1.0)
        box = Hypercube(1.0, d)
        consts = spectral_constants(ensemble, 1, box)
        assert not consts.zeta_exact
        # true max over the box for A=I, b=0 is sqrt(d)*xi per agent
        assert consts.zeta >= 2 * np.sqrt(d) * 1.0 - 1e-9

    @pytest.mark.parametrize(
        "scales, d, bad",
        [
            ((0.0, 0.0), 1, "alpha = nan"),  # all-zero Hessians: alpha is 0/0
            ((1.0e308, 1.0), 1, "zeta = inf"),  # the vertex sweep overflows
            ((1.0e308, 1.0), 21, "zeta = inf"),  # so does the analytic bound above the vertex limit
        ],
        ids=["zero_hessians", "overflow_exact", "overflow_bound"],
    )
    def test_non_finite_constants_refused(self, scales, d, bad):
        costs = tuple(QuadraticCost(A=scale * np.eye(d), b=np.zeros(d)) for scale in scales)
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset(range(len(costs))))
        # the warning filter turns any numpy RuntimeWarning into an error here
        with pytest.raises(ValueError, match=rf"constants are not finite: .*{bad}"):
            spectral_constants(ensemble, 0, Hypercube(10.0, d))

    def test_zeta_whose_square_overflows_refused(self):
        costs = tuple(QuadraticCost(A=np.array([[1.0e150]]), b=np.zeros(1)) for _ in range(3))
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset(range(3)))
        # zeta = 3e154 is finite; the squared norms of filtered gradients it bounds are not
        with pytest.raises(ValueError, match=r"^zeta = 3e\+154 bounds filtered-gradient norms whose squares overflow"):
            spectral_constants(ensemble, 0, Hypercube(1.0e4, 1))

    def test_zeta_bounds_honest_subset_sums(self):
        rng = np.random.default_rng(8)
        n, f, d = 6, 1, 3
        ensemble = make_redundant_ensemble(n, f, d, [0.2, -0.4, 0.8], seed=5, eig_min=0.3, eig_max=2.5)
        box = Hypercube(3.0, d)
        consts = spectral_constants(ensemble, f, box)
        ids = ensemble.honest_ids()
        for _ in range(50):
            points = {i: rng.uniform(-box.xi, box.xi, size=d) for i in ids}
            grads = {i: ensemble.costs[i].gradient(points[i]) for i in ids}
            for combo in itertools.combinations(ids, n - f):
                total = sum(grads[i] for i in combo)
                assert np.linalg.norm(total) <= consts.zeta + 1e-9

    def test_strong_convexity_and_lipschitz_witnesses(self):
        rng = np.random.default_rng(31)
        ensemble = random_psd_ensemble(rng, 5, 3, honest=range(4))
        box = Hypercube(4.0, 3)
        consts = spectral_constants(ensemble, 1, box)
        mean_hessian = sum(c.A for c in ensemble.honest_costs()) / 4
        for _ in range(200):
            x = rng.uniform(-box.xi, box.xi, size=3)
            y = rng.uniform(-box.xi, box.xi, size=3)
            gap = x - y
            mean_diff = mean_hessian @ gap
            assert gap @ mean_diff >= consts.lam * gap @ gap - 1e-9
            for cost in ensemble.honest_costs():
                diff = cost.gradient(x) - cost.gradient(y)
                assert np.linalg.norm(diff) <= consts.mu * np.linalg.norm(gap) + 1e-9

    def test_faulty_costs_do_not_affect_constants(self):
        stiff = QuadraticCost(A=100.0 * np.eye(1), b=np.zeros(1))
        soft = QuadraticCost(A=np.eye(1), b=np.zeros(1))
        ensemble = CostEnsemble(costs=(soft, soft, stiff), honest_set=frozenset({0, 1}))
        consts = spectral_constants(ensemble, 1, Hypercube(1.0, 1))
        assert consts.mu == pytest.approx(1.0)
