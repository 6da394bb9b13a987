import numpy as np
import pytest

from byzgrad import (
    AdversaryStrategy,
    Hypercube,
    ObservedRound,
    QuadraticCost,
    RoundMessage,
    StepSchedule,
    adversary_emit,
    cge_f,
    eta,
    fuse_estimates,
    honest_round,
    project_box,
)
from byzgrad.seeds import PURPOSE_ADVERSARY, CounterStream, substream


def zero_cost(d):
    return QuadraticCost(A=np.zeros((d, d)), b=np.zeros(d))


def make_observed(estimates, gradients, xi, zeta):
    est = np.asarray(estimates, dtype=float)
    return ObservedRound(est, np.asarray(gradients, dtype=float), Hypercube(xi, est.shape[1]), zeta)


def stream(seed):
    return CounterStream(seed, PURPOSE_ADVERSARY)


def reference_step(me, x, cost, inbox, eta_t, f, box):
    """Straight-line composition: per-coordinate fusion, elimination, projection.

    Agent `me` sits at `x` with local `cost`; `inbox` maps every other
    sender id to its message.
    """
    senders = sorted(inbox)
    fused = np.array([fuse_estimates(x[k], [inbox[j].estimate[k] for j in senders], f) for k in range(x.size)])
    ordered_ids = sorted(senders + [me])
    grads = [cost.gradient(x) if j == me else inbox[j].grad for j in ordered_ids]
    filtered = cge_f(np.stack(grads), f)
    return project_box(fused - eta_t * filtered, box)


def inbox_arrays(me, x, cost, inbox):
    """The id-indexed (n, d) estimates and gradients for a sender-keyed inbox.

    Senders and agent `me` must cover the ids 0..n-1; the agent's own row
    holds `x` and the gradient of its `cost` there.
    """
    estimates = np.empty((len(inbox) + 1, x.size))
    gradients = np.empty_like(estimates)
    estimates[me] = x
    gradients[me] = cost.gradient(x)
    for j, msg in inbox.items():
        estimates[j] = msg.estimate
        gradients[j] = msg.grad
    return estimates, gradients


class TestStepSchedule:
    def test_harmonic_start(self):
        assert eta(StepSchedule(kind="harmonic", eta0=1.0), 0) == 1.0

    def test_harmonic_decay(self):
        assert eta(StepSchedule(kind="harmonic", eta0=1.0), 9) == pytest.approx(0.1, abs=1e-15)

    def test_polynomial(self):
        schedule = StepSchedule(kind="polynomial", eta0=2.0, p=0.75)
        assert eta(schedule, 15) == pytest.approx(0.25, abs=1e-15)

    def test_non_increasing_up_to_1e6(self):
        schedules = [
            StepSchedule(kind="harmonic", eta0=3.0),
            StepSchedule(kind="polynomial", eta0=1.0, p=0.51),
            StepSchedule(kind="polynomial", eta0=0.5, p=1.0),
        ]
        ts = np.unique(np.geomspace(1, 10**6, 200).astype(int))
        for schedule in schedules:
            values = [eta(schedule, int(t)) for t in [0, *ts]]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            StepSchedule(kind="polynomial", eta0=1.0, p=0.5)
        with pytest.raises(ValueError):
            StepSchedule(kind="polynomial", eta0=1.0, p=1.01)

    def test_invalid_eta0(self):
        with pytest.raises(ValueError):
            StepSchedule(kind="harmonic", eta0=0.0)

    def test_negative_iteration(self):
        with pytest.raises(ValueError):
            eta(StepSchedule(kind="harmonic", eta0=1.0), -1)


class TestHonestStep:
    def test_fixed_point_when_settled(self):
        # everyone already sits at the common minimizer: nothing moves
        d, c = 2, np.array([0.5, -0.25])
        cost = QuadraticCost(A=np.eye(d), b=c)
        inbox = {j: RoundMessage(c.copy(), np.zeros(d)) for j in (1, 2, 3)}
        out = honest_round(0, *inbox_arrays(0, c.copy(), cost, inbox), 0.7, 0, Hypercube(5.0, d)).estimate
        assert np.array_equal(out, c)

    def test_fusion_trims_then_gradient_steps(self):
        inbox = {
            1: RoundMessage(np.array([1.0]), np.zeros(1)),
            2: RoundMessage(np.array([2.0]), np.zeros(1)),
            3: RoundMessage(np.array([100.0]), np.zeros(1)),
        }
        arrays = inbox_arrays(0, np.array([0.0]), zero_cost(1), inbox)
        out = honest_round(0, *arrays, 1.0, 1, Hypercube(10.0, 1)).estimate
        assert out[0] == 1.0

    def test_matches_reference_composition(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            f = int(rng.integers(0, (n - 1) // 2 + 1)) if n >= 4 else 0
            if n - 1 < 2 * f + 1:
                f = 0
            d = int(rng.integers(1, 5))
            box = Hypercube(5.0, d)
            me = int(rng.integers(0, n))
            m = rng.normal(size=(d, d))
            cost = QuadraticCost(A=m @ m.T, b=rng.normal(size=d))
            x = rng.uniform(-5, 5, size=d)
            inbox = {
                j: RoundMessage(rng.uniform(-8, 8, size=d), rng.normal(size=d) * 3)
                for j in range(n)
                if j != me
            }
            eta_t = float(rng.uniform(0.01, 1.0))
            got = honest_round(me, *inbox_arrays(me, x, cost, inbox), eta_t, f, box).estimate
            want = reference_step(me, x, cost, inbox, eta_t, f, box)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert (np.abs(got) <= box.xi).all()

    def test_reduces_to_summed_gradient_descent_when_fault_free(self):
        # identical estimates, f = 0: the update direction is exactly the
        # sum of all local gradients
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            x = rng.uniform(-2, 2, size=d)
            costs = []
            for _ in range(n):
                m = rng.normal(size=(d, d))
                costs.append(QuadraticCost(A=m @ m.T, b=rng.normal(size=d)))
            box = Hypercube(50.0, d)
            eta_t = 0.05
            inbox = {j: RoundMessage(x.copy(), costs[j].gradient(x)) for j in range(1, n)}
            outcome = honest_round(0, *inbox_arrays(0, x.copy(), costs[0], inbox), eta_t, 0, box)
            total = sum(costs[j].gradient(x) for j in range(n))
            assert np.abs(outcome.filtered_gradient - total).max() <= 1e-12
            expected = project_box(x - eta_t * total, box)
            assert np.abs(outcome.estimate - expected).max() <= 1e-12

    def test_single_agent_degenerates_to_projected_descent(self):
        cost = QuadraticCost(A=np.eye(1), b=np.zeros(1))
        out = honest_round(0, *inbox_arrays(0, np.array([1.0]), cost, {}), 0.5, 0, Hypercube(1.0, 1)).estimate
        assert out[0] == 0.5

    def test_stays_in_box_under_hostile_inbox(self):
        rng = np.random.default_rng(2)
        d = 2
        box = Hypercube(1.0, d)
        cost = QuadraticCost(A=np.eye(d), b=np.zeros(d))
        for _ in range(100):
            x = rng.uniform(-1, 1, size=d)
            inbox = {
                j: RoundMessage(rng.normal(size=d) * 10.0 ** rng.integers(0, 10), rng.normal(size=d) * 100)
                for j in range(1, 6)
            }
            out = honest_round(0, *inbox_arrays(0, x, cost, inbox), float(rng.uniform(0, 2)), 2, box).estimate
            assert (np.abs(out) <= box.xi).all()

    def test_pure(self):
        inbox = {
            0: RoundMessage(np.array([1.0, 1.0]), np.array([0.5, 0.5])),
            2: RoundMessage(np.array([-1.0, 2.0]), np.array([1.5, -0.5])),
            3: RoundMessage(np.array([0.0, 0.0]), np.array([0.0, 0.1])),
        }
        arrays = inbox_arrays(1, np.array([0.3, -0.7]), zero_cost(2), inbox)
        box = Hypercube(3.0, 2)
        first = honest_round(1, *arrays, 0.25, 1, box)
        second = honest_round(1, *arrays, 0.25, 1, box)
        assert np.array_equal(first.estimate, second.estimate)

    def test_malformed_inbox_names_the_agent(self):
        box = Hypercube(1.0, 1)
        # four received messages cannot be trimmed with f = 3
        with pytest.raises(ValueError, match="agent 4"):
            honest_round(4, np.zeros((5, 1)), np.zeros((5, 1)), 0.1, 3, box)
        # no row for the agent's own id
        with pytest.raises(ValueError, match="agent 4"):
            honest_round(4, np.zeros((3, 1)), np.zeros((3, 1)), 0.1, 0, box)
        # gradients of another dimension than the estimates
        with pytest.raises(ValueError, match="agent 4"):
            honest_round(4, np.zeros((5, 1)), np.zeros((5, 2)), 0.1, 0, box)

    def test_lone_agent_with_positive_f_rejected(self):
        with pytest.raises(ValueError):
            honest_round(0, *inbox_arrays(0, np.zeros(1), zero_cost(1), {}), 0.1, 1, Hypercube(1.0, 1))


class TestAdversaries:
    def test_sign_flip_negates_mean_gradient(self):
        observed = make_observed([[0.0, 0.0], [2.0, 2.0]], [[1.0, -2.0], [1.0, -2.0]], 5.0, 10.0)
        strategy = AdversaryStrategy(kind="sign_flip", seed=0)
        msg = adversary_emit(strategy, 0, 9, 1, observed, stream(strategy.seed))
        assert np.array_equal(msg.grad, [-1.0, 2.0])
        assert np.array_equal(msg.estimate, [1.0, 1.0])

    def test_norm_inflate_scales(self):
        observed = make_observed([[0.0]], [[1.0]], 5.0, 10.0)
        strategy = AdversaryStrategy(kind="norm_inflate", scale=10.0, seed=0)
        msg = adversary_emit(strategy, 3, 9, 0, observed, stream(strategy.seed))
        assert np.linalg.norm(msg.grad) == pytest.approx(10.0, abs=1e-12)

    def test_coord_extreme_picks_far_corner(self):
        observed = make_observed([[1.0, -3.0], [2.0, -1.0], [3.0, -2.0]], np.zeros((3, 2)), 5.0, 1.0)
        strategy = AdversaryStrategy(kind="coord_extreme", seed=0)
        msg = adversary_emit(strategy, 0, 9, 0, observed, stream(strategy.seed))
        # medians (2, -2): farthest corners are -5 and +5
        assert np.array_equal(msg.estimate, [-5.0, 5.0])
        assert np.array_equal(msg.grad, [0.0, 0.0])

    def test_random_in_box_replays_identically(self):
        observed = make_observed([[0.5, 0.5]], [[1.0, 1.0]], 2.0, 7.0)
        strategy = AdversaryStrategy(kind="random_in_box", seed=99)
        first = adversary_emit(strategy, 11, 8, 3, observed, stream(strategy.seed))
        second = adversary_emit(strategy, 11, 8, 3, observed, stream(strategy.seed))
        assert np.array_equal(first.estimate, second.estimate)
        assert np.array_equal(first.grad, second.grad)
        assert (np.abs(first.estimate) <= 2.0).all()
        assert (np.abs(first.grad) <= 7.0).all()

    def test_random_in_box_differs_across_receivers_and_rounds(self):
        observed = make_observed([[0.0]], [[0.0]], 1.0, 1.0)
        strategy = AdversaryStrategy(kind="random_in_box", seed=1)
        a = adversary_emit(strategy, 0, 9, 1, observed, stream(strategy.seed))
        b = adversary_emit(strategy, 0, 9, 2, observed, stream(strategy.seed))
        c = adversary_emit(strategy, 1, 9, 1, observed, stream(strategy.seed))
        assert not np.array_equal(a.estimate, b.estimate)
        assert not np.array_equal(a.estimate, c.estimate)

    def test_stream_matches_fresh_generators(self):
        observed = make_observed([[0.25, -0.5]], [[0.0, 0.0]], 3.0, 4.0)
        strategy = AdversaryStrategy(kind="random_in_box", seed=5)
        msg = adversary_emit(strategy, 7, 6, 2, observed, stream(5))
        # the strategy draws its estimate, then its gradient, from the (7, 6, 2) substream
        fresh = substream(5, PURPOSE_ADVERSARY, 7, 6, 2)
        assert np.array_equal(msg.estimate, fresh.uniform(-3.0, 3.0, size=2))
        assert np.array_equal(msg.grad, fresh.uniform(-4.0, 4.0, size=2))

    def test_collude_target_pulls_with_norm_zeta(self):
        observed = make_observed([[1.0, 0.0], [3.0, 0.0]], np.zeros((2, 2)), 5.0, 6.0)
        target = np.array([-2.0, 0.0])
        strategy = AdversaryStrategy(kind="collude_target", target=target, seed=0)
        msg = adversary_emit(strategy, 0, 9, 1, observed, stream(strategy.seed))
        assert np.array_equal(msg.estimate, target)
        assert np.linalg.norm(msg.grad) == pytest.approx(6.0, abs=1e-12)
        # pull points from the target toward the honest mean (2, 0)
        assert msg.grad[0] > 0

    def test_collude_target_zero_pull_degenerates(self):
        observed = make_observed([[1.0]], np.zeros((1, 1)), 5.0, 6.0)
        strategy = AdversaryStrategy(kind="collude_target", target=np.array([1.0]), seed=0)
        assert np.array_equal(adversary_emit(strategy, 0, 9, 0, observed, stream(strategy.seed)).grad, [0.0])

    def test_collude_target_random_estimates_mode(self):
        observed = make_observed([[1.0], [2.0]], np.zeros((2, 1)), 5.0, 6.0)
        strategy = AdversaryStrategy(
            kind="collude_target", target=np.array([4.0]), estimates="random_in_box", seed=3
        )
        a = adversary_emit(strategy, 0, 9, 1, observed, stream(strategy.seed))
        b = adversary_emit(strategy, 0, 9, 2, observed, stream(strategy.seed))
        assert not np.array_equal(a.estimate, b.estimate)  # per-receiver inconsistency
        assert np.array_equal(a.grad, b.grad)  # the colluding pull stays agreed
        assert abs(a.estimate[0]) <= 5.0

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            AdversaryStrategy(kind="nonsense")
        with pytest.raises(ValueError):
            AdversaryStrategy(kind="norm_inflate")
        with pytest.raises(ValueError):
            AdversaryStrategy(kind="collude_target")
        with pytest.raises(ValueError):
            AdversaryStrategy(kind="collude_target", target=np.zeros(2), estimates="bogus")
