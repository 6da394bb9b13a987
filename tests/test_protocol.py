import math

import numpy as np
import pytest

from byzgrad import (
    AdversaryStrategy,
    Hypercube,
    ObservedRound,
    QuadraticCost,
    StepSchedule,
    adversary_emit,
    eta,
    honest_round,
)
from byzgrad.seeds import PURPOSE_ADVERSARY, CounterStream


def zero_cost(d):
    return QuadraticCost(A=np.zeros((d, d)), b=np.zeros(d))


def make_observed(estimates, gradients, xi, zeta, strategy):
    est = np.asarray(estimates, dtype=float)
    return ObservedRound(est, np.asarray(gradients, dtype=float), Hypercube(xi, est.shape[1]), zeta, strategy)


def stream(seed, strategy, observed):
    """The adversary CounterStream of a run with agent ids 0..9."""
    return CounterStream(seed, PURPOSE_ADVERSARY, range(10), 10, *strategy.draw_bounds(observed.box, observed.zeta))


def reference_step(me, x, cost, inbox, eta_t, f, box):
    """Straight-line composition in plain Python, independent of the package.

    Agent `me` sits at `x` with local `cost`; `inbox` maps every other
    sender id to its (estimate, gradient) pair. Per coordinate, the f
    smallest and f largest received values are dropped (a sorted() slice)
    and the rest averaged with our own; the f largest-norm gradients of all
    n are dropped and the rest summed; the step is clamped into the box.
    """
    senders = sorted(inbox)
    fused = []
    for k in range(x.size):
        kept = sorted(float(inbox[j][0][k]) for j in senders)[f : len(senders) - f]
        fused.append((float(x[k]) + sum(kept)) / (1 + len(kept)))
    grads = [cost.gradient(x) if j == me else inbox[j][1] for j in sorted(senders + [me])]
    order = sorted(range(len(grads)), key=lambda i: math.sqrt(sum(float(c) ** 2 for c in grads[i])))
    filtered = [sum(float(grads[i][k]) for i in order[: len(grads) - f]) for k in range(x.size)]
    return np.array([min(max(u - eta_t * g, -box.xi), box.xi) for u, g in zip(fused, filtered)])


def inbox_arrays(me, x, cost, inbox):
    """The id-indexed (n, d) estimates and gradients for a sender-keyed inbox.

    Senders and agent `me` must cover the ids 0..n-1; the agent's own row
    holds `x` and the gradient of its `cost` there.
    """
    estimates = np.empty((len(inbox) + 1, x.size))
    gradients = np.empty_like(estimates)
    estimates[me] = x
    gradients[me] = cost.gradient(x)
    for j, (estimate, grad) in inbox.items():
        estimates[j] = estimate
        gradients[j] = grad
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
        inbox = {j: (c.copy(), np.zeros(d)) for j in (1, 2, 3)}
        out = honest_round(0, *inbox_arrays(0, c.copy(), cost, inbox), 0.7, 0, Hypercube(5.0, d)).estimate
        assert np.array_equal(out, c)

    def test_fusion_trims_then_gradient_steps(self):
        inbox = {
            1: (np.array([1.0]), np.zeros(1)),
            2: (np.array([2.0]), np.zeros(1)),
            3: (np.array([100.0]), np.zeros(1)),
        }
        arrays = inbox_arrays(0, np.array([0.0]), zero_cost(1), inbox)
        out = honest_round(0, *arrays, 1.0, 1, Hypercube(10.0, 1)).estimate
        assert out[0] == 1.0

    def test_matches_reference_composition(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            # up to the minimum system n = 2f + 1, where the trim keeps no received value
            f = int(rng.integers(0, (n - 1) // 2 + 1))
            d = int(rng.integers(1, 5))
            box = Hypercube(5.0, d)
            me = int(rng.integers(0, n))
            m = rng.normal(size=(d, d))
            cost = QuadraticCost(A=m @ m.T, b=rng.normal(size=d))
            x = rng.uniform(-5, 5, size=d)
            inbox = {
                j: (rng.uniform(-8, 8, size=d), rng.normal(size=d) * 3)
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
            inbox = {j: (x.copy(), costs[j].gradient(x)) for j in range(1, n)}
            outcome = honest_round(0, *inbox_arrays(0, x.copy(), costs[0], inbox), eta_t, 0, box)
            total = sum(costs[j].gradient(x) for j in range(n))
            assert np.abs(outcome.filtered_gradient - total).max() <= 1e-12
            expected = np.clip(x - eta_t * total, -box.xi, box.xi)
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
                j: (rng.normal(size=d) * 10.0 ** rng.integers(0, 10), rng.normal(size=d) * 100)
                for j in range(1, 6)
            }
            out = honest_round(0, *inbox_arrays(0, x, cost, inbox), float(rng.uniform(0, 2)), 2, box).estimate
            assert (np.abs(out) <= box.xi).all()

    def test_pure(self):
        inbox = {
            0: (np.array([1.0, 1.0]), np.array([0.5, 0.5])),
            2: (np.array([-1.0, 2.0]), np.array([1.5, -0.5])),
            3: (np.array([0.0, 0.0]), np.array([0.0, 0.1])),
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
        # a non-finite estimate, refused by the fusion
        with pytest.raises(ValueError, match="agent 4: cannot fuse non-finite"):
            honest_round(4, np.full((5, 1), np.nan), np.zeros((5, 1)), 0.1, 0, box)

    def test_lone_agent_with_positive_f_rejected(self):
        with pytest.raises(ValueError):
            honest_round(0, *inbox_arrays(0, np.zeros(1), zero_cost(1), {}), 0.1, 1, Hypercube(1.0, 1))


class TestAdversaries:
    def test_sign_flip_negates_mean_gradient(self):
        strategy = AdversaryStrategy(kind="sign_flip")
        observed = make_observed([[0.0, 0.0], [2.0, 2.0]], [[1.0, -2.0], [1.0, -2.0]], 5.0, 10.0, strategy)
        estimate, grad = adversary_emit(strategy, 0, 9, 1, observed, stream(0, strategy, observed))
        assert np.array_equal(grad, [-1.0, 2.0])
        assert np.array_equal(estimate, [1.0, 1.0])

    def test_norm_inflate_scales(self):
        strategy = AdversaryStrategy(kind="norm_inflate", scale=10.0)
        observed = make_observed([[0.0]], [[1.0]], 5.0, 10.0, strategy)
        estimate, grad = adversary_emit(strategy, 3, 9, 0, observed, stream(0, strategy, observed))
        assert np.linalg.norm(grad) == pytest.approx(10.0, abs=1e-12)

    def test_coord_extreme_picks_far_corner(self):
        strategy = AdversaryStrategy(kind="coord_extreme")
        observed = make_observed([[1.0, -3.0], [2.0, -1.0], [3.0, -2.0]], np.zeros((3, 2)), 5.0, 1.0, strategy)
        estimate, grad = adversary_emit(strategy, 0, 9, 0, observed, stream(0, strategy, observed))
        # medians (2, -2): farthest corners are -5 and +5
        assert np.array_equal(estimate, [-5.0, 5.0])
        assert np.array_equal(grad, [0.0, 0.0])

    def test_random_in_box_replays_identically(self):
        strategy = AdversaryStrategy(kind="random_in_box")
        observed = make_observed([[0.5, 0.5]], [[1.0, 1.0]], 2.0, 7.0, strategy)
        first_estimate, first_grad = adversary_emit(strategy, 11, 8, 3, observed, stream(99, strategy, observed))
        second_estimate, second_grad = adversary_emit(strategy, 11, 8, 3, observed, stream(99, strategy, observed))
        assert np.array_equal(first_estimate, second_estimate)
        assert np.array_equal(first_grad, second_grad)
        assert (np.abs(first_estimate) <= 2.0).all()
        assert (np.abs(first_grad) <= 7.0).all()

    def test_random_in_box_differs_across_receivers_and_rounds(self):
        strategy = AdversaryStrategy(kind="random_in_box")
        observed = make_observed([[0.0]], [[0.0]], 1.0, 1.0, strategy)
        a, _ = adversary_emit(strategy, 0, 9, 1, observed, stream(1, strategy, observed))
        b, _ = adversary_emit(strategy, 0, 9, 2, observed, stream(1, strategy, observed))
        c, _ = adversary_emit(strategy, 1, 9, 1, observed, stream(1, strategy, observed))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_matches_fresh_generators(self):
        strategy = AdversaryStrategy(kind="random_in_box")
        observed = make_observed([[0.25, -0.5]], [[0.0, 0.0]], 3.0, 4.0, strategy)
        estimate, grad = adversary_emit(strategy, 7, 6, 2, observed, stream(5, strategy, observed))
        # the strategy draws its estimate, then its gradient, from row 2 of the (10, 4) draw at (7, 6)
        counter = np.array([0, 7, 6, 0], dtype=np.uint64)
        fresh = np.random.Philox(counter=counter, key=np.array([5, PURPOSE_ADVERSARY], dtype=np.uint64))
        unit = (fresh.random_raw((10, 4))[2] >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(estimate, -3.0 + 6.0 * unit[:2])
        assert np.array_equal(grad, -4.0 + 8.0 * unit[2:])

    def test_collude_target_pulls_with_norm_zeta(self):
        target = np.array([-2.0, 0.0])
        strategy = AdversaryStrategy(kind="collude_target", target=target)
        observed = make_observed([[1.0, 0.0], [3.0, 0.0]], np.zeros((2, 2)), 5.0, 6.0, strategy)
        estimate, grad = adversary_emit(strategy, 0, 9, 1, observed, stream(0, strategy, observed))
        assert np.array_equal(estimate, target)
        assert np.linalg.norm(grad) == pytest.approx(6.0, abs=1e-12)
        # pull points from the target toward the honest mean (2, 0)
        assert grad[0] > 0

    def test_collude_target_estimate_cannot_change_the_target(self):
        target = np.array([-2.0, 0.5])
        strategy = AdversaryStrategy(kind="collude_target", target=target)
        observed = make_observed([[1.0, 0.0]], np.zeros((1, 2)), 5.0, 6.0, strategy)
        estimate, _ = adversary_emit(strategy, 0, 9, 1, observed, stream(0, strategy, observed))
        with pytest.raises(ValueError, match="read-only"):
            estimate[0] = 99.0
        target[0] = 99.0
        assert np.array_equal(strategy.target, [-2.0, 0.5])

    def test_collude_target_zero_pull_degenerates(self):
        strategy = AdversaryStrategy(kind="collude_target", target=np.array([1.0]))
        observed = make_observed([[1.0]], np.zeros((1, 1)), 5.0, 6.0, strategy)
        assert np.array_equal(adversary_emit(strategy, 0, 9, 0, observed, stream(0, strategy, observed))[1], [0.0])

    def test_collude_target_random_estimates_mode(self):
        strategy = AdversaryStrategy(
            kind="collude_target", target=np.array([4.0]), estimates="random_in_box"
        )
        observed = make_observed([[1.0], [2.0]], np.zeros((2, 1)), 5.0, 6.0, strategy)
        a_estimate, a_grad = adversary_emit(strategy, 0, 9, 1, observed, stream(3, strategy, observed))
        b_estimate, b_grad = adversary_emit(strategy, 0, 9, 2, observed, stream(3, strategy, observed))
        assert not np.array_equal(a_estimate, b_estimate)  # per-receiver inconsistency
        assert np.array_equal(a_grad, b_grad)  # the colluding pull stays agreed
        assert abs(a_estimate[0]) <= 5.0

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            AdversaryStrategy(kind="nonsense")
        with pytest.raises(ValueError):
            AdversaryStrategy(kind="norm_inflate")
        with pytest.raises(ValueError):
            AdversaryStrategy(kind="collude_target")
        with pytest.raises(ValueError):
            AdversaryStrategy(kind="collude_target", target=np.zeros(2), estimates="bogus")


class TestSharedRoundValues:
    ESTIMATES = np.array([[1.0, -3.0], [2.0, -1.0], [4.0, -2.0]])
    GRADIENTS = np.array([[0.5, 1.0], [1.5, -2.0], [-0.5, 4.0]])
    XI, ZETA = 5.0, 6.0
    TARGET = np.array([-2.0, 5.0])

    def observed(self, strategy, estimates=ESTIMATES):
        return ObservedRound(estimates, self.GRADIENTS, Hypercube(self.XI, 2), self.ZETA, strategy)

    def round_messages(self, strategy, observed):
        """Every message of round 4, from senders 8 and 9 to receivers 0..7."""
        draws = stream(0, strategy, observed)
        return [adversary_emit(strategy, 4, s, r, observed, draws) for s in (8, 9) for r in range(8)]

    def pull(self, estimates):
        toward = estimates.mean(axis=0) - self.TARGET
        return self.ZETA * toward / np.linalg.norm(toward)

    @pytest.mark.parametrize(
        "strategy, closed_form",
        [
            (AdversaryStrategy(kind="sign_flip"), lambda c: (c.ESTIMATES.mean(axis=0), -c.GRADIENTS.mean(axis=0))),
            (
                AdversaryStrategy(kind="norm_inflate", scale=-3.5),
                lambda c: (c.ESTIMATES.mean(axis=0), -3.5 * c.GRADIENTS.mean(axis=0)),
            ),
            # medians (2, -2): the farthest corner is (-xi, xi)
            (AdversaryStrategy(kind="coord_extreme"), lambda c: (np.array([-c.XI, c.XI]), np.zeros(2))),
            (
                AdversaryStrategy(kind="collude_target", target=TARGET),
                lambda c: (c.TARGET, c.pull(c.ESTIMATES)),
            ),
        ],
        ids=["sign_flip", "norm_inflate", "coord_extreme", "collude_target"],
    )
    def test_every_message_of_a_round_carries_the_closed_form(self, strategy, closed_form):
        messages = self.round_messages(strategy, self.observed(strategy))
        estimate, grad = closed_form(self)
        for got_estimate, got_grad in messages:
            np.testing.assert_allclose(got_estimate, estimate, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(got_grad, grad, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("estimates", ["target", "random_in_box"])
    def test_the_colluding_pull_is_computed_once_per_round(self, estimates):
        strategy = AdversaryStrategy(kind="collude_target", target=self.TARGET, estimates=estimates)
        messages = self.round_messages(strategy, self.observed(strategy))
        for _, got_grad in messages:
            np.testing.assert_allclose(got_grad, self.pull(self.ESTIMATES), rtol=1e-15, atol=0.0)
        assert all(got_grad is messages[0][1] for _, got_grad in messages)

    def test_a_new_round_recomputes_the_pull(self):
        strategy = AdversaryStrategy(kind="collude_target", target=self.TARGET)
        first = self.round_messages(strategy, self.observed(strategy))[0][1].copy()
        moved = self.ESTIMATES + np.array([3.0, -4.0])
        second = self.round_messages(strategy, self.observed(strategy, moved))[0][1]
        np.testing.assert_allclose(first, self.pull(self.ESTIMATES), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(second, self.pull(moved), rtol=1e-15, atol=0.0)
        assert not np.allclose(first, second)
