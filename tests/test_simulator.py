import dataclasses

import numpy as np
import pytest

import byzgrad.simulator
from byzgrad import (
    AdversaryStrategy,
    CostEnsemble,
    QuadraticCost,
    Scenario,
    SimulationAbort,
    StepSchedule,
    make_redundant_ensemble,
    run,
)
from byzgrad.seeds import PURPOSE_ADVERSARY


def redundant_scenario(
    n=10,
    f=2,
    d=3,
    xi=10.0,
    seed=7,
    horizon=300,
    x_star=None,
    adversary=None,
    faulty=None,
    eig=(1.0, 1.0),
    init="uniform",
    record_every=None,
    eta0=1.0,
):
    x_star = [1.0, -2.0, 0.5][:d] + [0.0] * max(0, d - 3) if x_star is None else x_star
    faulty = frozenset(range(n - f, n)) if faulty is None else frozenset(faulty)
    generated = make_redundant_ensemble(n, f, d, x_star, seed, *eig)
    ensemble = CostEnsemble(costs=generated.costs, honest_set=frozenset(range(n)) - faulty)
    if adversary is None:
        adversary = AdversaryStrategy(kind="collude_target", target=np.array([xi] * d), estimates="random_in_box")
    return Scenario(
        f=f, xi=xi,
        ensemble=ensemble,
        adversary=adversary,
        schedule=StepSchedule(kind="harmonic", eta0=eta0),
        horizon=horizon,
        seed=seed,
        init=init,
        record_every=record_every,
    )


class TestScenarioValidation:
    def test_too_many_faults(self):
        with pytest.raises(ValueError, match="2f"):
            redundant_scenario(n=4, f=2, d=1, x_star=[0.0])

    def test_faulty_ids_bounded_by_f(self):
        with pytest.raises(ValueError, match="faulty"):
            redundant_scenario(n=5, f=1, d=1, x_star=[0.0], faulty={2, 3})

    def test_explicit_init_must_be_inside_box(self):
        init = np.zeros((5, 1))
        init[2, 0] = 3.0
        with pytest.raises(ValueError, match="outside"):
            redundant_scenario(n=5, f=0, d=1, xi=1.0, x_star=[0.0], init=init)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, seed):
        scenario = redundant_scenario()  # its seed also draws the costs, so replace only the run seed
        with pytest.raises(ValueError, match="seed must lie"):
            dataclasses.replace(scenario, seed=seed)

    def test_adversary_target_must_match_d(self):
        adversary = AdversaryStrategy(kind="collude_target", target=np.full(4, 10.0))
        with pytest.raises(ValueError, match=r"adversary target must have shape \(3,\)"):
            redundant_scenario(d=3, adversary=adversary)

    def test_default_stride_bounds_trace_size(self):
        scenario = redundant_scenario(horizon=50000)
        assert scenario.stride == 5


class TestRunBasics:
    def test_single_agent_follows_closed_form_recursion(self):
        # x_{t+1} = x_t (1 - eta_t) for the scalar cost x^2/2 from x0 = 1
        cost = QuadraticCost(A=np.eye(1), b=np.zeros(1))
        scenario = Scenario(
            f=0, xi=1.0,
            ensemble=CostEnsemble(costs=(cost,), honest_set=frozenset({0})),
            adversary=AdversaryStrategy(kind="sign_flip"),
            schedule=StepSchedule(kind="harmonic", eta0=0.5),
            horizon=200,
            seed=0,
            init=np.array([[1.0]]),
            record_every=1,
        )
        result = run(scenario)
        dists = [row.max_dist for row in result.trace]
        expected = 1.0
        for t, got in enumerate(dists):
            assert got == pytest.approx(expected, rel=1e-12)
            expected *= 1.0 - 0.5 / (t + 1)
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]

    def test_fixed_point_with_colluders_present(self):
        # dyadic solution coordinates keep the trimmed average exact, so
        # the trace is exactly zero on every row despite active colluders
        x_star = [0.5, -2.25, 1.0]
        init = np.tile(np.asarray(x_star), (10, 1))
        scenario = redundant_scenario(x_star=x_star, init=init, horizon=60, record_every=1)
        result = run(scenario)
        assert len(result.trace) == 61
        assert all(row.v == 0.0 for row in result.trace)
        assert all(row.diameter_inf == 0.0 and row.diameter_l2 == 0.0 for row in result.trace)

    def test_trace_rows_strictly_increasing_and_final_row_present(self):
        scenario = redundant_scenario(horizon=95, record_every=10)
        result = run(scenario)
        ts = [row.t for row in result.trace]
        assert ts == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95]

    def test_estimates_remain_in_box(self):
        scenario = redundant_scenario(horizon=120, record_every=1, eta0=2.0)
        result = run(scenario)
        for estimate in result.final_estimates.values():
            assert (np.abs(estimate) <= scenario.xi).all()

    def test_warnings_for_doomed_scenarios(self):
        # stiff anisotropy drives the margin negative; the run still completes
        costs = []
        for i in range(5):
            scale = 1.0 if i == 0 else 1e-3
            costs.append(QuadraticCost(A=scale * np.eye(2), b=np.zeros(2)))
        ensemble = CostEnsemble(costs=tuple(costs), honest_set=frozenset(range(4)))
        scenario = Scenario(
            f=1, xi=1.0,
            ensemble=ensemble,
            adversary=AdversaryStrategy(kind="coord_extreme"),
            schedule=StepSchedule(kind="harmonic", eta0=1.0),
            horizon=20,
            seed=1,
        )
        result = run(scenario)
        assert result.constants.alpha <= 0.0
        assert any("alpha" in w for w in result.warnings)
        assert len(result.trace) >= 2


class TestDeterminism:
    def test_replay_identical(self):
        a = run(redundant_scenario(horizon=150))
        b = run(redundant_scenario(horizon=150))
        assert a.trace == b.trace
        for i in a.final_estimates:
            assert np.array_equal(a.final_estimates[i], b.final_estimates[i])

    def test_seed_changes_trajectory(self):
        a = run(redundant_scenario(horizon=50, seed=7))
        b = run(redundant_scenario(horizon=50, seed=8))
        assert a.trace != b.trace

    def test_run_seed_keys_the_adversary(self):
        # identity costs and explicit, spread start points: only the adversary's
        # draws can depend on the seed, and its estimates can survive the trim
        init = np.linspace(-5.0, 5.0, 30).reshape(10, 3)
        adversary = AdversaryStrategy(kind="random_in_box")
        a = run(redundant_scenario(horizon=50, seed=7, init=init, adversary=adversary))
        b = run(redundant_scenario(horizon=50, seed=8, init=init, adversary=adversary))
        assert a.trace != b.trace

    def test_adversary_field_ignored_when_no_faults(self):
        base = dict(n=5, f=0, d=2, x_star=[0.25, -0.5], horizon=80, faulty=set())
        a = run(redundant_scenario(adversary=AdversaryStrategy(kind="sign_flip"), **base))
        b = run(
            redundant_scenario(
                adversary=AdversaryStrategy(kind="collude_target", target=np.array([9.0, 9.0])),
                **base,
            )
        )
        assert a.trace == b.trace

    def test_stride_does_not_perturb_trajectory(self):
        dense = run(redundant_scenario(horizon=100, record_every=1))
        sparse = run(redundant_scenario(horizon=100, record_every=25))
        dense_rows = {row.t: row for row in dense.trace}
        for row in sparse.trace:
            assert dense_rows[row.t] == row


class TestBulkAdversaryDraws:
    @pytest.mark.parametrize("horizon", [3, 130], ids=["shorter_than_a_fill", "two_fills"])
    def test_messages_equal_per_site_substreams(self, monkeypatch, horizon):
        # oracle: a fresh numpy Philox at counter [0, t, sender, 0]; the
        # message to `receiver` is row `receiver` of its (n, 2d) raw words
        real = byzgrad.simulator.adversary_emit
        seen = {}

        def emit(strategy, t, sender, receiver, observed, stream):
            message = real(strategy, t, sender, receiver, observed, stream)
            seen[t, sender, receiver] = (observed.zeta, *(np.array(part) for part in message))
            return message

        monkeypatch.setattr(byzgrad.simulator, "adversary_emit", emit)
        run(redundant_scenario(horizon=horizon, adversary=AdversaryStrategy(kind="random_in_box")))
        assert len(seen) == (horizon + 1) * 2 * 8
        for (t, sender, receiver), (zeta, estimate, grad) in seen.items():
            philox = np.random.Philox(counter=[0, t, sender, 0], key=[7, PURPOSE_ADVERSARY])
            u = (philox.random_raw((10, 6))[receiver] >> np.uint64(11)) * 2.0**-53
            assert np.array_equal(estimate, -10.0 + 20.0 * u[:3])
            assert np.array_equal(grad, -zeta + 2.0 * zeta * u[3:])

    def test_message_is_a_pure_function_of_its_site(self, monkeypatch):
        real = byzgrad.simulator.adversary_emit
        seen = {}

        def emit(strategy, t, sender, receiver, observed, stream):
            message = real(strategy, t, sender, receiver, observed, stream)
            seen[faulty][t, sender, receiver] = np.array(message[0])  # the drawn estimate
            return message

        monkeypatch.setattr(byzgrad.simulator, "adversary_emit", emit)
        for faulty in ((9,), (8, 9), (7, 9), (7, 8, 9)):
            seen[faulty] = {}
            run(redundant_scenario(f=3, faulty=faulty, horizon=20))
        # sender 9's messages to receivers 0..6, whoever else is faulty
        common = {(t, 9, r) for t in range(21) for r in range(7)}
        for faulty in ((8, 9), (7, 9), (7, 8, 9)):
            assert common <= seen[faulty].keys()
            for site in common:
                assert np.array_equal(seen[faulty][site], seen[(9,)][site]), (faulty, site)
        assert not np.array_equal(seen[(9,)][0, 9, 0], seen[(9,)][0, 9, 1])

    def test_random_adversary_without_faulty_agents(self):
        result = run(
            redundant_scenario(n=5, f=0, d=2, x_star=[0.25, -0.5], horizon=5, faulty=set(),
                               adversary=AdversaryStrategy(kind="random_in_box"))
        )
        assert len(result.trace) == 6


class TestStartPoints:
    def test_agents_share_no_start_coordinate(self, monkeypatch):
        real = byzgrad.simulator.honest_round
        starts = {}

        def recording(me, estimates, gradients, eta_t, f, box):
            starts.setdefault(me, np.array(estimates[me]))  # the first call is round 0
            return real(me, estimates, gradients, eta_t, f, box)

        monkeypatch.setattr(byzgrad.simulator, "honest_round", recording)
        run(redundant_scenario(d=12, horizon=1))
        assert np.intersect1d(starts[0], starts[1]).size == 0


class TestConservation:
    def test_every_honest_agent_updates_every_round(self, monkeypatch):
        calls = []
        real = byzgrad.simulator.honest_round

        def counting(me, estimates, gradients, eta_t, f, box):
            calls.append((me, len(estimates), len(gradients)))
            return real(me, estimates, gradients, eta_t, f, box)

        monkeypatch.setattr(byzgrad.simulator, "honest_round", counting)
        horizon = 25
        scenario = redundant_scenario(horizon=horizon)
        run(scenario)
        honest = scenario.n - len(scenario.faulty_ids)
        # phase 2 runs once per honest agent per round, plus the final
        # metrics-only evaluation at t = horizon
        assert len(calls) == honest * (horizon + 1)
        assert all(est_rows == grad_rows == scenario.n for _, est_rows, grad_rows in calls)


class TestInboxRouting:
    def test_each_receiver_reads_its_own_messages_at_sender_ids(self, monkeypatch):
        # faulty senders interleaved with honest ones, so a row written by
        # position instead of by sender id lands in the wrong place
        faulty = (2, 5)
        horizon = 6
        init = np.linspace(-4.0, 4.0, 21).reshape(7, 3)
        scenario = redundant_scenario(n=7, f=2, faulty=faulty, horizon=horizon, init=init)
        honest_ids = scenario.ensemble.honest_ids()
        costs = dict(zip(honest_ids, scenario.ensemble.honest_costs()))

        def message(t, sender, receiver):
            # every coordinate names the message; honest values never take these
            site = np.array([t, sender, receiver], dtype=np.float64)
            return site + 0.25, -site - 0.5

        def emit(strategy, t, sender, receiver, observed, stream):
            return message(t, sender, receiver)

        calls = []
        real = byzgrad.simulator.honest_round

        def recording(me, estimates, gradients, eta_t, f, box):
            outcome = real(me, estimates, gradients, eta_t, f, box)
            calls.append((me, np.array(estimates), np.array(gradients), outcome.estimate.copy()))
            return outcome

        monkeypatch.setattr(byzgrad.simulator, "adversary_emit", emit)
        monkeypatch.setattr(byzgrad.simulator, "honest_round", recording)
        run(scenario)

        assert len(calls) == len(honest_ids) * (horizon + 1)
        state = {i: init[i] for i in honest_ids}  # the honest estimates entering round t
        for t in range(horizon + 1):
            updates = calls[t * len(honest_ids) : (t + 1) * len(honest_ids)]
            assert [me for me, *_ in updates] == honest_ids
            for me, estimates, gradients, _ in updates:
                assert estimates.shape == gradients.shape == (scenario.n, scenario.d)
                for s in faulty:
                    est, grad = message(t, s, me)
                    assert np.array_equal(estimates[s], est) and np.array_equal(gradients[s], grad)
                for j in honest_ids:
                    assert np.array_equal(estimates[j], state[j])
                    assert np.array_equal(gradients[j], costs[j].gradient(state[j]))
                assert np.array_equal(estimates[me], state[me])
                assert np.array_equal(gradients[me], costs[me].gradient(state[me]))
            state = {me: next_estimate for me, _, _, next_estimate in updates}


class TestSharedMessages:
    @pytest.mark.parametrize(
        "adversary",
        [
            AdversaryStrategy(kind="sign_flip"),
            AdversaryStrategy(kind="norm_inflate", scale=25.0),
            AdversaryStrategy(kind="coord_extreme"),
            AdversaryStrategy(kind="collude_target", target=np.full(3, 0.5)),
        ],
        ids=["sign_flip", "norm_inflate", "coord_extreme", "collude_target"],
    )
    def test_changing_a_returned_array_after_the_round_leaves_the_inbox_unchanged(self, monkeypatch, adversary):
        # messages of a round may share an array (a mean, the pull); the inbox must hold copies
        scenario = redundant_scenario(horizon=5, adversary=adversary)
        expected = run(scenario)
        returned = {}
        real_emit, real_round = byzgrad.simulator.adversary_emit, byzgrad.simulator.honest_round

        def emit(strategy, t, sender, receiver, observed, stream):
            message = real_emit(strategy, t, sender, receiver, observed, stream)
            returned[t, sender, receiver] = (message, tuple(np.array(part) for part in message))
            return message

        def scribbling(me, estimates, gradients, eta_t, f, box):
            for message, _ in returned.values():
                for part in message:
                    if part.flags.writeable:
                        part[...] = 99.0
            latest = max(t for t, _, _ in returned)
            for (t, sender, receiver), (_, copies) in returned.items():
                if t == latest and receiver == me:
                    assert np.array_equal(estimates[sender], copies[0])
                    assert np.array_equal(gradients[sender], copies[1])
            return real_round(me, estimates, gradients, eta_t, f, box)

        monkeypatch.setattr(byzgrad.simulator, "adversary_emit", emit)
        monkeypatch.setattr(byzgrad.simulator, "honest_round", scribbling)
        result = run(scenario)
        assert result.trace == expected.trace
        for i, estimate in expected.final_estimates.items():
            assert np.array_equal(result.final_estimates[i], estimate)


class TestAdversaryMatrix:
    @pytest.mark.parametrize(
        "adversary",
        [
            AdversaryStrategy(kind="sign_flip"),
            AdversaryStrategy(kind="norm_inflate", scale=25.0),
            AdversaryStrategy(kind="coord_extreme"),
            AdversaryStrategy(kind="random_in_box"),
            AdversaryStrategy(kind="collude_target", target=np.array([10.0, 10.0, 10.0])),
            AdversaryStrategy(
                kind="collude_target", target=np.array([10.0, 10.0, 10.0]), estimates="random_in_box"
            ),
        ],
        ids=lambda s: s.kind if s.estimates == "target" else f"{s.kind}+random_estimates",
    )
    def test_every_strategy_runs_and_contracts(self, adversary):
        scenario = redundant_scenario(horizon=400, adversary=adversary, record_every=1)
        result = run(scenario)
        assert len(result.trace) == 401
        for estimate in result.final_estimates.values():
            assert (np.abs(estimate) <= scenario.xi).all()
        # the margin is positive and the ensemble redundant, so 400 rounds
        # must already shrink the worst gap substantially
        assert result.trace[-1].v < result.trace[0].v / 10.0
        assert not any(row.zeta_violated for row in result.trace)


class TestAdmissionGate:
    def test_oversized_adversarial_gradient_aborts(self):
        # a gradient inflated past the admission cap stops the run with a
        # round-stamped diagnostic
        cost = QuadraticCost(A=np.eye(1), b=np.array([0.9]))
        costs = tuple(cost for _ in range(5))
        ensemble = CostEnsemble(costs=costs, honest_set=frozenset(range(4)))
        scenario = Scenario(
            f=1, xi=1.0,
            ensemble=ensemble,
            adversary=AdversaryStrategy(kind="norm_inflate", scale=1e14),
            schedule=StepSchedule(kind="harmonic", eta0=1.0),
            horizon=10,
            seed=2,
        )
        with pytest.raises(SimulationAbort, match="round 0"):
            run(scenario)

    @staticmethod
    def run_with_messages(monkeypatch, replacements):
        """Run a 10-agent scenario (faulty 8 and 9) whose faulty senders emit
        `replacements[(round, sender, receiver)]` where given."""
        real = byzgrad.simulator.adversary_emit

        def emit(strategy, t, sender, receiver, observed, stream):
            if (t, sender, receiver) in replacements:
                return replacements[(t, sender, receiver)]
            return real(strategy, t, sender, receiver, observed, stream)

        monkeypatch.setattr(byzgrad.simulator, "adversary_emit", emit)
        run(redundant_scenario(horizon=10))

    def test_nan_estimate_aborts_naming_the_message(self, monkeypatch):
        bad = (np.array([0.0, np.nan, 0.0]), np.zeros(3))
        with pytest.raises(SimulationAbort, match="round 3: estimate from agent 9 to 5 exceeds"):
            self.run_with_messages(monkeypatch, {(3, 9, 5): bad})

    @pytest.mark.parametrize(
        "bad",
        [
            (np.zeros(4), np.zeros(3)),
            (np.zeros(3), np.float64(0.5)),
            (np.zeros((1, 3)), np.zeros(3)),
            # the right total size, which a flat concatenation of the round would accept
            (np.zeros(4), np.zeros(2)),
            (np.float64(0.5), np.zeros(3)),
        ],
        ids=[
            "estimate_of_d_plus_1", "scalar_gradient", "estimate_of_1_by_d", "d_plus_1_with_d_minus_1", "scalar_estimate"
        ],
    )
    def test_wrong_shape_aborts(self, monkeypatch, bad):
        with pytest.raises(SimulationAbort, match="round 1: message 8->2 has wrong dimension"):
            self.run_with_messages(monkeypatch, {(1, 8, 2): bad})

    def test_wrong_shape_of_a_later_sender_names_its_message(self, monkeypatch):
        with pytest.raises(SimulationAbort, match="round 1: message 9->5 has wrong dimension"):
            self.run_with_messages(monkeypatch, {(1, 9, 5): (np.zeros(3), np.zeros(4))})

    def test_message_of_plain_lists_is_admitted(self, monkeypatch):
        message = ([0.25, -0.5, 1.0], [2.0, 0.0, -3.0])
        inboxes = {}
        real = byzgrad.simulator.honest_round

        def recording(me, estimates, gradients, eta_t, f, box):
            inboxes.setdefault(me, (np.array(estimates[8]), np.array(gradients[8])))
            return real(me, estimates, gradients, eta_t, f, box)

        monkeypatch.setattr(byzgrad.simulator, "honest_round", recording)
        self.run_with_messages(monkeypatch, {(0, 8, 2): message})
        assert np.array_equal(inboxes[2][0], message[0]) and np.array_equal(inboxes[2][1], message[1])

    def test_first_bad_message_in_sender_receiver_order_is_reported(self, monkeypatch):
        huge = np.full(3, 1e13)
        replacements = {
            (2, 9, 0): (np.zeros(3), huge),
            (2, 8, 6): (huge, huge),
            (2, 8, 7): (np.zeros(2), np.zeros(3)),
        }
        # 8->6 precedes 9->0 and the wrong-shape 8->7; its estimate precedes its gradient
        with pytest.raises(SimulationAbort, match="round 2: estimate from agent 8 to 6 exceeds"):
            self.run_with_messages(monkeypatch, replacements)
        replacements[(2, 8, 6)] = (np.zeros(3), huge)
        with pytest.raises(SimulationAbort, match="round 2: gradient from agent 8 to 6 exceeds"):
            self.run_with_messages(monkeypatch, replacements)

    def test_bad_message_of_an_earlier_sender_precedes_a_later_wrong_shape(self, monkeypatch):
        replacements = {(2, 8, 6): (np.zeros(3), np.full(3, np.nan)), (2, 9, 0): (np.zeros(3), np.zeros(4))}
        with pytest.raises(SimulationAbort, match="round 2: gradient from agent 8 to 6 exceeds"):
            self.run_with_messages(monkeypatch, replacements)
