"""Synchronous round engine over the complete communication graph.

A run is two-phase per round: first every message of round t is
materialized (honest agents broadcast one (estimate, gradient) pair to
everyone; faulty agents emit a possibly different pair per receiver), then
every honest agent applies its update. The honest state is four (honest,
d) arrays ordered by agent id: the estimates entering the round, their
gradients, the next estimates and the filtered gradients; the two estimate
arrays swap at the end of each round. Messages live in one preallocated
(honest, n, d) inbox per quantity: row b is the complete inbox of the
b-th honest receiver, indexed by sender id; the two take 2 * h * n * d
floats for h honest agents. Each round writes the honest rows once for
every receiver. The q * h faulty messages of a round (q faulty senders)
are emitted one call each and stacked, one sender's h at a time, into a
preallocated (q * h, 2, d) block of 2 * q * h * d floats. One vectorised
check over the block admits them in (sender, receiver) order, and one
strided assignment per inbox writes them at (receiver, sender), where
each receiver reads its own. Values that every faulty message of a round
shares (the honest means and median, the colluding pull) are computed
once per round, by the round's ObservedRound. The engine takes no norm
itself: a recorded row's largest filtered-gradient norm and its zeta
verdict come from one metrics.check_zeta call.

Nothing about the schedule, the metrics stride, or the adversary's
strategy can leak randomness across consumers: all draws come from
substreams keyed by purpose and site, and no two sites share a Philox
block, so a scenario (including its seed) maps to exactly one
trajectory, bit for bit. Agent i starts from the init draw at site (i,).
The adversary's draws come from one CounterStream per run, with the
bounds its strategy states: a faulty sender's round is one (n, k) draw at
site (t, s), whose row r is its message to receiver r, so a message is a
pure function of (seed, t, s, r) whoever else is faulty.

Runs never refuse theoretically doomed configurations. A non-positive
fault-tolerance margin or a failed redundancy check is reported as a
warning on the result, and the rounds proceed regardless; observing those
regimes is the point.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import (
    CostEnsemble,
    HonestSumOverflow,
    SpectralConstants,
    aggregate_minimizer,
    check_redundancy_sufficient,
    spectral_constants,
)
from .errors import ConfigError, SimulationAbort
from .filters import Hypercube, Point, as_point
from .metrics import RoundTrace, check_zeta, consensus_diameter, lyapunov_v, max_distance
from .protocol import (
    MESSAGE_COORD_LIMIT,
    AdversaryStrategy,
    ObservedRound,
    StepSchedule,
    adversary_emit,
    eta,
    honest_round,
)
from .seeds import MAX_SEED, PURPOSE_ADVERSARY, PURPOSE_INIT, CounterStream, Substreams

DEFAULT_TRACE_TARGET = 10000  # default stride keeps traces near this many rows


@dataclass(frozen=True)
class Scenario:
    """Complete declarative description of one run.

    The ensemble fixes n, d and who is faulty (every agent outside its
    honest set); `seed` keys every random draw, start points and messages.
    """

    f: int
    xi: float
    ensemble: CostEnsemble
    adversary: AdversaryStrategy
    schedule: StepSchedule
    horizon: int
    seed: int
    init: str | np.ndarray = "uniform"  # "uniform" or an (n, d) array of start points
    record_every: int | None = None

    def __post_init__(self):
        if self.n < 2 * self.f + 1:
            raise ValueError(f"need n >= 2f+1, got n={self.n}, f={self.f}")
        if self.f < 0:
            raise ValueError(f"fault count must be non-negative, got {self.f}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        box = self.box  # validates xi and d
        if len(self.faulty_ids) > self.f:
            raise ValueError(f"{len(self.faulty_ids)} faulty ids exceed the declared bound f={self.f}")
        if isinstance(self.init, str):
            if self.init != "uniform":
                raise ValueError(f"init must be 'uniform' or explicit points, got {self.init!r}")
        else:
            pts = np.asarray(self.init, dtype=np.float64)
            if pts.shape != (self.n, self.d):
                raise ValueError(f"explicit init must have shape ({self.n}, {self.d}), got {pts.shape}")
            for i in range(self.n):
                if not box.contains(as_point(pts[i])):
                    raise ValueError(f"initial estimate of agent {i} lies outside the box")
            object.__setattr__(self, "init", pts)
        if self.record_every is not None and self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must lie in 0..2**64-1, got {self.seed}")
        if self.adversary.target is not None and np.shape(self.adversary.target) != (self.d,):
            raise ValueError(f"adversary target must have shape ({self.d},), got {np.shape(self.adversary.target)}")

    @property
    def n(self) -> int:
        return self.ensemble.n

    @property
    def d(self) -> int:
        return self.ensemble.d

    @property
    def faulty_ids(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.ensemble.honest_set

    @property
    def box(self) -> Hypercube:
        return Hypercube(xi=self.xi, d=self.d)

    @property
    def stride(self) -> int:
        if self.record_every is not None:
            return self.record_every
        return max(1, self.horizon // DEFAULT_TRACE_TARGET)


@dataclass
class RunResult:
    """Everything a finished run reports."""

    final_estimates: dict[int, Point]
    trace: list[RoundTrace]
    constants: SpectralConstants
    redundancy_ok: bool
    x_star: Point
    warnings: list[str] = field(default_factory=list)


def honest_minimizer(scenario: Scenario) -> Point:
    """The honest aggregate minimizer, or a ConfigError when it is not unique.

    Also a ConfigError, naming the overflow: honest costs whose sum
    overflows float64, and a box so wide, or a minimizer so far out, that
    d * (2 xi + max|x*|)^2 overflows float64. That bounds every squared
    distance the trace measures (between estimates, and to x*), so below
    it no trace number is infinite.
    """
    try:
        x_star = aggregate_minimizer(scenario.ensemble)
    except HonestSumOverflow as exc:
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(f"honest costs have no unique minimizer: {exc}") from exc
    far = float(np.abs(x_star).max())
    reach = 2.0 * scenario.xi + far
    # squared by multiplication: float ** raises OverflowError where * gives inf
    if not math.isfinite(scenario.d * reach * reach):
        raise ConfigError(
            f"squared distances in the box overflow float64: d * (2 xi + max|x*|)^2 with d = {scenario.d}, "
            f"xi = {scenario.xi:.6g}, max|x*| = {far:.6g}"
        )
    return x_star


def _message_block(messages: list, d: int) -> tuple[np.ndarray, int | None]:
    """`messages` as one (m, 2, d) block, and the index of the first of wrong shape.

    `messages` alternates estimate and gradient, m messages in order.
    When a part is not of shape (d,), the block holds only the messages
    before its message, and that message's index comes second; otherwise
    the second is None.
    """
    try:
        block = np.array(messages, dtype=np.float64)
    except (ValueError, TypeError) as error:  # ragged, or a part that is not numeric
        failure = error
    else:
        if block.shape == (len(messages), d):
            return block.reshape(-1, 2, d), None
        failure = None
    for k in range(0, len(messages), 2):
        if np.shape(messages[k]) != (d,) or np.shape(messages[k + 1]) != (d,):
            return np.array(messages[:k], dtype=np.float64).reshape(-1, 2, d), k // 2
    # every part has shape (d,), so the conversion raised: a value is not numeric
    raise failure


def _admit(t: int, block: np.ndarray, faulty_ids: list[int], honest_ids: list[int]) -> None:
    """Abort on the first faulty message with a coordinate beyond the admission bound.

    `block` holds the round's messages, or the first of them, as (m, 2,
    d) estimate and gradient pairs, message k from `faulty_ids[k // h]`
    to `honest_ids[k % h]` for h receivers; they are judged in that order,
    the estimate before the gradient.
    """
    # NaN fails the <= comparison, so one test covers both conditions
    ok = (np.abs(block) <= MESSAGE_COORD_LIMIT).all(axis=2)
    bad = ~ok.all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        sender, receiver = faulty_ids[k // len(honest_ids)], honest_ids[k % len(honest_ids)]
        name = "gradient" if ok[k, 0] else "estimate"
        raise SimulationAbort(
            t, f"{name} from agent {sender} to {receiver} exceeds the admission bound {MESSAGE_COORD_LIMIT:g}"
        )


def run(scenario: Scenario) -> RunResult:
    """Execute the scenario's horizon and return the trace and final state.

    Deterministic: the same scenario (same seed included) yields an
    identical RunResult. The trace records every `stride`-th round plus the
    final one; each row measures the state entering that round together
    with the filtered gradients computed from that round's messages.
    """
    box = scenario.box
    # first, so a scenario without a unique honest minimizer is refused
    # before the constants divide by its zero curvature
    x_star = honest_minimizer(scenario)
    try:
        constants = spectral_constants(scenario.ensemble, scenario.f, box)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    warnings: list[str] = []
    try:
        redundant = check_redundancy_sufficient(scenario.ensemble, scenario.f)
    except ValueError as exc:
        redundant = None  # not applicable, which is neither verdict
        warnings.append(f"redundancy check not applicable: {exc}")
    if not box.contains(x_star):
        warnings.append("honest aggregate minimizer lies outside the box; projection will bias the runs")
    if constants.alpha <= 0.0:
        warnings.append(
            f"fault-tolerance margin alpha = {constants.alpha:.6g} <= 0; convergence is not guaranteed"
        )
    if redundant is False:
        warnings.append("ensemble is not redundant; validity toward the honest minimizer is not guaranteed")
    if not constants.zeta_exact:
        warnings.append("zeta is an analytic upper bound, not the exact box maximum")

    honest_ids = scenario.ensemble.honest_ids()
    faulty_ids = sorted(scenario.faulty_ids)
    costs = scenario.ensemble.honest_costs()
    stride = scenario.stride
    horizon = scenario.horizon
    trace: list[RoundTrace] = []
    adversary_stream = CounterStream(
        scenario.seed, PURPOSE_ADVERSARY, faulty_ids, scenario.n, *scenario.adversary.draw_bounds(box, constants.zeta)
    )
    d = scenario.d
    honest_rows = np.array(honest_ids, dtype=np.intp)
    faulty_rows = np.array(faulty_ids, dtype=np.intp)
    if isinstance(scenario.init, np.ndarray):
        estimates = scenario.init[honest_rows]
    else:
        # per-agent sites: agent i's draw does not depend on who else exists
        init = Substreams(scenario.seed, PURPOSE_INIT)
        estimates = init.uniform([(i,) for i in honest_ids], -scenario.xi, scenario.xi, d)
    gradients = np.empty_like(estimates)
    next_estimates = np.empty_like(estimates)
    filtered = np.empty_like(estimates)
    inbox_est = np.empty((len(honest_ids), scenario.n, d))
    inbox_grad = np.empty_like(inbox_est)
    block = np.empty((len(faulty_ids) * len(honest_ids), 2, d))  # the round's faulty messages, in admission order

    for t in range(horizon + 1):
        eta_t = eta(scenario.schedule, t)
        for b, cost in enumerate(costs):
            gradients[b] = cost.gradient(estimates[b])
        if not np.isfinite(gradients).all():
            raise SimulationAbort(t, "an honest gradient overflowed")
        inbox_est[:, honest_rows] = estimates
        inbox_grad[:, honest_rows] = gradients

        # phase 1: materialize every faulty message of round t, a sender's
        # at a time, into the block, then admit and route the block
        if faulty_ids:
            observed = ObservedRound(estimates, gradients, box, constants.zeta, scenario.adversary)
            for a, s in enumerate(faulty_ids):
                messages = []
                for r in honest_ids:
                    est, grad = adversary_emit(scenario.adversary, t, s, r, observed, stream=adversary_stream)
                    messages.append(est)
                    messages.append(grad)
                rows, wrong = _message_block(messages, d)
                start = a * len(honest_ids)
                block[start : start + len(rows)] = rows
                if wrong is not None:
                    # earlier messages are judged first, keeping the report in order
                    _admit(t, block[: start + wrong], faulty_ids, honest_ids)
                    raise SimulationAbort(t, f"message {s}->{honest_ids[wrong]} has wrong dimension")
            _admit(t, block, faulty_ids, honest_ids)
            # (sender, receiver) order to the inboxes' (receiver, sender)
            routed = block.reshape(len(faulty_ids), len(honest_ids), 2, d).swapaxes(0, 1)
            inbox_est[:, faulty_rows] = routed[:, :, 0]
            inbox_grad[:, faulty_rows] = routed[:, :, 1]

        # phase 2: every honest agent updates on its complete inbox; a step
        # that overflows is aborted by project_box's finiteness check, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for b, i in enumerate(honest_ids):
                try:
                    next_estimates[b], filtered[b] = honest_round(
                        i, inbox_est[b], inbox_grad[b], eta_t, scenario.f, box
                    )
                except ValueError as exc:
                    raise SimulationAbort(t, str(exc)) from exc

        if t % stride == 0 or t == horizon:
            diameter_inf, diameter_l2 = consensus_diameter(estimates)
            cge_norm_max, zeta_violated = check_zeta(filtered, constants.zeta)
            trace.append(
                RoundTrace(
                    t=t,
                    eta=eta_t,
                    diameter_inf=diameter_inf,
                    diameter_l2=diameter_l2,
                    v=lyapunov_v(estimates, x_star),
                    max_dist=max_distance(estimates, x_star),
                    cge_norm_max=cge_norm_max,
                    zeta_violated=zeta_violated,
                )
            )
        if t == horizon:
            break
        estimates, next_estimates = next_estimates, estimates

    return RunResult(
        final_estimates=dict(zip(honest_ids, estimates)),
        trace=trace,
        constants=constants,
        redundancy_ok=bool(redundant),
        x_star=x_star,
        warnings=warnings,
    )
