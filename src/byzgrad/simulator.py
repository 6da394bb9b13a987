"""Synchronous round engine over the complete communication graph.

A run is two-phase per round: first every message of round t is
materialized (honest agents broadcast one (estimate, gradient) pair to
everyone; faulty agents emit a possibly different pair per receiver), then
every honest agent applies its update. The honest state is four (honest,
d) arrays ordered by agent id: the estimates entering the round, their
gradients, the next estimates and the filtered gradients; the two estimate
arrays swap at the end of each round. Messages live in preallocated
arrays: id-indexed (n, d) inbox buffers, filled once per round with the
honest rows, and (faulty, honest, d) blocks of faulty messages, whose
column for one receiver is copied into the faulty rows of the inbox
buffers just before that receiver updates. Faulty messages are admitted
by one vectorised check per round.

Nothing about the schedule, the metrics stride, or the adversary's
strategy can leak randomness across consumers: all draws come from
substreams keyed by purpose and round, so a scenario (including its seed)
maps to exactly one trajectory, bit for bit.

Runs never refuse theoretically doomed configurations. A non-positive
fault-tolerance margin or a failed redundancy check is reported as a
warning on the result, and the rounds proceed regardless; observing those
regimes is the point.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .costs import CostEnsemble, SpectralConstants, aggregate_minimizer, check_redundancy_sufficient, spectral_constants
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
from .seeds import PURPOSE_ADVERSARY, PURPOSE_INIT, CounterStream, substream

DEFAULT_TRACE_TARGET = 10000  # default stride keeps traces near this many rows


@dataclass(frozen=True)
class Scenario:
    """Complete declarative description of one run."""

    n: int
    f: int
    d: int
    xi: float
    ensemble: CostEnsemble
    faulty_ids: frozenset[int]
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
        if self.ensemble.n != self.n:
            raise ValueError(f"ensemble has {self.ensemble.n} costs for n={self.n} agents")
        if self.ensemble.d != self.d:
            raise ValueError(f"ensemble dimension {self.ensemble.d} != scenario dimension {self.d}")
        faulty = frozenset(int(i) for i in self.faulty_ids)
        if not faulty <= set(range(self.n)):
            raise ValueError(f"faulty ids must lie in 0..{self.n - 1}")
        if len(faulty) > self.f:
            raise ValueError(f"{len(faulty)} faulty ids exceed the declared bound f={self.f}")
        if self.ensemble.honest_set != set(range(self.n)) - faulty:
            raise ValueError("ensemble honest set must be the complement of faulty_ids")
        object.__setattr__(self, "faulty_ids", faulty)
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
    duration: float
    warnings: list[str] = field(default_factory=list)


def honest_minimizer(ensemble: CostEnsemble) -> Point:
    """The honest aggregate minimizer, or a ConfigError when it is not unique."""
    try:
        return aggregate_minimizer(ensemble)
    except ValueError as exc:
        raise ConfigError(f"honest costs have no unique minimizer: {exc}") from exc


def _admit(
    t: int,
    estimates: np.ndarray,
    gradients: np.ndarray,
    faulty_ids: list[int],
    honest_ids: list[int],
    count: int | None = None,
) -> None:
    """Abort on the first faulty message with a coordinate beyond the admission bound.

    `estimates` and `gradients` are (faulty, honest, d) blocks; messages are
    taken in (sender, receiver) order, the estimate before the gradient,
    and only the first `count` are checked when it is given.
    """
    d = estimates.shape[-1]
    # NaN fails the <= comparison, so one test covers both conditions
    est_ok, grad_ok = (
        (np.abs(block.reshape(-1, d)[:count]) <= MESSAGE_COORD_LIMIT).all(axis=1) for block in (estimates, gradients)
    )
    bad = ~(est_ok & grad_ok)
    if bad.any():
        k = int(np.argmax(bad))
        sender, receiver = faulty_ids[k // len(honest_ids)], honest_ids[k % len(honest_ids)]
        name = "gradient" if est_ok[k] else "estimate"
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
    started = time.perf_counter()
    box = scenario.box
    # first, so a scenario without a unique honest minimizer is refused
    # before the constants divide by its zero curvature
    x_star = honest_minimizer(scenario.ensemble)
    constants = spectral_constants(scenario.ensemble, scenario.f, box)
    warnings: list[str] = []
    try:
        redundancy_ok = check_redundancy_sufficient(scenario.ensemble, scenario.f)
    except ValueError as exc:
        redundancy_ok = False
        warnings.append(f"redundancy check not applicable: {exc}")
    if not box.contains(x_star):
        warnings.append("honest aggregate minimizer lies outside the box; projection will bias the runs")
    if constants.alpha <= 0.0:
        warnings.append(
            f"fault-tolerance margin alpha = {constants.alpha:.6g} <= 0; convergence is not guaranteed"
        )
    if not redundancy_ok:
        warnings.append("ensemble is not redundant; validity toward the honest minimizer is not guaranteed")
    if not constants.zeta_exact:
        warnings.append("zeta is an analytic upper bound, not the exact box maximum")

    honest_ids = sorted(set(range(scenario.n)) - scenario.faulty_ids)
    faulty_ids = sorted(scenario.faulty_ids)
    costs = [scenario.ensemble.costs[i] for i in honest_ids]
    stride = scenario.stride
    horizon = scenario.horizon
    trace: list[RoundTrace] = []
    adversary_stream = CounterStream(scenario.adversary.seed, PURPOSE_ADVERSARY)
    d = scenario.d
    honest_rows = np.array(honest_ids, dtype=np.intp)
    faulty_rows = np.array(faulty_ids, dtype=np.intp)
    if isinstance(scenario.init, np.ndarray):
        estimates = scenario.init[honest_rows]
    else:
        # per-agent substreams: agent i's draw does not depend on who else exists
        estimates = np.stack(
            [substream(scenario.seed, PURPOSE_INIT, i).uniform(-scenario.xi, scenario.xi, size=d) for i in honest_ids]
        )
    gradients = np.empty_like(estimates)
    next_estimates = np.empty_like(estimates)
    filtered = np.empty_like(estimates)
    inbox_est = np.empty((scenario.n, d))
    inbox_grad = np.empty((scenario.n, d))
    faulty_est = np.empty((len(faulty_ids), len(honest_ids), d))
    faulty_grad = np.empty_like(faulty_est)

    for t in range(horizon + 1):
        eta_t = eta(scenario.schedule, t)
        for b, cost in enumerate(costs):
            gradients[b] = cost.gradient(estimates[b])
        if not np.isfinite(gradients).all():
            raise SimulationAbort(t, "an honest gradient overflowed")
        inbox_est[honest_rows] = estimates
        inbox_grad[honest_rows] = gradients

        # phase 1: materialize every faulty message of round t
        observed = ObservedRound(estimates, gradients, box, constants.zeta)
        for a, s in enumerate(faulty_ids):
            for b, r in enumerate(honest_ids):
                est, grad = adversary_emit(scenario.adversary, t, s, r, observed, stream=adversary_stream)
                # a wrong-shape message must not broadcast into its slot;
                # earlier messages are judged first, keeping the report in order
                if np.shape(est) != (d,) or np.shape(grad) != (d,):
                    _admit(t, faulty_est, faulty_grad, faulty_ids, honest_ids, count=a * len(honest_ids) + b)
                    raise SimulationAbort(t, f"message {s}->{r} has wrong dimension")
                faulty_est[a, b] = est
                faulty_grad[a, b] = grad
        _admit(t, faulty_est, faulty_grad, faulty_ids, honest_ids)

        # phase 2: every honest agent updates on its complete inbox; only
        # the faulty rows differ between receivers
        for b, i in enumerate(honest_ids):
            inbox_est[faulty_rows] = faulty_est[:, b]
            inbox_grad[faulty_rows] = faulty_grad[:, b]
            try:
                next_estimates[b], filtered[b] = honest_round(i, inbox_est, inbox_grad, eta_t, scenario.f, box)
            except ValueError as exc:
                raise SimulationAbort(t, f"agent {i}: {exc}") from exc

        if t % stride == 0 or t == horizon:
            diameter_inf, diameter_l2 = consensus_diameter(estimates)
            cge_norm_max = max(float(np.linalg.norm(h)) for h in filtered)
            trace.append(
                RoundTrace(
                    t=t,
                    eta=eta_t,
                    diameter_inf=diameter_inf,
                    diameter_l2=diameter_l2,
                    v=lyapunov_v(estimates, x_star),
                    max_dist=max_distance(estimates, x_star),
                    cge_norm_max=cge_norm_max,
                    zeta_violated=not check_zeta(filtered, constants.zeta),
                )
            )
        if t == horizon:
            break
        estimates, next_estimates = next_estimates, estimates

    return RunResult(
        final_estimates=dict(zip(honest_ids, estimates)),
        trace=trace,
        constants=constants,
        redundancy_ok=redundancy_ok,
        x_star=x_star,
        duration=time.perf_counter() - started,
        warnings=warnings,
    )
