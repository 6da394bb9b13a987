"""Agent behaviors: the honest update rule and the Byzantine senders.

An honest agent's round is the composition of the three filters in
`filters`: `fuse_estimates` fuses the n-1 received estimates with its own
(coordinate-wise trim then average; at n = 2f+1 the trim keeps only its
own), `cge_f` filters the n gradients (its own plus the n-1 received) by
eliminating the f largest norms and summing the rest, the agent steps
against the filtered gradient, and `project_box` clamps the result back
into the box. The agent reads its round from two (n, d) arrays indexed by
sender id, with its own estimate and gradient in the row of its own id;
nothing else about the agent enters the update. Faulty agents are free of
any such shape; they may send each receiver a different, arbitrary
(estimate, gradient) pair, and the concrete strategies below are
omniscient within the round: they see every honest estimate and gradient
of round t before emitting.

Adversary strategies (names appear verbatim in scenario files):

    sign_flip       estimate = honest mean; gradient = -(honest mean gradient)
    norm_inflate    estimate = honest mean; gradient = scale * honest mean gradient
    coord_extreme   estimate at the box corner farthest per coordinate from
                    the honest median; gradient = 0
    random_in_box   estimate uniform in the box; gradient uniform in
                    [-zeta, zeta]^d
    collude_target  estimate = the agreed target point (or uniform in the
                    box per receiver when estimates: random_in_box);
                    gradient = (honest mean estimate - target) rescaled to
                    norm zeta, the strongest pull toward the target that
                    still claims to respect the gradient bound

Randomized strategies take their values from the run's CounterStream at
(round, sender, receiver): row receiver of the sender's (n, k) draw for
the round, so a message is a pure function of the seed and those
coordinates, whoever else is faulty. `AdversaryStrategy.draw_bounds` states what a message draws,
in order: `random_in_box` d values in [-xi, xi], then d in [-zeta, zeta];
`collude_target` with random estimates d in [-xi, xi]; the others none.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .filters import Hypercube, Point, as_point, cge_f, fuse_estimates, project_box
from .seeds import CounterStream

# Coordinates of admitted messages must not exceed this magnitude. Faulty
# values are otherwise unconstrained; the cap only keeps arithmetic finite.
MESSAGE_COORD_LIMIT = 1e12

ADVERSARY_KINDS = ("sign_flip", "norm_inflate", "coord_extreme", "random_in_box", "collude_target")
ESTIMATE_MODES = ("target", "random_in_box")


@dataclass(frozen=True)
class ObservedRound:
    """What an omniscient adversary sees before emitting in round t.

    The cached properties are values that every message of the round
    shares, each computed at most once per instance: a new round is a new
    ObservedRound, which computes them afresh.
    """

    estimates: np.ndarray  # (honest count, d), ordered by honest agent id
    gradients: np.ndarray  # (honest count, d), same order
    box: Hypercube
    zeta: float
    strategy: "AdversaryStrategy"  # the faulty senders' strategy, whose messages the round serves

    @cached_property
    def estimate_mean(self) -> Point:
        return self.estimates.mean(axis=0)

    @cached_property
    def gradient_mean(self) -> Point:
        return self.gradients.mean(axis=0)

    @cached_property
    def estimate_median(self) -> Point:
        return np.median(self.estimates, axis=0)

    @cached_property
    def colluding_pull(self) -> Point:
        """(honest mean estimate - the strategy's target) rescaled to norm zeta, or 0 at the target."""
        pull = self.estimate_mean - self.strategy.target
        norm = float(np.linalg.norm(pull))
        return (self.zeta / norm) * pull if norm > 0.0 else np.zeros(self.box.d)


class RoundOutcome(NamedTuple):
    estimate: Point          # the agent's next estimate, inside the box
    filtered_gradient: Point  # the summed survivors of gradient elimination


@dataclass(frozen=True)
class StepSchedule:
    """Diminishing step sizes eta_t = eta0 / (t+1)^p.

    `harmonic` fixes p = 1; `polynomial` takes p in (0.5, 1]. Either way
    the sequence is non-increasing, sums to infinity, and has a finite sum
    of squares.
    """

    kind: str
    eta0: float
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in ("harmonic", "polynomial"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (0.0 < self.eta0 < np.inf):
            raise ValueError(f"eta0 must be positive and finite, got {self.eta0}")
        if self.kind == "harmonic":
            object.__setattr__(self, "p", 1.0)
        elif not (0.5 < self.p <= 1.0):
            raise ValueError(f"polynomial exponent must lie in (0.5, 1], got {self.p}")


def eta(schedule: StepSchedule, t: int) -> float:
    """Step size at iteration t >= 0."""
    if t < 0:
        raise ValueError(f"iteration must be non-negative, got {t}")
    return schedule.eta0 / (t + 1) ** schedule.p


@dataclass(frozen=True)
class AdversaryStrategy:
    """A named faulty-sender behavior plus its parameters.

    The strategy holds no seed: a run keys the randomized strategies with
    its own seed, so one seed determines every message.
    """

    kind: str
    scale: float | None = None       # norm_inflate
    target: Point | None = None      # collude_target
    estimates: str = "target"        # collude_target: target | random_in_box

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}; known: {ADVERSARY_KINDS}")
        if self.kind == "norm_inflate":
            if self.scale is None or not np.isfinite(self.scale):
                raise ValueError("norm_inflate needs a finite scale")
        if self.kind == "collude_target":
            if self.target is None:
                raise ValueError("collude_target needs a target point")
            # a read-only copy: every colluding message may carry this array as its estimate
            target = as_point(self.target).copy()
            target.flags.writeable = False
            object.__setattr__(self, "target", target)
            if self.estimates not in ESTIMATE_MODES:
                raise ValueError(f"estimates mode must be one of {ESTIMATE_MODES}")

    def draw_bounds(self, box: Hypercube, zeta: float) -> tuple[np.ndarray, np.ndarray]:
        """The (low, high) bounds of the values one message draws, in draw order."""
        high = np.empty(0)
        if self.kind == "random_in_box":
            high = np.concatenate((np.full(box.d, box.xi), np.full(box.d, zeta)))
        elif self.kind == "collude_target" and self.estimates == "random_in_box":
            high = np.full(box.d, box.xi)
        return -high, high


def adversary_emit(
    strategy: AdversaryStrategy,
    round_: int,
    sender: int,
    receiver: int,
    observed: ObservedRound,
    stream: CounterStream,
) -> tuple[Point, Point]:
    """The (estimate, gradient) pair a faulty `sender` gives `receiver` in `round_`.

    `stream` is the run's CounterStream of the adversary purpose, built
    with this strategy's `draw_bounds`; randomized strategies take their
    values from it at (round_, sender, receiver). `observed` must be
    observed for `strategy`: a colluding message carries its cached pull.
    """
    box = observed.box
    kind = strategy.kind

    if kind == "sign_flip":
        return observed.estimate_mean, -observed.gradient_mean

    if kind == "norm_inflate":
        return observed.estimate_mean, strategy.scale * observed.gradient_mean

    if kind == "coord_extreme":
        # the corner with median <= 0 per coordinate maximizes |corner - median|
        estimate = np.where(observed.estimate_median <= 0.0, box.xi, -box.xi)
        return estimate, np.zeros(box.d)

    draws = stream.at(round_, sender, receiver)

    if kind == "random_in_box":
        return draws[: box.d], draws[box.d :]

    # collude_target
    estimate = draws if strategy.estimates == "random_in_box" else strategy.target
    return estimate, observed.colluding_pull


def honest_round(
    me: int,
    estimates: np.ndarray,
    gradients: np.ndarray,
    eta_t: float,
    f: int,
    box: Hypercube,
) -> RoundOutcome:
    """One honest agent's full round: fuse, filter, step, project.

    `me` is the agent's id. `estimates` and `gradients` are the round's
    (n, d) inbox indexed by sender id, with d = `box.d`. Row `me` holds the
    agent's own estimate and gradient; every other row is the message that
    sender gave this agent.

    The round is `fuse_estimates` on the estimates, `cge_f` on the
    gradients, a step of size `eta_t`, and `project_box`. A single-agent
    system (n = 1, f = 0) reduces to plain projected gradient descent.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    gradients = np.asarray(gradients, dtype=np.float64)
    if estimates.ndim != 2 or estimates.shape[1] != box.d or gradients.shape != estimates.shape:
        raise ValueError(f"agent {me}: inbox shapes {estimates.shape} and {gradients.shape} are not both (n, {box.d})")
    if not 0 <= me < estimates.shape[0]:
        raise ValueError(f"agent {me}: inbox has no row for its own id among {estimates.shape[0]} senders")
    try:
        fused = fuse_estimates(estimates[me], np.concatenate((estimates[:me], estimates[me + 1 :])), f)
        # gradients enter elimination in agent-id order, ours in its own slot
        filtered = cge_f(gradients, f)
        return RoundOutcome(project_box(fused - eta_t * filtered, box), filtered)
    except ValueError as exc:
        raise ValueError(f"agent {me}: {exc}") from exc
