"""Agent behaviors: the honest update rule and the Byzantine senders.

An honest agent's round has a fixed shape: fuse the received estimates with
its own (coordinate-wise trim then average), filter the n gradients (its
own plus the n-1 received) by eliminating the f largest norms and summing
the rest, take a step against the filtered gradient, and clamp back into
the box. The agent reads its round from two (n, d) arrays indexed by
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

Randomized strategies draw from the caller's CounterStream at (round,
sender, receiver), so a message is a pure function of those coordinates.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .filters import Hypercube, Point, as_point, cge_f
from .seeds import CounterStream

# Coordinates of admitted messages must not exceed this magnitude. Faulty
# values are otherwise unconstrained; the cap only keeps arithmetic finite.
MESSAGE_COORD_LIMIT = 1e12

ADVERSARY_KINDS = ("sign_flip", "norm_inflate", "coord_extreme", "random_in_box", "collude_target")
ESTIMATE_MODES = ("target", "random_in_box")


class RoundMessage(NamedTuple):
    """The (estimate, gradient) pair one agent sends another in one round."""

    estimate: Point
    grad: Point


@dataclass(frozen=True)
class ObservedRound:
    """What an omniscient adversary sees before emitting in round t."""

    estimates: np.ndarray  # (honest count, d), ordered by honest agent id
    gradients: np.ndarray  # (honest count, d), same order
    box: Hypercube
    zeta: float
    _pulls: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def estimate_mean(self) -> Point:
        return self.estimates.mean(axis=0)

    @cached_property
    def gradient_mean(self) -> Point:
        return self.gradients.mean(axis=0)

    @cached_property
    def estimate_median(self) -> Point:
        return np.median(self.estimates, axis=0)

    def colluding_pull(self, target: Point) -> Point:
        """(honest mean estimate - target) rescaled to norm zeta, or 0 at the target.

        Computed once per target: every colluding message of the round
        carries the same pull.
        """
        key = target.tobytes()
        pull = self._pulls.get(key)
        if pull is None:
            pull = self.estimate_mean - target
            norm = float(np.linalg.norm(pull))
            pull = (self.zeta / norm) * pull if norm > 0.0 else np.zeros(self.box.d)
            self._pulls[key] = pull
        return pull


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
    if schedule.kind == "harmonic":
        return schedule.eta0 / (t + 1)
    return schedule.eta0 / (t + 1) ** schedule.p


@dataclass(frozen=True)
class AdversaryStrategy:
    """A named faulty-sender behavior plus its parameters.

    `seed` roots the strategy's randomness; scenario assembly sets it to
    the run seed so replays are exact.
    """

    kind: str
    scale: float | None = None       # norm_inflate
    target: Point | None = None      # collude_target
    estimates: str = "target"        # collude_target: target | random_in_box
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}; known: {ADVERSARY_KINDS}")
        if self.kind == "norm_inflate":
            if self.scale is None or not np.isfinite(self.scale):
                raise ValueError("norm_inflate needs a finite scale")
        if self.kind == "collude_target":
            if self.target is None:
                raise ValueError("collude_target needs a target point")
            object.__setattr__(self, "target", as_point(self.target))
            if self.estimates not in ESTIMATE_MODES:
                raise ValueError(f"estimates mode must be one of {ESTIMATE_MODES}")


def adversary_emit(
    strategy: AdversaryStrategy,
    round_: int,
    sender: int,
    receiver: int,
    observed: ObservedRound,
    stream: CounterStream,
) -> RoundMessage:
    """Produce the message a faulty `sender` gives `receiver` in `round_`.

    `stream` is the CounterStream of the strategy's seed and the adversary
    purpose; randomized strategies draw from it at (round_, sender, receiver).
    """
    box, zeta = observed.box, observed.zeta
    kind = strategy.kind

    if kind == "sign_flip":
        return RoundMessage(observed.estimate_mean, -observed.gradient_mean)

    if kind == "norm_inflate":
        return RoundMessage(observed.estimate_mean, strategy.scale * observed.gradient_mean)

    if kind == "coord_extreme":
        # the corner with median <= 0 per coordinate maximizes |corner - median|
        estimate = np.where(observed.estimate_median <= 0.0, box.xi, -box.xi)
        return RoundMessage(estimate, np.zeros(box.d))

    rng = stream.at(round_, sender, receiver)

    if kind == "random_in_box":
        estimate = rng.uniform(-box.xi, box.xi, size=box.d)
        grad = rng.uniform(-zeta, zeta, size=box.d)
        return RoundMessage(estimate, grad)

    # collude_target
    grad = observed.colluding_pull(strategy.target)
    if strategy.estimates == "random_in_box":
        estimate = rng.uniform(-box.xi, box.xi, size=box.d)
    else:
        estimate = strategy.target
    return RoundMessage(estimate, grad)


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

    Degenerate cases: a single-agent system (n = 1, f = 0) reduces to plain
    projected gradient descent, and at the minimum system size n = 2f + 1
    the trim discards all n-1 received values, so the fusion keeps only the
    agent's own estimate.
    """
    d = box.d
    estimates = np.asarray(estimates, dtype=np.float64)
    gradients = np.asarray(gradients, dtype=np.float64)
    if f < 0:
        raise ValueError(f"fault count must be non-negative, got {f}")
    if estimates.ndim != 2 or estimates.shape[1] != d or gradients.shape != estimates.shape:
        raise ValueError(f"agent {me}: inbox shapes {estimates.shape} and {gradients.shape} are not both (n, {d})")
    n = estimates.shape[0]
    if not 0 <= me < n:
        raise ValueError(f"agent {me}: inbox has no row for its own id among {n} senders")
    if n - 1 < 2 * f:
        raise ValueError(f"agent {me}: {n - 1} received messages cannot be trimmed with f = {f}")

    # fused estimate: per coordinate, trim f from each end of the received
    # values (every row but ours), then average the survivors with our own
    received = np.concatenate((estimates[:me], estimates[me + 1 :]))
    kept = np.sort(received, axis=0)[f : n - 1 - f]
    fused = np.concatenate((estimates[me : me + 1], kept)).mean(axis=0)
    # gradients enter elimination in agent-id order, ours in its own slot
    filtered = cge_f(gradients, f)

    stepped = fused - eta_t * filtered
    return RoundOutcome(np.clip(stepped, -box.xi, box.xi), filtered)
