"""Numerical primitives of the fault-tolerant update.

Three operations do all the robustness work, and an honest agent's round
(`protocol.honest_round`) is exactly their composition: `fuse_estimates`
trims the f smallest and f largest received values of each coordinate and
averages the survivors with the agent's own value, `cge_f` eliminates the
f largest-norm gradients and sums the rest, and `project_box` clamps the
stepped point into the hypercube. Fusion is well defined from 2f received
values on; at exactly 2f the trim discards them all and the agent keeps
its own estimate.

Everything here is pure and operates on plain float64 numpy arrays.
Non-finite inputs are rejected loudly; bounding adversarial values is the
message-admission layer's job, not ours.
"""

from dataclasses import dataclass

import numpy as np

Point = np.ndarray  # 1-D float64 vector; validated by as_point


def _all_finite(arr: np.ndarray) -> bool:
    # count_nonzero skips the reduction machinery behind .all(), which costs
    # more than the test itself on the few values of one round
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def as_point(coords, dim: int | None = None) -> Point:
    """Validate and return `coords` as a finite 1-D float64 vector."""
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"point must be a 1-D vector, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and arr.size != dim:
        raise ValueError(f"expected dimension {dim}, got {arr.size}")
    return arr


@dataclass(frozen=True)
class Hypercube:
    """The box [-xi, xi]^d that confines every honest estimate."""

    xi: float
    d: int

    def __post_init__(self):
        if not (0.0 < self.xi < np.inf):
            raise ValueError(f"half-width xi must be positive and finite, got {self.xi}")
        if self.d < 1:
            raise ValueError(f"dimension d must be >= 1, got {self.d}")

    def contains(self, x: Point) -> bool:
        return bool((np.abs(np.asarray(x)) <= self.xi).all())


def project_box(x: Point, box: Hypercube) -> Point:
    """Clamp each coordinate of `x` into [-xi, xi]."""
    x = as_point(x, box.d)
    # np.clip's values on finite input, at about half its call overhead
    return np.minimum(np.maximum(x, -box.xi), box.xi)


def cge_f(vectors, f: int) -> Point:
    """Sum the n - f smallest-norm vectors of n.

    Vectors are ordered by Euclidean norm ascending; exact norm ties keep
    input order (stable sort), so outputs are reproducible even for
    adversarially crafted equal-norm inputs. The survivors are accumulated
    sequentially in that order, making the result bit-reproducible by any
    straightforward reimplementation. Requires n >= f + 1.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a sequence of equal-dimension vectors, got shape {arr.shape}")
    if f < 0:
        raise ValueError(f"elimination count must be non-negative, got {f}")
    n = arr.shape[0]
    if n <= f:
        raise ValueError(f"need at least f+1 = {f + 1} vectors to eliminate f = {f}, got {n}")
    if not _all_finite(arr):
        raise ValueError("cannot aggregate non-finite vectors")
    norms = np.sqrt(np.add.reduce(arr * arr, axis=1))
    order = np.argsort(norms, kind="stable")
    # accumulate adds row by row; sum(axis=0) would sum pairwise and change bits
    return np.add.accumulate(arr[order[: n - f]], axis=0)[-1]


def fuse_estimates(own, received, f: int):
    """Average the agent's own value with the trimmed received values.

    Works along axis 0: `own` is a scalar or a (d,) vector and `received`
    holds m values of the same shape, (m,) or (m, d), one per other agent.
    Per coordinate, the f smallest and f largest received values are
    dropped and the m - 2f survivors are averaged together with `own`.
    Requires m >= 2f; at m = 2f the result is `own`.
    """
    own = np.asarray(own, dtype=np.float64)
    received = np.asarray(received, dtype=np.float64)
    if received.ndim != own.ndim + 1 or received.shape[1:] != own.shape:
        raise ValueError(f"received values of shape {received.shape} do not match own value of shape {own.shape}")
    if f < 0:
        raise ValueError(f"trim count must be non-negative, got {f}")
    m = received.shape[0]
    if m < 2 * f:
        raise ValueError(f"need at least 2f = {2 * f} received values to trim f = {f}, got {m}")
    ordered = np.sort(received, axis=0)
    # own sits just before the survivors: one finiteness check covers every
    # input, and own followed by the survivors is one contiguous slice
    stacked = np.concatenate((ordered[:f], own[None], ordered[f:]))
    if not _all_finite(stacked):
        raise ValueError("cannot fuse non-finite values")
    # the sum and division np.mean does, without its Python-level wrapper
    return np.add.reduce(stacked[f : m - f + 1], axis=0) / (m - 2 * f + 1)
