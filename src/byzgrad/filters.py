"""Numerical primitives of the fault-tolerant update.

Three operations do all the robustness work: clamping a point into a
hypercube, coordinate-wise trimming of scalar sets, and elimination of the
largest-norm gradient vectors before summing. ``fuse_estimates`` is the
per-coordinate body of the estimate fusion: trim the received values, then
average the survivors together with the agent's own value.

Everything here is pure and operates on plain float64 numpy arrays.
Non-finite inputs are rejected loudly; bounding adversarial values is the
message-admission layer's job, not ours.
"""

from dataclasses import dataclass

import numpy as np

Point = np.ndarray  # 1-D float64 vector; validated by as_point


def as_point(coords, dim: int | None = None) -> Point:
    """Validate and return `coords` as a finite 1-D float64 vector."""
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"point must be a 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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
            raise ValueError(f"half-width must be positive and finite, got {self.xi}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")

    def contains(self, x: Point) -> bool:
        return bool((np.abs(np.asarray(x)) <= self.xi).all())


def project_box(x: Point, box: Hypercube) -> Point:
    """Clamp each coordinate of `x` into [-xi, xi]."""
    x = as_point(x)
    if x.size != box.d:
        raise ValueError(f"point has dimension {x.size}, box has {box.d}")
    return np.clip(x, -box.xi, box.xi)


def trim_f(values, f: int) -> np.ndarray:
    """Drop the f smallest and f largest of n values, keeping a sorted multiset.

    Requires n >= 2f + 1. Duplicates are preserved; the result has exactly
    n - 2f entries, all within [min(values), max(values)].
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a flat sequence of reals, got shape {arr.shape}")
    if f < 0:
        raise ValueError(f"trim count must be non-negative, got {f}")
    n = arr.size
    if n <= 2 * f:
        raise ValueError(f"need at least 2f+1 = {2 * f + 1} values to trim f = {f}, got {n}")
    if not np.isfinite(arr).all():
        raise ValueError("cannot trim non-finite values")
    return np.sort(arr)[f : n - f]


def avg(values) -> float:
    """Arithmetic mean of a nonempty sequence of finite reals."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot average an empty sequence")
    if not np.isfinite(arr).all():
        raise ValueError("cannot average non-finite values")
    return float(arr.mean())


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
    if not np.isfinite(arr).all():
        raise ValueError("cannot aggregate non-finite vectors")
    norms = np.sqrt((arr * arr).sum(axis=1))
    order = np.argsort(norms, kind="stable")
    # accumulate adds row by row; sum(axis=0) would sum pairwise and change bits
    return np.add.accumulate(arr[order[: n - f]], axis=0)[-1]


def fuse_estimates(own: float, received, f: int) -> float:
    """Average the agent's own value with the trimmed received values.

    `received` holds the n-1 values reported by the other agents for one
    coordinate; at least 2f+1 are required so the trim is well defined.
    """
    own = float(own)
    if not np.isfinite(own):
        raise ValueError("own value must be finite")
    kept = trim_f(received, f)
    return avg(np.concatenate(([own], kept)))
