"""Per-round convergence measurements.

The headline quantity is V: per coordinate, take the honest estimate
farthest from the reference solution, square that gap, and sum over
coordinates. V reaching zero is exactly "every honest agent sits at the
solution", which makes it the natural convergence signal to record. The
consensus diameters and the filtered-gradient norm bound ride along as
diagnostics. Every function takes the honest agents' rows as one (h, d)
array, ordered by agent id. check_zeta takes each filtered-gradient norm
once and returns the largest with its verdict against zeta; the round
engine records both and takes no norm itself.
"""

from dataclasses import dataclass

import numpy as np

from .filters import Point

ZETA_SLACK = 1e-9  # tolerance when comparing filtered-gradient norms to zeta


@dataclass(frozen=True)
class RoundTrace:
    """One recorded row of a run; field order matches the CSV contract."""

    t: int
    eta: float
    diameter_inf: float
    diameter_l2: float
    v: float
    max_dist: float
    cge_norm_max: float
    zeta_violated: bool


def _rows(estimates: np.ndarray) -> np.ndarray:
    if estimates.ndim != 2 or estimates.shape[0] < 1:
        raise ValueError("need a (agents, dim) array with at least one row")
    return estimates


def lyapunov_v(honest_estimates: np.ndarray, x_star: Point) -> float:
    """Sum over coordinates of the squared largest honest gap to `x_star`."""
    xs = _rows(honest_estimates)
    gaps = np.abs(xs - np.asarray(x_star))
    return float((gaps.max(axis=0) ** 2).sum())


def consensus_diameter(honest_estimates: np.ndarray) -> tuple[float, float]:
    """(max per-coordinate spread, max pairwise Euclidean distance)."""
    xs = _rows(honest_estimates)
    diameter_inf = float((xs.max(axis=0) - xs.min(axis=0)).max())
    diff = xs[:, None, :] - xs[None, :, :]
    diameter_l2 = float(np.sqrt((diff * diff).sum(axis=2)).max())
    return diameter_inf, diameter_l2


def max_distance(honest_estimates: np.ndarray, x_star: Point) -> float:
    """Largest honest Euclidean distance to `x_star`."""
    xs = _rows(honest_estimates)
    return float(np.linalg.norm(xs - np.asarray(x_star), axis=1).max())


def check_zeta(cge_outputs: np.ndarray, zeta: float) -> tuple[float, bool]:
    """The largest filtered-gradient (row) norm and whether it exceeds zeta + slack, from one norm per row."""
    norm_max = max((float(np.linalg.norm(h)) for h in cge_outputs), default=0.0)
    return norm_max, not norm_max <= zeta + ZETA_SLACK  # NaN fails <=, so it exceeds
