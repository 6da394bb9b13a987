"""Quadratic local costs and the constants that govern convergence.

Each agent's cost is a quadratic  q(x) = 0.5 x'Ax - b'x + c  with a
symmetric PSD Hessian, so the analytic gradient Ax - b, the aggregate
minimizer, and the smoothness/convexity constants are all exactly
computable. That is what makes the convergence guarantees checkable at
desk scale without a second optimizer.

Constants derived from an ensemble of honest costs over a box X:

    mu    = max over honest i of lambda_max(A_i)         (gradient Lipschitz)
    lam   = lambda_min(mean of honest A_i)               (strong convexity)
    zeta  = (n - f) * max_i max_{x in X} ||A_i x - b_i|| (filtered-gradient bound)
    alpha = lam / (lam + 2 sqrt(d) mu) - f / n           (fault-tolerance margin)

For a quadratic, ||Ax - b|| is convex, so its maximum over the box is
attained at a vertex. Up to ZETA_VERTEX_DIM_LIMIT dimensions zeta is
exact: one sweep shared by all honest costs takes the vertices in blocks
of 2^10, visits (cost, block) pairs in descending order of an upper bound
on their squared gradient norms, and stops once every remaining bound
lies below the largest norm found (by a margin that covers rounding). A
block it evaluates is computed with the same gemm rows as a full 2^d
enumeration, and the square root is taken once, on the maximum, so zeta
has the bits of full enumeration; typical ensembles need a few blocks,
while one whose vertices all tie still needs every vertex. Above the
limit zeta is an analytic upper bound.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .filters import Hypercube, Point, as_point

# Numeric thresholds used throughout this module (and nowhere else):
SYMMETRY_ATOL = 1e-9       # max allowed per-entry asymmetry of a Hessian
PSD_SLACK = 1e-9           # eigenvalues may undershoot zero by this much
STATIONARITY_TOL = 1e-8    # gradient norm that counts as "vanishes"
SINGULARITY_TOL = 1e-12    # smallest eigenvalue that counts as "invertible"
ZETA_VERTEX_DIM_LIMIT = 20  # above this, 2^d vertex sweeps are off the table
_BLOCK_DIM = 10             # the zeta sweep takes vertices in blocks of 2^10 sharing high coordinates
_PRUNE_MARGIN = 1e-6        # relative slack before a block's norm bound may skip it


@dataclass(frozen=True)
class QuadraticCost:
    """One agent's local cost 0.5 x'Ax - b'x + c."""

    A: np.ndarray
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        b = as_point(self.b)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"Hessian must be square, got shape {A.shape}")
        if A.shape[0] != b.size:
            raise ValueError(f"Hessian is {A.shape[0]}x{A.shape[0]} but b has dimension {b.size}")
        if not np.isfinite(A).all() or not np.isfinite(self.c):
            raise ValueError("cost parameters must be finite")
        if np.abs(A - A.T).max() > SYMMETRY_ATOL:
            raise ValueError("Hessian is not symmetric")
        if np.linalg.eigvalsh(A).min() < -PSD_SLACK:
            raise ValueError("Hessian is not positive semidefinite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self) -> int:
        return self.b.size

    def __call__(self, x: Point) -> float:
        x = as_point(x, self.dim)
        return float(0.5 * x @ self.A @ x - self.b @ x + self.c)

    def gradient(self, x: Point) -> Point:
        """Analytic gradient Ax - b."""
        x = as_point(x, self.dim)
        return self.A @ x - self.b

    def eig_bounds(self) -> tuple[float, float]:
        """(smallest, largest) eigenvalue of the Hessian."""
        w = np.linalg.eigvalsh(self.A)
        return float(w[0]), float(w[-1])


@dataclass(frozen=True)
class CostEnsemble:
    """All n agents' costs plus the designation of who is honest."""

    costs: tuple[QuadraticCost, ...]
    honest_set: frozenset[int]

    def __post_init__(self):
        costs = tuple(self.costs)
        honest = frozenset(int(i) for i in self.honest_set)
        if not costs:
            raise ValueError("ensemble needs at least one cost")
        d = costs[0].dim
        if any(c.dim != d for c in costs):
            raise ValueError("all costs must share one dimension")
        if not honest:
            raise ValueError("honest set must be nonempty")
        if not honest <= set(range(len(costs))):
            raise ValueError(f"honest ids must lie in 0..{len(costs) - 1}")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "honest_set", honest)

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def d(self) -> int:
        return self.costs[0].dim

    def honest_ids(self) -> list[int]:
        return sorted(self.honest_set)

    def honest_costs(self) -> list[QuadraticCost]:
        return [self.costs[i] for i in self.honest_ids()]


@dataclass(frozen=True)
class SpectralConstants:
    """mu, lam, zeta, alpha for one ensemble; see the module docstring."""

    mu: float
    lam: float
    zeta: float
    alpha: float
    zeta_exact: bool  # False when zeta is the analytic bound, not the vertex max


class HonestSumOverflow(ValueError):
    """The honest Hessians or linear terms sum past float64."""


@np.errstate(all="ignore")  # an overflowing sum is refused, not warned about
def aggregate_minimizer(ensemble: CostEnsemble) -> Point:
    """Solve for the unique minimizer of the honest agents' summed cost.

    Requires both honest sums to be finite and the summed Hessian to be
    positive definite. The result satisfies
    || sum of honest gradients at x* || <= STATIONARITY_TOL.
    """
    honest = ensemble.honest_costs()
    a_sum = sum(c.A for c in honest)
    b_sum = sum(c.b for c in honest)
    if not (np.isfinite(a_sum).all() and np.isfinite(b_sum).all()):
        raise HonestSumOverflow("summed honest costs overflow float64")
    if np.linalg.eigvalsh(a_sum).min() <= SINGULARITY_TOL:
        raise ValueError("aggregate not strongly convex")
    x_star = np.linalg.solve(a_sum, b_sum)
    residual = float(np.linalg.norm(a_sum @ x_star - b_sum))
    if not residual <= STATIONARITY_TOL:  # NaN fails <=, so a non-finite solve is refused too
        raise ValueError(f"minimizer solve left gradient norm {residual:.3e}")
    return x_star


def check_hessians_fit(n: int, d: int) -> None:
    """Refuse a dimension at which n dense d x d Hessians exceed physical memory.

    Called before anything of size d is drawn or built, so a hopeless d
    is refused at once instead of after a long run into MemoryError.
    """
    need = 8 * n * d * d
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"d = {d} is too large: {n} Hessians of d x d floats need {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def make_redundant_ensemble(
    n: int,
    f: int,
    d: int,
    x_star,
    seed: int,
    eig_min: float,
    eig_max: float,
) -> CostEnsemble:
    """Generate n strictly convex quadratics that all bottom out at `x_star`.

    Hessians draw their spectra uniformly from [eig_min, eig_max] with a
    random orthogonal eigenbasis; taking b_i = A_i x_star pins every
    agent's unique minimizer to x_star, so any subset aggregate is also
    minimized exactly there and redundancy holds by construction. Output
    is bit-reproducible for a fixed seed.
    """
    if n < 2 * f + 1:
        raise ValueError(f"need n >= 2f+1, got n={n}, f={f}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    check_hessians_fit(n, d)
    if not (0.0 < eig_min <= eig_max < np.inf):
        raise ValueError(f"need 0 < eig_min <= eig_max, got [{eig_min}, {eig_max}]")
    x_star = as_point(x_star, d)
    rng = np.random.default_rng(seed)
    costs = []
    for _ in range(n):
        if eig_min == eig_max:
            A = eig_min * np.eye(d)
        else:
            eigs = rng.uniform(eig_min, eig_max, size=d)
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            A = (q * eigs) @ q.T
            A = 0.5 * (A + A.T)
        costs.append(QuadraticCost(A=A, b=A @ x_star, c=0.0))
    return CostEnsemble(costs=tuple(costs), honest_set=frozenset(range(n)))


def check_redundancy_sufficient(ensemble: CostEnsemble, f: int) -> bool:
    """True iff every honest gradient vanishes at the honest aggregate minimizer.

    For strictly convex costs, a common stationary point means every subset
    aggregate is minimized at exactly the same point, which is the
    redundancy property the convergence guarantee needs. f = 0 is trivially
    redundant (the subset and the whole coincide).
    """
    if f < 0:
        raise ValueError(f"fault count must be non-negative, got {f}")
    if f == 0:
        return True
    for cost in ensemble.honest_costs():
        if cost.eig_bounds()[0] <= SINGULARITY_TOL:
            raise ValueError("redundancy check requires strictly convex honest costs")
    x_star = aggregate_minimizer(ensemble)
    return all(
        float(np.linalg.norm(cost.gradient(x_star))) <= STATIONARITY_TOL
        for cost in ensemble.honest_costs()
    )


def _box_vertices(d: int, xi: float) -> np.ndarray:
    """All 2^d vertices of [-xi, xi]^d; row r has +xi in coordinate k iff bit k of r is set."""
    idx = np.arange(1 << d, dtype=np.uint64)[:, None]
    signs = ((idx >> np.arange(d, dtype=np.uint64)) & np.uint64(1)).astype(np.float64)
    return xi * (2.0 * signs - 1.0)


def _max_gradient_norm_on_box(costs: list[QuadraticCost], xi: float) -> float:
    """Exact max of ||Ax - b|| over the box's vertices and all given costs.

    The vertices are swept in blocks of 2^L that share their d - L high
    coordinates (L = min(d, _BLOCK_DIM)); one block matrix is built and only
    its high columns change. With the high part fixed, g = A_L v_L + c where
    c = A_H v_H - b, and over the low signs v_L in {-xi, xi}^L

        ||g||^2 = ||c||^2 + 2 c'A_L v_L + ||A_L v_L||^2
               <= ||c||^2 + 2 xi ||A_L'c||_1 + xi^2 L sigma_max(A_L)^2.

    (cost, block) pairs are visited in descending order of this bound, and
    the sweep stops at the first pair whose bound, times 1 + _PRUNE_MARGIN,
    lies below the largest squared norm computed so far; every later pair's
    bound is lower still. A block that is not skipped is evaluated exactly
    as a full enumeration does (`V @ A.T - b`, then the row sums of g * g),
    so each of its squared norms has the same bits, and the square root is
    taken once, on the maximum: sqrt is monotone and correctly rounded, so
    that equals the maximum of the roots.

    Why rounding cannot make a skip drop the maximum. Let T be the exact
    largest squared norm. Averaging over all vertices gives
    T >= ||b||^2 + xi^2 ||A||_F^2, which bounds every term either side
    computes by a small multiple of d T; so each computed squared norm and
    each computed bound lies within eta T of its exact value, with eta of
    order d^2 ulps (below 1e-11 for d <= 20), far under _PRUNE_MARGIN. The
    block holding T has a bound of at least T (1 - eta), which times the
    margin exceeds every computed norm, so it is never skipped, and no pair
    ahead of it in the order is either. Any pair skipped after it is
    compared with an incumbent of at least T (1 - eta), whose margin share
    covers the 2 eta T by which a computed norm in the pair may exceed the
    computed bound. So a skipped vertex's computed squared norm never
    exceeds the maximum the sweep returns.
    """
    d = costs[0].dim
    low = min(d, _BLOCK_DIM)
    block = np.zeros((1 << low, d))
    block[:, :low] = _box_vertices(low, xi)
    high = np.zeros((1 << (d - low), d))
    high[:, low:] = _box_vertices(d - low, xi)
    A = np.stack([cost.A for cost in costs])
    a_low = A[:, :, :low]
    c = high @ A.transpose(0, 2, 1) - np.stack([cost.b for cost in costs])[:, None, :]
    sigma_sq = np.linalg.eigvalsh(a_low.transpose(0, 2, 1) @ a_low)[:, -1:]  # sigma_max(A_L)^2
    bound = (c * c).sum(axis=2) + 2.0 * xi * np.abs(c @ a_low).sum(axis=2) + (xi * xi * low) * sigma_sq
    bound[np.isnan(bound)] = np.inf  # a bound lost to overflow must not let its block be skipped
    blocks = high.shape[0]
    best = 0.0
    for pair in np.argsort(-bound, axis=None, kind="stable"):
        k, j = divmod(int(pair), blocks)
        if bound[k, j] * (1.0 + _PRUNE_MARGIN) < best:
            break
        block[:, low:] = high[j, low:]
        g = block @ costs[k].A.T - costs[k].b
        best = max(best, float((g * g).sum(axis=1).max()))
    return math.sqrt(best)


@np.errstate(all="ignore")  # a non-finite constant is refused, not warned about
def spectral_constants(ensemble: CostEnsemble, f: int, box: Hypercube) -> SpectralConstants:
    """Compute (mu, lam, zeta, alpha) for an ensemble over a box.

    zeta is exact for d <= ZETA_VERTEX_DIM_LIMIT: a blocked vertex sweep
    over all honest costs that skips blocks whose norm bound falls below
    the maximum found, with the bits of evaluating every vertex (see
    `_max_gradient_norm_on_box`). Above that it falls back to
    (n-f) * max_i (lambda_max(A_i) sqrt(d) xi + ||b_i||), flagged via
    `zeta_exact = False`.

    Raises ValueError when a constant is not finite: costs whose
    arithmetic overflows float64 on the box, or an honest set whose
    Hessians are all zero (alpha is then 0/0). Also when zeta^2
    overflows: zeta bounds the norm of every filtered gradient, and
    those norms are computed from squares.
    """
    if box.d != ensemble.d:
        raise ValueError(f"box dimension {box.d} does not match ensemble dimension {ensemble.d}")
    n = ensemble.n
    if not (0 <= f < n):
        raise ValueError(f"fault count must satisfy 0 <= f < n, got f={f}, n={n}")
    honest = ensemble.honest_costs()
    bounds = [c.eig_bounds() for c in honest]
    mu = max(w_max for _, w_max in bounds)
    mean_hessian = sum(c.A for c in honest) / len(honest)
    lam = float(np.linalg.eigvalsh(mean_hessian).min())
    d = ensemble.d
    if d <= ZETA_VERTEX_DIM_LIMIT:
        zeta = (n - f) * _max_gradient_norm_on_box(honest, box.xi)
        zeta_exact = True
    else:
        zeta = (n - f) * max(
            w_max * np.sqrt(d) * box.xi + float(np.linalg.norm(c.b))
            for c, (_, w_max) in zip(honest, bounds)
        )
        zeta_exact = False
    alpha = lam / (lam + 2.0 * np.sqrt(d) * mu) - f / n
    values = {"mu": float(mu), "lambda": lam, "zeta": float(zeta), "alpha": float(alpha)}
    if not all(math.isfinite(v) for v in values.values()):
        raise ValueError("constants are not finite: " + ", ".join(f"{k} = {v:.6g}" for k, v in values.items()))
    # squared by multiplication: float ** raises OverflowError where * gives inf
    if not math.isfinite(values["zeta"] * values["zeta"]):
        raise ValueError(f"zeta = {values['zeta']:.6g} bounds filtered-gradient norms whose squares overflow float64")
    return SpectralConstants(*values.values(), zeta_exact=zeta_exact)
