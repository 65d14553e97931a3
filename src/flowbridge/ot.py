"""Minibatch optimal transport over squared-L2 cost matrices.

Exact solutions are assignments (one noise chunk per data chunk); approximate
solutions are entropy-regularized transport plans computed by Sinkhorn
matrix scaling, stabilized by absorbing the scalings into dual potentials.
Marginals are always uniform (1/M on both sides).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ShapeError, ValidationError

__all__ = [
    "CostMatrix",
    "Assignment",
    "TransportPlan",
    "cost_matrix",
    "solve_exact",
    "solve_sinkhorn",
    "plan_to_pairs",
    "transport_cost",
]


@dataclass(frozen=True)
class CostMatrix:
    """Square matrix of pairwise squared Euclidean distances."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.size == 0:
            raise ShapeError(f"cost matrix must be square and non-empty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("cost matrix has non-finite entries")
        if np.any(v < 0):
            raise ValidationError("cost matrix has negative entries")

    @property
    def m(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Assignment:
    """Hard coupling: row i is paired with column sigma[i]; sigma is a bijection."""

    sigma: np.ndarray

    def __post_init__(self):
        s = self.sigma
        if s.ndim != 1:
            raise ShapeError(f"sigma must be 1-D, got shape {s.shape}")
        if s.dtype.kind not in "iu" or np.any(np.sort(s) != np.arange(s.shape[0])):
            raise ValidationError("sigma must be a permutation of 0..M-1")


@dataclass(frozen=True)
class TransportPlan:
    """Soft coupling with uniform marginals.

    ``pi`` always satisfies the marginal constraints (the solver projects its
    final iterate onto the uniform-marginal polytope); ``converged`` and
    ``residual`` report whether and how closely the Sinkhorn iterations
    themselves met the requested tolerance before that projection.
    """

    pi: np.ndarray
    converged: bool = True
    residual: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        p = self.pi
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ShapeError(f"transport plan must be square, got shape {p.shape}")
        if np.any(p < 0):
            raise ValidationError("transport plan has negative entries")

    @property
    def m(self) -> int:
        return self.pi.shape[0]


def cost_matrix(a: np.ndarray, b: np.ndarray) -> CostMatrix:
    """Pairwise squared Euclidean distances between two equal-sized point sets.

    C[i, j] = ||a[i] - b[j]||^2 for a, b of shape (M, d).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"expected 2-D point arrays, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ShapeError(f"point sets must match in count and dimension: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("input points have non-finite entries")
    # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b; clip tiny negatives from cancellation.
    # Points near float64's range overflow here; CostMatrix refuses the result.
    with np.errstate(over="ignore", invalid="ignore"):
        sq_a = np.sum(a * a, axis=1)[:, None]
        sq_b = np.sum(b * b, axis=1)[None, :]
        c = sq_a + sq_b - 2.0 * (a @ b.T)
        np.maximum(c, 0.0, out=c)
    return CostMatrix(c)


def solve_exact(c: CostMatrix) -> Assignment:
    """Minimum-cost assignment by shortest augmenting paths (Jonker-Volgenant).

    With uniform marginals EMD is an assignment problem. It is solved on C
    reduced by approximate dual potentials: C - g[None, :] minus each row's
    minimum, then minus each column's minimum, with g from a short annealed
    Sinkhorn. Each assignment uses every row and column once, so all costs
    shift alike and the optimum stays; near-optimal duals, and a zero in
    every row and column, only shorten the augmenting-path searches.
    Ties go to the lowest column index of the dual-reduced matrix;
    deterministic: same input, same permutation.
    """
    # Loaded here, and only scipy's compiled solver: a process that never
    # solves one loads no scipy module, and one that does loads one file.
    _, cols = _linear_sum_assignment()(_dual_reduced(c.values))
    return Assignment(cols)


_LSAP = "scipy.optimize._lsap"


def _linear_sum_assignment():
    """scipy's ``linear_sum_assignment``, without the rest of scipy.optimize.

    The function is a built-in of the compiled extension ``_lsap``; importing
    ``scipy.optimize`` for it loads over 300 modules, about 50 MB of RSS and
    0.5 s. The extension file is loaded alone and registered in
    ``sys.modules`` under its own name, so a later ``import scipy.optimize``
    reuses it and exposes the same function. A scipy with no such file gets
    the public import.
    """
    module = sys.modules.get(_LSAP)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        files = [
            Path(root, "optimize", "_lsap" + suffix)
            for root in (scipy.submodule_search_locations if scipy else [])
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        path = next((str(f) for f in files if f.is_file()), None)
        if path is None:
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        loader = importlib.machinery.ExtensionFileLoader(_LSAP, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_LSAP, loader))
        loader.exec_module(module)
        sys.modules[_LSAP] = module
    return module.linear_sum_assignment


# The warm start of solve_exact: the epsilon of each stage, as a fraction of
# mean(C), and the sweeps per stage. Entering below mean(C) skips the stages
# near max(C), where the kernel is almost flat.
_WARM_EPS = (0.25, 0.03, 0.01)
_WARM_SWEEPS = 5


def _dual_reduced(cv: np.ndarray) -> np.ndarray:
    """C - g[None, :] minus each row's minimum, then minus each column's
    minimum, in one new float64 buffer: no entry is negative, and every row
    and every column holds a zero.

    g are the column potentials of a short annealed Sinkhorn. A cost with
    zero scale, or a non-finite g, leaves g at zero, so the reduction is
    exact whatever the duals.
    """
    m = cv.shape[0]
    k = np.empty(cv.shape)
    g = np.zeros(m)
    # Costs near the float64 limit can overflow the mean or the potentials
    # (the check below then zeroes g).
    with np.errstate(all="ignore"):
        mean = float(cv.mean())
        if mean > 0:
            f = np.zeros(m)
            for frac in _WARM_EPS:
                eps = frac * mean
                f, g = _scale(_kernel(cv, f, g, eps, out=k), f, g, eps, _WARM_SWEEPS)
    if not np.all(np.isfinite(g)):
        g = np.zeros(m)
    np.subtract(cv, g[None, :], out=k)
    k -= k.min(axis=1)[:, None]
    k -= k.min(axis=0)[None, :]
    return k


def _kernel(cv: np.ndarray, f: np.ndarray, g: np.ndarray, eps: float, out=None) -> np.ndarray:
    """exp((f + g - C) / eps), built in one buffer (``out`` when given)."""
    k = np.add(f[:, None], g[None, :], out=out)
    k -= cv
    k /= eps
    return np.exp(k, out=k)


def _scale(k: np.ndarray, f: np.ndarray, g: np.ndarray, eps: float, sweeps: int):
    """Row then column scaling of kernel k per sweep, absorbed into the
    potentials: returns the new (f, g)."""
    m = k.shape[0]
    marg = 1.0 / m
    v = np.ones(m)
    for _ in range(sweeps):
        u = marg / (k @ v)
        v = marg / (u @ k)
    return f + eps * np.log(u), g + eps * np.log(v)


def solve_sinkhorn(
    c: CostMatrix,
    epsilon: float,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> TransportPlan:
    """Entropy-regularized transport plan via stabilized Sinkhorn scaling.

    Iterates matrix scaling (two mat-vecs per sweep) on the kernel
    ``exp((f + g - C) / eps)`` and absorbs the scalings into the dual
    potentials ``f``, ``g`` after every epsilon-annealing stage (from max(C)
    down to ``epsilon``) and every residual check, which keeps the kernel
    from underflowing. The row-marginal residual is checked every 10
    iterations; the solver stops once it drops below ``tol`` or ``max_iter``
    is spent. The final iterate is then rounded onto the uniform-marginal
    polytope, so the returned plan is always feasible; non-convergence of
    the iterations is reported through the ``converged`` flag, never raised.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    cv = c.values
    m = c.m
    marg = 1.0 / m
    f = np.zeros(m)
    g = np.zeros(m)

    cmax = float(cv.max())
    # Below half an ulp of max(C), epsilon vanishes beside it: the exponents
    # (f + g - C) / epsilon then carry rounding errors of order 1 or more,
    # and the stage count log2(max(C) / epsilon) can overflow.
    if cmax + epsilon == cmax:
        raise ValidationError(
            f"epsilon {epsilon:g} is below float64 resolution at max cost {cmax:g}"
        )
    if cmax > epsilon:
        # Geometric annealing from max(C) down to the target epsilon.
        n_stages = int(np.ceil(np.log2(cmax / epsilon)))
        for s in range(n_stages):
            eps_s = cmax * (epsilon / cmax) ** ((s + 1) / (n_stages + 1))
            f, g = _scale(_kernel(cv, f, g, eps_s), f, g, eps_s, 15)

    # With the scalings absorbed, the kernel at epsilon is the current plan.
    pi = _kernel(cv, f, g, epsilon)
    residual = np.inf
    iterations = 0
    converged = False
    while iterations < max_iter:
        sweeps = min(10, max_iter - iterations)
        f, g = _scale(pi, f, g, epsilon, sweeps)
        iterations += sweeps
        pi = _kernel(cv, f, g, epsilon)
        # Column sums are exact after a column scaling; rows carry the error.
        residual = float(np.abs(pi.sum(axis=1) - marg).max())
        if residual < tol:
            converged = True
            break

    pi = _round_to_uniform(pi, m)
    return TransportPlan(pi, converged=converged, residual=residual, iterations=iterations)


def _round_to_uniform(pi: np.ndarray, m: int) -> np.ndarray:
    """Project a near-feasible plan onto exact uniform marginals (AWR rounding),
    in place."""
    target = 1.0 / m
    rows = pi.sum(axis=1)
    pi *= np.minimum(target / np.where(rows > 0, rows, 1.0), 1.0)[:, None]
    cols = pi.sum(axis=0)
    pi *= np.minimum(target / np.where(cols > 0, cols, 1.0), 1.0)[None, :]
    err_r = np.maximum(target - pi.sum(axis=1), 0.0)
    err_c = np.maximum(target - pi.sum(axis=0), 0.0)
    missing = err_r.sum()
    if missing > 0:
        pi += np.outer(err_r, err_c) / missing
    np.maximum(pi, 0.0, out=pi)
    return pi


def plan_to_pairs(plan: TransportPlan, rng: np.random.Generator) -> np.ndarray:
    """Extract a hard pairing from a soft plan.

    For each row i, draw column j from the categorical distribution
    proportional to pi[i, :]. Columns may repeat, so the result is a
    pairing, not necessarily a bijection.
    """
    pi = plan.pi
    row_sums = pi.sum(axis=1)
    if not np.all(row_sums > 0):
        raise ValidationError("transport plan has a row summing to zero or NaN")
    probs = pi / row_sums[:, None]
    # Inverse-CDF draw per row; vectorized and reproducible under the rng.
    u = rng.random(plan.m)
    cdf = np.cumsum(probs, axis=1)
    cols = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(cols, plan.m - 1)


def transport_cost(c: CostMatrix, solution: Assignment | TransportPlan | np.ndarray) -> float:
    """Objective value of a coupling on assignment scale.

    Assignments (or raw pairing index arrays, whose columns may repeat but
    must be integers in 0..M-1) score sum_i C[i, sigma(i)]; plans score
    <pi, C> * M so both are directly comparable.
    """
    cv = c.values
    if isinstance(solution, TransportPlan):
        if solution.m != c.m:
            raise ShapeError(f"plan size {solution.m} != cost matrix size {c.m}")
        return float(np.sum(solution.pi * cv) * c.m)
    sigma = solution.sigma if isinstance(solution, Assignment) else np.asarray(solution)
    if sigma.shape != (c.m,):
        raise ShapeError(f"pairing length {sigma.shape} != cost matrix size {c.m}")
    if sigma.dtype.kind not in "iu" or np.any((sigma < 0) | (sigma >= c.m)):
        raise ValidationError(f"pairing must hold integer column indices in 0..{c.m - 1}")
    return float(cv[np.arange(c.m), sigma].sum())
