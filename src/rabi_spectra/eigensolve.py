"""Eigenvalue solvers with truncation certification.

Two independent routes are kept deliberately decoupled so each can serve as
an oracle for the other:

* Sturm-sequence bisection on symmetric tridiagonal matrices (the production
  path; vectorized over eigenvalue brackets), and
* LAPACK's dense symmetric eigensolver (``numpy.linalg.eigvalsh``) on small
  matrices.

Levels of the infinite Fock chains are certified from one truncation when
possible: each level is bisected from its Weyl bracket around the exactly
solvable Delta = 0 spectrum and bounded a posteriori by its bisection
half-width plus the residual of its truncated eigenvector.  Levels whose
bound cannot be pinned to their index fall back to truncation doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChainSelector, ModelParams, SymTriMatrix, build_chain

__all__ = [
    "ConvergenceError",
    "Spectrum",
    "sturm_count",
    "eigenvalues_bisection",
    "eigenvalues_dense",
    "converged_levels",
]

DENSE_MAX_DIM = 512
DEFAULT_MAX_CHAIN_DIM = 2**20
_EPS = float(np.finfo(float).eps)
_PATHS = ("direct", "a_posteriori", "doubling")
# Sites per block of a Sturm sweep: d_i - x is formed for a block at once.
_SWEEP_BLOCK = 16


class ConvergenceError(RuntimeError):
    """The chain-dimension cap was reached before the levels were certified."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with a trusted-count watermark.

    ``trusted_count`` is the number of lowest levels certified to ``tol``;
    direct (non-truncated) solves trust every value.  ``truncation_dim``
    records the matrix dimension the values came from.  ``bounds`` is a
    read-only per-level error bound (``tol`` for every level unless the
    solver supplies one) and ``path`` names the route behind it: ``"direct"``
    for a solve of the given matrix, ``"a_posteriori"`` when every level was
    pinned by its residual bound, ``"doubling"`` when some level was accepted
    because it moved by less than ``tol`` between successive truncations.
    """

    values: np.ndarray
    trusted_count: int
    truncation_dim: int
    tol: float
    bounds: np.ndarray | None = None
    path: str = "direct"

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not 0 <= self.trusted_count <= values.size:
            raise ValueError("trusted_count out of range")
        if self.bounds is None:
            bounds = np.full(values.shape, float(self.tol))
        else:
            bounds = np.array(self.bounds, dtype=float)
        if bounds.shape != values.shape:
            raise ValueError("bounds must have one entry per value")
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)
        if self.path not in _PATHS:
            raise ValueError(f"path must be one of {_PATHS}")


def _gershgorin(t: SymTriMatrix) -> tuple[float, float]:
    radius = np.zeros(t.n)
    radius[:-1] += np.abs(t.off)
    radius[1:] += np.abs(t.off)
    return float(np.min(t.diag - radius)), float(np.max(t.diag + radius))


def _pivmin(t: SymTriMatrix) -> float:
    # Standard safeguard scale for Sturm pivots (LAPACK-style).
    safmin = np.finfo(float).tiny
    off_sq_max = float(np.max(t.off**2)) if t.off.size else 0.0
    return safmin * max(1.0, off_sq_max)


def _guarded_counts(t: SymTriMatrix, xs: np.ndarray) -> np.ndarray:
    """Sturm counts with the pivot guard |q| >= pivmin, which keeps the sign
    bit, so a zero pivot (an eigenvalue exactly at x) is not counted."""
    pivmin = _pivmin(t)
    off_sq = t.off**2
    q = t.diag[0] - xs
    q = np.where(np.abs(q) < pivmin, np.copysign(pivmin, q), q)
    count = (q < 0).astype(np.int64)
    for i in range(1, t.n):
        q = t.diag[i] - xs - off_sq[i - 1] / q
        q = np.where(np.abs(q) < pivmin, np.copysign(pivmin, q), q)
        count += q < 0
    return count


def _sturm_counts(t: SymTriMatrix, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in ``xs``.

    The pivots q_i = (d_i - x) - b_{i-1}^2 / q_{i-1} are swept in place and
    unguarded; d_i - x and the sign bits are handled ``_SWEEP_BLOCK`` sites
    at a time.  A zero or tiny pivot makes the next one huge or infinite
    with the opposite sign bit, so the pair still counts once, as the exact
    sequence does.  Only a zero pivot next to a zero off-diagonal yields
    NaN; those shifts are recounted with the guard.
    """
    xs = np.asarray(xs, dtype=float)
    # b_{-1} = 0 and q_{-1} = inf make the first step q_0 = d_0 - x.
    off_sq = np.concatenate([[0.0], t.off**2])
    q = np.full(xs.shape, np.inf)
    shifted = np.empty((min(_SWEEP_BLOCK, t.n), xs.size))
    negative = np.empty(shifted.shape, dtype=bool)
    count = np.zeros(xs.shape, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, t.n, _SWEEP_BLOCK):
            stop = min(start + _SWEEP_BLOCK, t.n)
            np.subtract(t.diag[start:stop, None], xs, out=shifted[: stop - start])
            for b_sq, shifted_row, negative_row in zip(off_sq[start:stop], shifted, negative):
                np.divide(b_sq, q, out=q)
                np.subtract(shifted_row, q, out=q)
                np.signbit(q, out=negative_row)
            count += negative[: stop - start].sum(axis=0)
    broken = np.isnan(q)
    if broken.any():
        count[broken] = _guarded_counts(t, xs[broken])
    return count


def sturm_count(t: SymTriMatrix, x: float) -> int:
    """Count eigenvalues of ``t`` strictly less than ``x``.

    Monotone non-decreasing in x; an eigenvalue exactly at x is not counted.
    """
    return int(_sturm_counts(t, np.asarray([x], dtype=float))[0])


def _bisect(
    t: SymTriMatrix, lo: np.ndarray, hi: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink brackets of the lowest ``lo.size`` eigenvalues to width <= tol.

    Bracket k must satisfy count(lo_k) <= k < count(hi_k), so it holds the
    k-th eigenvalue; each Sturm sweep halves every bracket.
    """
    idx = np.arange(lo.size)
    width = float(np.max(hi - lo))
    steps = math.ceil(math.log2(width / tol)) + 1 if width > tol else 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = _sturm_counts(t, mid) <= idx
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) <= tol:
            break
    return lo, hi


def _bisect_lowest(t: SymTriMatrix, k: int, tol: float) -> np.ndarray:
    """Lowest ``k`` eigenvalues, each bracketed from the Gershgorin interval to width <= tol."""
    lo_bound, hi_bound = _gershgorin(t)
    lo, hi = _bisect(t, np.full(k, lo_bound), np.full(k, hi_bound), tol)
    return 0.5 * (lo + hi)


def eigenvalues_bisection(t: SymTriMatrix, tol: float) -> Spectrum:
    """All eigenvalues of a symmetric tridiagonal matrix by Sturm bisection.

    Brackets start from the Gershgorin interval, so no eigenvalue estimates
    are needed from the caller.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    vals = _bisect_lowest(t, t.n, tol)
    return Spectrum(values=np.sort(vals), trusted_count=t.n, truncation_dim=t.n, tol=tol)


def eigenvalues_dense(a: np.ndarray) -> Spectrum:
    """Eigenvalues of a small dense symmetric matrix by LAPACK (``numpy.linalg.eigvalsh``).

    Independent oracle for the bisection route: Householder reduction and a
    tridiagonal QR/divide-and-conquer solve share no code with the Sturm
    sweeps.  ``tol`` of the result is the nominal backward-error scale
    dim * eps * max(1, max|a_ij|).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n > DENSE_MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the oracle-scale guard {DENSE_MAX_DIM}")
    scale = max(1.0, float(np.max(np.abs(a)))) if n else 1.0
    if n and float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to 1e-12")
    values = np.linalg.eigvalsh(0.5 * (a + a.T))
    return Spectrum(values=values, trusted_count=n, truncation_dim=n, tol=n * _EPS * scale)


def _weyl_brackets(
    t: SymTriMatrix, centres: np.ndarray, half: float, ceiling: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Start brackets centre_k -+ half (capped at ``ceiling``), checked by one Sturm sweep.

    An end whose count is wrong widens to the Gershgorin interval: the top
    fails when truncation lifts the level above its Weyl bracket, the bottom
    only through rounding.
    """
    k = centres.size
    idx = np.arange(k)
    lo = centres - half
    hi = np.minimum(centres + half, ceiling)
    counts = _sturm_counts(t, np.concatenate([lo, hi]))
    bottom, top = _gershgorin(t)
    return np.where(counts[:k] <= idx, lo, bottom), np.where(counts[k:] > idx, hi, top)


def _tail_bounds(t: SymTriMatrix, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Upper bounds on |x_{N-1}| of the unit eigenvector whose eigenvalue lies in [lo_k, hi_k].

    With backward pivots q_N-1 = d_N-1 - theta, q_j = d_j - theta - b_j^2/q_j+1,
    an eigenvector satisfies x_i+1 / x_i = -b_i / q_i+1(theta), so
    |x_N-1| <= prod_{i>=j} |b_i / q_i+1(theta)| for every site j.  While every
    trailing block from site j+1 down has equal negative-pivot counts at both
    bracket ends, no pivot has a zero or pole in the bracket; each pivot is
    then monotone there, so |q_i+1(theta)| >= min(|q_i+1(lo)|, |q_i+1(hi)|).
    One backward sweep over both ends keeps the running minimum of the
    product over such j, in O(N + K) memory.
    """
    k = lo.size
    ends = np.concatenate([lo, hi])
    pivmin = _pivmin(t)
    off_sq = t.off**2
    off_abs = np.abs(t.off)
    diag = t.diag
    q = diag[-1] - ends
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    negatives = (q < 0).astype(np.int64)
    valid = negatives[:k] == negatives[k:]
    product = np.ones(k)
    best = np.ones(k)
    size = np.empty_like(q)
    with np.errstate(over="ignore", under="ignore"):
        for j in range(t.n - 2, -1, -1):
            np.abs(q, out=size)
            product *= off_abs[j] / np.minimum(size[:k], size[k:])
            np.minimum(best, np.where(valid, product, 1.0), out=best)
            np.divide(off_sq[j], q, out=q)
            q += ends
            np.subtract(diag[j], q, out=q)
            np.abs(q, out=size)
            if size.min() < pivmin:
                q[size < pivmin] = -pivmin
            negatives += q < 0
            valid &= negatives[:k] == negatives[k:]
            if j % 32 == 0 and not valid.any():
                break
    # An underflowed product stands for a true one below the smallest normal.
    return np.maximum(best, np.finfo(float).tiny)


def _pinned(values: np.ndarray, radii: np.ndarray, next_floor: np.ndarray) -> np.ndarray:
    """Levels k whose ball values_k -+ radii_k holds eigenvalue k of the infinite chain.

    Every ball holds some eigenvalue (residual bound).  If balls 0..m are
    pairwise disjoint and ball m ends below ``next_floor[m]``, a lower bound
    on eigenvalue m+1, then those m+1 balls hold the m+1 lowest eigenvalues,
    one each in order.
    """
    top = values + radii
    apart = np.ones(values.size, dtype=bool)
    apart[1:] = top[:-1] < values[1:] - radii[1:]
    hits = np.flatnonzero(np.logical_and.accumulate(apart) & (top < next_floor))
    return np.arange(values.size) <= (hits[-1] if hits.size else -1)


def converged_levels(
    params: ModelParams,
    chain: ChainSelector,
    level_count: int,
    tol: float,
    max_dim: int = DEFAULT_MAX_CHAIN_DIM,
) -> Spectrum:
    """Lowest ``level_count`` eigenvalues of an infinite parity chain, certified to ``tol``.

    The chain is truncated at N = max(4 * level_count, 64) sites.  The
    Delta = 0 chain has the exact levels mu_k = omega (2k + p + 1/2) - 1/2 and
    the perturbation has norm |Delta|/2, so by Weyl's inequality level k lies
    in mu_k -+ |Delta|/2; bisection starts there.  Each level is then bounded
    by its bisection half-width plus the residual b_N-1 |x_N-1| of its
    truncated eigenvector (b_N-1 couples the last kept site to the first
    dropped one).  Level k is accepted when its bound is below ``tol`` and is
    pinned to index k: balls 0..k are disjoint and ball k ends below the Weyl
    lower bound mu_k+1 - |Delta|/2 of the next level.  Otherwise the
    truncation doubles, and a level is accepted if pinned or if it moved by
    less than ``tol`` since the previous truncation.  ``bounds`` of the result
    holds the residual bound of pinned levels and the movement plus the
    half-width of the others.  Both carry a rounding allowance of
    4 eps max(1, |value| + |Delta|/2) for the Sturm counts; against 40-digit
    Delta = 0 levels the rounding measured at most 0.7 eps |value|.

    Raises:
        ValueError: if level_count < 1, if tol is not finite and positive,
            or if tol is below 8 eps max(1, mu_top + |Delta|/2), the
            spacing double precision resolves at the top requested level.
        ConvergenceError: if the first truncation already exceeds
            ``max_dim``, or the cap is reached before every level is accepted.
    """
    if level_count < 1:
        raise ValueError("level_count must be at least 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    n_dim = max(4 * level_count, 64)
    if n_dim > max_dim:
        raise ConvergenceError(
            f"{level_count} levels need chain dimension {n_dim}, above the cap {max_dim}"
        )
    spread = abs(params.delta) / 2.0
    mu = params.omega * (2 * np.arange(level_count + 1) + chain.parity.offset + 0.5) - 0.5
    floor = 8.0 * _EPS * max(1.0, float(mu[-2]) + spread)
    if tol < floor:
        raise ValueError(f"tol={tol!r} is below the double-precision floor {floor:.3e}")
    next_floor = mu[1:] - spread
    # Bracket eigenvalues a bit tighter than the certification tolerance so
    # the doubling comparison measures truncation movement, not bisection slop.
    bisect_tol = tol / 16.0
    ceiling = np.full(level_count, np.inf)
    prev = None
    while True:
        full = build_chain(params, chain, n_dim + 1)
        t = SymTriMatrix(diag=full.diag[:-1], off=full.off[:-1])
        lo, hi = _weyl_brackets(t, mu[:-1], spread + tol, ceiling)
        lo, hi = _bisect(t, lo, hi, bisect_tol)
        values = 0.5 * (lo + hi)
        # Half-width plus a rounding allowance for the Sturm counts.
        radii = 0.5 * (hi - lo) + 4.0 * _EPS * np.maximum(1.0, np.abs(values) + spread)
        bounds = radii.copy()
        # Only levels pinned with a zero residual can be pinned at all.
        m = int(np.count_nonzero(_pinned(values, radii, next_floor)))
        if m:
            bounds[:m] += full.off[-1] * _tail_bounds(t, lo[:m], hi[:m])
        pinned = _pinned(values, bounds, next_floor) & (bounds < tol)
        accepted = pinned
        if prev is not None:
            moved = np.abs(values - prev)
            accepted = pinned | (moved < tol)
            bounds = np.where(pinned, bounds, radii + moved)
        if accepted.all():
            return Spectrum(
                values=np.sort(values),
                trusted_count=level_count,
                truncation_dim=n_dim,
                tol=tol,
                bounds=bounds,
                path="a_posteriori" if pinned.all() else "doubling",
            )
        if 2 * n_dim > max_dim:
            raise ConvergenceError(
                f"levels not stable under doubling up to chain dimension {n_dim} (cap {max_dim})"
            )
        # Cauchy interlacing: no level rises when the truncation grows.
        prev, ceiling, n_dim = values, hi, 2 * n_dim
