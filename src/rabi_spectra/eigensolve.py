"""Eigenvalue solvers with truncation certification.

Two independent routes are kept deliberately decoupled so each can serve as
an oracle for the other:

* Sturm-sequence counts on symmetric tridiagonal matrices (the production
  path): each sweep counts many shifts at once and stops at the chain's
  count-free tail, past the top shift's turning point, where a floor on
  every pivot, set at the top shift, proves that no shift gains a count.
  Multisection, ``_SWEEP_SHIFTS`` shifts per sweep spread over the
  brackets, solves a whole matrix and is the certificate's fallback, and
* LAPACK's dense symmetric eigensolver (``numpy.linalg.eigvalsh``) on small
  matrices.

Levels of the infinite Fock chains are certified from one truncation, cut a
decay margin past the turning point of the top level; a window certifies
levels k0 .. k1 only, with the truncation of k1.  Each level is guessed by
Newton steps on log|det(T_N - x)| (Li and Zeng 1994) from the three-term
asymptotic formula, inside its Weyl bracket around the exactly solvable
Delta = 0 spectrum, and the steps stop once nearly every guess has
converged; each slope is read by the complex step (Squire and Trapp 1998)
from one pivot sweep at x + ih, the Sturm count's recurrence
(``_pivot_blocks``) in complex arithmetic.  A bracket around the guess encloses the
level of the infinite chain from above by a Sturm count of the truncation
and, from below, by a Sturm count of the truncation with its last diagonal
lowered by the dropped coupling (a rank-one split whose tail lies above a
closed-form floor), each up to one rounding allowance from the backward
error of the Sturm count; the two matrices differ only in their last
diagonal, so one sweep makes both counts.  A level that fails either count
is bisected from its Weyl bracket, with no sweep to check that bracket, and
counted again.  One chain is built per certificate, after a work budget of
sites x window levels is checked.  Since a sweep's early stop leaves every
count as the full sweep's, the brackets, the certificate and its allowance
are those of a full sweep.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .model import ChainSelector, ModelParams, SymTriMatrix, _diag_asym, build_chain

__all__ = [
    "ConvergenceError",
    "Spectrum",
    "sturm_count",
    "eigenvalues_bisection",
    "eigenvalues_dense",
    "converged_levels",
]

DENSE_MAX_DIM = 512
# Caps on one truncation of converged_levels: chain sites, and sites x levels.
MAX_CHAIN_DIM = 2**20
MAX_CHAIN_WORK = 2**26
_EPS = float(np.finfo(float).eps)
_PATHS = ("direct", "a_posteriori")
# Sites per block of a pivot sweep (_pivot_blocks): d_i - x is formed for a block at once.
_SWEEP_BLOCK = 16
# Shifts per Sturm sweep of _bisect, shared out among the brackets.
_SWEEP_SHIFTS = 512
# Cap on the Newton sweeps of converged_levels; most runs stop earlier.
_NEWTON_SWEEPS = 5
# Imaginary step of _det_slopes: h^2 is far below the rounding of any pivot.
_SLOPE_STEP = 2.0**-200


class ConvergenceError(RuntimeError):
    """No certificate: the truncation exceeds a cap, or a level is not enclosed to tol there."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with per-level error bounds.

    ``values`` is a read-only copy of the eigenvalues, and ``truncation_dim``
    records the matrix dimension they came from.
    ``bounds`` is a read-only per-level error bound (``tol`` for every level
    unless the solver supplies one) and ``path`` names the route behind it:
    ``"direct"`` for a solve of the given matrix, ``"a_posteriori"`` when
    every level of an infinite chain is enclosed by its bracket (see
    :func:`converged_levels`).  ``first`` is the index of the lowest level
    held: ``values[j]`` is level first + j.
    """

    values: np.ndarray
    truncation_dim: int
    tol: float
    bounds: np.ndarray | None = None
    path: str = "direct"
    first: int = 0

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
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


def _pivot_blocks(t: SymTriMatrix, pivots: np.ndarray, fill: Callable) -> Iterator[np.ndarray]:
    """Sweep the pivots of ``t`` for many shifts at once, yielding them ``_SWEEP_BLOCK`` sites at a time.

    The pivots of T - x are q_0 = d_0 - x and q_i = (d_i - x) - b_{i-1}^2 /
    q_{i-1}, one column of ``pivots`` per shift, whose dtype (float for a
    Sturm count, complex for a complex step) the b^2 are cast to.  For each
    block of sites from ``start`` on, ``fill(block, start)`` writes d_i - x
    into the leading rows of the buffer ``pivots``, the pivots overwrite it
    row by row, unguarded, and the block is yielded; the next block
    overwrites it, so each block's last pivot is copied out first.  Where
    b_{i-1}^2 = 0 (i = 0, a zero coupling, or one whose square underflows)
    the divide is skipped and the pivot restarts at d_i - x, so 0/0 never
    occurs; :class:`SymTriMatrix` keeps every b^2 and d - x finite.  A zero
    or tiny pivot makes the next one huge or infinite; callers set the
    ``np.errstate`` that this needs.
    """
    off_sq = np.concatenate([[0.0], t.off**2]).astype(pivots.dtype, copy=False)
    rows = list(pivots)
    q, ratio = np.empty((2, pivots.shape[1]), pivots.dtype)
    for start in range(0, t.n, _SWEEP_BLOCK):
        block = pivots[: min(_SWEEP_BLOCK, t.n - start)]
        fill(block, start)
        prev = q
        # Outputs go positionally: the out= keyword costs a parse per call.
        for b_sq, row in zip(off_sq[start : start + block.shape[0]].tolist(), rows):
            if b_sq:
                np.divide(b_sq, prev, ratio)
                np.subtract(row, ratio, row)
            prev = row
        np.copyto(q, prev)
        yield block


def _sturm_counts(t: SymTriMatrix, xs: np.ndarray, last: np.ndarray | None = None) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in ``xs``.

    With ``last``, shift j counts the eigenvalues of ``t`` with its last
    diagonal replaced by last_j, so that one sweep counts matrices that
    differ only there.

    The count is the number of negative pivots of :func:`_pivot_blocks`,
    whose sign bits are summed a block at a time.  A zero or tiny pivot
    makes the next one huge or infinite with the opposite sign bit, so the
    pair still counts once, as the exact sequence does.

    The sweep ends at a block boundary j once the rest of the chain is
    proved count-free for every shift.  With X = max(xs), the pivot floor of
    site i is f_i = (d_i - X) - b_{i-1}^2 / |b_{i-1}|, rounded as the sweep
    rounds.  The sweep may end at the first j past the last site where f_i > 0
    and f_i >= |b_i| (f_i > 0 at the last site) do not both hold, once the
    minimum over shifts of q_{j-1} is >= |b_{j-1}|.  Each IEEE operation is
    monotone in each argument, so q_{i-1} >= |b_{i-1}| gives
    b_{i-1}^2 / q_{i-1} <= b_{i-1}^2 / |b_{i-1}| as rounded, and by induction
    q_i(x) >= f_i >= |b_i| and q_i(x) > 0 for every shift x <= X: the counts
    equal the full sweep's bit for bit (Kahan 1966; Parlett, The Symmetric
    Eigenvalue Problem, ch. 10).  No rounding allowance enters, so the bound
    holds where b^2 is subnormal, and a zero coupling's floor is 0/0 = NaN,
    which fails the test and only moves the end later.  With ``last`` the
    last site's floor starts from min(last) - X, below every rounded
    last_j - x_j by the same monotonicity.
    """
    xs = np.asarray(xs, dtype=float)
    pivots = np.empty((min(_SWEEP_BLOCK, t.n), xs.size))
    count = np.zeros(xs.shape, dtype=np.int64)
    size = np.abs(t.off)
    # The pivot floor f_i at the top shift; a zero coupling's 0/0 fails the gate.
    top = float(xs.max(initial=-math.inf))
    with np.errstate(over="ignore", invalid="ignore"):
        floor = t.diag - top
        if last is not None:
            floor[-1] = float(np.min(last, initial=math.inf)) - top
        floor[1:] -= t.off**2 / size
    proved = floor > 0
    proved[:-1] &= floor[:-1] >= size
    short = np.flatnonzero(~proved)
    gate = int(short[-1]) + 1 if short.size else 1

    def fill(block: np.ndarray, start: int) -> None:
        # d_i - x over a copy of the shifts: from xs itself numpy would buffer a second block.
        np.copyto(block, xs)
        np.subtract(t.diag[start : start + block.shape[0], None], block, block)
        if last is not None and start + block.shape[0] == t.n:
            np.subtract(last, xs, block[-1])

    end = 0
    with np.errstate(divide="ignore", over="ignore"):
        for block in _pivot_blocks(t, pivots, fill):
            count += np.signbit(block).sum(axis=0)
            end += block.shape[0]
            if gate <= end < t.n and block[-1].min(initial=math.inf) >= size[end - 1]:
                break
    return count


def _det_slopes(t: SymTriMatrix, xs: np.ndarray) -> np.ndarray:
    """Slope G(x) = sum_i q_i'/q_i = sum_k 1/(x - lambda_k) of log|det(T - x)| at each shift in ``xs``.

    The complex step (Squire and Trapp, SIAM Review 40, 1998): the pivots of
    :func:`_pivot_blocks` are swept in complex arithmetic at z = x + ih,
    h = 2^-200, so that q_i(z) = q_i(x) + ih q_i'(x) up to terms h^2 below
    rounding, and Im q_i / (h Re q_i) reads q_i'/q_i with no difference to
    cancel.  Each site costs a divide and a subtract, as in the count.  A
    zero pivot makes G inf or NaN.
    """
    pivots = np.empty((min(_SWEEP_BLOCK, t.n), xs.size), dtype=complex)
    total, part = np.zeros(xs.shape), np.empty(xs.shape)

    def fill(block: np.ndarray, start: int) -> None:
        # The shift's parts go to the views, so that no ufunc casts float to complex.
        np.subtract(t.diag[start : start + block.shape[0], None], xs, block.real)
        block.imag = -_SLOPE_STEP

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for block in _pivot_blocks(t, pivots, fill):
            # With the last pivot copied out, each q_i'/q_i overwrites Re q_i.
            np.divide(block.imag, block.real, block.real)
            total += block.real.sum(axis=0, out=part)
    return total / _SLOPE_STEP


def sturm_count(t: SymTriMatrix, x: float) -> int:
    """Count eigenvalues of ``t`` strictly less than ``x``.

    Monotone non-decreasing in x; an eigenvalue exactly at x is not counted.
    A NaN shift raises ``ValueError``.
    """
    if math.isnan(x):
        raise ValueError("shift x must not be NaN")
    return int(_sturm_counts(t, np.asarray([x], dtype=float))[0])


def _bisect(
    t: SymTriMatrix, lo: np.ndarray, hi: np.ndarray, tol: float, ks: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink brackets of eigenvalues ``ks`` (default: the lowest lo.size) to width <= tol by multisection.

    Bracket j holds eigenvalue k = ks_j if count(lo_j) <= k < count(hi_j).
    Each Sturm sweep counts pts = max(1, _SWEEP_SHIFTS // lo.size)
    equally spaced interior points of every bracket at once (Simon, "Bisection
    is not optimal on vector processors", 1989) and cuts the bracket to the
    sub-interval where the count crosses k, a factor pts + 1 narrower; with
    pts = 1 this is bisection at the midpoints.  The new lo is the last point
    of the leading run of points whose count is <= k, and the new hi the
    point after it, so each end either stays at its start or moves to a point
    whose count is on its side of k: the invariant holds even where rounding
    makes the counts non-monotone, and a start end on the wrong side of k is
    kept while the other end closes in on it.  The number of sweeps
    is bounded in advance, since a tol below one ulp of the level is never met.
    """
    k = lo.size
    idx = np.arange(k)
    ks = idx if ks is None else ks
    pts = max(1, _SWEEP_SHIFTS // k)
    # Offsets from the midpoint, so that pts = 1 sweeps at 0.5 (lo + hi) exactly.
    offsets = np.arange(1, pts + 1) / (pts + 1) - 0.5
    width = float(np.max(hi - lo))
    if width > tol:
        sweeps = math.ceil((math.log2(width) - math.log2(tol)) / math.log2(pts + 1)) + 1
    else:
        sweeps = 0
    for _ in range(sweeps):
        xs = (0.5 * (lo + hi))[:, None] + (hi - lo)[:, None] * offsets
        # A bracket a few ulps wide can round a point just past one of its ends.
        np.clip(xs, lo[:, None], hi[:, None], out=xs)
        below = _sturm_counts(t, xs.ravel()).reshape(k, pts) <= ks[:, None]
        run = np.logical_and.accumulate(below, axis=1).sum(axis=1)
        grid = np.concatenate([lo[:, None], xs, hi[:, None]], axis=1)
        lo, hi = grid[idx, run], grid[idx, run + 1]
        if np.max(hi - lo) <= tol:
            break
    return lo, hi


def _bisect_lowest(t: SymTriMatrix, k: int, tol: float) -> np.ndarray:
    """Lowest ``k`` eigenvalues, bracketed from the Gershgorin interval to width <= tol.

    Level j starts in the cell of ``_SWEEP_SHIFTS`` points where the running
    maximum of their counts passes j, so count(lo) <= j < count(hi).
    """
    grid = np.linspace(*t.gershgorin(), _SWEEP_SHIFTS + 2)
    counts = np.maximum.accumulate(_sturm_counts(t, grid[1:-1]))
    start = np.searchsorted(counts, np.arange(k), side="right")
    lo, hi = _bisect(t, grid[start], grid[start + 1], tol)
    return 0.5 * (lo + hi)


def eigenvalues_bisection(t: SymTriMatrix, tol: float) -> Spectrum:
    """All eigenvalues of a symmetric tridiagonal matrix by Sturm multisection.

    Brackets start from the Gershgorin interval, so no eigenvalue estimates
    are needed from the caller; see :func:`_bisect` for the sweeps, whose
    number is bounded even for a tol below one ulp of the eigenvalues.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    vals = _bisect_lowest(t, t.n, tol)
    return Spectrum(values=np.sort(vals), truncation_dim=t.n, tol=tol)


def eigenvalues_dense(a: np.ndarray) -> Spectrum:
    """Eigenvalues of a small dense symmetric matrix by LAPACK (``numpy.linalg.eigvalsh``).

    Independent oracle for the Sturm route: Householder reduction and a
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
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(a)))) if n else 1.0
    if n and float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to 1e-12")
    values = np.linalg.eigvalsh(0.5 * (a + a.T))
    return Spectrum(values=values, truncation_dim=n, tol=n * _EPS * scale)


def _first_truncation(params: ModelParams, chain: ChainSelector, level_count: float) -> float:
    """First truncation of :func:`converged_levels`: a margin past the top level's turning point.

    From site j_t = E / (2 (1 - 2g)), E = mu_top + |Delta|/2 + g, on, the tail
    floor F lies above mu_top + |Delta|/2, the top of the top level's Weyl
    bracket; there the top eigenvector leaves the allowed band.  The start adds a quarter of j_t for the turning region and
    32 / acosh(1/(2g)) sites, over which the eigenvector decays by about
    e^-32.  On 150 seeded cases the smallest truncation that certified was at
    most 0.9 of this start.  The size is a whole number as a float, inf
    where it overflows, so that the work budget can refuse it before any
    chain is built.
    """
    mu_top = params.omega * (2 * (level_count - 1) + chain.parity.offset + 0.5) - 0.5
    turning = (mu_top + abs(params.delta) / 2.0 + params.g) / (2.0 * (1.0 - 2.0 * params.g))
    decay = math.acosh(1.0 / (2.0 * params.g))
    return max(float(np.ceil(1.25 * turning + 32.0 / decay)), 64.0)


def _enclose(
    t: SymTriMatrix, drop: float, lo: np.ndarray, hi: np.ndarray, ks: np.ndarray, floor: float
) -> np.ndarray:
    """Mask of the levels ``ks`` whose brackets [lo, hi] pass both Sturm counts, from one sweep.

    count(T_N, hi_k) > k and, with T' the matrix ``t`` whose last diagonal
    is lowered by ``drop``, count(T', lo_k) <= k with lo_k < ``floor``: the
    shifts hi and lo share one sweep, with a last diagonal for each.
    """
    size = ks.size
    last = np.full(2 * size, t.diag[-1])
    last[size:] -= drop
    counts = _sturm_counts(t, np.concatenate((hi, lo)), last)
    return (counts[:size] > ks) & (counts[size:] <= ks) & (lo < floor)


def converged_levels(
    params: ModelParams,
    chain: ChainSelector,
    level_count: int,
    tol: float,
    first: int = 0,
) -> Spectrum:
    """Eigenvalues first .. first + level_count - 1 of an infinite parity chain, certified to ``tol``.

    The default ``first`` = 0 takes the lowest ``level_count`` levels; a
    window with ``first`` > 0 certifies its own levels only, at the
    truncation of its top level, and every index below is absolute.  The
    work budget counts the window's levels, since a sweep's cost is its
    sites times its shifts, and the window has one shift per level.

    The chain is truncated once, at N sites, a margin past the site where
    the tail floor F below clears the top level (``_first_truncation``).  The
    Delta = 0 chain has the exact levels mu_k = omega (2k + p + 1/2) - 1/2 and
    the perturbation has norm |Delta|/2, so by Weyl's inequality level k lies
    in mu_k -+ |Delta|/2, inside the unchecked Weyl bracket
    mu_k -+ (|Delta|/2 + tol).

    Guess x_k comes from Newton steps on log|det(T_N - x)|, each clipped to
    the Weyl bracket, with the slope read by the complex step
    (``_det_slopes``).  They start from the three-term formula mu_k +- V~_nn
    asymptotics at Fock index n = 2k + p, the sign the branch's, clipped to
    the bracket; level 0, which has no such value, starts from mu_0.  Newton
    converges quadratically on the scale of the level spacing, so a step s_k
    with s_k^2 <= omega (tol - a)/4 is taken to leave its guess within
    (tol - a)/4 of the level, unless the step was clipped to a bracket end,
    which lies at least tol from the level; the sweeps stop once at most
    max(1, level_count // 8) guesses are left late by either test, after
    ``_NEWTON_SWEEPS`` at most.  Level k keeps [lo_k, hi_k] =
    x_k -+ (tol - a)/4 if both of its ends pass, each enclosing eigenvalue k
    of the infinite chain H up to the rounding allowance a below.  T' and T_N
    differ only in their last diagonal, so one sweep (``_enclose``) counts
    T_N at every hi and T' at every lo.

    * upper end: an explicit count(T_N, hi_k) > k, where min-max gives
      lambda_k(H) <= theta_k(T_N) < hi_k + a;
    * lower end: with b = b_N-1 the coupling to the first dropped site,
      H - b (e_N-1 + e_N)(e_N-1 + e_N)^T splits into T' (T_N with its last
      diagonal lowered by b) and the dropped tail with its first diagonal
      lowered by b.  Each tail row at Fock index n has diagonal minus
      off-diagonals at least n (1 - 2g) - g - |Delta|/2, so the tail lies
      above F = n0 (1 - 2g) - g - |Delta|/2 with n0 = 2N + p.  If T' has at
      most k eigenvalues below lo_k < F, min-max gives lambda_k(H) >= lo_k - a
      (Parlett, The Symmetric Eigenvalue Problem, ch. 10).

    A level that fails either end is bisected by ``_bisect`` from its Weyl
    bracket to width tol - a, with its absolute index, and both of its new
    ends are counted again as above, in one sweep.  A bracket collapses onto
    a wrong start end, so a count or the bound rejects its level:
    ConvergenceError, never a wrong certificate.
    A computed Sturm count is the exact count of T + E with |E_ii| <= eps
    |d_i - x| and off-diagonals off by at most 2.5 eps relative (Kahan 1966;
    Demmel, Applied Numerical Linear Algebra, sec. 5.3), so
    ||E|| <= a = 4 eps max(1, |Gershgorin ends of the N + 1-site chain|) for
    shifts inside those ends, which hold T_N, T' and F.  ``bounds`` is the
    bracket half-width plus a, and F is lowered by a.  Every level must be
    enclosed with its bound below tol.

    ``level_count`` and ``first`` go through ``operator.index``: numpy
    integers are read as ints, and a non-integer raises TypeError.

    Raises:
        ValueError: if level_count < 1 or first < 0, if tol is not positive
            or makes the start brackets (width 2 (|Delta|/2 + tol)) overflow,
            or if tol is below the floor 2a, checked once the chain is built
            and before any Sturm sweep; bisection to width tol - a leaves the
            bound at most (tol + a)/2, below every admitted tol.
        ConvergenceError: if the truncation exceeds the module caps
            ``MAX_CHAIN_DIM`` sites or ``MAX_CHAIN_WORK`` sites x window levels,
            checked before the chain is built, or if a level is not enclosed
            with its bound below tol at that truncation.
    """
    level_count, first = operator.index(level_count), operator.index(first)
    if level_count < 1:
        raise ValueError("level_count must be at least 1")
    if first < 0:
        raise ValueError("first must be at least 0")
    spread = abs(params.delta) / 2.0
    if not (tol > 0 and math.isfinite(2.0 * (spread + tol))):
        raise ValueError(f"tol={tol!r} must be positive, with a finite bracket width 2 (|Delta|/2 + tol)")
    # The budget is checked in floats, with level counts inf past the double range.
    levels, reach = (
        float(n) if n <= sys.float_info.max else math.inf for n in (level_count, first + level_count)
    )
    size = _first_truncation(params, chain, reach)
    if not (size <= MAX_CHAIN_DIM and size * levels <= MAX_CHAIN_WORK):
        span = f"levels {first} to {first + level_count - 1}" if reach < 2**53 else f"{levels:.3g} levels"
        raise ConvergenceError(
            f"{span} need chain dimension {size:.3g}"
            f" ({size * levels:.3g} sites x levels), beyond the cap of {MAX_CHAIN_DIM} sites"
            f" or {MAX_CHAIN_WORK} sites x levels"
        )
    n_dim = int(size)
    full = build_chain(params, chain, n_dim + 1)
    bottom, top = full.gershgorin()
    allowance = 4.0 * _EPS * max(1.0, abs(bottom), abs(top))
    if tol < 2.0 * allowance:
        raise ValueError(f"tol={tol!r} is below the double-precision floor {2.0 * allowance:.3e}")
    ks = np.arange(first, first + level_count)
    mu = params.omega * (2 * ks + chain.parity.offset + 0.5) - 0.5
    t = SymTriMatrix(diag=full.diag[:-1], off=full.off[:-1])
    n0 = 2 * n_dim + chain.parity.offset
    tail_floor = n0 * (1.0 - 2.0 * params.g) - params.g - spread - allowance
    width = tol - allowance
    lo, hi = mu - (spread + tol), mu + (spread + tol)
    # A longer step may leave its guess more than (tol - a)/4 off its level.
    late_sq = params.omega * width / 4.0
    with np.errstate(all="ignore"):
        # Level 0's asymptotics is inf or NaN, so it starts from mu_0.
        x = mu + chain.branch.sign * _diag_asym(params, 2 * ks + chain.parity.offset)
        x = np.fmax(lo, np.fmin(hi, np.where(np.isfinite(x), x, mu)))
        for _ in range(_NEWTON_SWEEPS):
            # A NaN step lands on hi, since np.fmin drops NaN.
            new = np.fmax(lo, np.fmin(hi, x - 1.0 / _det_slopes(t, x)))
            late = np.count_nonzero(((new - x) ** 2 > late_sq) | (new == lo) | (new == hi))
            x = new
            if late <= max(1, level_count // 8):
                break
    lo_x, hi_x = x - width / 4.0, x + width / 4.0
    enclosed = _enclose(t, full.off[-1], lo_x, hi_x, ks, tail_floor)
    lo, hi = np.where(enclosed, lo_x, lo), np.where(enclosed, hi_x, hi)
    bad = ~enclosed
    if bad.any():
        lo[bad], hi[bad] = _bisect(t, lo[bad], hi[bad], width, ks[bad])
        enclosed[bad] = _enclose(t, full.off[-1], lo[bad], hi[bad], ks[bad], tail_floor)
    values = 0.5 * (lo + hi)
    bounds = 0.5 * (hi - lo) + allowance
    certified = enclosed & (bounds < tol)
    if not certified.all():
        k = first + int(np.argmin(certified))
        raise ConvergenceError(f"level {k} not enclosed to tol={tol!r} at chain dimension {n_dim}")
    return Spectrum(
        values=np.sort(values), truncation_dim=n_dim, tol=tol, bounds=bounds, path="a_posteriori", first=first
    )
