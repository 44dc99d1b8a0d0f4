"""Transformed perturbation matrix, correction terms, and the three-term formula.

After the squeeze transformation the branch Hamiltonian becomes
diag(omega (n + 1/2) - 1/2) + V~ with the bounded, non-compact perturbation

    V~_{m,n} = (-1)^{floor(n/2)} (Delta/2) sqrt(omega) g^{(m+n)/2}
               sqrt(m!/n!) P_n^{(s)}(omega/(2g)),     s = (m-n)/2, m >= n,

symmetric in (m, n) and vanishing across parities.  The scalar V~ is the
signed squeeze element (Delta/2) (-1)^floor(m/2) U(2 lam)_{m,n} of
:mod:`rabi_spectra.squeeze`; rows come from an independent recurrence on
the squeezed column.  This module evaluates V~ (scalar and row-wise), its
diagonal asymptotics, the second-order correction sums, the generic
resolvent gap bound delta_n, and assembles the three-term asymptotic formula

    E_n^{+-} = n omega + (omega - 1)/2 +- V~_nn-asymptotics + O(ln n / n)

against certified numerical eigenvalues.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eigensolve import converged_levels
from .model import Branch, ChainSelector, ModelParams, Parity, _diag_asym
from .polys import MAX_ELEMENT_INDEX
from .squeeze import _element

__all__ = [
    "DegenerateGapError",
    "AsymptoticBreakdown",
    "SpectrumModel",
    "v_tilde",
    "v_tilde_row",
    "v_tilde_diag_asym",
    "second_order",
    "second_order_tail",
    "k_norm_sq",
    "k_norm_sq_tail",
    "row_tail_mass",
    "delta_n",
    "three_term",
    "residual_study",
]


class DegenerateGapError(ValueError):
    """Consecutive unperturbed eigenvalues coincide; the gap radius vanishes."""


@dataclass(frozen=True)
class AsymptoticBreakdown:
    """Per-level decomposition of the three-term asymptotic formula.

    ``three_term`` is constructed as linear + shift + oscillatory exactly;
    ``numeric`` and ``residual`` stay None until certified eigenvalues are
    attached (see :func:`residual_study`).
    """

    n: int
    linear: float
    shift: float
    oscillatory: float
    three_term: float
    numeric: float | None = None
    residual: float | None = None

    @property
    def res_times_n(self) -> float | None:
        return None if self.residual is None else self.residual * self.n

    @property
    def res_n_over_log_n(self) -> float | None:
        if self.residual is None:
            return None
        return self.residual * self.n / math.log(self.n)


@dataclass(frozen=True)
class SpectrumModel:
    """Tabulated unperturbed eigenvalues and perturbation row norms.

    Both tables must be finite, and ``mu`` strictly increasing over the
    tabulated range; index m of ``row_norms`` holds ||R e_m||.
    """

    mu: np.ndarray
    row_norms: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "row_norms", np.asarray(self.row_norms, dtype=float))
        if self.mu.size != self.row_norms.size:
            raise ValueError("mu and row_norms must have equal length")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.row_norms).all()):
            raise ValueError("mu and row_norms must be finite")
        if np.any(np.diff(self.mu) <= 0):
            raise ValueError("mu must be strictly increasing")


def v_tilde(m: int, n: int, params: ModelParams) -> float:
    """Single element of the transformed perturbation matrix.

    The signed squeeze element (Delta/2) (-1)^floor(m/2) U(2 lam)_{m,n}: the
    kernel ``squeeze._element`` (see there for its accuracy next to nodes of
    P) at tanh(4 lam) = 2g and 1/cosh(4 lam) = omega, so x = omega/(2g).
    Indices go through ``operator.index``: numpy integers are read as ints,
    and a non-integer raises TypeError.
    """
    m, n = operator.index(m), operator.index(n)
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if m > MAX_ELEMENT_INDEX or n > MAX_ELEMENT_INDEX:
        raise ValueError(f"indices exceed the configured range {MAX_ELEMENT_INDEX}")
    if params.delta == 0.0:
        return 0.0
    return (params.delta / 2.0) * (-1.0) ** (m // 2) * _element(m, n, 2.0 * params.g, params.omega)


# Rescaling threshold of the recurrence passes (far from overflow).
_HUGE = 1e150


def _recur(a: list[float], b: list[float], c: list[float]) -> np.ndarray:
    """Solution of c_i x_{i+1} = a_i x_i - b_i x_{i-1} from x_{-1} = 0, x_0 = 1.

    Returns x_0..x_len(a), scaled by the largest |x_i|.  A step above 1e150,
    or one that overflows (|a_i| above about 1e158, at tiny g), is redone
    after the prefix is scaled to max(|x_i-1|, |x_i|) = 1, so growing
    solutions never overflow.
    """
    x = np.empty(len(a) + 1)
    x[0] = cur = 1.0
    prev = 0.0
    for i, (ai, bi, ci) in enumerate(zip(a, b, c)):
        step = (ai * cur - bi * prev) / ci
        if not abs(step) <= _HUGE:
            scale = max(abs(prev), abs(cur))
            x[: i + 1] /= scale
            prev, cur = prev / scale, cur / scale
            step = (ai * cur - bi * prev) / ci
        prev, cur = cur, step
        x[i + 1] = cur
    return x / np.max(np.abs(x))


def _squeezed_column(g: float, n: int, cutoff: int) -> np.ndarray:
    """Column n of U(2 lam) on its parity sites j (Fock index 2j + n % 2), past Fock index cutoff.

    The column is the unit eigenvector, positive at j = 0, of the H0 parity
    chain at coupling g2 = 2g/(1+4g^2) for the eigenvalue w2 (n+1/2) - 1/2,
    w2 = (1-4g^2)/(1+4g^2).  Divided by g2, the chain equation at site j
    (k = 2j + p) reads

        s_{j-1} x_{j-1} + s_j x_{j+1} = t_j x_j,   s_j = sqrt((k+1)(k+2)),
        t_j = (n - k) (1/(2g) + 2g) - 4g (n + 1/2).

    The forward recurrence runs from j = 0 to n//2 + 1 and the backward one
    (Miller) from a deep start K down to n//2; the two are joined by the
    least-squares scale over sites n//2 and n//2 + 1.  Past the outer
    turning point k = n (1+2g)/(1-2g) the column decays; from twice that
    index on, each site shrinks it by at least r2, the decaying root of
    r + 1/r = (1+2g)^2/(4g) (the large-k chain ratio there).  K is placed
    62 decades of that decay past the last returned site cutoff // 2 or
    twice the turning point, whichever is later, so every returned entry
    carries a start error below 1e-40; K never passes the deep start 370
    decades past twice the turning point, beyond which every entry lies
    below double underflow.  Rows of different cutoffs agree to rounding.
    The column is normalised over every computed site, which holds all of
    its mass past the cutoff too.  A t_j that overflows (g below about
    |n - k| x 2.8e-309) raises ValueError.
    """
    p = n % 2
    turn = n * (1.0 + 2.0 * g) / (2.0 * (1.0 - 2.0 * g))
    lead = (1.0 + 2.0 * g) ** 2
    r2 = 8.0 * g / (lead + (1.0 - 2.0 * g) * math.sqrt(lead + 8.0 * g))
    ln10, ln_r2 = math.log(10.0), -math.log(r2)
    deep = math.ceil(2.0 * turn + 370.0 * ln10 / ln_r2)
    top = min(deep, math.ceil(max(cutoff // 2, 2.0 * turn) + 62.0 * ln10 / ln_r2)) + 2
    if top > MAX_ELEMENT_INDEX:
        raise ValueError(
            f"column {n} at g={g} spans {top} chain sites, beyond the work budget "
            f"{MAX_ELEMENT_INDEX}"
        )
    fock = 2.0 * np.arange(top + 1) + p
    with np.errstate(over="ignore", invalid="ignore"):
        t = (n - fock) * (0.5 / g + 2.0 * g) - 4.0 * g * (n + 0.5)
    if not np.isfinite(t).all():
        raise ValueError(f"column {n} at g={g!r} overflows: its chain entries t_j ~ (n - k)/(2g)")
    t = t.tolist()
    s = np.sqrt((fock + 1.0) * (fock + 2.0)).tolist()
    m = n // 2
    fwd = _recur(t[: m + 1], [0.0] + s[:m], s[: m + 1])
    back = _recur(t[:m:-1], s[:m:-1], s[top - 1 : m - 1 if m else None : -1])[::-1]
    scale = np.dot(fwd[m:], back[:2]) / np.dot(back[:2], back[:2])
    x = np.concatenate((fwd[: m + 1], scale * back[1:]))
    x /= np.max(np.abs(x))
    return x / np.linalg.norm(x)


@lru_cache(maxsize=64)
def _v_row_cached(g: float, delta: float, n: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Row V~_{k,n} for k = parity(n)..cutoff sharing n's parity, as read-only arrays.

    V~_{k,n} = (Delta/2) (-1)^floor(k/2) U(2 lam)_{k,n}, from the squeezed
    column recurred only as deep as this cutoff needs; entries past the
    computed column are below double underflow and stay zero.
    """
    ks = np.arange(n % 2, cutoff + 1, 2)
    values = np.zeros(ks.size)
    if delta != 0.0:
        x = _squeezed_column(g, n, cutoff)[: ks.size]
        values[: x.size] = np.where(np.arange(x.size) % 2 == 0, 0.5, -0.5) * delta * x
    ks.setflags(write=False)
    values.setflags(write=False)
    return ks, values


def v_tilde_row(params: ModelParams, n: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """All same-parity elements V~_{k,n}, k <= cutoff, as (indices, values)."""
    if n < 0 or cutoff < n:
        raise ValueError("need 0 <= n <= cutoff")
    if cutoff > MAX_ELEMENT_INDEX:
        raise ValueError(f"cutoff exceeds the configured range {MAX_ELEMENT_INDEX}")
    return _v_row_cached(params.g, params.delta, n, cutoff)


def v_tilde_diag_asym(n: int, params: ModelParams) -> float:
    """Leading asymptotic term of the diagonal element V~_nn.

       (-1)^{floor(n/2)} (Delta/2) sqrt(omega/(pi g n)) cos(A (n+1/2) - pi n/2),

    A = arctan(omega/(2g)); the dropped remainder is O(n^{-3/2}).
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    return float(_diag_asym(params, np.asarray(n)))


def row_tail_mass(n: int, params: ModelParams, cutoff: int) -> float:
    """Upper bound on sum_{k > cutoff} V~_kn^2 from the row-sum identity.

    The full row satisfies sum_k V~_kn^2 = Delta^2/4 (V~ squares to a
    multiple of the identity), so the tail is the deficit of the partial sum.
    """
    _, vals = v_tilde_row(params, n, cutoff)
    return max(params.delta**2 / 4.0 - float(np.sum(vals * vals)), 0.0)


def _row_moment(n: int, params: ModelParams, cutoff: int, power: int) -> float:
    """sum_{k != n, k <= cutoff} V~_kn^2 / ((n-k) omega)^power, for power 1 or 2."""
    if cutoff <= 2 * n:
        raise ValueError("cutoff too small: requires cutoff > 2n")
    ks, vals = v_tilde_row(params, n, cutoff)
    mask = ks != n
    return float(np.sum(vals[mask] ** 2 / (n - ks[mask]) ** power)) / params.omega**power


def _tail_moment(n: int, params: ModelParams, cutoff: int, power: int) -> float:
    """Tail bound of :func:`_row_moment`: row tail mass over the least |(n-k) omega|^power."""
    return row_tail_mass(n, params, cutoff) / (params.omega**power * (cutoff + 1 - n) ** power)


def second_order(n: int, params: ModelParams, cutoff: int) -> float:
    """Second-order correction sum_{k != n, k <= cutoff} V~_nk^2 / ((n-k) omega).

    Stated in physical units: the oscillator reduction divides the problem
    by omega, and mapping the correction back multiplies by omega once,
    leaving a single 1/omega on the second-order term.
    """
    return _row_moment(n, params, cutoff, 1)


def second_order_tail(n: int, params: ModelParams, cutoff: int) -> float:
    """Bound on the neglected |tail| of :func:`second_order` past the cutoff."""
    return _tail_moment(n, params, cutoff, 1)


def k_norm_sq(n: int, params: ModelParams, cutoff: int) -> float:
    """||K e_n||^2 = sum_{k != n, k <= cutoff} V~_kn^2 / ((k-n)^2 omega^2).

    K is the anti-hermitian similarity generator of the scaled (mu_n = n)
    problem, hence the 1/omega^2.
    """
    return _row_moment(n, params, cutoff, 2)


def k_norm_sq_tail(n: int, params: ModelParams, cutoff: int) -> float:
    """Bound on the neglected tail of :func:`k_norm_sq` past the cutoff."""
    return _tail_moment(n, params, cutoff, 2)


def delta_n(model: SpectrumModel, n: int, m_cutoff: int) -> float:
    """Resolvent gap bound controlling the perturbative eigenvalue formula.

    With r_n = min(mu_n - mu_{n-1}, mu_{n+1} - mu_n)/2,

        delta_n^2 = sum_{m <= n} ||Re_m||^2 / (mu_m - mu_n + r_n)^2
                  + sum_{n < m <= cutoff} ||Re_m||^2 / (mu_m - mu_n - r_n)^2

    (the m = n term contributes ||Re_n||^2 / r_n^2).

    Raises:
        ValueError: unless 1 <= n <= m_cutoff < len(mu) and n < len(mu) - 1;
            a cutoff below n would drop terms of the first sum.
        DegenerateGapError: if a neighbouring gap vanishes.
    """
    mu = model.mu
    if not 1 <= n <= mu.size - 2:
        raise ValueError("n must be interior to the tabulated range")
    if m_cutoff < n:
        raise ValueError(f"m_cutoff={m_cutoff} must be at least n={n}")
    if m_cutoff >= mu.size:
        raise ValueError("mu must be tabulated beyond m_cutoff")
    gap = min(mu[n] - mu[n - 1], mu[n + 1] - mu[n])
    if gap <= 0.0:
        raise DegenerateGapError(f"degenerate gap at n={n}")
    r_n = gap / 2.0
    ms = np.arange(m_cutoff + 1)
    denom = np.where(ms <= n, mu[ms] - mu[n] + r_n, mu[ms] - mu[n] - r_n)
    return float(np.sqrt(np.sum((model.row_norms[ms] / denom) ** 2)))


def _three_term_columns(
    params: ModelParams, branch: Branch, ns: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Columns (linear, shift, oscillatory, three_term) of the formula at Fock indices ns.

    three_term is summed as (linear + shift) + oscillatory, element by element.
    """
    linear = ns * params.omega
    shift = (params.omega - 1.0) / 2.0
    oscillatory = branch.sign * _diag_asym(params, ns)
    return linear, shift, oscillatory, linear + shift + oscillatory


def three_term(n: int, params: ModelParams, branch: Branch) -> AsymptoticBreakdown:
    """Three-term asymptotic breakdown of level n (numeric fields unfilled).

    The one-row form of the columns that :func:`residual_study` computes, so
    its fields equal those of row n there exactly.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    linear, shift, oscillatory, total = _three_term_columns(params, branch, np.arange(n, n + 1))
    return AsymptoticBreakdown(n, linear.item(), shift, oscillatory.item(), total.item())


def residual_study(
    params: ModelParams,
    branch: Branch,
    n_min: int,
    n_max: int,
    tol: float,
) -> list[AsymptoticBreakdown]:
    """Three-term breakdowns with certified eigenvalues for n in [n_min, n_max].

    Fock index n lives at position floor(n/2) of its parity chain, and levels
    are matched to chain indices in sorted order (no crossing tracking; the
    asymptotic regime has well-separated levels).  Certified eigenvalues come
    from :func:`rabi_spectra.eigensolve.converged_levels`, one window of
    levels n_min // 2 .. n_max // 2 per parity, whose Newton guesses start
    from this formula; its convergence failures propagate.
    Every column (numeric, the formula's terms, residual) is computed once
    over the whole range, and each row of the formula's terms equals
    :func:`three_term` of its n.
    """
    if n_min < 10:
        raise ValueError("requires n_min >= 10")
    if n_max < n_min:
        raise ValueError("requires n_max >= n_min")
    ns = np.arange(n_min, n_max + 1)
    numeric = np.empty(ns.size)
    for parity in (Parity.EVEN, Parity.ODD):
        row = (parity.offset - n_min) % 2  # row of the range's first n of this parity
        if row >= ns.size:
            continue
        # Fock index n is level n // 2 of its chain: one window per parity.
        first = (n_min + row) // 2
        level_count = (n_max - parity.offset) // 2 + 1 - first
        spectrum = converged_levels(params, ChainSelector(branch, parity), level_count, tol, first)
        numeric[row::2] = spectrum.values
    linear, shift, oscillatory, total = _three_term_columns(params, branch, ns)
    columns = (ns, linear, oscillatory, total, numeric, numeric - total)
    return [
        AsymptoticBreakdown(n, lin, shift, osc, tt, num, res)
        for n, lin, osc, tt, num, res in zip(*(column.tolist() for column in columns))
    ]
