"""Squeeze operator U(lam) = exp(lam (a^2 - a+^2)) on the truncated Fock space.

Two independent constructions are cross-validated:

* :func:`u_element` — the closed-form matrix elements obtained from the
  normal-ordered factorization U = e^{-gamma a+^2} e^{beta (a+a + 1/2)}
  e^{gamma a^2} with 2 gamma = tanh(2 lam), e^beta = 1/cosh(2 lam).  One
  assembly, ``_assemble``, turns P into an element: behind u_element and V~
  in :mod:`rabi_spectra.perturb` (through ``_element``) it reads P from
  ``polys.p_fast_parts``, and in the certified block of
  :func:`factorization_residual` from the exact three-term relation of
  ``polys._p_triangle``, whose values p_fast_parts certifies to 64 bits;
* :func:`u_matrix_oracle` — the matrix exponential of the truncated
  generator, via scaling-and-squaring with a Taylor core.  a^2 - a+^2 never
  couples even and odd Fock states, so the exponential is block-diagonal by
  parity and is taken on the two half-size parity blocks.  Each block is
  antisymmetric tridiagonal and is built from its superdiagonal alone,
  lam sqrt((k+1)(k+2)) for k of the block's parity, with no dense
  generator; the Taylor core multiplies by it one band at a time, and
  only the squarings are dense products.  The result is cached per
  (dim, lam), so the checks of one verify run share one build, and it is
  read-only.

Truncation pollutes high indices only, so every residual check is made on
the top-left quarter block ("certified block") of the truncation, and forms
only the products that block reads.  The diagonalization of H0 is checked
there in its eigen-equation form H0 U = U D, whose banded rows reach only
five rows of U each.  ``rabi-spectra verify`` compares the closed form's
certified block with the oracle once, and checks the oracle's orthogonality
on the whole truncation, one Gram matrix per parity block.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from . import polys
from .model import Branch, build_full_branch, derive_params
from .polys import MAX_ELEMENT_INDEX

__all__ = [
    "MAX_ORACLE_DIM",
    "u_element",
    "u_matrix_oracle",
    "factorization_residual",
    "h0_transform_residual",
    "uvu_residual",
    "parity_sign_diagonal",
]

MAX_ORACLE_DIM = 512


def _certified(n_dim: int) -> int:
    """Side of the certified block; it is empty below dimension 4."""
    if not 4 <= n_dim <= MAX_ORACLE_DIM:
        raise ValueError(f"truncation dimension must be in [4, {MAX_ORACLE_DIM}]")
    return n_dim // 4


def _expm(band: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring, for m antisymmetric tridiagonal with superdiagonal ``band``.

    m is the (band.size + 1)-square matrix with m[i, i+1] = band[i] and
    m[i+1, i] = -band[i], as a parity block of the generator is.  m is
    scaled by 2^-j to b, of 1-norm at most 1/2, and the degree-18 Taylor
    core T = I + b (I + b/2 (... (I + b/18))) is run by Horner's rule on two
    preallocated buffers.  Each step forms b T one band at a time, in place,
    then divides by k as a dense product would, so it costs O(n^2) and no
    n x n temporary; only the j squarings are dense products.  The series'
    tail is a relative error of exp(b) of at most 2^-19/19! e^(1/2)
    (1 + 1/39) < 2.7e-23 in norm, 4e6 times below the rounding of one double
    (1.1e-16); it commutes with b, so the squarings amplify it 2^j-fold, as
    they do the rounding.
    """
    n = band.size + 1
    # The 1-norm: column j holds m[j-1, j] = band[j-1] and m[j+1, j] = -band[j].
    col = np.zeros(n)
    col[1:] += np.abs(band)
    col[:-1] += np.abs(band)
    norm = float(np.max(col))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    band = band[:, None] / 2.0**squarings
    t, w = np.eye(n), np.empty((n, n))
    for k in range(18, 0, -1):
        # w = I + (b t)/k, where row i of b t is band[i] t[i+1] - band[i-1] t[i-1].
        np.multiply(t[1:], band, out=w[:-1])
        w[-1] = 0.0
        t[:-1] *= band
        w[1:] -= t[:-1]
        w /= k
        w.reshape(-1)[:: n + 1] += 1.0
        t, w = w, t
    for _ in range(squarings):
        np.matmul(t, t, out=w)
        t, w = w, t
    return t


@lru_cache(maxsize=1)
def _oracle_cached(n_dim: int, lam: float) -> np.ndarray:
    u = np.zeros((n_dim, n_dim))
    for p in (0, 1):
        # The parity block's superdiagonal: the generator's entries (k, k+2), times lam.
        k = np.arange(p, n_dim - 2, 2)
        u[p::2, p::2] = _expm(lam * np.sqrt((k + 1.0) * (k + 2.0)))
    u.setflags(write=False)
    return u


def u_matrix_oracle(n_dim: int, lam: float) -> np.ndarray:
    """exp(lam (a^2 - a+^2)) on the truncation, as a read-only array.

    The generator never couples even and odd indices, so the exponential is
    block-diagonal by parity: each parity block is exponentiated on its own
    and entries across parities are exactly 0.  The last result is cached
    per (n_dim, lam) and shared between callers, hence read-only.

    Only the top-left quarter block is certified: truncating the generator
    perturbs columns near the cut, and the error decays away from it.
    """
    if not 2 <= n_dim <= MAX_ORACLE_DIM:
        raise ValueError(f"truncation dimension must be in [2, {MAX_ORACLE_DIM}]")
    if not math.isfinite(lam):
        raise ValueError(f"squeeze parameter lam={lam!r} must be finite")
    return _oracle_cached(n_dim, float(lam))


def _assemble(m: int, n: int, t: float, logs: tuple, parts: polys.PolyValue) -> float:
    """Squeeze element U_{m,n}, m >= n of equal parity, from P_n^{(s)}(c/t) as ``parts``.

    Perelomov's normal-ordered factorization gives, for s = (m-n)/2,

        U_{m,n} = (-1)^s sqrt(c) (t/2)^{n+s} sqrt(m!/n!) P_n^{(s)}(c/t)

    with t = tanh(2 lam) != 0 and c = 1/cosh(2 lam).  The factors are summed
    as logarithms, which adds about eps (n+s) |ln(t/2)| relative: up to
    1.5e-11 for indices below 128 at g = 1e-300, where |ln(t/2)| is near 690.
    ``logs`` is :func:`_logs` (t, c, lg): the logarithms that do not depend
    on the entry, and lg[k] = lgamma(k + 1) for k = m and n.
    """
    if parts.sign == 0.0:
        return 0.0
    s = (m - n) // 2
    half_log_c, log_half_t, lg = logs
    log_abs = half_log_c + (n + s) * log_half_t + 0.5 * (lg[m] - lg[n]) + parts.log_abs
    sign = (-1.0) ** s * math.copysign(1.0, t) ** (n + s) * parts.sign
    return sign * math.exp(log_abs)


def _logs(t: float, c: float, lg) -> tuple:
    """(log(c)/2, log(|t|/2), lg), the entry-independent part of :func:`_assemble`."""
    return 0.5 * math.log(c), math.log(abs(t) / 2.0), lg


def _element(m: int, n: int, t: float, c: float) -> float:
    """Squeeze element U_{m,n} from t = tanh(2 lam) and c = 1/cosh(2 lam).

    For m >= n it is :func:`_assemble` of P from ``polys.p_fast_parts``,
    and U_{m,n} = (-1)^{(n-m)/2} U_{n,m} for m < n; elements across parities
    vanish.  ``p_fast_parts`` sums P to a certified 2^-64 relative, but at
    c/t rounded once to double, so next to a node of P the element is off by
    up to 3.1e-11 relative (V~ at g = 0.2, (m, n) = (453, 405)); checks of a
    row against it cannot be tighter there.  The indices are ints (see
    :func:`u_element`).
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if m > MAX_ELEMENT_INDEX or n > MAX_ELEMENT_INDEX:
        raise ValueError(f"indices exceed the configured range {MAX_ELEMENT_INDEX}")
    if (m - n) % 2:
        return 0.0
    if t == 0.0:
        return 1.0 if m == n else 0.0
    if m < n:
        return (-1.0) ** ((n - m) // 2) * _element(n, m, t, c)
    lg = {m: math.lgamma(m + 1), n: math.lgamma(n + 1)}
    return _assemble(m, n, t, _logs(t, c, lg), polys.p_fast_parts(n, (m - n) // 2, c / t))


def _tanh_sech(lam: float) -> tuple[float, float]:
    """(tanh(2 lam), 1/cosh(2 lam)), for |lam| <= 354 only."""
    if not abs(lam) <= 354.0:  # also NaN
        raise ValueError(f"squeeze parameter lam={lam!r} must be finite with |lam| <= 354")
    return math.tanh(2.0 * lam), 1.0 / math.cosh(2.0 * lam)


def u_element(m: int, n: int, lam: float) -> float:
    """Closed-form squeeze matrix element (U(lam) e_n, e_m); see :func:`_element`.

    Raises:
        ValueError: for a negative index or one above the configured
            range (default 10^5), or unless |lam| <= 354, where
            1/cosh(2 lam) is still a normal double.
        TypeError: for an index that ``operator.index`` rejects; numpy
            integers are read as ints.
    """
    return _element(operator.index(m), operator.index(n), *_tanh_sech(lam))


def factorization_residual(n_dim: int, lam: float) -> float:
    """Max-abs certified-block residual of the closed form against the oracle.

    Fills the top-left quarter block of U column by column with the closed
    form of :func:`_assemble`, and compares it against the exponential
    oracle.  Column n reads P_n^{(s)}(c/t) for every s at once from
    ``polys._p_triangle``, the exact three-term relation in integers, whose
    values ``p_fast_parts`` certifies to 64 bits from Horner sums in 4x^2
    kept 192 + n/2 bits long or more: so the block agrees with
    :func:`u_element` to rounding.  Each same-parity entry with m >= n is
    evaluated once and its mirror is filled by the reflection
    U_{n,m} = (-1)^{(m-n)/2} U_{m,n}.

    Raises:
        ValueError: for a dimension outside [4, MAX_ORACLE_DIM], where the
            block is not empty, or unless |lam| <= 354, as in :func:`u_element`.
    """
    q = _certified(n_dim)
    t, c = _tanh_sech(lam)
    if t == 0.0:
        block = np.eye(q)
    else:
        block = np.zeros((q, q))
        logs = _logs(t, c, [math.lgamma(k + 1) for k in range(q)])
        for n, column in enumerate(polys._p_triangle(q, c / t)):
            for s, parts in enumerate(column):
                m = n + 2 * s
                block[m, n] = _assemble(m, n, t, logs, parts)
                block[n, m] = (-1) ** s * block[m, n]
    return float(np.max(np.abs(block - u_matrix_oracle(n_dim, lam)[:q, :q])))


def h0_transform_residual(n_dim: int, g: float) -> float:
    """Certified-block residual of H0 U = U D, the diagonalization of H0 by U.

    With tanh(4 lam) = 2 g, U^T H0 U must equal D = diag(omega (n + 1/2) - 1/2),
    omega = sqrt(1 - 4 g^2); the oracle U is orthogonal (the exponential of an
    antisymmetric generator), so this is the eigen-equation H0 U = U D.  Row
    m < n_dim/4 of H0 reaches only rows m-2..m+2 of U, so on the quarter block
    the residual is polluted by the truncation as much as the factorization
    block, and no more.  H0 is the Delta = 0 branch matrix of
    :func:`rabi_spectra.model.build_full_branch`.

    Raises:
        ValueError: for a dimension outside [4, MAX_ORACLE_DIM], where the
            block is not empty.
    """
    q = _certified(n_dim)
    params = derive_params(g, 0.0)
    u = u_matrix_oracle(n_dim, params.lam)
    # Row m < q of H0 has its nonzeros in columns m-2..m+2 < q+2, and a branch
    # matrix has at least 4 rows.
    cols = max(q + 2, 4)
    h0_rows = build_full_branch(params, Branch.PLUS, cols)[:q]
    d = params.omega * (np.arange(q) + 0.5) - 0.5
    return float(np.max(np.abs(h0_rows @ u[:cols, :q] - u[:q, :q] * d)))


def parity_sign_diagonal(n_dim: int, delta: float) -> np.ndarray:
    """Diagonal of the branch perturbation: (delta/2) (-1)^floor(k/2)."""
    ks = np.arange(n_dim)
    return (delta / 2.0) * (-1.0) ** (ks // 2)


def uvu_residual(n_dim: int, lam: float, delta: float) -> float:
    """Certified-block residual of U V U - V for the periodic diagonal V.

    Raises:
        ValueError: for a dimension outside [4, MAX_ORACLE_DIM], where the
            block is not empty.
    """
    q = _certified(n_dim)
    v = parity_sign_diagonal(n_dim, delta)
    u = u_matrix_oracle(n_dim, lam)
    uvu = u[:q] @ (v[:, None] * u[:, :q])
    return float(np.max(np.abs(uvu - np.diag(v[:q]))))
