"""Squeeze operator U(lam) = exp(lam (a^2 - a+^2)) on the truncated Fock space.

Two independent constructions are cross-validated:

* :func:`u_element` — the closed-form matrix elements obtained from the
  normal-ordered factorization U = e^{-gamma a+^2} e^{beta (a+a + 1/2)}
  e^{gamma a^2} with 2 gamma = tanh(2 lam), e^beta = 1/cosh(2 lam).  It
  fills the certified block of :func:`factorization_residual`, and its
  kernel ``_element`` also gives V~ in :mod:`rabi_spectra.perturb`;
* :func:`u_matrix_oracle` — the matrix exponential of the truncated
  generator, via scaling-and-squaring with a Taylor core.  a^2 - a+^2 never
  couples even and odd Fock states, so the exponential is block-diagonal by
  parity and is taken on the two half-size parity blocks.  The result is
  cached per (dim, lam), so the checks of one verify run share one build,
  and it is read-only.

Truncation pollutes high indices only, so every residual check is made on
the top-left quarter block ("certified block") of the truncation.  The
diagonalization of H0 is checked there in its eigen-equation form
H0 U = U D, whose banded rows reach only five rows of U each.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import polys
from .model import Branch, build_full_branch, derive_params
from .polys import MAX_ELEMENT_INDEX

__all__ = [
    "MAX_ORACLE_DIM",
    "squeeze_generator",
    "u_element",
    "u_matrix_oracle",
    "factorization_residual",
    "h0_transform_residual",
    "uvu_residual",
    "parity_sign_diagonal",
]

MAX_ORACLE_DIM = 512


def _check_dim(n_dim: int) -> None:
    if not 2 <= n_dim <= MAX_ORACLE_DIM:
        raise ValueError(f"truncation dimension must be in [2, {MAX_ORACLE_DIM}]")


def _certified(n_dim: int) -> int:
    """Side of the certified block; it is empty below dimension 4."""
    if not 4 <= n_dim <= MAX_ORACLE_DIM:
        raise ValueError(f"truncation dimension must be in [4, {MAX_ORACLE_DIM}]")
    return n_dim // 4


def squeeze_generator(n_dim: int) -> np.ndarray:
    """Antisymmetric banded matrix of a^2 - a+^2 on the truncation."""
    _check_dim(n_dim)
    a = np.zeros((n_dim, n_dim))
    ns = np.arange(n_dim - 2)
    coeff = np.sqrt((ns + 1.0) * (ns + 2.0))
    a[ns, ns + 2] = coeff
    a[ns + 2, ns] = -coeff
    return a


def _expm(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring matrix exponential with a degree-24 Taylor core."""
    norm = float(np.max(np.abs(m).sum(axis=0)))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    b = m / (2.0**squarings)
    eye = np.eye(m.shape[0])
    t = eye.copy()
    for k in range(24, 0, -1):
        t = eye + (b @ t) / k
    for _ in range(squarings):
        t = t @ t
    return t


@lru_cache(maxsize=1)
def _oracle_cached(n_dim: int, lam: float) -> np.ndarray:
    g = squeeze_generator(n_dim)
    g *= lam
    u = np.zeros((n_dim, n_dim))
    for p in (0, 1):
        u[p::2, p::2] = _expm(g[p::2, p::2])
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
    _check_dim(n_dim)
    if not math.isfinite(lam):
        raise ValueError(f"squeeze parameter lam={lam!r} must be finite")
    return _oracle_cached(n_dim, float(lam))


def _element(m: int, n: int, t: float, c: float) -> float:
    """Squeeze element U_{m,n} from t = tanh(2 lam) and c = 1/cosh(2 lam).

    Perelomov's normal-ordered factorization gives, for m >= n, s = (m-n)/2,

        U_{m,n} = (-1)^s sqrt(c) (t/2)^{n+s} sqrt(m!/n!) P_n^{(s)}(c/t)

    (P of :mod:`rabi_spectra.polys`, in log-magnitude + sign form), and
    U_{m,n} = (-1)^{(n-m)/2} U_{n,m} for m < n; elements across parities
    vanish.  ``p_fast_parts`` sums P to a certified 2^-64 relative, but at
    c/t rounded once to double, so next to a node of P the element is off by
    up to 3.1e-11 relative (V~ at g = 0.2, (m, n) = (453, 405)); checks of a
    row against it cannot be tighter there.  The factors are summed as
    logarithms, which adds about eps (n+s) |ln(t/2)| relative: up to 1.5e-11
    for indices below 128 at g = 1e-300, where |ln(t/2)| is near 690.
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
    s = (m - n) // 2
    parts = polys.p_fast_parts(n, s, c / t)
    if parts.sign == 0.0:
        return 0.0
    log_abs = (
        0.5 * math.log(c)
        + (n + s) * math.log(abs(t) / 2.0)
        + 0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1))
        + parts.log_abs
    )
    sign = (-1.0) ** s * math.copysign(1.0, t) ** (n + s) * parts.sign
    return sign * math.exp(log_abs)


def u_element(m: int, n: int, lam: float) -> float:
    """Closed-form squeeze matrix element (U(lam) e_n, e_m); see :func:`_element`.

    Raises:
        ValueError: for a negative index or one above the configured
            range (default 10^5), or unless |lam| <= 354, where
            1/cosh(2 lam) is still a normal double.
    """
    if not abs(lam) <= 354.0:  # also NaN
        raise ValueError(f"squeeze parameter lam={lam!r} must be finite with |lam| <= 354")
    return _element(m, n, math.tanh(2.0 * lam), 1.0 / math.cosh(2.0 * lam))


def factorization_residual(n_dim: int, lam: float) -> float:
    """Max-abs certified-block residual of the closed form against the oracle.

    Evaluates the top-left quarter block of U through :func:`u_element` and
    compares it against the exponential oracle.  Each same-parity entry with
    m >= n is evaluated once and its mirror is filled by the reflection
    U_{n,m} = (-1)^{(m-n)/2} U_{m,n}.

    Raises:
        ValueError: for a dimension outside [4, MAX_ORACLE_DIM], where the
            block is not empty, or unless |lam| <= 354, as in :func:`u_element`.
    """
    q = _certified(n_dim)
    block = np.zeros((q, q))
    for n in range(q):
        for m in range(n, q, 2):
            block[m, n] = u_element(m, n, lam)
            block[n, m] = (-1) ** ((m - n) // 2) * block[m, n]
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
    h0_rows = build_full_branch(params, Branch.PLUS, n_dim)[:q]
    d = params.omega * (np.arange(q) + 0.5) - 0.5
    return float(np.max(np.abs(h0_rows @ u[:, :q] - u[:q, :q] * d)))


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
    uvu = u @ (v[:, None] * u)
    return float(np.max(np.abs(uvu[:q, :q] - np.diag(v[:q]))))
