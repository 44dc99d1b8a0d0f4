"""The polynomial family behind the squeeze-operator matrix elements.

    P_n^{(s)}(x) = sum_{k=0}^{floor(n/2)} (-1)^k n! (2x)^{n-2k} / (k! (n-2k)! (s+k)!)

Three evaluation routes are provided and cross-validated:

* :func:`p_exact` — exact rational value, the ground truth;
* :func:`p_fast` — floating log-magnitude + sign evaluation.  The alternating
  sum cancels catastrophically for large degree (sum|T_k| / |P| grows
  roughly like e^{0.27 n} at the model's evaluation point), so it is summed
  exactly in integers at the (dyadic rational) double argument and only the
  logarithm of the result is rounded;
* :func:`p_asym` — the large-index asymptotic form obtained from the
  hypergeometric ODE by the Liouville transformation (oscillatory envelope
  times cos/sin of a closed-form phase integral), valid for s/lambda -> 0.

:func:`p_exact`, :func:`p_fast` and the factorization check of
:mod:`rabi_spectra.squeeze` share one integer kernel, :func:`_exact_sum`.
:func:`hyper_f` evaluates the terminating Gauss hypergeometric series that
represents the same polynomials, giving an independent exact oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "MAX_EXACT_DEGREE",
    "MAX_ELEMENT_INDEX",
    "TurningPointError",
    "PolyValue",
    "AsymValue",
    "PhaseSpec",
    "p_exact",
    "p_fast",
    "p_fast_parts",
    "hyper_f",
    "phase_integral",
    "p_asym",
    "p_asym_parts",
]

MAX_EXACT_DEGREE = 400
# Largest polynomial degree or matrix-element index accepted anywhere.
MAX_ELEMENT_INDEX = 100_000
# ln 2 split so that e * _LN2_HI is exact for |e| < 2^21.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


class TurningPointError(ValueError):
    """Phase integrand would become imaginary inside the integration interval."""


def _exact_sum(n: int, s: int, x: Fraction) -> tuple[int, int]:
    """Integers (w, d) with P_n^{(s)}(x) = w / d exactly, d > 0.

    With x = u/v and K = n // 2, d = v^n (s+K)! and w = sum_k (-1)^k d_k
    (2u)^{n-2k}, where d_k = n! (s+K)! v^{2k} / (k! (n-2k)! (s+k)!) are
    integers reached from d_0 = (s+K)!/s! by exact small-factor steps, and
    the sum runs by Horner's rule in (2u)^2.
    """
    u, v = x.numerator, x.denominator
    half = n // 2
    coeff = math.perm(s + half, half)
    y = 4 * u * u
    v2 = v * v
    acc = 0
    for k in range(half + 1):
        acc = acc * y + (-coeff if k % 2 else coeff)
        coeff = coeff * v2 * (n - 2 * k) * (n - 2 * k - 1) // ((k + 1) * (s + k + 1))
    if n % 2:
        acc *= 2 * u
    return acc, v**n * math.factorial(s + half)


def p_exact(n: int, s: int, x: Fraction | int) -> Fraction:
    """P_n^{(s)}(x) in exact rational arithmetic (degree guard n <= 400)."""
    if n < 0 or s < 0:
        raise ValueError("indices must be non-negative")
    if n > MAX_EXACT_DEGREE:
        raise ValueError(f"exact evaluation guarded to degree {MAX_EXACT_DEGREE}")
    return Fraction(*_exact_sum(n, s, Fraction(x)))


def _signed_exp(sign: float, log_abs: float) -> float:
    """sign * exp(log_abs), overflowing to +-inf for log_abs > ~709."""
    if sign == 0.0:
        return 0.0
    return sign * (math.inf if log_abs > 709.0 else math.exp(log_abs))


@dataclass(frozen=True)
class PolyValue:
    """Sign / log-magnitude decomposition of a polynomial value.

    ``escalated`` (the value came from the exact integer sum) is always
    True, since that sum is the only route; it stays because the benchmark
    tracer, ``perfbench/tracing.py``, counts it.  ``value`` overflows to
    +-inf for log_abs > ~709.
    """

    sign: float
    log_abs: float
    escalated: bool = True

    @property
    def value(self) -> float:
        return _signed_exp(self.sign, self.log_abs)


def _log_ratio(w: int, d: int) -> float:
    """log(w/d) for integers w, d > 0, to about an ulp relative.

    w/d = 2^e num/den with num/den within a factor sqrt(2) of 1, and
    log(num/den) = log1p((num - den)/den) with that quotient rounded once, so
    a value near 1 keeps its relative accuracy.
    """
    e = w.bit_length() - d.bit_length()
    num, den = (w, d << e) if e >= 0 else (w << -e, d)  # num/den in (1/2, 2)
    q = num / den
    if q * q < 0.5:
        num, e = 2 * num, e - 1
    elif q * q > 2.0:
        den, e = 2 * den, e + 1
    return math.fsum((math.log1p((num - den) / den), e * _LN2_HI, e * _LN2_LO))


def p_fast_parts(n: int, s: int, x: float) -> PolyValue:
    """Sign/log-magnitude of P_n^{(s)}(x), accurate for any index scale.

    Read from the exact integer sum at x taken as a binary fraction, so the
    only rounding is that of the final logarithm.

    Raises:
        ValueError: for a negative index, a degree above MAX_ELEMENT_INDEX
            or a non-finite x.
    """
    if n < 0 or s < 0:
        raise ValueError("indices must be non-negative")
    if n > MAX_ELEMENT_INDEX:
        raise ValueError(f"degree {n} exceeds the configured range {MAX_ELEMENT_INDEX}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument x={x!r} must be finite")
    w, d = _exact_sum(n, s, Fraction(x))
    if w == 0:
        return PolyValue(0.0, -math.inf)
    return PolyValue(1.0 if w > 0 else -1.0, _log_ratio(abs(w), d))


def p_fast(n: int, s: int, x: float) -> float:
    """P_n^{(s)}(x) as a float (overflows to +-inf past ~e709)."""
    return p_fast_parts(n, s, x).value


def hyper_f(n: int, m: int, c, z):
    """Terminating Gauss hypergeometric series F(-n, -m; c; z).

    Exact (Fraction) when ``c`` and ``z`` are exact; float otherwise.  Used
    as an oracle through the identities

        P_{2n}^{(m-n)}(x)   = (-1)^n (2n)!/(n! m!) F(-n, -m; 1/2; -x^2),
        P_{2n+1}^{(m-n)}(x) = (-1)^n (2n+1)!/(n! m!) 2x F(-n, -m; 3/2; -x^2).

    Raises:
        ValueError: unless both leading parameters are non-positive integers
            (the series would not terminate).
    """
    if not (isinstance(n, int) and isinstance(m, int)) or n < 0 or m < 0:
        raise ValueError("series terminates only for non-negative integers n, m")
    term = 1
    total = term
    for k in range(min(n, m)):
        term = term * (k - n) * (k - m) * z / ((c + k) * (k + 1))
        total = total + term
    return total


@dataclass(frozen=True)
class PhaseSpec:
    """Arguments of the oscillatory phase integral.

    ``s`` is the index offset m - n of the half indices, ``lambda_hat`` the
    large parameter sqrt(S^2 + S) with S the half-index sum, and ``t_max``
    the upper limit arsh(x).
    """

    s: int
    lambda_hat: float
    t_max: float

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("offset s must be non-negative")
        if not math.isfinite(self.t_max):
            raise ValueError("t_max must be finite")
        if not (math.isfinite(self.lambda_hat) and self.lambda_hat >= 0):
            raise ValueError("lambda_hat must be finite and non-negative")
        if self.s > 0 and (self.lambda_hat == 0 or self.s / self.lambda_hat >= 1.0):
            raise ValueError("requires s / lambda_hat in [0, 1)")

    @classmethod
    def for_indices(cls, n_full: int, m_full: int, x: float) -> "PhaseSpec":
        """Phase spec of the asymptotic theorems for full polynomial indices."""
        if (m_full - n_full) % 2:
            raise ValueError("indices must share parity")
        s_half = (n_full + m_full) // 2
        return cls(
            s=(m_full - n_full) // 2,
            lambda_hat=math.sqrt(s_half * (s_half + 1.0)),
            t_max=math.asinh(x),
        )


def phase_integral(spec: PhaseSpec) -> float:
    """y = lambda_hat * integral_0^{t_max} sqrt(1/cosh^2 tau - r^2) dtau, r = s/lambda_hat.

    Closed form: u = sinh tau and then r u = sqrt(1 - r^2) sin phi turn the
    integral into arctan(tan phi / r) - r phi.  With a = sinh t_max and
    root = sqrt(1 - r^2 cosh^2 t_max) this is evaluated as

        atan2((1 - r) a root, root^2 + r a^2) + (1 - r) atan2(r a, root),

    the difference atan2(a, root) - atan2(r a, root) folded into one atan2 so
    that no two terms cancel, and root^2 formed as (1 - r)(1 + r) - (r a)^2.
    The result is odd in t_max; for s = 0 it is lambda_hat * arctan(sinh t).

    Raises:
        TurningPointError: when the integrand would become imaginary inside
            the interval, i.e. s/lambda_hat > 1/cosh(t_max).
    """
    if spec.t_max == 0.0 or spec.lambda_hat == 0.0:
        return 0.0
    r = spec.s / spec.lambda_hat if spec.lambda_hat > 0 else 0.0
    # cosh and sinh overflow past |t| ~ 710.5, so t is clamped to +-710.  For
    # r = 0 the value has saturated at +-lambda_hat pi/2 long before; for r > 0
    # the end is past the turning point unless lambda_hat/s > cosh 710 ~ 1e308.
    t = math.copysign(min(abs(spec.t_max), 710.0), spec.t_max)
    sech_end = 1.0 / math.cosh(t)
    if r > sech_end * (1.0 + 4.0 * np.finfo(float).eps):
        raise TurningPointError(
            f"s/lambda_hat = {r:.6g} exceeds 1/cosh(t_max) = {sech_end:.6g}"
        )
    a = math.sinh(t)
    ra = r * a
    # Clamped at 0 for endpoints inside the 4-eps slack past the turning point.
    root2 = max((1.0 - r) * (1.0 + r) - ra * ra, 0.0)
    root = math.sqrt(root2)
    return spec.lambda_hat * (
        math.atan2((1.0 - r) * a * root, root2 + ra * a) + (1.0 - r) * math.atan2(ra, root)
    )


@dataclass(frozen=True)
class AsymValue:
    """Asymptotic polynomial value split into envelope and oscillation."""

    sign: float
    log_abs: float
    log_envelope: float
    phase: float

    @property
    def value(self) -> float:
        return _signed_exp(self.sign, self.log_abs)

    @property
    def envelope(self) -> float:
        return _signed_exp(1.0, self.log_envelope)


def p_asym_parts(n_full: int, m_full: int, x: float) -> AsymValue:
    """Asymptotic P_{n_full}^{((m_full-n_full)/2)}(x) for large same-parity indices.

    Even indices give an envelope times cos(y), odd indices an envelope times
    (2/lambda) sin(y), with y the phase integral; the relative remainder is
    O(1/(n_full + m_full)) uniformly on bounded x.
    """
    if n_full < 0:
        raise ValueError("indices must be non-negative")
    spec = PhaseSpec.for_indices(n_full, m_full, x)
    lam = spec.lambda_hat
    r = spec.s / lam if lam > 0 else 0.0
    inv = 1.0 / (1.0 + x * x)
    if r * r >= inv:
        raise ValueError(
            "validity-domain violation: requires s/lambda < 1/sqrt(1+x^2)"
        )
    y = phase_integral(spec)
    s_half = (n_full + m_full) // 2
    n_h, m_h = n_full // 2, m_full // 2
    if n_full % 2 == 0:
        osc = math.cos(y)
        extra = 0.25 * math.log1p(-r * r)
    else:
        osc = math.sin(y)
        extra = -0.25 * math.log1p(-r * r) + math.log(2.0) - math.log(lam)
    log_env = (
        math.lgamma(n_full + 1)
        - math.lgamma(n_h + 1)
        - math.lgamma(m_h + 1)
        + 0.5 * s_half * math.log1p(x * x)
        - 0.25 * math.log(inv - r * r)
        + extra
    )
    if osc == 0.0:
        return AsymValue(0.0, -math.inf, log_env, y)
    return AsymValue(
        sign=(-1.0) ** n_h * math.copysign(1.0, osc),
        log_abs=log_env + math.log(abs(osc)),
        log_envelope=log_env,
        phase=y,
    )


def p_asym(n_full: int, m_full: int, x: float) -> float:
    """Float value of the asymptotic form (overflows to +-inf past ~e709)."""
    return p_asym_parts(n_full, m_full, x).value
