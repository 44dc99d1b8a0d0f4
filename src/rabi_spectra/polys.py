"""The polynomial family behind the squeeze-operator matrix elements.

    P_n^{(s)}(x) = sum_{k=0}^{floor(n/2)} (-1)^k n! (2x)^{n-2k} / (k! (n-2k)! (s+k)!)

Three evaluation routes are provided and cross-validated:

* :func:`p_exact` — exact integer/rational arithmetic, the ground truth;
* :func:`p_fast` — floating log-magnitude + sign evaluation.  The alternating
  sum cancels catastrophically for large degree (the condition number grows
  roughly like e^{0.26 n} at the model's evaluation point), so the double
  path carries a condition estimate and escalates to adaptive-precision
  mpmath summation whenever it is no longer trustworthy;
* :func:`p_asym` — the large-index asymptotic form obtained from the
  hypergeometric ODE by the Liouville transformation (oscillatory envelope
  times cos/sin of a phase integral), valid for s/lambda -> 0.

:func:`hyper_f` evaluates the terminating Gauss hypergeometric series that
represents the same polynomials, giving an independent exact oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

__all__ = [
    "MAX_EXACT_DEGREE",
    "CANCELLATION_CONDITION",
    "CancellationWarning",
    "EscalationError",
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
# Double-path condition above which the cancellation flag is raised.
CANCELLATION_CONDITION = 1e12
# Estimated double-path relative error above which mpmath refinement runs.
# The per-term accuracy in log space is ~|log term| * eps, amplified by the
# condition number of the alternating sum.
_ESCALATE_REL_ERROR = 1e-11
_MAX_DPS = 20_000


class CancellationWarning(UserWarning):
    """The double-precision alternating sum was ill-conditioned."""


class EscalationError(RuntimeError):
    """Multiprecision refinement did not stabilize below the precision cap."""


class TurningPointError(ValueError):
    """Phase integrand would become imaginary inside the integration interval."""


def p_exact(n: int, s: int, x: Fraction | int) -> Fraction:
    """P_n^{(s)}(x) in exact rational arithmetic (degree guard n <= 400)."""
    if n < 0 or s < 0:
        raise ValueError("indices must be non-negative")
    if n > MAX_EXACT_DEGREE:
        raise ValueError(f"exact evaluation guarded to degree {MAX_EXACT_DEGREE}")
    two_x = 2 * Fraction(x)
    nfact = math.factorial(n)
    total = Fraction(0)
    for k in range(n // 2 + 1):
        total += (
            (-1) ** k
            * nfact
            * two_x ** (n - 2 * k)
            / (math.factorial(k) * math.factorial(n - 2 * k) * math.factorial(s + k))
        )
    return total


@dataclass(frozen=True)
class PolyValue:
    """Sign / log-magnitude decomposition of a polynomial value.

    ``condition`` is the double-path estimate sum|T_k| / |sum T_k|;
    ``escalated`` records whether multiprecision refinement replaced the
    double result.  ``value`` overflows to +-inf for log_abs > ~709.
    """

    sign: float
    log_abs: float
    condition: float
    escalated: bool

    @property
    def value(self) -> float:
        if self.sign == 0.0:
            return 0.0
        if self.log_abs > 709.0:
            return self.sign * math.inf
        return self.sign * math.exp(self.log_abs)

    @property
    def cancellation(self) -> bool:
        return self.condition > CANCELLATION_CONDITION


def _double_sum(n: int, s: int, x: float) -> tuple[float, float, float, float]:
    """Double log-space evaluation: returns (sign, log_abs, condition, peak_log).

    The largest term (log magnitude ``peak_log``) is factored out and the
    signed ratios are accumulated with Neumaier compensation.
    """
    if x == 0.0:
        k = n // 2
        peak = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(s + k + 1)
        if n % 2:
            return 0.0, -math.inf, 1.0, peak
        return (-1.0) ** k, peak, 1.0, peak
    log2x = math.log(abs(2.0 * x))
    sign2x = 1.0 if x > 0 else -1.0
    ks = np.arange(n // 2 + 1)
    lg_n = math.lgamma(n + 1)
    logs = np.array(
        [
            lg_n
            + (n - 2 * k) * log2x
            - math.lgamma(k + 1)
            - math.lgamma(n - 2 * k + 1)
            - math.lgamma(s + k + 1)
            for k in range(n // 2 + 1)
        ]
    )
    signs = np.where(ks % 2 == 0, 1.0, -1.0)
    if sign2x < 0:
        signs = signs * np.where((n - 2 * ks) % 2 == 0, 1.0, -1.0)
    peak = float(np.max(logs))
    ratios = signs * np.exp(logs - peak)
    # Neumaier-compensated accumulation of the signed ratios.
    total = 0.0
    comp = 0.0
    for r in ratios:
        t = total + r
        if abs(total) >= abs(r):
            comp += (total - t) + r
        else:
            comp += (r - t) + total
        total = t
    total += comp
    abs_mass = float(np.sum(np.abs(ratios)))
    if total == 0.0:
        return 0.0, -math.inf, math.inf, peak
    condition = abs_mass / abs(total)
    return math.copysign(1.0, total), peak + math.log(abs(total)), condition, peak


def _mp_sum(n: int, s: int, x: float, dps: int) -> mp.mpf:
    """The alternating sum at ``dps`` decimal digits via a term recurrence."""
    with mp.workdps(dps):
        two_x = 2 * mp.mpf(x)
        term = two_x**n / mp.factorial(s)
        total = term
        for j in range(1, n // 2 + 1):
            term = -term * (n - 2 * j + 2) * (n - 2 * j + 1) / (j * two_x * two_x * (s + j))
            total += term
        return total


def _escalated_parts(n: int, s: int, x: float, condition: float, peak_log: float,
                     dbl_log_abs: float) -> PolyValue:
    """Multiprecision refinement, precision chosen adaptively.

    The warm start assumes the double log-magnitude is roughly right; the
    agreement loop between successive precisions catches the cases where it
    was pure cancellation noise.
    """
    excess = peak_log - dbl_log_abs if math.isfinite(dbl_log_abs) else peak_log
    dps = 40 + max(0, int(excess / math.log(10)))
    prev = None
    while dps <= _MAX_DPS:
        val = _mp_sum(n, s, x, dps)
        if prev is not None:
            if val == prev == 0:
                return PolyValue(0.0, -math.inf, condition, True)
            if val != 0 and abs(val - prev) <= abs(val) * mp.mpf(10) ** (-16):
                sign = 1.0 if val > 0 else -1.0
                return PolyValue(sign, float(mp.log(abs(val))), condition, True)
        prev = val
        dps = int(dps * 1.6) + 20
    raise EscalationError(
        f"multiprecision refinement of P_{n}^({s})({x!r}) failed to stabilize below {_MAX_DPS} digits"
    )


def p_fast_parts(n: int, s: int, x: float) -> PolyValue:
    """Sign/log-magnitude of P_n^{(s)}(x), accurate for any index scale."""
    if n < 0 or s < 0:
        raise ValueError("indices must be non-negative")
    sign, log_abs, condition, peak = _double_sum(n, s, float(x))
    err_est = condition * (abs(peak) + 50.0) * 3.0 * float(np.finfo(float).eps)
    if math.isfinite(condition) and err_est <= _ESCALATE_REL_ERROR:
        return PolyValue(sign, log_abs, condition, False)
    return _escalated_parts(n, s, float(x), condition, peak, log_abs)


def p_fast(n: int, s: int, x: float) -> float:
    """P_n^{(s)}(x) as a float; warns when the double sum was ill-conditioned.

    The returned value is always the accurate one (multiprecision refinement
    replaces the double result when needed); the warning only reports that
    the plain double-precision route would have lost the value.
    """
    parts = p_fast_parts(n, s, x)
    if parts.cancellation:
        warnings.warn(
            f"alternating sum for P_{n}^{{({s})}} at x={x!r} had condition "
            f"{parts.condition:.2e}; value refined in multiprecision",
            CancellationWarning,
            stacklevel=2,
        )
    return parts.value


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
        if self.lambda_hat < 0:
            raise ValueError("lambda_hat must be non-negative")
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


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _gl_apply(f, a: float, b: float, order: int) -> float:
    xs, ws = _gl_nodes(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.sum(ws * f(mid + half * xs)))


def _gl_adaptive(f, a: float, b: float, tol: float, depth: int = 0) -> float:
    coarse = _gl_apply(f, a, b, 15)
    mid = 0.5 * (a + b)
    fine = _gl_apply(f, a, mid, 15) + _gl_apply(f, mid, b, 15)
    if abs(fine - coarse) <= tol:
        return fine
    if depth >= 40:
        # Refinement stalled (square-root behaviour at a nearby turning
        # point); fall back to one high-order fixed rule on the sliver.
        return _gl_apply(f, a, b, 64)
    return _gl_adaptive(f, a, mid, tol / 2.0, depth + 1) + _gl_adaptive(
        f, mid, b, tol / 2.0, depth + 1
    )


def phase_integral(spec: PhaseSpec) -> float:
    """y = lambda_hat * integral_0^{t_max} sqrt(1/cosh^2 tau - (s/lambda_hat)^2) dtau.

    Computed by adaptive Gauss-Legendre quadrature to absolute tolerance
    1e-12.  For s = 0 this equals lambda_hat * arctan(sinh t) exactly.

    Raises:
        TurningPointError: when the integrand would become imaginary inside
            the interval, i.e. s/lambda_hat > 1/cosh(t_max).
    """
    if spec.t_max == 0.0 or spec.lambda_hat == 0.0:
        return 0.0
    r = spec.s / spec.lambda_hat if spec.lambda_hat > 0 else 0.0
    sech_end = 1.0 / math.cosh(spec.t_max)
    if r > sech_end * (1.0 + 4.0 * np.finfo(float).eps):
        raise TurningPointError(
            f"s/lambda_hat = {r:.6g} exceeds 1/cosh(t_max) = {sech_end:.6g}"
        )
    r2 = r * r

    def integrand(tau: np.ndarray) -> np.ndarray:
        sech = 1.0 / np.cosh(tau)
        return np.sqrt(np.maximum(sech * sech - r2, 0.0))

    value = _gl_adaptive(integrand, 0.0, spec.t_max, 1e-13 / max(1.0, spec.lambda_hat))
    return spec.lambda_hat * value


@dataclass(frozen=True)
class AsymValue:
    """Asymptotic polynomial value split into envelope and oscillation."""

    sign: float
    log_abs: float
    log_envelope: float
    phase: float

    @property
    def value(self) -> float:
        if self.sign == 0.0:
            return 0.0
        if self.log_abs > 709.0:
            return self.sign * math.inf
        return self.sign * math.exp(self.log_abs)

    @property
    def envelope(self) -> float:
        return math.exp(self.log_envelope) if self.log_envelope <= 709.0 else math.inf


def p_asym_parts(n_full: int, m_full: int, x: float) -> AsymValue:
    """Asymptotic P_{n_full}^{((m_full-n_full)/2)}(x) for large same-parity indices.

    Even indices give an envelope times cos(y), odd indices an envelope times
    (2/lambda) sin(y), with y the phase integral; the relative remainder is
    O(1/(n_full + m_full)) uniformly on bounded x.
    """
    if n_full < 0:
        raise ValueError("indices must be non-negative")
    if (m_full - n_full) % 2:
        raise ValueError("parity mismatch: indices must be both even or both odd")
    if m_full < n_full:
        raise ValueError("requires m_full >= n_full")
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
    if n_full % 2 == 0:
        n_h, m_h = n_full // 2, m_full // 2
        osc = math.cos(y)
        extra = 0.25 * math.log1p(-r * r)
        base_sign = (-1.0) ** n_h
    else:
        n_h, m_h = (n_full - 1) // 2, (m_full - 1) // 2
        osc = math.sin(y)
        extra = -0.25 * math.log1p(-r * r) + math.log(2.0) - math.log(lam)
        base_sign = (-1.0) ** n_h
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
        sign=base_sign * math.copysign(1.0, osc),
        log_abs=log_env + math.log(abs(osc)),
        log_envelope=log_env,
        phase=y,
    )


def p_asym(n_full: int, m_full: int, x: float) -> float:
    """Float value of the asymptotic form (overflows to +-inf past ~e709)."""
    return p_asym_parts(n_full, m_full, x).value
