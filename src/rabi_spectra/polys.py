"""The polynomial family behind the squeeze-operator matrix elements.

    P_n^{(s)}(x) = sum_{k=0}^{floor(n/2)} (-1)^k n! (2x)^{n-2k} / (k! (n-2k)! (s+k)!)

Three evaluation routes are provided and cross-validated:

* :func:`p_exact` — exact rational value, the ground truth;
* :func:`p_fast` — floating log-magnitude + sign evaluation.  The alternating
  sum cancels catastrophically for large degree (sum|T_k| / |P| grows
  roughly like e^{0.27 n} at the model's evaluation point), so it is summed
  in integers at the (dyadic rational) double argument, by Horner's rule in
  4x^2 with its integers kept 192 + n/2 to 256 + n/2 bits long by shifts
  both ways (the window doubled as needed), under an exact running error
  bound that certifies 64 bits, and only the logarithm of the result is
  rounded;
* :func:`p_asym` — the large-index asymptotic form obtained from the
  hypergeometric ODE by the Liouville transformation (oscillatory envelope
  times cos/sin of a closed-form phase integral), valid for s/lambda -> 0;
  :func:`p_asym_remainder` is its envelope-normalised distance from P.

:func:`p_exact` and :func:`p_fast` share one integer kernel, :func:`_exact_sum`,
which no other module calls; single squeeze elements of
:mod:`rabi_spectra.squeeze` reach it through :func:`p_fast_parts`, and its
factorization block reaches the kernel's exact integers, at every x, by the
three-term relation in n of :func:`_p_triangle`, at O(1) integer steps a value.
:func:`hyper_f` evaluates the terminating Gauss hypergeometric series that
represents the same polynomials, giving an independent exact oracle; its
exact series is summed in integers over one common denominator.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
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
    "p_asym_remainder",
]

MAX_EXACT_DEGREE = 400
# Largest polynomial degree or matrix-element index accepted anywhere.
MAX_ELEMENT_INDEX = 100_000
# ln 2 split so that e * _LN2_HI is exact for |e| < 2^21.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


class TurningPointError(ValueError):
    """Phase integrand would become imaginary inside the integration interval."""


def _exact_sum(n: int, s: int, x: Fraction, bits: int | None = None) -> tuple[int, int, int, int]:
    """Integers (w, err, shift, d) with |P_n^{(s)}(x) d / 2^shift - w| <= err, d > 0.

    With x = u/v, K = n // 2 and d = v^n (s+K)!, P d is (2u)^{n-2K} v^{2K}
    times the sum by Horner's rule in z = 4x^2 of the integers
    c_k = (-1)^k n! (s+K)! / (k! (n-2k)! (s+k)!): from acc = c = c_0 =
    (s+K)!/s!, step k = 1 .. K takes c to -c m(m-1) / (k(s+k)), m = n+2-2k,
    and acc to acc z + c.  With v = v' 2^e, v' odd, c's multiplier carries
    v'^2, so that z becomes y / 2^{2e}, y = 4u^2:

        c <- floor(-c m(m-1) v'^2 / (k(s+k))),  acc <- floor(acc y / 2^{2e}) + c.

    With ``bits`` None, e = 0, nothing is floored, and the sum is exact with
    err = shift = 0.  Otherwise acc and c are kept ``bits`` to ``bits`` + 64
    bits long: longer, both are floored by one right shift, to ``bits``;
    shorter, both move left, exactly, to ``bits`` + 64 but never past
    shift = 0, the scale 2^{2eK} (v^{2K} at a double x) where every floor
    is exact.  err and cerr bound the errors of acc and c: Horner's rule
    with a running error bound (Higham, *Accuracy and Stability*, sec. 5.1),
    in integers.  A step takes cerr to the ceiling of its product plus 1
    for the floor of c, and err to floor(err y / 2^{2e}) + 1 (the ceiling)
    + 1 (the floor of acc) + cerr; a right shift takes each to its floor
    plus 2, a left shift scales both.  While shift and err are 0 no floor
    drops a bit, and neither bound grows.
    """
    u, v = x.numerator, x.denominator
    half = n // 2
    e = 0 if bits is None else (v & -v).bit_length() - 1
    e2, v2 = 2 * e, (v >> e) ** 2
    y = 4 * u * u
    acc = coeff = math.perm(s + half, half)
    err = cerr = 0
    shift = e2 * half
    limit = math.inf if bits is None else bits + 64
    for k, m in zip(range(1, half + 1), range(n, 1, -2)):
        top = (abs(acc) | abs(coeff)).bit_length()
        if top > limit:
            r = top - bits
            acc, coeff, shift = acc >> r, coeff >> r, shift + r
            err, cerr = (err >> r) + 2, (cerr >> r) + 2
        elif shift and top < bits:
            r = min(limit - top, shift)
            acc, coeff, shift = acc << r, coeff << r, shift - r
            err, cerr = err << r, cerr << r
        step, div = m * (1 - m) * v2, k * (s + k)
        coeff = coeff * step // div
        acc = (acc * y >> e2) + coeff
        if shift or err:
            cerr = 1 - cerr * step // div
            err = (err * y >> e2) + 2 + cerr
    if n % 2:
        acc, err = acc * 2 * u, err * abs(2 * u)
    return acc, err, shift, (v >> e) ** n * math.factorial(s + half) << e * n


def p_exact(n: int, s: int, x: Fraction | int | float) -> Fraction:
    """P_n^{(s)}(x) in exact rational arithmetic (degree guard n <= 400).

    A float x is read at its binary value; a non-finite one raises ValueError.
    Indices go through ``operator.index``: numpy integers are read as ints,
    and a non-integer raises TypeError.
    """
    n, s = operator.index(n), operator.index(s)
    if n < 0 or s < 0:
        raise ValueError("indices must be non-negative")
    if n > MAX_EXACT_DEGREE:
        raise ValueError(f"exact evaluation guarded to degree {MAX_EXACT_DEGREE}")
    x = _binary_fraction(x) if isinstance(x, float) else Fraction(x)
    w, _, _, d = _exact_sum(n, s, x)
    return Fraction(w, d)


def _exact_double(n: int, s: int, x: float) -> float:
    """float(p_exact(n, s, x)) for indices p_exact admits; +-inf past the double range.

    The exact sum's w/d is not reduced: int true division rounds it
    correctly, and a rational has one correctly rounded double.
    """
    w, _, _, d = _exact_sum(n, s, _binary_fraction(x))
    try:
        return w / d
    except OverflowError:
        return -math.inf if w < 0 else math.inf


def _signed_exp(sign: float, log_abs: float) -> float:
    """sign * exp(log_abs), overflowing to +-inf where exp leaves the double range."""
    if sign == 0.0:
        return 0.0
    try:
        return sign * math.exp(log_abs)
    except OverflowError:
        return sign * math.inf


@dataclass(frozen=True)
class PolyValue:
    """Sign / log-magnitude decomposition of a polynomial value.

    ``escalated`` (the value came from the certified integer sum) is always
    True, since that sum is the only route; it stays because the benchmark
    tracer, ``perfbench/tracing.py``, counts it.  ``value`` overflows to
    +-inf past the double range, log_abs > ~709.78.
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


def _binary_fraction(x: float) -> Fraction:
    """x as the exact fraction u/v of its binary value.

    Raises:
        ValueError: for a non-finite x.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument x={x!r} must be finite")
    return Fraction(x)


def _parts(w: int, d: int) -> PolyValue:
    """Sign/log-magnitude of the exact value w/d, d > 0."""
    if w == 0:
        return PolyValue(0.0, -math.inf)
    return PolyValue(1.0 if w > 0 else -1.0, _log_ratio(abs(w), d))


def p_fast_parts(n: int, s: int, x: float) -> PolyValue:
    """Sign/log-magnitude of P_n^{(s)}(x), accurate for any index scale.

    Read from the integer sum at x taken as a binary fraction u/v, run at
    192 + n/2 bits and doubled until the error bound certifies 64 bits of
    |P| and of |P| - 1 (the logarithm's relative accuracy near |P| = 1).
    Doubling ends at the exact sum, which alone returns a zero: once the
    integers at the exact scale v^{2K} fit the window, the first left shift
    reaches that scale, no floor drops a bit and err = 0.  The log is
    rounded once.

    Raises:
        ValueError: for a negative index, a degree above MAX_ELEMENT_INDEX
            or a non-finite x.
        TypeError: for an index that ``operator.index`` rejects; numpy
            integers are read as ints.
    """
    n, s = operator.index(n), operator.index(s)
    if n < 0 or s < 0:
        raise ValueError("indices must be non-negative")
    if n > MAX_ELEMENT_INDEX:
        size = float(n) if n < 1e308 else math.inf  # float(n) overflows past that
        raise ValueError(f"degree {size:.3g} exceeds the configured range {MAX_ELEMENT_INDEX}")
    x = _binary_fraction(x)
    bits = 192 + n // 2
    while True:
        w, err, shift, d = _exact_sum(n, s, x, bits)
        mag = abs(w) << shift
        if err <= abs(w) >> 64 and err << 64 <= abs(mag - d) >> shift:
            return _parts(w << shift, d)
        bits *= 2


def _p_triangle(q: int, x: float) -> Iterator[list[PolyValue]]:
    """For n = 0 .. q-1, the values P_n^{(s)}(x) for s = 0 .. (q-1-n)//2.

    With x = u/v (see :func:`_binary_fraction`), row n comes from rows n-1
    and n-2 by the exact relation (Pascal's rule on n!/(k! (n-2k)!))

        P_n^{(s)}(x) = 2x P_{n-1}^{(s)}(x) - 2(n-1) P_{n-2}^{(s+1)}(x),

    P_0^{(s)} = 1/s!, P_1^{(s)} = 2x/s!, taken in the integers w = P d of
    :func:`_exact_sum`, d = v^n (s + n//2)!, where it needs no division:

        w_n^{(s)} = 2u f w_{n-1}^{(s)} - 2(n-1) v^2 w_{n-2}^{(s+1)},
        f = s + n/2 for even n, 1 for odd n.

    These are the exact sum's integers, so every value is one that
    :func:`p_fast_parts` certifies to 64 bits.  Two rows of integers are
    kept; for long u or v (x = 1e300) they grow by that length a degree.

    Raises:
        ValueError: for a non-finite x.
    """
    frac = _binary_fraction(x)
    u2, v = 2 * frac.numerator, frac.denominator
    # u2 = m 2^z with m of at most 53 bits, so a long u2 costs a shift, not a long product.
    z = max((u2 & -u2).bit_length() - 1, 0)
    m = u2 >> z
    older: list[int] = []
    old: list[int] = []
    for n in range(q):
        half = n // 2
        if n < 2:
            row = [u2**n] * ((q + 1 - n) // 2)
        else:
            step = 2 * (n - 1) * v * v
            row = [(m * (1 if n % 2 else s + half) * a << z) - step * b
                   for s, (a, b) in enumerate(zip(old, older[1:]))]
        vn = v**n
        yield [_parts(w, vn * math.factorial(s + half)) for s, w in enumerate(row)]
        older, old = old, row


def p_fast(n: int, s: int, x: float) -> float:
    """P_n^{(s)}(x) as a float (overflows to +-inf past the double range)."""
    return p_fast_parts(n, s, x).value


def hyper_f(n: int, m: int, c, z) -> Fraction:
    """Terminating Gauss hypergeometric series F(-n, -m; c; z).

    Always an exact Fraction: a float ``c`` or ``z`` is read at its binary
    value, and a non-finite one raises ValueError.  Used as an oracle
    through the identities

        P_{2n}^{(m-n)}(x)   = (-1)^n (2n)!/(n! m!) F(-n, -m; 1/2; -x^2),
        P_{2n+1}^{(m-n)}(x) = (-1)^n (2n+1)!/(n! m!) 2x F(-n, -m; 3/2; -x^2).

    The exact series is summed in integers: with c = a/b and z = p/r, term
    k+1 is term k times N_k / D_k, N_k = (k-n)(k-m) p b and
    D_k = r (a + k b)(k+1), so Horner's rule from the last term keeps one
    numerator over the common denominator prod D_k, and one Fraction is
    formed (and reduced) at the end.

    Raises:
        ValueError: unless both leading parameters are non-positive integers
            (the series would not terminate), or if c is one of 0, -1, ...,
            -(min(n, m) - 1), where a term divides by zero, or if a float c
            or z is not finite.
    """
    try:
        n, m = operator.index(n), operator.index(m)
    except TypeError:
        n = m = -1  # not integers: the series is rejected below
    if n < 0 or m < 0:
        raise ValueError("series terminates only for non-negative integers n, m")
    terms = min(n, m)
    if -c in range(terms):
        raise ValueError(f"c={c!r} makes term {int(1 - c)} of F(-{n}, -{m}; c; z) divide by zero")
    a, b = (_binary_fraction(c) if isinstance(c, float) else Fraction(c)).as_integer_ratio()
    p, r = (_binary_fraction(z) if isinstance(z, float) else Fraction(z)).as_integer_ratio()
    num = den = 1
    for k in reversed(range(terms)):
        den *= r * (a + k * b) * (k + 1)
        num = den + (k - n) * (k - m) * p * b * num
    return Fraction(num, den)


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
    """Float value of the asymptotic form (overflows to +-inf past the double range)."""
    return p_asym_parts(n_full, m_full, x).value


def p_asym_remainder(n_full: int, m_full: int, x: float) -> float:
    """|P - p_asym| / envelope in log space, where values past e^709 still compare.

    P is read from :func:`p_fast_parts`; raises the ValueError of :func:`p_asym_parts`.
    """
    asym = p_asym_parts(n_full, m_full, x)
    ref = p_fast_parts(n_full, (m_full - n_full) // 2, x)
    return abs(
        ref.sign * math.exp(ref.log_abs - asym.log_envelope)
        - asym.sign * math.exp(asym.log_abs - asym.log_envelope)
    )
