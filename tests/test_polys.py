"""Exact, fast, hypergeometric, and asymptotic polynomial routes."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rabi_spectra import (
    PhaseSpec,
    TurningPointError,
    derive_params,
    hyper_f,
    p_asym,
    p_asym_parts,
    p_asym_remainder,
    p_exact,
    p_fast,
    p_fast_parts,
    phase_integral,
)

MODEL_X = derive_params(0.2, 1.0).omega / 0.4
# Degree -> (s, x) points of the mpmath check.  x = 1.2431440570397516 is c/t
# of the verify factorization block at g 0.45, and log|P_12^(7)| there is 0.025,
# so the log must keep its relative accuracy near 0; (2000, 0, 0.001) sums
# with little cancellation.
MPMATH_POINTS = {
    12: ((7, 1.2431440570397516),),
    1000: ((0, MODEL_X), (5, MODEL_X)),
    2000: ((0, MODEL_X), (5, MODEL_X), (0, 0.001)),
}


def _squeeze_x(g):
    """x = e^beta / (2 gamma) of the factorization check, in rationals of doubles."""
    lam = derive_params(g, 1.0).lam
    gamma = math.tanh(2.0 * lam) / 2.0
    beta = -math.log(math.cosh(2.0 * lam))
    return Fraction(math.exp(beta)) / (2 * Fraction(gamma))


X_HYPER_EVEN = Fraction(7, 3)
X_HYPER_ODD = Fraction(4, 5)
X_MODEL = Fraction(MODEL_X)
X_STRONG = _squeeze_x(0.45)


def exact_log_value(n, s, x_exact):
    """(sign, log|P|) of the exact rational value, for huge-magnitude compares."""
    value = p_exact(n, s, x_exact)
    if value == 0:
        return 0.0, -math.inf
    with mp.workdps(60):
        mag = mp.log(abs(mp.mpf(value.numerator)) / value.denominator)
    return math.copysign(1.0, value), float(mag)


class TestExact:
    def test_degree_zero(self):
        for s in (0, 1, 3, 7):
            assert p_exact(0, s, Fraction(9, 4)) == Fraction(1, math.factorial(s))

    def test_degree_one(self):
        x = Fraction(9, 4)
        for s in (0, 2):
            assert p_exact(1, s, x) == 2 * x / math.factorial(s)

    def test_degree_two_hand_expansion(self):
        x = Fraction(3, 7)
        assert p_exact(2, 0, x) == 4 * x**2 - 2

    def test_guards(self):
        with pytest.raises(ValueError):
            p_exact(401, 0, Fraction(1))
        with pytest.raises(ValueError):
            p_exact(-1, 0, Fraction(1))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x(self, x):
        # The ValueError of p_fast_parts, not the OverflowError of Fraction(inf).
        with pytest.raises(ValueError, match="finite"):
            p_exact(3, 1, x)

    def test_int_past_the_double_range_stays_exact(self):
        # Only a float goes through the finite check; an int is never rounded.
        assert p_exact(2, 0, 10**400) == 4 * 10**800 - 2


class TestFast:
    def test_matches_exact_on_random_panel(self):
        rng = np.random.default_rng(424242)
        for _ in range(200):
            n = int(rng.integers(0, 201))
            s = int(rng.integers(0, 31))
            x_exact = Fraction(int(rng.integers(1, 641)), 64)  # in [1/64, 10]
            sign, log_abs = exact_log_value(n, s, x_exact)
            parts = p_fast_parts(n, s, float(x_exact))
            if sign == 0.0:
                assert parts.sign == 0.0 or parts.log_abs < log_abs + 40
                continue
            assert parts.sign == sign
            assert abs(parts.log_abs - log_abs) < 1e-9

    def test_small_constant(self):
        assert p_fast(0, 3, 1.7) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_degree_three_against_exact_only(self):
        x = Fraction(13, 8)
        expected = float(p_exact(3, 1, x))
        assert p_fast(3, 1, float(x)) == pytest.approx(expected, rel=1e-13)

    def test_cancellation_flag_and_escalation(self):
        value = p_fast(150, 0, MODEL_X)
        parts = p_fast_parts(150, 0, MODEL_X)
        assert parts.escalated
        sign, log_abs = exact_log_value(150, 0, Fraction(MODEL_X))
        assert math.copysign(1.0, value) == sign
        assert abs(parts.log_abs - log_abs) < 1e-12

    def test_degree_beyond_budget_raises(self, monkeypatch):
        import rabi_spectra.polys as polys

        def no_exact_sum(*args):
            raise AssertionError("the budget check must come first")

        monkeypatch.setattr(polys, "_exact_sum", no_exact_sum)
        with pytest.raises(ValueError, match=str(polys.MAX_ELEMENT_INDEX)):
            p_fast_parts(polys.MAX_ELEMENT_INDEX + 1, 0, MODEL_X)

    def test_negative_index_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            p_fast_parts(-1, 0, 1.0)

    def test_exact_zero(self):
        # P_2^(1)(x) = 4x^2 - 1: the double sum cancels to 0, so the exact sum decides.
        parts = p_fast_parts(2, 1, 0.5)
        assert (parts.sign, parts.log_abs, parts.escalated) == (0.0, -math.inf, True)
        assert parts.value == 0.0

    def test_second_dyadic_zero(self):
        # P_4^(10)(x) = 12 (11t^2 - 12t + 1) / 12!, t = 4x^2, vanishes at x = 1/2.
        assert p_exact(4, 10, Fraction(1, 2)) == 0
        parts = p_fast_parts(4, 10, 0.5)
        assert (parts.sign, parts.log_abs, parts.escalated) == (0.0, -math.inf, True)

    def test_non_finite_argument_raises(self):
        for n in (3, 300):
            for x in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match="finite"):
                    p_fast_parts(n, 0, x)

    @pytest.mark.parametrize("n", sorted(MPMATH_POINTS))
    def test_escalated_against_mpmath_sum(self, n):
        # The integer kernel against an independent mpmath sum at 0.6n + 40
        # digits, both taking the double x as an exact binary fraction.
        for s, x in MPMATH_POINTS[n]:
            parts = p_fast_parts(n, s, x)
            assert parts.escalated
            with mp.workdps(40 + (6 * n) // 10):
                two_x = 2 * mp.mpf(x)
                n_fact = mp.factorial(n)
                total = mp.fsum(
                    (-1) ** k
                    * n_fact
                    * two_x ** (n - 2 * k)
                    / (mp.factorial(k) * mp.factorial(n - 2 * k) * mp.factorial(s + k))
                    for k in range(n // 2 + 1)
                )
                ref = float(mp.log(abs(total)))
                assert parts.sign == (1.0 if total > 0 else -1.0)
            assert abs(parts.log_abs - ref) <= 2 * math.ulp(abs(ref))

    def test_log_readout_keeps_relative_accuracy_near_one(self):
        from rabi_spectra.polys import _log_ratio

        assert _log_ratio(2**60 + 1, 2**60) == math.log1p(2.0**-60)
        assert _log_ratio(2**60 - 1, 2**61) == math.log1p(-(2.0**-60)) - math.log(2.0)
        ref = float(mp.log(mp.mpf(10) ** 400 / 3))
        assert abs(_log_ratio(10**400, 3) - ref) <= math.ulp(ref)

    def test_model_point_contract_to_degree_200(self):
        # Relative 1e-10 against the exact oracle at x = omega/(2g).
        for n in (40, 80, 120, 200):
            sign, log_abs = exact_log_value(n, 0, Fraction(MODEL_X))
            parts = p_fast_parts(n, 0, MODEL_X)
            assert parts.sign == sign
            assert abs(parts.log_abs - log_abs) < 1e-10

    def test_value_overflows_where_the_double_range_ends(self):
        from rabi_spectra.polys import PolyValue

        # The old cut at log_abs 709 sent e^709.5 = 1.35e308 to inf.
        assert PolyValue(-1.0, 709.5).value == -math.exp(709.5)
        assert PolyValue(-1.0, 709.79).value == -math.inf

    def test_parts_expose_value(self):
        parts = p_fast_parts(6, 2, 0.8)
        assert parts.value == pytest.approx(
            parts.sign * math.exp(parts.log_abs), rel=1e-15
        )

    def test_zero_argument(self):
        assert p_fast(5, 2, 0.0) == 0.0
        expected = float(p_exact(6, 1, Fraction(0)))
        assert p_fast(6, 1, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_negative_argument_parity(self):
        x = Fraction(-7, 5)
        for n, s in ((5, 1), (8, 0)):
            assert p_fast(n, s, float(x)) == pytest.approx(
                float(p_exact(n, s, x)), rel=1e-12
            )


def _working_precision_grid():
    """Seeded (n, s, x) cases of the truncated kernel, special points first.

    x = +-0.0 at degrees past the truncation size of both parities, the
    dyadic zero P_2^(1)(0.5), x = 1e+-300 (at n < 200, where the exact sum
    has up to 2000 n bits), and negative x at odd degree.
    """
    cases = [(2, 1, 0.5), (601, 3, 0.0), (601, 3, -0.0), (600, 3, 0.0), (600, 3, -0.0)]
    special = [0.0, -0.0, 0.5, 1.0, 2.0, 1e300, -1e300, 1e-300, -1e-300, MODEL_X, -MODEL_X]
    rng = np.random.default_rng(20240611)
    while len(cases) < 1500:
        n, s = int(rng.integers(0, 400)), int(rng.integers(0, 40))
        if rng.random() < 0.3:
            x = special[int(rng.integers(len(special)))]
            if abs(x) in (1e300, 1e-300):
                n //= 2
        else:
            x = float(rng.uniform(-5.0, 5.0))
        cases.append((n, s, x))
    return cases


WORKING_PRECISION_GRID = _working_precision_grid()


@pytest.fixture(scope="class")
def exact_routes():
    """The unfloored kernel at each grid case, computed once for the class."""
    from rabi_spectra.polys import _exact_sum

    return [_exact_sum(n, s, Fraction(x)) for n, s, x in WORKING_PRECISION_GRID]


@pytest.fixture
def kernel_starts(monkeypatch):
    """The ``bits`` argument of each later _exact_sum call, in call order."""
    import rabi_spectra.polys as polys

    starts = []
    kernel = polys._exact_sum

    def spy(n, s, x, bits=None):
        starts.append(bits)
        return kernel(n, s, x, bits)

    monkeypatch.setattr(polys, "_exact_sum", spy)
    return starts


def _block_x(g):
    """x = c/t, the argument of P in the factorization block, as the block rounds it."""
    lam = derive_params(g, 1.0).lam
    return (1.0 / math.cosh(2.0 * lam)) / math.tanh(2.0 * lam)


class TestTriangle:
    @pytest.mark.parametrize(
        "x", [_block_x(0.2), _block_x(0.45), -1.2431440570397516, 3.0, 0.5, _block_x(1e-300)]
    )
    def test_integers_equal_exact_sum(self, monkeypatch, x):
        # The three-term relation reaches the exact Horner sum's integers, at
        # every n + 2s < q: q = 128, or 32 at g = 1e-300, where x = c/t near
        # 5e299 has a 1000-bit numerator and each exact sum grows that much a
        # degree.
        from rabi_spectra import polys

        q = 32 if abs(x) > 1e299 else 128
        monkeypatch.setattr(polys, "_parts", lambda w, d: (w, d))
        rows = list(polys._p_triangle(q, x))
        assert [len(row) for row in rows] == [(q + 1 - n) // 2 for n in range(q)]
        for n, row in enumerate(rows):
            for s, (w, d) in enumerate(row):
                exact_w, _, _, exact_d = polys._exact_sum(n, s, Fraction(x))
                assert (w, d) == (exact_w, exact_d), (n, s)

    # p_fast_parts floors its Horner sums at 192 + n/2 bits or more, so the
    # exact integers of the triangle round to the same double, also at
    # g = 1e-300, where x = c/t near 5e299 is longer than 64 bits.
    @pytest.mark.parametrize("x", [_block_x(0.2), -1.2431440570397516, 0.0, _block_x(1e-300)])
    def test_equals_p_fast_parts_below_degree_64(self, x):
        from rabi_spectra import polys

        for n, row in enumerate(polys._p_triangle(64, x)):
            assert row == [p_fast_parts(n, s, x) for s in range(len(row))], n

    def test_non_finite_x(self):
        from rabi_spectra import polys

        with pytest.raises(ValueError, match="finite"):
            next(polys._p_triangle(8, math.inf))


class TestWorkingPrecision:
    """The certified truncation of the integer kernel against its exact route."""

    def test_fast_parts_match_exact_route(self, exact_routes):
        from rabi_spectra.polys import _log_ratio

        for (n, s, x), (w, _, _, d) in zip(WORKING_PRECISION_GRID, exact_routes):
            parts = p_fast_parts(n, s, x)
            if w == 0:
                assert (parts.sign, parts.log_abs) == (0.0, -math.inf), (n, s, x)
                continue
            assert parts.sign == (1.0 if w > 0 else -1.0), (n, s, x)
            ref = _log_ratio(abs(w), d)
            assert abs(parts.log_abs - ref) <= math.ulp(ref), (n, s, x)

    @pytest.mark.parametrize("start", ["tiny", "production"])
    def test_error_bound_holds(self, start, exact_routes):
        # |w_exact - w 2^shift| <= err 2^shift, both at the production start
        # and at a 16-bit working precision, where nearly every step floors.
        from rabi_spectra.polys import _exact_sum

        for (n, s, x), (exact, _, _, d_exact) in zip(WORKING_PRECISION_GRID, exact_routes):
            bits = 16 if start == "tiny" else 192 + n // 2
            w, err, shift, d = _exact_sum(n, s, Fraction(x), bits)
            assert d == d_exact
            assert abs(exact - (w << shift)) <= err << shift, (n, s, x, bits)

    # One start, 192 + n // 2 bits, below degree 64 as from degree 64 on, at
    # a 64-bit fraction x and at an x whose numerator (1e300) or denominator
    # (1e-300) is longer.
    @pytest.mark.parametrize(
        "n,x,bits",
        [(0, MODEL_X, 192), (63, MODEL_X, 223), (63, -4.75, 223), (64, MODEL_X, 224),
         (65, MODEL_X, 224), (400, MODEL_X, 392), (40, 1e300, 212), (1, -1e-300, 192)],
    )
    def test_exact_below_degree_64(self, n, x, bits, kernel_starts):
        p_fast_parts(n, 3, x)
        assert kernel_starts[0] == bits == 192 + n // 2

    @pytest.mark.parametrize("n", [1000, 3000])
    @pytest.mark.parametrize("s", [0, 40])
    @pytest.mark.parametrize("x", [0.01, 0.05, 0.1, 0.3, 0.6, 1.0, MODEL_X, 4.75, 40.0, -1.7])
    def test_certifies_at_the_first_start(self, n, s, x, kernel_starts):
        # Where z = 4x^2 < 1 the integers shrink once the coefficients pass
        # their peak; moved back up the window, they keep the 192 + n/2 bits
        # that certify without a doubling.
        p_fast_parts(n, s, x)
        assert kernel_starts == [192 + n // 2]

    def test_grid_reaches_the_floored_route(self):
        # From degree 64 on, most grid cases floor at the production start, so
        # test_fast_parts_match_exact_route checks the floored route there.
        from rabi_spectra.polys import _exact_sum

        floored = sum(
            _exact_sum(n, s, Fraction(x), 192 + n // 2)[1] > 0
            for n, s, x in WORKING_PRECISION_GRID
            if n >= 64
        )
        assert floored > 1000

    def test_doubling_ends_at_the_exact_sum(self, exact_routes):
        # Doubled from the production start, the floored sum reaches err = 0
        # and there equals the exact one, so p_fast_parts always returns.
        from rabi_spectra.polys import _exact_sum

        for (n, s, x), (exact, _, _, _) in zip(WORKING_PRECISION_GRID[:300], exact_routes):
            bits = 192 + n // 2
            while (found := _exact_sum(n, s, Fraction(x), bits))[1]:
                bits *= 2
            w, _, shift, _ = found
            assert w << shift == exact, (n, s, x, bits)

    def test_exact_start_matches_hyper_f(self):
        # The hypergeometric series is an independent exact route to P.
        from rabi_spectra.polys import _log_ratio

        for n in range(64):
            n_h, odd = divmod(n, 2)
            for s in (0, 1, 7, 39):
                for x in (MODEL_X, -2.3, 0.5, 4.75):
                    z = Fraction(x)
                    scale = Fraction(math.factorial(n), math.factorial(n_h) * math.factorial(n_h + s))
                    series = hyper_f(n_h, n_h + s, Fraction(1 + 2 * odd, 2), -(z**2))
                    value = (-1) ** n_h * scale * (2 * z if odd else 1) * series
                    parts = p_fast_parts(n, s, x)
                    if value == 0:
                        assert (parts.sign, parts.log_abs) == (0.0, -math.inf), (n, s, x)
                        continue
                    ref = _log_ratio(abs(value.numerator), value.denominator)
                    assert parts.sign == math.copysign(1.0, value), (n, s, x)
                    assert abs(parts.log_abs - ref) <= math.ulp(ref), (n, s, x)

    def test_odd_degree_at_zero_is_an_exact_zero_after_floors(self):
        # The factor |2u| = 0 clears the bound too, so one pass decides.
        from rabi_spectra.polys import _exact_sum

        w, err, shift, _ = _exact_sum(601, 3, Fraction(0), 16)
        assert (w, err) == (0, 0) and shift > 0


class TestHyperF:
    def test_empty_product(self):
        for m in (0, 3, 9):
            assert hyper_f(0, m, Fraction(1, 2), Fraction(4, 3)) == 1

    def test_one_term_expansion(self):
        z = Fraction(5, 9)
        assert hyper_f(1, 1, Fraction(1, 2), z) == 1 + 2 * z

    @pytest.mark.parametrize("c", [0, -1, 0.0, Fraction(-2)])
    def test_pole_of_c_rejected(self, c):
        # Unchecked, these raised ZeroDivisionError.
        with pytest.raises(ValueError, match="c="):
            hyper_f(3, 3, c, Fraction(1, 2))

    def test_non_positive_c_before_the_pole(self):
        # No term reaches c + k = 0: the empty product, and c = -2 with two terms.
        z = Fraction(1, 2)
        assert hyper_f(0, 4, 0, z) == 1
        assert hyper_f(2, 2, -2, z) == 1 - 2 * z + z * z

    def test_non_terminating_rejected(self):
        with pytest.raises(ValueError):
            hyper_f(-1, 2, 0.5, 0.3)
        with pytest.raises(ValueError):
            hyper_f(2.0, 2, 0.5, 0.3)

    @pytest.mark.parametrize(
        "n_h,m_h,x",
        [
            pytest.param(0, 0, X_HYPER_EVEN, id="0-0"),
            pytest.param(1, 3, X_HYPER_EVEN, id="1-3"),
            pytest.param(4, 4, X_HYPER_EVEN, id="4-4"),
            pytest.param(7, 12, X_HYPER_EVEN, id="7-12"),
            pytest.param(12, 12, X_HYPER_EVEN, id="12-12"),
            pytest.param(200, 202, X_MODEL, id="200-202-model_x"),
            pytest.param(200, 202, X_STRONG, id="200-202-squeeze_x_g0.45"),
        ],
    )
    def test_identity_even(self, n_h, m_h, x):
        lhs = p_exact(2 * n_h, m_h - n_h, x)
        rhs = (
            (-1) ** n_h
            * Fraction(math.factorial(2 * n_h), math.factorial(n_h) * math.factorial(m_h))
            * hyper_f(n_h, m_h, Fraction(1, 2), -(x**2))
        )
        assert lhs == rhs

    @pytest.mark.parametrize(
        "n_h,m_h,x",
        [
            pytest.param(0, 2, X_HYPER_ODD, id="0-2"),
            pytest.param(3, 3, X_HYPER_ODD, id="3-3"),
            pytest.param(5, 10, X_HYPER_ODD, id="5-10"),
            pytest.param(12, 12, X_HYPER_ODD, id="12-12"),
            pytest.param(150, 160, X_MODEL, id="150-160-model_x"),
            pytest.param(150, 160, X_STRONG, id="150-160-squeeze_x_g0.45"),
        ],
    )
    def test_identity_odd(self, n_h, m_h, x):
        lhs = p_exact(2 * n_h + 1, m_h - n_h, x)
        rhs = (
            (-1) ** n_h
            * Fraction(math.factorial(2 * n_h + 1), math.factorial(n_h) * math.factorial(m_h))
            * 2
            * x
            * hyper_f(n_h, m_h, Fraction(3, 2), -(x**2))
        )
        assert lhs == rhs


def _hyper_f_per_term(n, m, c, z):
    """F(-n, -m; c; z) term by term, each term and partial sum a reduced Fraction."""
    term = total = Fraction(1)
    for k in range(min(n, m)):
        if c + k == 0:
            raise ValueError(f"c={c!r} makes term {k + 1} of F(-{n}, -{m}; c; z) divide by zero")
        term = term * (k - n) * (k - m) * z / ((c + k) * (k + 1))
        total += term
    return total


class TestIntegerHyperF:
    """The integer Horner sum of hyper_f against the per-term Fraction series."""

    INDICES = (*range(0, 80, 3), 79, 80)

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3, 2), Fraction(7, 3), 5, -2])
    def test_equals_per_term_reference(self, c):
        rng = np.random.default_rng(33)
        compared = raised = 0
        for n in self.INDICES:
            for m in self.INDICES:
                z = Fraction(int(rng.integers(-10**9, 10**9)), int(rng.integers(1, 10**9)))
                try:
                    ref = _hyper_f_per_term(n, m, c, z)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        hyper_f(n, m, c, z)
                    assert str(got.value) == str(exc)
                    raised += 1
                    continue
                value = hyper_f(n, m, c, z)
                assert type(value) is Fraction and value == ref, (n, m, c, z)
                compared += 1
        # c = -2 is a pole of every series with at least 3 terms.
        poles = sum(min(n, m) >= 3 for n in self.INDICES for m in self.INDICES) if c == -2 else 0
        assert raised == poles and compared == len(self.INDICES) ** 2 - poles

    def test_float_path_unchanged(self):
        # The float path keeps the per-term loop: the same operations, the same bits.
        for n, m, c, z in ((3, 4, 0.5, 0.3), (40, 60, 1.5, -2.25), (80, 80, 7 / 3, -1e-3)):
            term = total = 1
            for k in range(min(n, m)):
                term = term * (k - n) * (k - m) * z / ((c + k) * (k + 1))
                total = total + term
            assert hyper_f(n, m, c, z) == total
            assert type(hyper_f(n, m, c, Fraction(z))) is float  # a float c takes this path

    def test_exact_integers(self):
        assert hyper_f(3, 4, 5, 2) == _hyper_f_per_term(3, 4, 5, Fraction(2))
        assert type(hyper_f(3, 4, 5, 2)) is Fraction


class TestIndexCoercion:
    """Numpy integers are read as ints at the API boundary; non-integers raise."""

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_numpy_integers_equal_ints(self, kind):
        assert p_exact(kind(25), kind(2), 0.5) == p_exact(25, 2, 0.5)
        assert p_fast_parts(kind(25), kind(0), MODEL_X) == p_fast_parts(25, 0, MODEL_X)
        assert p_fast(kind(60), kind(3), MODEL_X) == p_fast(60, 3, MODEL_X)
        assert hyper_f(kind(3), kind(4), 0.5, 0.3) == hyper_f(3, 4, 0.5, 0.3)
        z = Fraction(-7, 3)
        assert hyper_f(kind(30), kind(40), Fraction(1, 2), z) == hyper_f(30, 40, Fraction(1, 2), z)

    def test_non_integers_raise(self):
        for index in (2.0, 2.5, Fraction(5, 2), np.float64(3.0)):
            with pytest.raises(TypeError):
                p_exact(index, 0, 0.5)
            with pytest.raises(TypeError):
                p_exact(4, index, 0.5)
            with pytest.raises(TypeError):
                p_fast_parts(index, 0, 0.5)
            with pytest.raises(TypeError):
                p_fast(4, index, 0.5)
            with pytest.raises(ValueError, match="non-negative integers"):
                hyper_f(index, 4, 0.5, 0.3)
            with pytest.raises(ValueError, match="non-negative integers"):
                hyper_f(4, index, 0.5, 0.3)


class TestPhaseIntegral:
    def test_zero_offset_closed_form(self):
        y = phase_integral(PhaseSpec(s=0, lambda_hat=10.0, t_max=1.0))
        assert abs(y - 10.0 * math.atan(math.sinh(1.0))) < 1e-12
        # sinh(t)^2 overflows here; the value must still be finite.
        y = phase_integral(PhaseSpec(s=0, lambda_hat=10.0, t_max=-400.0))
        assert abs(y + 5.0 * math.pi) < 1e-12

    @pytest.mark.parametrize("t_max", [800.0, -800.0])
    def test_zero_offset_past_cosh_overflow(self, t_max):
        y = phase_integral(PhaseSpec(s=0, lambda_hat=10.0, t_max=t_max))
        eps = float(np.finfo(float).eps)
        assert abs(y - math.copysign(5.0 * math.pi, t_max)) <= 4.0 * eps * 5.0 * math.pi

    @pytest.mark.parametrize("t_max", [1.0, -1.0])
    @pytest.mark.parametrize("lambda_hat", [math.nan, math.inf])
    def test_non_finite_lambda_hat_rejected(self, lambda_hat, t_max):
        with pytest.raises(ValueError, match="finite"):
            PhaseSpec(s=1, lambda_hat=lambda_hat, t_max=t_max)

    def test_zero_interval(self):
        assert phase_integral(PhaseSpec(s=2, lambda_hat=40.0, t_max=0.0)) == 0.0

    def test_against_trapezoid_oracle(self):
        r = 3.0 / 100.0
        ts = np.linspace(0.0, 0.8, 1_000_001)
        f = np.sqrt(np.maximum(1.0 / np.cosh(ts) ** 2 - r * r, 0.0))
        oracle = 100.0 * np.trapezoid(f, ts)
        y = phase_integral(PhaseSpec(s=3, lambda_hat=100.0, t_max=0.8))
        assert abs(y - oracle) < 1e-10

    def test_turning_point_error(self):
        # 1/cosh(3) ~ 0.0993 < s/lambda = 0.5.
        with pytest.raises(TurningPointError):
            phase_integral(PhaseSpec(s=5, lambda_hat=10.0, t_max=3.0))

    def test_for_indices_rejects_parity_mismatch(self):
        with pytest.raises(ValueError, match="parity"):
            PhaseSpec.for_indices(3, 4, 1.0)

    def test_spec_invariant_validation(self):
        with pytest.raises(ValueError):
            PhaseSpec(s=10, lambda_hat=5.0, t_max=1.0)
        with pytest.raises(ValueError):
            PhaseSpec(s=-1, lambda_hat=5.0, t_max=1.0)
        with pytest.raises(ValueError):
            PhaseSpec(s=0, lambda_hat=1.0, t_max=math.inf)

    @pytest.mark.parametrize(
        "s, lambda_hat",
        [(s, lam) for s in (0, 2, 9, 40) for lam in (10.0, 400.0, 3000.0) if s < lam],
    )
    def test_against_mpmath_quad(self, s, lambda_hat):
        # Every valid endpoint of +-0.1, +-0.8, +-1.5 and +-0.9999 of the
        # turning point, against 40-digit tanh-sinh quadrature.
        t_values = [0.1, 0.8, 1.5]
        if s > 0:
            t_values.append(0.9999 * math.acosh(lambda_hat / s))
        eps = float(np.finfo(float).eps)
        checked = 0
        for t_max in t_values + [-t for t in t_values]:
            if s * math.cosh(t_max) > lambda_hat:
                continue
            y = phase_integral(PhaseSpec(s=s, lambda_hat=lambda_hat, t_max=t_max))
            with mp.workdps(40):
                r = mp.mpf(s) / mp.mpf(lambda_hat)
                ref = lambda_hat * mp.quad(
                    lambda tau: mp.sqrt(mp.sech(tau) ** 2 - r * r), [0, mp.mpf(t_max)]
                )
                err = float(abs(y - ref))
            assert err <= 4.0 * eps * max(1.0, abs(y)), (t_max, y, float(ref))
            checked += 1
        assert checked >= 4

    def test_near_turning_point_converges(self):
        # Endpoint close to the turning point, where the integrand has a
        # square-root edge.
        spec = PhaseSpec(s=9, lambda_hat=10.0, t_max=float(np.arccosh(10.0 / 9.0) * 0.9999))
        y = phase_integral(spec)
        assert 0.0 < y < 10.0 * math.atan(math.sinh(spec.t_max))


class TestAsym:
    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            p_asym(10, 13, 1.0)

    def test_order_requirement(self):
        with pytest.raises(ValueError):
            p_asym(10, 8, 1.0)

    def test_negative_index(self):
        with pytest.raises(ValueError, match="non-negative"):
            p_asym_parts(-2, 0, 1.0)

    def test_validity_domain(self):
        # s/lambda must stay below 1/sqrt(1+x^2).
        with pytest.raises(ValueError):
            p_asym(10, 90, 3.0)

    def test_normalized_residual_decays(self):
        # Envelope-normalized residual falls at least ~1/(n+m): compare the
        # max over an x-grid between sizes 60 and 120.
        xs = np.linspace(0.5, 3.0, 21)

        def worst(n_full):
            res = 0.0
            for x in xs:
                exact = float(p_exact(n_full, 0, Fraction(float(x))))
                parts = p_asym_parts(n_full, n_full, float(x))
                res = max(res, abs(parts.value - exact) / parts.envelope)
            return res

        assert worst(60) >= 1.5 * worst(120)

    def test_sign_changes_interlace(self):
        # Zeros of the degree-60 polynomial and of its asymptotic form
        # alternate across (0.5, 3).
        n_full = 60
        xs = [Fraction(1, 2) + Fraction(k, 320) for k in range(0, 801)]
        exact_signs = [1 if p_exact(n_full, 0, x) > 0 else -1 for x in xs]
        asym_signs = [1 if p_asym(n_full, n_full, float(x)) > 0 else -1 for x in xs]

        def crossings(signs):
            return [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]

        exact_cross = crossings(exact_signs)
        asym_cross = crossings(asym_signs)
        assert abs(len(exact_cross) - len(asym_cross)) <= 1
        # Between consecutive exact zeros there is exactly one asymptotic zero.
        for left, right in zip(exact_cross, exact_cross[1:]):
            inside = [c for c in asym_cross if left <= c < right]
            assert len(inside) == 1

    @pytest.mark.parametrize("x", [0.92, 1.08, 1.2, 1.36, 1.88, 1.92, 2.0])
    def test_degree_1000_against_fast(self, x):
        # Large lambda_hat: the phase integral must stay cheap and accurate.
        n_full, m_full = 1000, 1004
        assert p_asym_remainder(n_full, m_full, x) < 20.0 / (n_full + m_full)

    def test_even_odd_prefactors_against_fast(self):
        # Single-point agreement to the O(1/(n+m)) remainder scale.
        for n_full, m_full in ((100, 100), (101, 101), (96, 104), (97, 105)):
            assert p_asym_remainder(n_full, m_full, MODEL_X) < 20.0 / (n_full + m_full)

    @pytest.mark.parametrize("x", [0.48432210483785254, 1.0, MODEL_X])
    @pytest.mark.parametrize("s", [0, 2])
    def test_remainder_against_exact(self, s, x):
        # |p_asym - P| / envelope at 50 digits from the exact P.  Each log-space
        # term of the helper carries an ulp of log|P|, about 1e-14 of the
        # envelope, so near a node of the remainder only the absolute bound holds.
        for n_full in range(10, 121):
            m_full = n_full + 2 * s
            parts = p_asym_parts(n_full, m_full, x)
            exact = p_exact(n_full, s, Fraction(x))
            with mp.workdps(50):
                asym = parts.sign * mp.exp(parts.log_abs)
                ref = abs(asym - mp.mpf(exact.numerator) / exact.denominator) / mp.exp(
                    parts.log_envelope
                )
            got = p_asym_remainder(n_full, m_full, x)
            assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-13), n_full

    @pytest.mark.parametrize(
        "n_full, m_full, x",
        [(10, 90, 3.0), (10, 30, 5.0), (10, 13, 1.0), (-2, 0, 1.0), (6, 2, 1.0), (10, 10, math.nan)],
    )
    def test_remainder_raises_as_asym_parts(self, n_full, m_full, x):
        with pytest.raises(ValueError) as expected:
            p_asym_parts(n_full, m_full, x)
        with pytest.raises(ValueError) as got:
            p_asym_remainder(n_full, m_full, x)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
