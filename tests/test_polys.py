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
        parts = p_asym_parts(n_full, m_full, x)
        ref = p_fast_parts(n_full, (m_full - n_full) // 2, x)
        diff = abs(
            parts.sign * math.exp(parts.log_abs - parts.log_envelope)
            - ref.sign * math.exp(ref.log_abs - parts.log_envelope)
        )
        assert diff < 20.0 / (n_full + m_full)

    def test_even_odd_prefactors_against_fast(self):
        # Single-point agreement to the O(1/(n+m)) remainder scale.
        for n_full, m_full in ((100, 100), (101, 101), (96, 104), (97, 105)):
            parts = p_asym_parts(n_full, m_full, MODEL_X)
            s = (m_full - n_full) // 2
            ref = p_fast_parts(n_full, s, MODEL_X)
            diff = abs(
                parts.sign * math.exp(parts.log_abs - parts.log_envelope)
                - ref.sign * math.exp(ref.log_abs - parts.log_envelope)
            )
            assert diff < 20.0 / (n_full + m_full)
