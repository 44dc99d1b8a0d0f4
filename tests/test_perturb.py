"""Transformed perturbation matrix, correction sums, gap bound, three-term formula."""

import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest

from rabi_spectra import (
    Branch,
    ConvergenceError,
    DegenerateGapError,
    Parity,
    SpectrumModel,
    converged_levels,
    delta_n,
    derive_params,
    k_norm_sq,
    k_norm_sq_tail,
    residual_study,
    row_tail_mass,
    second_order,
    second_order_tail,
    three_term,
    u_element,
    v_tilde,
    v_tilde_diag_asym,
    v_tilde_row,
)
from rabi_spectra.model import ChainSelector
from rabi_spectra.perturb import _squeezed_column
from rabi_spectra.polys import MAX_ELEMENT_INDEX
from rabi_spectra.squeeze import parity_sign_diagonal

PARAMS = derive_params(0.2, 1.0)


def brute_delta_n(model: SpectrumModel, n: int, cutoff: int) -> float:
    """Literal sum over ||(D - mu_n E - r_n E_n) e_m|| denominators."""
    r_n = 0.5 * min(model.mu[n] - model.mu[n - 1], model.mu[n + 1] - model.mu[n])
    total = 0.0
    for m in range(cutoff + 1):
        e_n_sign = 1.0 if m > n else -1.0
        denom = model.mu[m] - model.mu[n] - r_n * e_n_sign
        total += (model.row_norms[m] / denom) ** 2
    return math.sqrt(total)


class TestVTilde:
    def test_parity_sparsity(self):
        assert v_tilde(1, 0, PARAMS) == 0.0
        assert v_tilde(5, 2, PARAMS) == 0.0

    def test_numpy_integer_indices(self):
        # They raised OverflowError from the integer sum.
        for kind in (np.int64, np.int32):
            assert v_tilde(kind(25), kind(3), PARAMS) == v_tilde(25, 3, PARAMS)
            assert v_tilde(kind(6), 2, PARAMS) == v_tilde(6, 2, PARAMS)

    def test_non_integer_indices_raise(self):
        # 6.5 was read as an odd distance and gave 0.0.
        for m, n in ((6.5, 4), (6, 4.0), (6.0, 4)):
            with pytest.raises(TypeError):
                v_tilde(m, n, PARAMS)
        with pytest.raises(TypeError):
            v_tilde(6.5, 4, derive_params(0.2, 0.0))  # before the Delta = 0 shortcut

    def test_symmetry(self):
        a = v_tilde(6, 2, PARAMS)
        b = v_tilde(2, 6, PARAMS)
        assert a == pytest.approx(b, rel=1e-13)

    def test_row_sum_identity(self):
        for n in (3, 10, 24):
            _, vals = v_tilde_row(PARAMS, n, 2000)
            assert float(np.sum(vals**2)) == pytest.approx(
                PARAMS.delta**2 / 4.0, abs=1e-9
            )

    def test_row_matches_scalar(self):
        ks, vals = v_tilde_row(PARAMS, 15, 301)
        for idx in (0, 3, 7, 40, 100, 150):
            assert vals[idx] == pytest.approx(
                v_tilde(int(ks[idx]), 15, PARAMS), rel=1e-11, abs=1e-250
            )

    def test_row_read_only(self):
        ks, vals = v_tilde_row(PARAMS, 5, 100)
        with pytest.raises(ValueError):
            ks[0] = 99
        with pytest.raises(ValueError):
            vals[0] = 0.0
        again, _ = v_tilde_row(PARAMS, 5, 100)
        assert np.array_equal(again, np.arange(1, 101, 2))

    def test_band_bound(self):
        # |V~_mn| (nm)^{1/4} stays bounded in the near-diagonal band.
        worst = 0.0
        for n in (100, 225):
            for m in range(n, n + int(math.isqrt(n)) + 1, 2):
                worst = max(worst, abs(v_tilde(m, n, PARAMS)) * (n * m) ** 0.25)
        assert worst < 1.2

    def test_consistency_with_squeeze_product(self):
        # Recurrence rows equal V . U(2 lam) from the closed-form squeeze elements.
        signs = parity_sign_diagonal(64, PARAMS.delta)
        worst = 0.0
        for n in range(64):
            ks, vals = v_tilde_row(PARAMS, n, 63)
            for k, value in zip(ks.tolist(), vals.tolist()):
                via_u = signs[k] * u_element(k, n, 2.0 * PARAMS.lam)
                worst = max(worst, abs(value - via_u))
        assert worst < 1e-10

    @pytest.mark.parametrize(
        "m,n,rel", [(453, 405, 4e-11), (405, 405, 1e-13), (800, 800, 1e-13)]
    )
    def test_accuracy_against_mp_sum(self, m, n, rel):
        # P is evaluated at omega/(2g) rounded once: 3.07e-11 next to a node
        # at (453, 405), and about 7e-14 on the diagonal.  Going through
        # u_element(m, n, 2 lam) instead measured 1.8e-13 and 2.9e-13 on the
        # diagonal.
        s = (m - n) // 2
        with mp.workdps(120):
            g = mp.mpf(PARAMS.g)
            omega = mp.sqrt(1 - 4 * g * g)
            poly = mp.fsum(
                (-1) ** k * mp.factorial(n) * (omega / g) ** (n - 2 * k)
                / (mp.factorial(k) * mp.factorial(n - 2 * k) * mp.factorial(s + k))
                for k in range(n // 2 + 1)
            )
            ref = (
                (-1) ** (n // 2) * mp.mpf(PARAMS.delta) / 2 * mp.sqrt(omega) * g ** (n + s)
                * mp.sqrt(mp.factorial(m) / mp.factorial(n)) * poly
            )
            assert abs((v_tilde(m, n, PARAMS) - ref) / ref) < rel

    def test_zero_delta(self):
        p0 = derive_params(0.2, 0.0)
        assert v_tilde(8, 8, p0) == 0.0
        _, vals = v_tilde_row(p0, 8, 200)
        assert np.all(vals == 0.0)

    def test_row_guards(self):
        with pytest.raises(ValueError, match="n <= cutoff"):
            v_tilde_row(PARAMS, 5, 3)
        with pytest.raises(ValueError, match="cutoff exceeds"):
            v_tilde_row(PARAMS, 5, MAX_ELEMENT_INDEX + 1)

    def test_row_indices_are_integers(self):
        # Unchecked, a float cutoff gave float indices and a float n a slice TypeError deep inside.
        for n, cutoff in ((3, 100.0), (3.0, 100)):
            with pytest.raises(TypeError):
                v_tilde_row(PARAMS, n, cutoff)
        ks, vals = v_tilde_row(PARAMS, np.int64(3), np.int32(100))
        want_ks, want_vals = v_tilde_row(PARAMS, 3, 100)
        assert ks.dtype == want_ks.dtype
        np.testing.assert_array_equal(ks, want_ks)
        np.testing.assert_array_equal(vals, want_vals)

    def test_index_guard(self):
        with pytest.raises(ValueError):
            v_tilde(100_001, 1, PARAMS)
        with pytest.raises(ValueError):
            v_tilde(100_001, 1, derive_params(0.2, 0.0))
        with pytest.raises(ValueError):
            v_tilde(-1, 1, derive_params(0.2, 0.0))


class TestRowRecurrence:
    """Recurrence rows against the scalar polynomial route (independent oracle).

    Entries are sampled at 12 evenly spaced positions plus the diagonal.
    Relative agreement is asserted at g = 0.2 only.  Near a sign change of
    the row both routes are accurate in absolute terms alone: against
    full-precision sums, entries of |V~| ~ 1e-5 carry relative errors up to
    2e-10 (g = 0.2, n = 405), and at g = 0.45 the absolute error of the
    recurrence grows to ~2e-13 at n = 1000.
    """

    @pytest.mark.parametrize("g", [0.2, 0.45])
    @pytest.mark.parametrize("n", [0, 1, 15, 100, 404, 1000])
    def test_sampled_entries_match_scalar(self, g, n):
        cutoff = max(8 * n, 400)
        for delta in (1.0, -1.0):
            params = derive_params(g, delta)
            ks, vals = v_tilde_row(params, n, cutoff)
            picks = set(np.linspace(0, ks.size - 1, 12).astype(int).tolist()) | {n // 2}
            for i in sorted(picks):
                ref = v_tilde(int(ks[i]), n, params)
                assert abs(vals[i] - ref) <= 1e-12
                if g == 0.2 and abs(ref) > 1e-250:
                    assert abs(vals[i] - ref) <= 1e-11 * abs(ref)

    # The backward recurrence starts past the row's own cutoff, so rows of
    # different cutoffs agree to rounding, not bit for bit.  At g = 0.49,
    # n = 1000 the column spreads past the work budget.
    @pytest.mark.parametrize(
        "g,n", [(g, n) for g in (0.2, 0.45, 0.49) for n in (0, 11, 100, 1000) if (g, n) != (0.49, 1000)]
    )
    def test_rows_are_prefixes_of_a_longer_row(self, g, n):
        params = derive_params(g, 1.0)
        _, full = v_tilde_row(params, n, max(4000, 8 * n))
        for cutoff in (n + 2, 4 * n + 2, 2000):
            _, vals = v_tilde_row(params, n, cutoff)
            assert np.max(np.abs(vals - full[: vals.size])) <= 1e-13, cutoff

    def test_tail_mass_before_the_turning_point(self):
        # Cutoff 100 ends before the outer turning point (Fock index 475) of
        # row 25 at g = 0.45, so about 0.18 of the row's mass lies past it and
        # only a column normalised past the cutoff accounts for it.
        params = derive_params(0.45, 1.0)
        ks, vals = v_tilde_row(params, 25, 2000)
        tail = float(np.sum(vals[ks > 100] ** 2))
        assert tail > 0.1
        assert abs(row_tail_mass(25, params, 100) - tail) <= 1e-14

    def test_column_stops_past_its_cutoff(self):
        # 1000 returned sites plus 62 decades of the decay r2 = 0.928 at
        # g = 0.45, ceil(62 ln 10 / -ln r2) + 3 = 1919 sites; the start past
        # double underflow took about 11,900.
        assert len(_squeezed_column(0.45, 25, 2000)) <= 2919

    def test_far_cutoff_rescaling(self):
        params = derive_params(0.45, 1.0)
        _, vals = v_tilde_row(params, 0, 20000)
        assert np.all(np.isfinite(vals))
        assert float(np.sum(vals**2)) == pytest.approx(params.delta**2 / 4.0, abs=1e-12)

    # At tiny g one step of the recurrence multiplies t_j ~ n/(2g) by an
    # entry up to the 1e150 rescale threshold and can overflow; it is redone.
    @pytest.mark.parametrize("g", [1e-154, 1e-200, 1e-300])
    @pytest.mark.parametrize("n", [4, 25, 100, 2001])
    def test_tiny_coupling_rows_finite(self, g, n):
        params = derive_params(g, 1.0)
        ks, vals = v_tilde_row(params, n, n + 2000)
        assert np.all(np.isfinite(vals))
        assert float(np.sum(vals**2)) == params.delta**2 / 4.0
        if n <= 100:  # the scalar route takes seconds per entry at n = 2001
            for i in np.flatnonzero(vals):
                assert vals[i] == pytest.approx(v_tilde(int(ks[i]), n, params), rel=1e-10)

    # Below about |n - k| x 2.8e-309 the chain entries t_j ~ (n - k)/(2g) of
    # the column overflow; left unchecked, they made 30 entries of row 25 nan.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g", [5e-324, 5.6e-309, math.nextafter(17.0 / sys.float_info.max, 0.0)])
    def test_overflowing_column_raises(self, g):
        with pytest.raises(ValueError, match=re.escape(f"column 25 at g={g!r}")):
            v_tilde_row(derive_params(g, 1.0), 25, 2000)

    @pytest.mark.filterwarnings("error")
    def test_rows_finite_at_verify_gate(self):
        # The smallest g that verify admits keeps its rows n <= 25 finite.
        params = derive_params(17.0 / sys.float_info.max, 1.0)
        for n in range(26):
            _, vals = v_tilde_row(params, n, 2000)
            assert np.all(np.isfinite(vals)), n
            assert float(np.sum(vals**2)) == pytest.approx(0.25, rel=1e-12)

    def test_work_budget(self):
        # Near g = 1/2 the squeezed column spreads past the chain budget.
        with pytest.raises(ValueError, match="budget"):
            v_tilde_row(derive_params(0.4999, 1.0), 10, 20)


class TestDiagAsym:
    def test_zero_delta(self):
        assert v_tilde_diag_asym(10, derive_params(0.3, 0.0)) == 0.0

    def test_envelope_bound(self):
        for n in (1, 7, 50, 333):
            bound = (PARAMS.delta / 2.0) * math.sqrt(
                PARAMS.omega / (math.pi * PARAMS.g * n)
            )
            assert abs(v_tilde_diag_asym(n, PARAMS)) <= bound

    def test_residual_rate(self):
        # |V~_nn - asym| n^{3/2} bounded (frozen constant, calibrated 0.23).
        for n in (50, 120, 301, 800):
            resid = abs(v_tilde(n, n, PARAMS) - v_tilde_diag_asym(n, PARAMS))
            assert resid * n**1.5 < 0.5

    def test_index_guard(self):
        with pytest.raises(ValueError):
            v_tilde_diag_asym(0, PARAMS)


class TestCorrectionSums:
    def test_zero_delta(self):
        p0 = derive_params(0.2, 0.0)
        assert second_order(20, p0, 200) == 0.0
        assert k_norm_sq(20, p0, 200) == 0.0

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            second_order(100, PARAMS, 200)
        with pytest.raises(ValueError):
            k_norm_sq(100, PARAMS, 150)

    def test_cutoff_stability(self):
        n = 200
        a = second_order(n, PARAMS, 8 * n)
        b = second_order(n, PARAMS, 16 * n)
        assert abs(a - b) < 1e-10
        assert second_order_tail(n, PARAMS, 8 * n) < 1e-8

    def test_k_norm_monotone_in_cutoff(self):
        n = 50
        values = [k_norm_sq(n, PARAMS, cut) for cut in (150, 300, 600, 1200)]
        assert all(a <= b + 1e-18 for a, b in zip(values, values[1:]))

    def test_rates(self):
        # Frozen constants: calibrated maxima 0.234 and 0.016 on [100, 1000].
        for n in (100, 320, 640):
            cut = 8 * n
            assert k_norm_sq(n, PARAMS, cut) * n < 0.5
            assert abs(second_order(n, PARAMS, cut)) * n / math.log(n) < 0.05

    def test_tail_mass_nonnegative(self):
        assert row_tail_mass(30, PARAMS, 1000) >= 0.0
        assert k_norm_sq_tail(30, PARAMS, 1000) >= 0.0


class TestDeltaN:
    def test_zero_norms(self):
        model = SpectrumModel(mu=np.arange(50, dtype=float), row_norms=np.zeros(50))
        assert delta_n(model, 10, 49) == 0.0

    def test_constant_norms_against_bruteforce(self):
        model = SpectrumModel(
            mu=np.arange(400, dtype=float), row_norms=np.full(400, 0.37)
        )
        for n in (1, 17, 200):
            assert delta_n(model, n, 399) == pytest.approx(
                brute_delta_n(model, n, 399), abs=1e-12
            )

    def test_quadratic_spectrum_rate(self):
        # mu_n = n^2 with ||Re_m|| = m^0.3 gives delta_n = O(n^{0.3 - 1}).
        size = 3001
        model = SpectrumModel(
            mu=np.arange(size, dtype=float) ** 2,
            row_norms=np.arange(size, dtype=float) ** 0.3,
        )
        for n in (10, 60, 240, 500):
            value = delta_n(model, n, size - 1)
            assert value == pytest.approx(brute_delta_n(model, n, size - 1), abs=1e-12)
            assert value * n**0.7 < 3.0

    def test_vanishing_norms_drive_delta_to_zero(self):
        # Unit gaps with ||Re_m|| -> 0: the bound must decay.
        size = 2000
        norms = np.concatenate(([0.0], 1.0 / np.sqrt(np.arange(1, size, dtype=float))))
        model = SpectrumModel(mu=np.arange(size, dtype=float), row_norms=norms)
        values = [delta_n(model, n, size - 1) for n in (10, 100, 1000)]
        assert values[2] < values[1] < values[0]
        assert values[2] < 0.25 * values[0]

    def test_degenerate_gap(self):
        # The model constructor already rejects non-increasing tables.
        with pytest.raises(ValueError):
            SpectrumModel(mu=np.array([0.0, 1.0, 1.0, 2.0]), row_norms=np.zeros(4))
        # delta_n still guards the vanishing gap radius itself (defense in
        # depth for tables built outside the validated constructor).
        model = object.__new__(SpectrumModel)
        object.__setattr__(model, "mu", np.array([0.0, 1.0, 1.0, 2.0]))
        object.__setattr__(model, "row_norms", np.ones(4))
        with pytest.raises(DegenerateGapError):
            delta_n(model, 1, 3)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            SpectrumModel(mu=np.arange(5, dtype=float), row_norms=np.ones(4))

    @pytest.mark.parametrize(
        "mu_entry, norm_entry", [(math.nan, 1.0), (math.inf, 1.0), (5.0, math.nan), (5.0, math.inf)]
    )
    def test_non_finite_entries_rejected(self, mu_entry, norm_entry):
        # Unchecked, a NaN in mu passed the increasing test and delta_n returned nan.
        mu = np.arange(10, dtype=float)
        norms = np.ones(10)
        mu[9], norms[5] = mu_entry, norm_entry
        with pytest.raises(ValueError, match="finite"):
            SpectrumModel(mu=mu, row_norms=norms)

    def test_cutoff_below_n_rejected(self):
        # Unchecked, a cutoff below n dropped terms m <= n of the first sum:
        # delta_n(model, 5, 3) gave 0.858 and delta_n(model, 5, -1) gave 0.0.
        model = SpectrumModel(mu=np.arange(30, dtype=float), row_norms=np.ones(30))
        for cut in (4, 3, -1):
            with pytest.raises(ValueError, match="m_cutoff"):
                delta_n(model, 5, cut)
        assert delta_n(model, 5, 5) == pytest.approx(brute_delta_n(model, 5, 5), abs=1e-12)

    def test_interior_guard(self):
        model = SpectrumModel(mu=np.arange(30, dtype=float), row_norms=np.ones(30))
        with pytest.raises(ValueError):
            delta_n(model, 0, 29)
        with pytest.raises(ValueError):
            delta_n(model, 29, 29)
        with pytest.raises(ValueError):
            delta_n(model, 5, 30)


class TestThreeTerm:
    def test_zero_delta_equals_exact_spectrum(self):
        p0 = derive_params(0.2, 0.0)
        spectrum = converged_levels(
            p0, ChainSelector(Branch.PLUS, Parity.EVEN), 20, 1e-10
        )
        for k in range(1, 20):
            n = 2 * k
            b = three_term(n, p0, Branch.PLUS)
            assert b.oscillatory == 0.0
            assert b.three_term == pytest.approx(float(spectrum.values[k]), abs=1e-8)

    def test_branch_antisymmetry(self):
        for n in (5, 50, 128):
            plus = three_term(n, PARAMS, Branch.PLUS)
            minus = three_term(n, PARAMS, Branch.MINUS)
            assert plus.oscillatory == -minus.oscillatory
            assert plus.linear == minus.linear
            assert plus.shift == minus.shift

    def test_oscillatory_shares_diag_asym(self):
        for n in (3, 77):
            b = three_term(n, PARAMS, Branch.PLUS)
            assert b.oscillatory == v_tilde_diag_asym(n, PARAMS)
            assert b.three_term == b.linear + b.shift + b.oscillatory

    def test_index_guard(self):
        with pytest.raises(ValueError, match="n >= 1"):
            three_term(0, PARAMS, Branch.PLUS)

    def test_overflowing_amplitude_raises(self):
        # omega/(pi g n) overflows at n 50 for g 3e-311, not for 4e-311.
        for f in (lambda p: three_term(50, p, Branch.PLUS).three_term, lambda p: v_tilde_diag_asym(50, p)):
            with pytest.raises(ValueError, match="g=3e-311"):
                f(derive_params(3e-311, 1.0))
            assert math.isfinite(f(derive_params(4e-311, 1.0)))

    def test_breakdown_fields(self):
        b = three_term(40, PARAMS, Branch.MINUS)
        assert b.numeric is None and b.residual is None
        assert b.res_times_n is None and b.res_n_over_log_n is None


class TestResidualStudy:
    def test_zero_delta_residuals_vanish(self):
        p0 = derive_params(0.2, 0.0)
        tol = 1e-9
        study = residual_study(p0, Branch.PLUS, 10, 40, tol)
        assert [b.n for b in study] == list(range(10, 41))
        for b in study:
            assert abs(b.residual) < 10 * tol
            assert b.three_term == b.linear + b.shift + b.oscillatory

    @pytest.mark.parametrize("g", [1e-160, 0.01, 0.2, 0.45, 0.49])
    @pytest.mark.parametrize("delta", [0.0, 1.0, -3.0, 6.0])
    def test_rows_equal_scalar_formula_and_certified_values(self, g, delta):
        # Every field exactly, sign of zero included: the formula's terms as
        # three_term(n) and as the scalar route sums them, left to right, and
        # numeric as the certified level of its chain, from the window of the
        # range's levels of that parity.
        params = derive_params(g, delta)
        tol = 1e-8
        for branch in Branch:
            for n_min, n_max in ((10, 41), (11, 40), (23, 23)):
                study = residual_study(params, branch, n_min, n_max, tol)
                assert [b.n for b in study] == list(range(n_min, n_max + 1))
                windows = {}
                for parity in Parity:
                    ns = [n for n in range(n_min, n_max + 1) if n % 2 == parity.offset]
                    if ns:
                        first = ns[0] // 2
                        windows[parity.offset] = converged_levels(
                            params, ChainSelector(branch, parity), len(ns), tol, first=first
                        )
                        assert windows[parity.offset].first == first
                for b in study:
                    ref = three_term(b.n, params, branch)
                    window = windows[b.n % 2]
                    numeric = float(window.values[b.n // 2 - window.first])
                    oscillatory = branch.sign * v_tilde_diag_asym(b.n, params)
                    linear = b.n * params.omega
                    total = linear + (params.omega - 1.0) / 2.0 + oscillatory
                    expected = [
                        (b.linear, ref.linear, linear),
                        (b.shift, ref.shift, (params.omega - 1.0) / 2.0),
                        (b.oscillatory, ref.oscillatory, oscillatory),
                        (b.three_term, ref.three_term, total),
                        (b.numeric, numeric),
                        (b.residual, numeric - total),
                    ]
                    for got, *refs in expected:
                        assert type(got) is float, (b.n, got)
                        for want in refs:
                            assert got == want, (b.n, got, want)
                            assert math.copysign(1.0, got) == math.copysign(1.0, want), b.n

    def test_normalized_sequences(self):
        study = residual_study(PARAMS, Branch.PLUS, 30, 60, 1e-8)
        for b in study:
            assert b.res_times_n == pytest.approx(b.residual * b.n)
            assert b.res_n_over_log_n == pytest.approx(b.residual * b.n / math.log(b.n))

    def test_convergence_failure_propagates(self, monkeypatch):
        import rabi_spectra.perturb as perturb

        def explode(*args, **kwargs):
            raise ConvergenceError("synthetic cap")

        monkeypatch.setattr(perturb, "converged_levels", explode)
        with pytest.raises(ConvergenceError, match="synthetic cap"):
            residual_study(PARAMS, Branch.PLUS, 10, 40, 1e-8)

    def test_range_guards(self):
        with pytest.raises(ValueError):
            residual_study(PARAMS, Branch.PLUS, 5, 40, 1e-8)
        with pytest.raises(ValueError):
            residual_study(PARAMS, Branch.PLUS, 20, 10, 1e-8)
