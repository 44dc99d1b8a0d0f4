"""Parameter derivation and truncated-matrix construction."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from rabi_spectra import (
    Branch,
    ChainSelector,
    DomainError,
    ModelParams,
    Parity,
    SymTriMatrix,
    build_chain,
    build_full_branch,
    derive_params,
    eigenvalues_bisection,
    eigenvalues_dense,
    sturm_count,
)

EPS = np.finfo(float).eps


def zero_coupling_params(delta: float) -> ModelParams:
    """Carrier with g = 0 for decoupling tests (bypasses the domain gate)."""
    return ModelParams(g=0.0, delta=delta, omega=1.0, lam=0.0, a_phase=math.pi / 2.0)


class TestDeriveParams:
    def test_small_coupling_limit(self):
        p = derive_params(1e-9, 1.0)
        assert p.lam == pytest.approx(0.0, abs=1e-8)
        assert p.omega == pytest.approx(1.0, abs=1e-12)

    def test_lambda_against_high_precision_artanh(self):
        p = derive_params(0.3, 1.0)
        with mp.workdps(50):
            expected = mp.atanh(mp.mpf("0.6")) / 4
            assert abs(p.lam - float(expected)) < 1e-16
        # Round trip: tanh(4 lam) must reproduce 2g.
        assert abs(math.tanh(4.0 * p.lam) - 0.6) < 1e-14

    def test_omega_identity(self):
        p = derive_params(0.2, 0.5)
        assert abs(p.omega - math.sqrt(0.84)) < 4 * EPS
        assert abs(p.omega**2 + 4 * 0.2**2 - 1.0) <= 4 * EPS

    @pytest.mark.parametrize("g", [0.05, 0.1, 0.25, 0.4, 0.49, 0.499])
    def test_invariants_across_domain(self, g):
        p = derive_params(g, 1.0)
        assert abs(p.omega**2 + 4 * g * g - 1.0) <= 4 * EPS
        assert abs(math.tanh(4.0 * p.lam) - 2.0 * g) <= 8 * EPS
        # The derived constants at doubled argument collapse to g and omega.
        assert abs(math.tanh(4.0 * p.lam) / 2.0 - g) <= 8 * EPS
        assert abs(1.0 / math.cosh(4.0 * p.lam) - p.omega) <= 8 * EPS * max(1.0, 1.0 / p.omega)
        assert p.a_phase == pytest.approx(math.atan2(p.omega, 2 * g), abs=2 * EPS)

    @pytest.mark.parametrize("g", [0.0, 0.5, 0.6, -0.1, float("nan")])
    def test_domain_errors(self, g):
        with pytest.raises(DomainError):
            derive_params(g, 1.0)

    @pytest.mark.parametrize("delta", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_delta(self, delta):
        with pytest.raises(DomainError, match="delta"):
            derive_params(0.2, delta)


class TestBuildChain:
    def test_two_by_two_closed_form(self):
        g = 0.25
        p = derive_params(g, 0.0)
        t = build_chain(p, ChainSelector(Branch.PLUS, Parity.EVEN), 2)
        np.testing.assert_allclose(t.diag, [0.0, 2.0])
        np.testing.assert_allclose(t.off, [g * math.sqrt(2.0)])
        vals = eigenvalues_bisection(t, 1e-12).values
        root = math.sqrt(1.0 + 2.0 * g * g)
        np.testing.assert_allclose(vals, [1.0 - root, 1.0 + root], atol=1e-11)

    def test_zero_coupling_sign_pattern(self):
        delta = 0.7
        t = build_chain(zero_coupling_params(delta), ChainSelector(Branch.PLUS, Parity.EVEN), 3)
        # Fock 0, 2, 4 carry signs +, -, + from (-1)^floor(n/2).
        np.testing.assert_array_equal(t.diag, [delta / 2, 2 - delta / 2, 4 + delta / 2])
        np.testing.assert_array_equal(t.off, [0.0, 0.0])
        vals = eigenvalues_bisection(t, 1e-12).values
        np.testing.assert_allclose(
            vals, sorted([delta / 2, 2 - delta / 2, 4 + delta / 2]), atol=1e-11
        )

    def test_odd_chain_matches_dense_jacobi(self):
        p = derive_params(0.2, 1.0)
        t = build_chain(p, ChainSelector(Branch.PLUS, Parity.ODD), 4)
        bis = eigenvalues_bisection(t, 1e-13).values
        dense = eigenvalues_dense(t.to_dense()).values
        np.testing.assert_allclose(bis, dense, atol=1e-12)

    def test_fock_indexing(self):
        p = derive_params(0.3, 2.0)
        odd = build_chain(p, ChainSelector(Branch.MINUS, Parity.ODD), 5)
        fock = 2 * np.arange(5) + 1
        np.testing.assert_allclose(
            odd.diag, fock - 1.0 * (-1.0) ** (fock // 2)
        )
        np.testing.assert_allclose(
            odd.off, 0.3 * np.sqrt((fock[:-1] + 1.0) * (fock[:-1] + 2.0))
        )

    def test_dimension_guard(self):
        p = derive_params(0.2, 1.0)
        with pytest.raises(ValueError):
            build_chain(p, ChainSelector(Branch.PLUS, Parity.EVEN), 1)


class TestBuildFullBranch:
    def test_zero_coupling_diagonal(self):
        b = build_full_branch(zero_coupling_params(1.0), Branch.PLUS, 4)
        np.testing.assert_array_equal(b, np.diag([0.5, 1.5, 1.5, 2.5]))

    @pytest.mark.parametrize(
        "g,delta,branch", [(0.2, 1.0, Branch.PLUS), (0.35, 0.4, Branch.MINUS), (0.1, -2.0, Branch.PLUS)]
    )
    def test_parity_split_equivalence(self, g, delta, branch):
        p = derive_params(g, delta)
        full = build_full_branch(p, branch, 64)
        merged = np.sort(
            np.concatenate(
                [
                    eigenvalues_bisection(
                        build_chain(p, ChainSelector(branch, parity), 32), 1e-12
                    ).values
                    for parity in (Parity.EVEN, Parity.ODD)
                ]
            )
        )
        dense = eigenvalues_dense(full).values
        np.testing.assert_allclose(dense, merged, atol=1e-10)

    def test_branch_symmetry_at_zero_delta(self):
        p = derive_params(0.4, 0.0)
        plus = eigenvalues_dense(build_full_branch(p, Branch.PLUS, 6)).values
        minus = eigenvalues_dense(build_full_branch(p, Branch.MINUS, 6)).values
        np.testing.assert_allclose(plus, minus, atol=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            build_full_branch(derive_params(0.2, 1.0), Branch.PLUS, 3)


class TestInvariants:
    def test_branch_negation(self):
        p = derive_params(0.3, 1.7)
        for parity in (Parity.EVEN, Parity.ODD):
            plus = build_chain(p, ChainSelector(Branch.PLUS, parity), 20)
            minus = build_chain(p, ChainSelector(Branch.MINUS, parity), 20)
            h0_diag = 2 * np.arange(20) + parity.offset
            np.testing.assert_array_equal(plus.diag + minus.diag, 2.0 * h0_diag)

    def test_off_diagonals_independent_of_delta_and_branch(self):
        base = build_chain(derive_params(0.3, 0.0), ChainSelector(Branch.PLUS, Parity.EVEN), 16)
        for delta in (1.0, -3.5):
            for branch in Branch:
                t = build_chain(derive_params(0.3, delta), ChainSelector(branch, Parity.EVEN), 16)
                np.testing.assert_array_equal(t.off, base.off)

    def test_symtri_arrays_stay_as_checked(self):
        diag, off = np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5])
        t = SymTriMatrix(diag=diag, off=off)
        diag[1] = off[0] = math.nan  # the caller's arrays are copied
        assert sturm_count(t, 1.5) == 2
        for entries in (t.diag, t.off):
            with pytest.raises(ValueError, match="read-only"):
                entries[0] = math.nan
        assert sturm_count(t, 1.5) == 2

    def test_symtri_validation(self):
        with pytest.raises(ValueError):
            SymTriMatrix(diag=np.zeros(3), off=np.zeros(3))

    @pytest.mark.parametrize(
        "diag, off, message",
        [
            (np.zeros((2, 2)), np.zeros(1), "one-dimensional"),
            (np.zeros(1), np.zeros(0), "at least 2"),
        ],
        ids=["2-d-diagonal", "one-site"],
    )
    def test_symtri_rejects_bad_shapes(self, diag, off, message):
        with pytest.raises(ValueError, match=message):
            SymTriMatrix(diag=diag, off=off)

    @pytest.mark.parametrize(
        "diag, off",
        [
            # b^2 overflows: a sweep would count 1 below every eigenvalue
            # and 2 above all three.
            ([0.0, 0.0, 1.0], [1e155, 1.0]),
            # The Gershgorin width, or the sum of its ends, overflows.
            ([1.7e308, -1.7e308], [1.0]),
            ([1e308, 1e308], [1.0]),
            # Non-finite entries.
            ([math.nan, 0.0], [1.0]),
            ([0.0, 0.0], [math.inf]),
        ],
    )
    def test_symtri_rejects_entries_a_sweep_would_overflow(self, diag, off):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="must be finite"):
                SymTriMatrix(diag=diag, off=off)
