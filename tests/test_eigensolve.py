"""Sturm bisection, the dense LAPACK oracle, and the truncation certificate."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from rabi_spectra import (
    Branch,
    ChainSelector,
    ConvergenceError,
    Parity,
    SymTriMatrix,
    build_chain,
    converged_levels,
    derive_params,
    eigenvalues_bisection,
    eigenvalues_dense,
    sturm_count,
)

RNG = np.random.default_rng(20240817)


def random_chain(n: int) -> SymTriMatrix:
    return SymTriMatrix(diag=RNG.normal(0, 3, n), off=RNG.normal(0, 2, n - 1))


class TestSturmCount:
    def test_diagonal_matrix(self):
        t = SymTriMatrix(diag=[1.0, 2.0, 3.0], off=[0.0, 0.0])
        assert sturm_count(t, 2.5) == 2
        assert sturm_count(t, 0.5) == 0
        assert sturm_count(t, 3.5) == 3

    def test_two_by_two_at_eigenvalue_shift(self):
        # Eigenvalues are -1 and +1; strictly below 0 there is exactly one.
        t = SymTriMatrix(diag=[0.0, 0.0], off=[1.0])
        assert sturm_count(t, 0.0) == 1

    def test_counts_match_jacobi_oracle(self):
        t = random_chain(50)
        oracle = eigenvalues_dense(t.to_dense()).values
        for x in RNG.normal(0, 4, 25):
            assert sturm_count(t, float(x)) == int(np.sum(oracle < x))

    def test_monotone_in_shift(self):
        for _ in range(5):
            t = random_chain(30)
            xs = np.sort(RNG.normal(0, 5, 40))
            counts = [sturm_count(t, float(x)) for x in xs]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_exact_hit_on_reduced_matrix(self):
        # Shifts at diagonal entries of a split matrix make the unguarded
        # sweep meet 0/0; those shifts are recounted with the pivot guard.
        t = SymTriMatrix(diag=[1.0, 2.0, 3.0, 4.0], off=[0.0, 0.5, 0.0])
        oracle = eigenvalues_dense(t.to_dense()).values
        for x in [0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 10.0]:
            # Strictly below: the eigenvalues 1 and 4 hit exactly are not counted.
            assert sturm_count(t, x) == int(np.sum(oracle < x - 1e-12))
        assert sturm_count(SymTriMatrix(diag=[1.0, 2.0, 3.0], off=[0.0, 0.0]), 2.0) == 1

    def test_gershgorin_extremes(self):
        t = random_chain(40)
        radius = np.zeros(40)
        radius[:-1] += np.abs(t.off)
        radius[1:] += np.abs(t.off)
        assert sturm_count(t, float(np.min(t.diag - radius)) - 1e-9) == 0
        assert sturm_count(t, float(np.max(t.diag + radius)) + 1e-9) == 40


class TestBisection:
    def test_two_by_two_closed_form(self):
        g = 0.25
        t = SymTriMatrix(diag=[0.0, 2.0], off=[g * math.sqrt(2.0)])
        vals = eigenvalues_bisection(t, 1e-12).values
        root = math.sqrt(1.125)
        np.testing.assert_allclose(vals, [1.0 - root, 1.0 + root], atol=1e-11)

    def test_zero_delta_chain_matches_oscillator(self):
        # Exactly solvable case: eigenvalues omega (n + 1/2) - 1/2 restricted
        # to even Fock indices.
        p = derive_params(0.2, 0.0)
        t = build_chain(p, ChainSelector(Branch.PLUS, Parity.EVEN), 200)
        vals = eigenvalues_bisection(t, 1e-9).values[:50]
        expected = p.omega * (2 * np.arange(50) + 0.5) - 0.5
        np.testing.assert_allclose(vals, expected, atol=1e-6)

    def test_matches_jacobi_on_chain(self):
        p = derive_params(0.35, 1.3)
        t = build_chain(p, ChainSelector(Branch.MINUS, Parity.ODD), 64)
        tol = 1e-11
        bis = eigenvalues_bisection(t, tol).values
        dense = eigenvalues_dense(t.to_dense()).values
        np.testing.assert_allclose(bis, dense, atol=10 * tol)

    def test_oracle_equivalence_random(self):
        tol = 1e-10
        for _ in range(25):
            n = int(RNG.integers(2, 65))
            t = random_chain(n)
            bis = eigenvalues_bisection(t, tol).values
            dense = eigenvalues_dense(t.to_dense()).values
            np.testing.assert_allclose(bis, dense, atol=10 * tol)

    def test_tol_guard(self):
        with pytest.raises(ValueError):
            eigenvalues_bisection(random_chain(4), 0.0)


class TestJacobi:
    """The dense oracle ``eigenvalues_dense`` (LAPACK), under the ids of the
    cyclic Jacobi oracle it replaced."""

    def test_identity(self):
        s = eigenvalues_dense(np.eye(3))
        np.testing.assert_allclose(s.values, [1.0, 1.0, 1.0])

    def test_diagonal_sorting(self):
        s = eigenvalues_dense(np.diag([5.0, 1.0, 3.0]))
        np.testing.assert_allclose(s.values, [1.0, 3.0, 5.0])

    def test_two_by_two_exchange(self):
        s = eigenvalues_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(s.values, [-1.0, 1.0], atol=1e-14)

    def test_symmetry_violation(self):
        a = np.eye(3)
        a[0, 1] = 1e-6
        with pytest.raises(ValueError):
            eigenvalues_dense(a)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            eigenvalues_dense(np.eye(513))

    def test_non_square_guard(self):
        with pytest.raises(ValueError):
            eigenvalues_dense(np.ones(4))
        with pytest.raises(ValueError):
            eigenvalues_dense(np.ones((3, 4)))

    def test_trace_preservation(self):
        for _ in range(5):
            t = random_chain(24).to_dense()
            s = eigenvalues_dense(t)
            assert abs(np.sum(s.values) - np.trace(t)) <= 1e-9 * max(1.0, abs(np.trace(t)))


class TestConvergedLevels:
    def test_zero_delta_closed_form(self):
        p = derive_params(0.2, 0.0)
        s = converged_levels(p, ChainSelector(Branch.PLUS, Parity.EVEN), 10, 1e-9)
        expected = p.omega * (2 * np.arange(10) + 0.5) - 0.5
        np.testing.assert_allclose(s.values, expected, atol=1e-8)
        assert s.trusted_count == 10

    def test_stable_under_further_doubling(self):
        p = derive_params(0.2, 1.0)
        chain = ChainSelector(Branch.PLUS, Parity.EVEN)
        tol = 1e-8
        s = converged_levels(p, chain, 100, tol)
        from rabi_spectra.eigensolve import _bisect_lowest

        again = _bisect_lowest(build_chain(p, chain, 2 * s.truncation_dim), 100, tol / 16)
        assert float(np.max(np.abs(np.sort(again) - s.values))) < tol

    def test_strong_coupling_terminates_with_larger_truncation(self):
        weak = converged_levels(
            derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 10, 1e-8
        )
        strong = converged_levels(
            derive_params(0.49, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 10, 1e-8
        )
        assert strong.truncation_dim >= weak.truncation_dim

    def test_interlacing_under_dimension_growth(self):
        # Bottom-compressed truncations: the k-th eigenvalue does not increase
        # with the dimension (Cauchy interlacing for bordered matrices).
        p = derive_params(0.3, 1.0)
        chain = ChainSelector(Branch.PLUS, Parity.ODD)
        tol = 1e-10
        prev = None
        for n_dim in (32, 64, 128):
            vals = eigenvalues_bisection(build_chain(p, chain, n_dim), tol).values[:16]
            if prev is not None:
                assert np.all(vals <= prev + 10 * tol)
            prev = vals

    def test_convergence_error_on_cap(self):
        p = derive_params(0.2, 1.0)
        with pytest.raises(ConvergenceError):
            converged_levels(p, ChainSelector(Branch.PLUS, Parity.EVEN), 40, 1e-8, max_dim=128)

    def test_level_count_guard(self):
        with pytest.raises(ValueError):
            converged_levels(
                derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 0, 1e-8
            )

    def test_budget_checked_before_any_chain(self, monkeypatch):
        import rabi_spectra.eigensolve as eigensolve

        def refuse(*args, **kwargs):
            raise AssertionError("a chain was built before the budget check")

        monkeypatch.setattr(eigensolve, "build_chain", refuse)
        start = time.monotonic()
        with pytest.raises(ConvergenceError, match="cap"):
            converged_levels(
                derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 10**6, 1e-8
            )
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("tol", [1e-300, 1e-15, 0.0, -1e-8, math.nan, math.inf])
    def test_tol_floor_and_finiteness(self, tol):
        # 50 levels at g = 0.2 put the floor at 8 eps (mu_49 + 1/2), about 1.6e-13.
        with pytest.raises(ValueError):
            converged_levels(
                derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 50, tol
            )

    def test_tol_at_floor_certifies(self):
        p = derive_params(0.2, 1.0)
        mu_top = p.omega * (2 * 49 + 0.5) - 0.5
        floor = 8 * np.finfo(float).eps * (mu_top + 0.5)
        s = converged_levels(p, ChainSelector(Branch.PLUS, Parity.EVEN), 50, floor)
        assert s.trusted_count == 50
        assert float(np.max(s.bounds)) < floor


class TestCertificate:
    @pytest.mark.parametrize("g", [0.1, 0.45])
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_bounds_enclose_exact_zero_delta_spectrum(self, g, parity):
        p = derive_params(g, 0.0)
        s = converged_levels(p, ChainSelector(Branch.PLUS, parity), 50, 1e-10)
        assert s.path == "a_posteriori"
        with mp.workdps(40):
            omega = mp.sqrt(1 - 4 * mp.mpf(g) ** 2)
            half = mp.mpf(1) / 2
            exact = [omega * (2 * k + parity.offset + half) - half for k in range(50)]
            errors = np.array([float(abs(mp.mpf(v) - e)) for v, e in zip(s.values, exact)])
        assert np.all(errors <= s.bounds)
        assert np.all(s.bounds < 1e-10)

    @pytest.mark.parametrize("g", [0.2, 0.45])
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_bounds_enclose_lapack_at_double_truncation(self, g, parity):
        p = derive_params(g, 1.0)
        chain = ChainSelector(Branch.PLUS, parity)
        s = converged_levels(p, chain, 40, 1e-10)
        t = build_chain(p, chain, 2 * s.truncation_dim)
        reference = np.linalg.eigvalsh(t.to_dense())[:40]
        # LAPACK's own error is of order eps times the matrix norm.
        lapack_error = np.finfo(float).eps * float(np.max(np.abs(t.to_dense()).sum(axis=1)))
        assert np.all(np.abs(s.values - reference) <= s.bounds + lapack_error)

    @pytest.mark.parametrize("g,delta", [(0.45, 1.0), (0.2, 3.0), (0.3, 0.0)])
    @pytest.mark.parametrize("width", [1e-9, 0.5, 1.0])
    def test_tail_bound_covers_last_eigenvector_entry(self, g, delta, width):
        from rabi_spectra.eigensolve import _tail_bounds

        t = build_chain(derive_params(g, delta), ChainSelector(Branch.PLUS, Parity.EVEN), 40)
        theta, vectors = np.linalg.eigh(t.to_dense())
        gaps = np.diff(theta)
        # Brackets up to 0.45 of the gap to either neighbour: wide ones hold
        # pivot poles of the trailing blocks, which must not shrink the bound.
        half = width * 0.45 * np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
        bound = _tail_bounds(t, theta - half, theta + half)
        assert np.all(np.abs(vectors[-1, :]) <= bound)

    def test_strong_coupling_takes_doubling_path(self):
        # At g = 0.49 the Weyl brackets of neighbouring levels overlap
        # (2 omega < |Delta|), so no level can be pinned to its index.
        s = converged_levels(
            derive_params(0.49, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 10, 1e-8
        )
        assert s.path == "doubling"
        assert s.truncation_dim > 64

    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_residual_chains_certify_at_first_truncation(self, parity):
        # The chains behind the three-term table of criterion 9 (n up to 800).
        levels = (800 - parity.offset) // 2 + 1
        s = converged_levels(
            derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, parity), levels, 1e-8
        )
        assert s.path == "a_posteriori"
        assert s.truncation_dim == 4 * levels
        assert float(np.max(s.bounds)) < 1e-8

    def test_bounds_read_only(self):
        s = converged_levels(
            derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 5, 1e-8
        )
        assert s.bounds.shape == s.values.shape
        with pytest.raises(ValueError):
            s.bounds[0] = 0.0

    def test_direct_solves_default_bounds(self):
        s = eigenvalues_bisection(random_chain(6), 1e-10)
        assert s.path == "direct"
        np.testing.assert_array_equal(s.bounds, np.full(6, 1e-10))
