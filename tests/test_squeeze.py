"""Closed-form squeeze matrix elements vs the exponential oracle."""

import math

import numpy as np
import pytest

from rabi_spectra import (
    derive_params,
    factorization_residual,
    h0_transform_residual,
    squeeze,
    squeeze_generator,
    u_element,
    u_matrix_oracle,
    uvu_residual,
)

LAM_SAMPLES = [0.05, 0.10591223254840046, 0.2, -0.15]


class TestUElement:
    @pytest.mark.parametrize("lam", LAM_SAMPLES)
    def test_vacuum_element(self, lam):
        assert u_element(0, 0, lam) == pytest.approx(
            1.0 / math.sqrt(math.cosh(2.0 * lam)), rel=1e-14
        )

    def test_parity_sparsity(self):
        for lam in LAM_SAMPLES:
            assert u_element(1, 0, lam) == 0.0
            assert u_element(4, 7, lam) == 0.0

    def test_identity_at_zero(self):
        for m in range(6):
            for n in range(6):
                assert u_element(m, n, 0.0) == (1.0 if m == n else 0.0)

    def test_first_raising_element_vs_oracle(self):
        lam = 0.12
        oracle = u_matrix_oracle(64, lam)
        assert abs(u_element(2, 0, lam) - oracle[2, 0]) < 1e-12

    def test_antisymmetry_relation(self):
        lam = 0.17
        for m, n in ((6, 2), (9, 3), (14, 8), (7, 7)):
            a = u_element(m, n, lam)
            b = (-1.0) ** ((n - m) // 2) * u_element(n, m, lam)
            assert a == pytest.approx(b, rel=1e-13, abs=1e-300)

    def test_index_guards(self):
        with pytest.raises(ValueError):
            u_element(-1, 0, 0.1)
        with pytest.raises(ValueError):
            u_element(100_001, 1, 0.1)

    def test_non_finite_lam(self):
        # Unchecked, the vacuum element at lam = inf was NaN.
        with pytest.raises(ValueError, match="lam"):
            u_element(0, 0, math.inf)
        with pytest.raises(ValueError, match="lam"):
            u_element(0, 0, math.nan)

    def test_lam_past_cosh_range(self):
        # Unchecked, math.cosh(800.0) leaked an OverflowError.
        with pytest.raises(ValueError, match="lam"):
            u_element(2, 0, 400.0)


class TestOracle:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(u_matrix_oracle(32, 0.0), np.eye(32), atol=1e-15)

    def test_generator_antisymmetry(self):
        a = squeeze_generator(48)
        np.testing.assert_array_equal(a + a.T, np.zeros((48, 48)))

    def test_block_matches_u_element_table(self):
        lam = derive_params(0.3, 1.0).lam
        table = np.array([[u_element(m, n, lam) for n in range(64)] for m in range(64)])
        for n_dim in (256, 255):
            oracle = u_matrix_oracle(n_dim, lam)
            assert float(np.max(np.abs(table - oracle[:64, :64]))) < 1e-10

    def test_orthogonality_on_certified_block(self):
        lam = derive_params(0.25, 1.0).lam
        u = u_matrix_oracle(256, lam)
        gram = u.T @ u
        assert float(np.max(np.abs((gram - np.eye(256))[:64, :64]))) < 1e-9

    def test_group_property(self):
        lam1, lam2 = 0.07, 0.11
        u1 = u_matrix_oracle(256, lam1)
        u2 = u_matrix_oracle(256, lam2)
        u12 = u_matrix_oracle(256, lam1 + lam2)
        assert float(np.max(np.abs((u1 @ u2 - u12)[:64, :64]))) < 1e-9

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            u_matrix_oracle(513, 0.1)

    def test_non_finite_lam(self):
        # Unchecked, lam = NaN gave a NaN matrix.
        with pytest.raises(ValueError, match="lam"):
            u_matrix_oracle(8, math.nan)

    def test_result_is_read_only(self):
        u = u_matrix_oracle(16, 0.1)
        with pytest.raises(ValueError):
            u[0, 0] = 2.0

    def test_cross_parity_entries_are_zero(self):
        u = u_matrix_oracle(33, 0.3)
        assert not np.any(u[0::2, 1::2]) and not np.any(u[1::2, 0::2])

    def test_cache_key_carries_lam(self):
        lam1, lam2 = 0.07, 0.11
        cold = {}
        for lam in (lam1, lam2):
            squeeze._oracle_cached.cache_clear()
            cold[lam] = u_matrix_oracle(64, lam).copy()
        for lam in (lam1, lam2, lam1):
            np.testing.assert_array_equal(u_matrix_oracle(64, lam), cold[lam])

    @pytest.mark.parametrize(
        "n_dim, lam",
        [(n, 0.3) for n in (2, 3, 7, 255)]
        + [(n, derive_params(g, 1.0).lam) for n in (64, 256, 512) for g in (0.2, 0.45)],
    )
    def test_matches_unsplit_exponential(self, n_dim, lam):
        full = squeeze._expm(lam * squeeze_generator(n_dim))
        assert float(np.max(np.abs(u_matrix_oracle(n_dim, lam) - full))) < 1e-14


class TestFactorization:
    def test_identity_at_zero(self):
        assert factorization_residual(64, 0.0) == 0.0

    @pytest.mark.parametrize("lam", [400.0, math.nan])
    def test_lam_out_of_range(self, lam):
        # Unchecked, lam = 400 raised OverflowError from math.cosh.
        with pytest.raises(ValueError, match="lam"):
            factorization_residual(64, lam)

    def test_moderate_coupling(self):
        lam = derive_params(0.2, 1.0).lam
        assert factorization_residual(256, lam) < 1e-9

    def test_strong_coupling(self):
        lam = derive_params(0.45, 1.0).lam
        assert factorization_residual(256, lam) < 1e-7

    @pytest.mark.parametrize("n_dim, g", [(64, 1e-300), (512, 0.45)])
    def test_tiny_and_largest_block(self, n_dim, g):
        # Tiny g: x = c/t near 5e299, where the log-space assembly of
        # _element rounds about eps (n+s) |ln(t/2)|.  Dim 512: the 128x128 block.
        assert factorization_residual(n_dim, derive_params(g, 1.0).lam) < 1e-9


class TestH0Transform:
    def test_weak_coupling_limit(self):
        assert h0_transform_residual(128, 1e-8) < 1e-7

    def test_moderate_coupling(self):
        assert h0_transform_residual(256, 0.2) < 1e-8

    def test_strong_coupling(self):
        assert h0_transform_residual(256, 0.4) < 1e-6


class TestUVU:
    def test_zero_delta(self):
        assert uvu_residual(64, 0.13, 0.0) == 0.0

    def test_zero_lambda(self):
        assert uvu_residual(64, 0.0, 1.0) < 1e-15

    def test_moderate_coupling(self):
        lam = derive_params(0.3, 1.0).lam
        assert uvu_residual(256, lam, 1.0) < 1e-9


@pytest.mark.parametrize("n_dim", [2, 3])
def test_empty_certified_block_rejected(n_dim):
    # Unchecked, the empty block raised numpy's zero-size reduction error.
    with pytest.raises(ValueError, match=r"\[4, 512\]"):
        factorization_residual(n_dim, 0.1)
    with pytest.raises(ValueError, match=r"\[4, 512\]"):
        uvu_residual(n_dim, 0.1, 1.0)
