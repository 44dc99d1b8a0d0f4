"""Closed-form squeeze matrix elements vs the exponential oracle."""

import math

import numpy as np
import pytest

from rabi_spectra import (
    cli,
    derive_params,
    factorization_residual,
    h0_transform_residual,
    squeeze,
    u_element,
    u_matrix_oracle,
    uvu_residual,
)
from rabi_spectra.model import Branch, build_full_branch

LAM_SAMPLES = [0.05, 0.10591223254840046, 0.2, -0.15]


def squeeze_generator(n_dim):
    """Dense reference: the antisymmetric banded matrix of a^2 - a+^2 on the truncation."""
    a = np.zeros((n_dim, n_dim))
    ns = np.arange(n_dim - 2)
    coeff = np.sqrt((ns + 1.0) * (ns + 2.0))
    a[ns, ns + 2] = coeff
    a[ns + 2, ns] = -coeff
    return a


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

    def test_numpy_integer_indices(self):
        # They raised OverflowError from the integer sum.
        for kind in (np.int64, np.int32):
            assert u_element(kind(25), kind(3), 0.1) == u_element(25, 3, 0.1)
            assert u_element(kind(6), 4, 0.1) == u_element(6, 4, 0.1)

    def test_non_integer_indices_raise(self):
        # 6.5 was read as an odd distance and gave 0.0.
        for m, n in ((6.5, 4), (6, 4.0), (6.0, 4)):
            with pytest.raises(TypeError):
                u_element(m, n, 0.1)

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
        full = _dense_expm(lam * squeeze_generator(n_dim))
        assert float(np.max(np.abs(u_matrix_oracle(n_dim, lam) - full))) < 1e-14


def _dense_expm(m):
    """exp(m) by scaling to 1-norm 1/2 or less, a degree-24 dense Taylor sum and squarings."""
    norm = float(np.max(np.abs(m).sum(axis=0)))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    b = m / 2.0**squarings
    eye = np.eye(len(m))
    t = eye.copy()
    for k in range(24, 0, -1):
        t = eye + (b @ t) / k
    for _ in range(squarings):
        t = t @ t
    return t


EXPM_LAMS = [0.0, 1e-3] + [derive_params(g, 1.0).lam for g in (0.2, 0.45, 0.499)]


class TestBandedExpm:
    @pytest.mark.parametrize("n_dim", [2, 3, 7, 8, 255, 256, 511, 512])
    def test_matches_dense_reference(self, n_dim):
        # _expm reads a parity block of the generator from its superdiagonal.
        for lam in EXPM_LAMS:
            full = lam * squeeze_generator(n_dim)
            for m in (full[0::2, 0::2], full[1::2, 1::2]):
                got = squeeze._expm(m.diagonal(1))
                assert float(np.max(np.abs(got - _dense_expm(m)))) <= 1e-13, (n_dim, lam)

    @pytest.mark.parametrize("n_dim", [2, 3, 8, 255, 512])
    def test_zero_lambda_is_the_identity(self, n_dim):
        for size in (n_dim, (n_dim + 1) // 2):
            np.testing.assert_array_equal(squeeze._expm(np.zeros(size - 1)), np.eye(size))
        squeeze._oracle_cached.cache_clear()
        np.testing.assert_array_equal(u_matrix_oracle(n_dim, 0.0), np.eye(n_dim))


def _full_forms(n_dim, g):
    """uvu, H0 and orthogonality residuals from whole n_dim x n_dim products."""
    params = derive_params(g, 1.0)
    q = n_dim // 4
    u = u_matrix_oracle(n_dim, params.lam)
    v = squeeze.parity_sign_diagonal(n_dim, 1.0)
    uvu = np.max(np.abs((u @ (v[:, None] * u))[:q, :q] - np.diag(v[:q])))
    h0_params = derive_params(g, 0.0)
    h0_rows = build_full_branch(h0_params, Branch.PLUS, n_dim)[:q]
    d = h0_params.omega * (np.arange(q) + 0.5) - 0.5
    h0 = np.max(np.abs(h0_rows @ u[:, :q] - u[:q, :q] * d))
    orth = np.max(np.abs(u.T @ u - np.eye(n_dim)))
    return float(uvu), float(h0), float(orth)


class TestBlockProducts:
    @pytest.mark.parametrize("n_dim", [8, 64, 256, 511, 512])
    @pytest.mark.parametrize("g", [0.2, 0.45])
    def test_agree_with_full_products(self, n_dim, g):
        uvu, h0, orth = _full_forms(n_dim, g)
        lam = derive_params(g, 1.0).lam
        assert abs(uvu_residual(n_dim, lam, 1.0) - uvu) <= 1e-15
        assert abs(h0_transform_residual(n_dim, g) - h0) <= 1e-15
        checks = {c.name: c.value for c in cli._suite_squeeze(g, 1.0, n_dim)}
        assert abs(checks["oracle_orthogonality"] - orth) <= 1e-15

    @pytest.mark.parametrize("n_dim", [4, 5, 7])
    def test_smallest_h0_block(self, n_dim):
        # q = 1 reads a 4-row branch matrix, the smallest one it builds.
        g = 0.2
        assert abs(h0_transform_residual(n_dim, g) - _full_forms(n_dim, g)[1]) <= 1e-15


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

    @pytest.mark.parametrize(
        "n_dim, lam",
        [(64, 0.0), (256, derive_params(0.2, 1.0).lam), (256, -derive_params(0.45, 1.0).lam),
         (512, derive_params(1e-300, 1.0).lam), (256, -derive_params(1e-300, 1.0).lam)],
    )
    def test_block_equals_u_element(self, monkeypatch, n_dim, lam):
        # Against an oracle whose block is the u_element table, the residual
        # is 0 only if every entry agrees bit for bit.  The block reads the
        # exact integers of the three-term relation, and p_fast_parts floors
        # its Horner sums at 192 + n/2 bits or more: both round to the same
        # double here, at g = 1e-300 too.
        q = n_dim // 4
        table = np.array([[u_element(m, n, lam) for n in range(q)] for m in range(q)])
        monkeypatch.setattr(squeeze, "u_matrix_oracle", lambda *args: table)
        assert factorization_residual(n_dim, lam) == 0.0

    def test_block_past_column_64_reads_exact_values(self, monkeypatch):
        # Columns 64..127 come from the exact relation, where p_fast_parts
        # floors its sum: the two may differ by rounding only (they read 0.0
        # at g 0.2, 0.45 and 0.49).
        lam = derive_params(0.2, 1.0).lam
        table = np.array([[u_element(m, n, lam) for n in range(128)] for m in range(128)])
        monkeypatch.setattr(squeeze, "u_matrix_oracle", lambda *args: table)
        assert factorization_residual(512, lam) < 1e-15

    def test_block_makes_no_p_fast_parts_call(self, monkeypatch):
        # g = 1e-300: x = c/t near 5e299 is longer than 64 bits.
        monkeypatch.setattr(squeeze.polys, "p_fast_parts", lambda *args: pytest.fail("called"))
        for g in (0.45, 1e-300):
            assert factorization_residual(256, derive_params(g, 1.0).lam) < 1e-9

    @pytest.mark.parametrize("n_dim, g", [(64, 1e-300), (512, 1e-300), (512, 0.45)])
    def test_tiny_and_largest_block(self, n_dim, g):
        # Tiny g: x = c/t near 5e299, where the log-space assembly,
        # _assemble, rounds about eps (n+s) |ln(t/2)|.  Dim 512: the 128x128 block.
        assert factorization_residual(n_dim, derive_params(g, 1.0).lam) < 1e-9


class TestH0Transform:
    def test_weak_coupling_limit(self):
        assert h0_transform_residual(128, 1e-8) < 1e-7

    def test_moderate_coupling(self):
        assert h0_transform_residual(256, 0.2) < 1e-8

    def test_strong_coupling(self):
        assert h0_transform_residual(256, 0.4) < 1e-6

    # The old block min(n_dim/4, n_dim/(2 e^{4 lam})) read 6.1e-5, 6.1e-5 and
    # 1.7e-6 here, where the factorization block on the same truncation passes.
    @pytest.mark.parametrize("n_dim, g", [(64, 0.45), (63, 0.45), (128, 0.47)])
    def test_small_truncation_strong_coupling(self, n_dim, g):
        assert h0_transform_residual(n_dim, g) < 1e-6

    def test_detects_one_wrong_oracle_entry(self, monkeypatch):
        n_dim, g = 256, 0.2
        wrong = u_matrix_oracle(n_dim, derive_params(g, 0.0).lam).copy()
        wrong[10, 8] += 1e-6
        monkeypatch.setattr(squeeze, "u_matrix_oracle", lambda *args: wrong)
        assert h0_transform_residual(n_dim, g) > 1e-6


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
    with pytest.raises(ValueError, match=r"\[4, 512\]"):
        h0_transform_residual(n_dim, 0.1)
