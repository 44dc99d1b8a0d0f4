"""Acceptance criteria, one test per criterion at its stated tolerance.

Empirical bound constants in the O(.) criteria were fixed by the first
certified run and are frozen here as regression thresholds.  Each test prints
one PASS/FAIL line.
"""

import math
import time
from fractions import Fraction

import numpy as np

import rabi_spectra as rs
from rabi_spectra.model import ChainSelector


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_exact_solvability_anchor():
    start = time.monotonic()
    worst = 0.0
    for g in (0.1, 0.2, 0.4):
        p = rs.derive_params(g, 0.0)
        merged = {}
        for parity in (rs.Parity.EVEN, rs.Parity.ODD):
            s = rs.converged_levels(p, ChainSelector(rs.Branch.PLUS, parity), 50, 1e-10)
            for k in range(50):
                merged[2 * k + parity.offset] = float(s.values[k])
        for n in range(100):
            expected = p.omega * (n + 0.5) - 0.5
            worst = max(worst, abs(merged[n] - expected))
    elapsed = time.monotonic() - start
    report(
        1,
        worst < 1e-8 and elapsed < 10.0,
        f"max |certified - omega(n+1/2)+1/2| = {worst:.3e} (< 1e-8), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_factorization_theorem():
    start = time.monotonic()
    worst = 0.0
    for g in (0.1, 0.3, 0.45):
        lam = rs.derive_params(g, 1.0).lam
        worst = max(worst, rs.factorization_residual(256, lam))
    elapsed = time.monotonic() - start
    report(
        2,
        worst < 1e-7 and elapsed < 30.0,
        f"max factorization residual = {worst:.3e} (< 1e-7), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_03_squeeze_diagonalization():
    worst_h0 = max(rs.h0_transform_residual(256, g) for g in (0.1, 0.3, 0.45))
    worst_uvu = max(
        rs.uvu_residual(256, rs.derive_params(g, 1.0).lam, 1.0) for g in (0.1, 0.3, 0.45)
    )
    report(
        3,
        worst_h0 < 1e-6 and worst_uvu < 1e-8,
        f"max H0-transform residual = {worst_h0:.3e} (< 1e-6), "
        f"max UVU residual = {worst_uvu:.3e} (< 1e-8)",
    )


def test_criterion_04_closed_form_vs_exponential_oracle():
    lam = rs.derive_params(0.3, 1.0).lam
    oracle = rs.u_matrix_oracle(256, lam)
    table = np.array([[rs.u_element(m, n, lam) for n in range(64)] for m in range(64)])
    worst = float(np.max(np.abs(table - oracle[:64, :64])))
    report(4, worst < 1e-9, f"max |u_element - oracle| = {worst:.3e} (< 1e-9) at g = 0.3")


def test_criterion_05_hypergeometric_identity_exact():
    x = Fraction(7, 3)
    failures = 0
    for n_h in range(41):
        for m_h in range(n_h, 41):
            binom_even = Fraction(
                math.factorial(2 * n_h), math.factorial(n_h) * math.factorial(m_h)
            )
            even_ok = rs.p_exact(2 * n_h, m_h - n_h, x) == (
                (-1) ** n_h * binom_even * rs.hyper_f(n_h, m_h, Fraction(1, 2), -(x**2))
            )
            binom_odd = Fraction(
                math.factorial(2 * n_h + 1), math.factorial(n_h) * math.factorial(m_h)
            )
            odd_ok = rs.p_exact(2 * n_h + 1, m_h - n_h, x) == (
                (-1) ** n_h * binom_odd * 2 * x * rs.hyper_f(n_h, m_h, Fraction(3, 2), -(x**2))
            )
            failures += (not even_ok) + (not odd_ok)
    report(5, failures == 0, f"{failures} mismatches over all n, m <= 40, both parities (exact)")


def _bundle_max_normalized_residual(target_size: int, s: int, parity: int, x: float) -> float:
    """Max envelope-normalized residual over a 5-size same-parity bundle.

    The theorem remainder itself oscillates with the size parameter, so
    single sizes can sit at accidental nodes; the phase advances ~2.3 rad per
    size step of 4, so five steps cover a full cycle.
    """
    worst = 0.0
    for step in range(-2, 3):
        size = target_size + 4 * step
        n_full = size // 2 - s + parity
        m_full = size // 2 + s + parity
        ref = rs.p_fast_parts(n_full, s, x)
        asym = rs.p_asym_parts(n_full, m_full, x)
        diff = abs(
            ref.sign * math.exp(ref.log_abs - asym.log_envelope)
            - asym.sign * math.exp(asym.log_abs - asym.log_envelope)
        )
        worst = max(worst, diff)
    return worst


def test_criterion_06_polynomial_asymptotics_decay():
    x = rs.derive_params(0.2, 1.0).omega / 0.4
    ratios = []
    for s in (0, 2, 8):
        for parity in (0, 1):
            near = _bundle_max_normalized_residual(200, s, parity, x)
            far = _bundle_max_normalized_residual(400, s, parity, x)
            ratios.append((s, parity, near / far))
    ok = all(ratio >= 1.5 for _, _, ratio in ratios)
    detail = ", ".join(f"s={s} p={p}: {r:.2f}" for s, p, r in ratios)
    report(6, ok, f"size-200/size-400 residual ratios (>= 1.5): {detail}")


def test_criterion_07_v_tilde_identities():
    p = rs.derive_params(0.2, 1.0)
    worst_sum = 0.0
    for n in range(41):
        _, vals = rs.v_tilde_row(p, n, 4000)
        worst_sum = max(worst_sum, abs(float(np.sum(vals**2)) - p.delta**2 / 4.0))
    grid = sorted(
        set(list(range(50, 101, 5)) + [int(round(v)) for v in np.geomspace(100, 2000, 25)])
    )
    worst_diag = max(
        abs(rs.v_tilde(n, n, p) - rs.v_tilde_diag_asym(n, p)) * n**1.5 for n in grid
    )
    report(
        7,
        worst_sum < 1e-8 and worst_diag < 0.5,
        f"max |row sum - delta^2/4| = {worst_sum:.3e} (< 1e-8, n <= 40, cutoff 4000); "
        f"max diag-asym residual * n^1.5 = {worst_diag:.3f} (< 0.5 frozen, n in [50, 2000])",
    )


def test_criterion_08_correction_term_rates():
    p = rs.derive_params(0.2, 1.0)
    ns = [100, 126, 160, 200, 252, 320, 400, 504, 640, 800, 1000]
    worst_k = max(rs.k_norm_sq(n, p, 8 * n) * n for n in ns)
    worst_s = max(abs(rs.second_order(n, p, 8 * n)) * n / math.log(n) for n in ns)
    report(
        8,
        worst_k < 0.5 and worst_s < 0.05,
        f"max k_norm_sq * n = {worst_k:.3f} (< 0.5 frozen); "
        f"max |second_order| * n/ln n = {worst_s:.4f} (< 0.05 frozen) on [100, 1000]",
    )


def test_criterion_09_three_term_formula():
    start = time.monotonic()
    p = rs.derive_params(0.2, 1.0)
    ok = True
    details = []
    for branch in (rs.Branch.PLUS, rs.Branch.MINUS):
        study = rs.residual_study(p, branch, 50, 800, 1e-8)
        lower = max(abs(b.res_n_over_log_n) for b in study if b.n <= 400)
        upper = max(abs(b.res_n_over_log_n) for b in study if b.n > 400)
        ok = ok and upper <= 1.5 * lower
        details.append(f"{branch.name}: upper {upper:.4f} <= 1.5 x lower {lower:.4f}")
        # The conjectured sharper remainder: emitted for inspection only.
        step = len(study) // 16
        hypothesis = [b.res_times_n for b in study[::step]]
        print(
            f"hypothesis sequence residual*n ({branch.name}, every {step}th n): "
            + ", ".join(f"{v:.4f}" for v in hypothesis)
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    report(9, ok, "; ".join(details) + f"; {elapsed:.0f}s (< 300s)")


def test_criterion_10_delta_n_machinery():
    size = 3001
    quadratic = rs.SpectrumModel(
        mu=np.arange(size, dtype=float) ** 2,
        row_norms=np.arange(size, dtype=float) ** 0.3,
    )
    worst_rate = max(
        rs.delta_n(quadratic, n, size - 1) * n**0.7 for n in range(10, 501)
    )

    def brute(model, n, cutoff):
        r_n = 0.5 * min(model.mu[n] - model.mu[n - 1], model.mu[n + 1] - model.mu[n])
        total = 0.0
        for m in range(cutoff + 1):
            denom = model.mu[m] - model.mu[n] - r_n * (1.0 if m > n else -1.0)
            total += (model.row_norms[m] / denom) ** 2
        return math.sqrt(total)

    models = {
        "linear-const": rs.SpectrumModel(
            mu=np.arange(800, dtype=float), row_norms=np.full(800, 0.7)
        ),
        "quadratic-power": rs.SpectrumModel(
            mu=np.arange(800, dtype=float) ** 2,
            row_norms=np.arange(800, dtype=float) ** 0.3,
        ),
        "linear-decay": rs.SpectrumModel(
            mu=np.arange(1, 801, dtype=float),
            row_norms=1.0 / np.sqrt(np.arange(1, 801, dtype=float)),
        ),
    }
    worst_oracle = max(
        abs(rs.delta_n(model, n, 799) - brute(model, n, 799))
        for model in models.values()
        for n in (1, 25, 400)
    )
    report(
        10,
        worst_rate < 3.0 and worst_oracle < 1e-12,
        f"max delta_n * n^0.7 = {worst_rate:.3f} (< 3.0 frozen, mu=n^2, alpha=0.3); "
        f"max |delta_n - brute force| = {worst_oracle:.2e} (< 1e-12, all models)",
    )


def test_criterion_11_eigensolver_oracle_equivalence():
    tol = 1e-10
    worst_pair = 0.0
    rng = np.random.default_rng(918273645)
    for _ in range(200):
        dim = int(rng.integers(2, 65))
        t = rs.SymTriMatrix(diag=rng.normal(0, 3, dim), off=rng.normal(0, 2, dim - 1))
        bis = rs.eigenvalues_bisection(t, tol).values
        dense = rs.eigenvalues_dense(t.to_dense()).values
        worst_pair = max(worst_pair, float(np.max(np.abs(bis - dense))))
    p = rs.derive_params(0.3, 1.2)
    full = rs.eigenvalues_dense(rs.build_full_branch(p, rs.Branch.PLUS, 64))
    merged = np.sort(
        np.concatenate(
            [
                rs.eigenvalues_bisection(
                    rs.build_chain(p, ChainSelector(rs.Branch.PLUS, parity), 32), 1e-12
                ).values
                for parity in (rs.Parity.EVEN, rs.Parity.ODD)
            ]
        )
    )
    worst_split = float(np.max(np.abs(full.values - merged)))
    report(
        11,
        worst_pair < 10 * tol and worst_split < 1e-10,
        f"max |bisection - LAPACK| = {worst_pair:.2e} (< {10 * tol:.0e}, 200 random); "
        f"parity-split residual at N=64 = {worst_split:.2e} (< 1e-10)",
    )
