"""Workload plans for the rabi_spectra benchmark: timed calls and output checks.

A plan is a list of :class:`Op`.  Each op makes one call into
``rabi_spectra`` (the timed part) and has a check that compares the call's
output against an independent route (run outside the timed region).  A check
returns ``(name, error, tolerance)`` triples; the op fails when an error is
not below its tolerance.

``sweep`` and ``rows`` draw their varied parameters from ``seed``; the draws
are stratified (one value per narrow band) so that every seed does about the
same amount of work.  ``residuals`` and ``oracles`` are fixed cases.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import mpmath as mp
import numpy as np

import rabi_spectra as rs
from rabi_spectra import cli, perturb

Check = tuple[str, float, float]


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[Check]]


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main(argv)``; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _csv(text: str) -> list[dict[str, str]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _chain_eigvalsh(g: float, delta: float, sign: int, parity: int, dim: int, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of a truncated parity chain, by LAPACK.

    The chain is built here from the Hamiltonian's definition and solved
    with LAPACK's tridiagonal bisection, independently of
    ``rabi_spectra.model`` and ``rabi_spectra.eigensolve``.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    fock = 2 * np.arange(dim) + parity
    diag = fock + sign * (delta / 2.0) * (-1.0) ** (fock // 2)
    off = g * np.sqrt((fock[:-1] + 1.0) * (fock[:-1] + 2.0))
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))


def _exit_ok(code: int) -> Check:
    return ("exit_code", float(code), 0.5)


# --- residuals: the three-term table of criterion 9 --------------------------

def _residuals_op(branch: str) -> Op:
    g, delta, n_min, n_max, tol = 0.2, 1.0, 50, 800, 1e-8
    argv = ["residuals", "--g", str(g), "--delta", str(delta), "--branch", branch,
            "--n-min", str(n_min), "--n-max", str(n_max), "--tol", str(tol)]
    sign = 1 if branch == "plus" else -1

    def check(out: tuple[int, str]) -> list[Check]:
        code, text = out
        rows = _csv(text)
        worst = 0.0
        for parity in (0, 1):
            count = (n_max - parity) // 2 + 1
            ref = _chain_eigvalsh(g, delta, sign, parity, 8 * count, count)
            for row in rows:
                n = int(row["n"])
                if n % 2 == parity:
                    worst = max(worst, abs(float(row["numeric"]) - ref[n // 2]))
        return [_exit_ok(code), ("rows", abs(len(rows) - (n_max - n_min + 1)), 0.5),
                ("numeric_vs_eigvalsh", worst, 2 * tol)]

    return Op(f"residuals --branch {branch}", lambda: _cli(argv), check)


def residuals(seed: int) -> list[Op]:
    """Fixed case (seed unused): criterion 9 at g = 0.2, Delta = 1, n 50..800.

    Only the plus branch runs: the minus branch does the same Sturm work on
    chains of the same size, and both together would make one pass about
    11 s, leaving room for too few passes per run.
    """
    return [_residuals_op("plus")]


# --- sweep: many small certified spectra across the coupling range -----------

# One coupling is drawn uniformly from each band.  The bands are narrow so
# that every seed certifies at the same truncation dimensions.
SWEEP_G_BANDS = ((0.05, 0.07), (0.15, 0.17), (0.25, 0.27), (0.34, 0.36), (0.42, 0.44), (0.48, 0.49))
SWEEP_LEVELS = 20
SWEEP_TOL = 1e-10


def _spectrum_op(g: float, delta: float, branch: str, parity: str) -> Op:
    argv = ["spectrum", "--g", repr(g), "--delta", str(delta), "--branch", branch,
            "--parity", parity, "--levels", str(SWEEP_LEVELS), "--tol", str(SWEEP_TOL)]
    p = 0 if parity == "even" else 1
    sign = 1 if branch == "plus" else -1

    def check(out: tuple[int, str]) -> list[Check]:
        code, text = out
        rows = _csv(text)
        values = np.array([float(r["energy"]) for r in rows])
        untrusted = sum(r["trusted"] != "1" for r in rows)
        if delta == 0.0:
            omega = math.sqrt(1.0 - 4.0 * g * g)
            ref = omega * (2 * np.arange(SWEEP_LEVELS) + p + 0.5) - 0.5
            name = "delta0_vs_closed_form"
        else:
            ref = _chain_eigvalsh(g, delta, sign, p, 4096, SWEEP_LEVELS)
            name = "delta1_vs_eigvalsh"
        err = float(np.max(np.abs(values - ref))) if values.size == ref.size else math.inf
        return [_exit_ok(code), ("untrusted_levels", float(untrusted), 0.5), (name, err, SWEEP_TOL)]

    return Op(f"spectrum --g {g:.6f} --delta {delta:g} --branch {branch} --parity {parity}",
              lambda: _cli(argv), check)


def sweep(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for lo, hi in SWEEP_G_BANDS:
        g = round(rng.uniform(lo, hi), 6)
        for delta, branches in ((0.0, ("plus",)), (1.0, ("plus", "minus"))):
            for branch in branches:
                for parity in ("even", "odd"):
                    ops.append(_spectrum_op(g, delta, branch, parity))
    return ops


# --- rows: V~ row evaluation and scalar elements through the library ---------

ROWS_G = 0.2
# Criterion 8 rows (cutoff 8n): one n from each band.
ROWS_CRIT8_BANDS = ((100, 110), (200, 210), (400, 410), (620, 630))
# Row sums with cutoff 4000: the double path (n <= 11) and the mp path.
ROWS_SUM_BANDS = ((0, 11), (12, 25), (26, 40))
ROWS_SUM_CUTOFF = 4000
# Diagonal scalars V~_nn: one n per band, log-spaced bands over [50, 2000].
_DIAG_EDGES = [int(edge) for edge in np.geomspace(50, 2000, 13)]
ROWS_DIAG_BANDS = tuple(zip(_DIAG_EDGES[:-1], [edge - 1 for edge in _DIAG_EDGES[1:]]))
ROWS_SAMPLES = 6
ENTRY_TOL = 1e-10


def _v_tilde_mp(n: int, params: rs.ModelParams) -> float:
    """V~_nn from its defining alternating sum at fixed generous precision.

    V~_nn = (-1)^floor(n/2) (Delta/2) sqrt(omega) g^n P_n^(0)(x), x = omega/(2g),
    P_n^(0)(x) = sum_j (-1)^j n! (2x)^(n-2j) / (j!^2 (n-2j)!).
    The largest term is below 3^n, so 0.6 n digits beyond the result suffice.
    """
    with mp.workdps(40 + (6 * n) // 10):
        g = mp.mpf(params.g)
        omega = mp.sqrt(1 - 4 * g * g)
        two_x = omega / g
        poly = mp.fsum(
            (-1) ** j * mp.factorial(n) * two_x ** (n - 2 * j)
            / (mp.factorial(j) ** 2 * mp.factorial(n - 2 * j))
            for j in range(n // 2 + 1)
        )
        value = (-1) ** (n // 2) * mp.mpf(params.delta) / 2 * mp.sqrt(omega) * g**n * poly
        return float(value)


def _sampled_entries(params: rs.ModelParams, n: int, cutoff: int, rng: random.Random) -> float:
    """Largest |row entry - scalar v_tilde| over a few sampled row indices."""
    ks, vals = perturb.v_tilde_row(params, n, cutoff)
    picks = {0, ks.size - 1, int(np.searchsorted(ks, n))} | {rng.randrange(ks.size) for _ in range(ROWS_SAMPLES)}
    return max(abs(float(vals[i]) - perturb.v_tilde(int(ks[i]), n, params)) for i in picks)


def rows(seed: int) -> list[Op]:
    rng = random.Random(seed)
    params = rs.derive_params(ROWS_G, 1.0)
    quarter = params.delta**2 / 4.0
    ops = []
    for lo, hi in ROWS_CRIT8_BANDS:
        n = rng.randint(lo, hi)
        check_rng = random.Random(rng.getrandbits(32))

        def check_k(value: float, n: int = n, check_rng: random.Random = check_rng) -> list[Check]:
            entries = _sampled_entries(params, n, 8 * n, check_rng)
            return [("k_norm_sq_times_n", value * n, 0.5), ("row_entry_vs_scalar", entries, ENTRY_TOL)]

        def check_s(value: float, n: int = n) -> list[Check]:
            return [("second_order_times_n_over_ln_n", abs(value) * n / math.log(n), 0.05)]

        ops.append(Op(f"k_norm_sq n={n}", lambda n=n: perturb.k_norm_sq(n, params, 8 * n), check_k))
        ops.append(Op(f"second_order n={n}", lambda n=n: perturb.second_order(n, params, 8 * n), check_s))
    for lo, hi in ROWS_SUM_BANDS:
        n = rng.randint(lo, hi)
        check_rng = random.Random(rng.getrandbits(32))

        def check_row(out, n: int = n, check_rng: random.Random = check_rng) -> list[Check]:
            _, vals = out
            entries = _sampled_entries(params, n, ROWS_SUM_CUTOFF, check_rng)
            return [("row_sum_identity", abs(float(np.sum(vals * vals)) - quarter), 1e-8),
                    ("row_entry_vs_scalar", entries, ENTRY_TOL)]

        ops.append(Op(f"v_tilde_row n={n} cutoff={ROWS_SUM_CUTOFF}",
                      lambda n=n: perturb.v_tilde_row(params, n, ROWS_SUM_CUTOFF), check_row))
    for lo, hi in ROWS_DIAG_BANDS:
        n = rng.randint(lo, hi)

        def check_diag(value: float, n: int = n) -> list[Check]:
            return [("diag_vs_mp_sum", abs(value - _v_tilde_mp(n, params)), ENTRY_TOL)]

        ops.append(Op(f"v_tilde n=m={n}", lambda n=n: perturb.v_tilde(n, n, params), check_diag))
    return ops


# --- oracles: verification suites and the exact polynomial routes ------------

POLY_ARGV = ["poly", "--n", "400", "--m", "404", "--x-min", "0.6", "--x-max", "2.2", "--points", "5"]


def _verify_op(g: float) -> Op:
    argv = ["verify", "--suite", "all", "--g", str(g), "--delta", "1", "--dim", "256"]
    return Op(f"verify --suite all --g {g}", lambda: _cli(argv), lambda out: [_exit_ok(out[0])])


def _check_poly(out: tuple[int, str]) -> list[Check]:
    code, text = out
    worst = 0.0
    compared = 0
    for row in _csv(text):
        exact = float(row["p_exact"])
        if math.isfinite(exact) and exact != 0.0:
            worst = max(worst, abs(float(row["p_fast"]) - exact) / abs(exact))
            compared += 1
    return [_exit_ok(code), ("points_compared", abs(compared - int(POLY_ARGV[-1])), 0.5),
            ("p_fast_vs_p_exact_rel", worst, 1e-9)]


def oracles(seed: int) -> list[Op]:
    """Fixed cases (seed unused): both verify runs and one polynomial table."""
    return [_verify_op(0.2), _verify_op(0.45),
            Op(" ".join(POLY_ARGV), lambda: _cli(POLY_ARGV), _check_poly)]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "residuals": residuals,
    "sweep": sweep,
    "rows": rows,
    "oracles": oracles,
}
