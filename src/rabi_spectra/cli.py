"""Command-line surface: spectra, residual tables, verification suites, CSV export.

Subcommands
-----------
spectrum
    Certified low-lying eigenvalues of one parity chain as CSV.
residuals
    Per-level three-term asymptotic breakdown with certified eigenvalues and
    the normalized remainder sequences.
verify
    Runs the residual/identity verification suites (squeeze factorization,
    polynomial oracles, perturbation identities) and reports each residual
    against its threshold.
poly
    Tabulates one polynomial index pair across an x grid (exact, fast,
    asymptotic, and envelope columns).

Exit codes: 0 success, 1 verification threshold failure, 2 usage or domain
error, 3 numerical non-convergence.  Flags take precedence over the optional
key=value config file named by RABI_SPECTRA_CONFIG, which takes precedence
over built-in defaults.  All numbers are printed with 17 significant digits
in the C locale, so outputs are bitwise-reproducible and diff-able.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import perturb, polys, squeeze
from .eigensolve import ConvergenceError, converged_levels
from .model import Branch, ChainSelector, DomainError, Parity, derive_params

__all__ = ["main"]

_BRANCHES = {"plus": Branch.PLUS, "minus": Branch.MINUS}
_PARITIES = {"even": Parity.EVEN, "odd": Parity.ODD}

_DEFAULTS: dict[str, dict[str, object]] = {
    "spectrum": {
        "g": 0.2,
        "delta": 1.0,
        "branch": "plus",
        "parity": "even",
        "levels": 10,
        "tol": 1e-8,
        "out": "",
    },
    "residuals": {
        "g": 0.2,
        "delta": 1.0,
        "branch": "plus",
        "n_min": 50,
        "n_max": 200,
        "tol": 1e-8,
        "out": "",
    },
    "verify": {"g": 0.2, "delta": 1.0, "dim": 256, "suite": "all"},
    "poly": {
        "n": 0,
        "m": 0,
        "x_min": 0.5,
        "x_max": 3.0,
        "points": 50,
        "out": "",
    },
}

_TYPES: dict[str, type] = {
    "g": float,
    "delta": float,
    "branch": str,
    "parity": str,
    "levels": int,
    "tol": float,
    "out": str,
    "n_min": int,
    "n_max": int,
    "dim": int,
    "suite": str,
    "n": int,
    "m": int,
    "x_min": float,
    "x_max": float,
    "points": int,
}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabi-spectra",
        description="Two-photon quantum Rabi model spectra and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="certified chain eigenvalues as CSV")
    sp.add_argument("--g", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--branch", choices=sorted(_BRANCHES))
    sp.add_argument("--parity", choices=sorted(_PARITIES))
    sp.add_argument("--levels", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out")

    rs = sub.add_parser("residuals", help="three-term asymptotics residual table")
    rs.add_argument("--g", type=float)
    rs.add_argument("--delta", type=float)
    rs.add_argument("--branch", choices=sorted(_BRANCHES))
    rs.add_argument("--n-min", dest="n_min", type=int)
    rs.add_argument("--n-max", dest="n_max", type=int)
    rs.add_argument("--tol", type=float)
    rs.add_argument("--out")

    vf = sub.add_parser("verify", help="run residual/identity verification suites")
    vf.add_argument("--g", type=float)
    vf.add_argument("--delta", type=float)
    vf.add_argument("--dim", type=int)
    vf.add_argument("--suite", choices=["squeeze", "polys", "perturb", "all"])

    pl = sub.add_parser("poly", help="tabulate one polynomial index pair over x")
    pl.add_argument("--n", type=int)
    pl.add_argument("--m", type=int)
    pl.add_argument("--x-min", dest="x_min", type=float)
    pl.add_argument("--x-max", dest="x_max", type=float)
    pl.add_argument("--points", type=int)
    pl.add_argument("--out")
    return parser


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    cfg: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"malformed config line: {line!r}")
                key, value = line.split("=", 1)
                cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
    return cfg


def _resolve(args: argparse.Namespace, cfg: dict[str, str]) -> dict[str, object]:
    opts: dict[str, object] = {}
    for key, default in _DEFAULTS[args.command].items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            opts[key] = flag_value
        elif key in cfg:
            opts[key] = _TYPES[key](cfg[key])
        else:
            opts[key] = default
    return opts


def _open_out(out: str):
    if out:
        return open(out, "w", encoding="utf-8", newline="\n")
    return sys.stdout


def _write_rows(out: str, header: str, rows: list[str]) -> None:
    handle = _open_out(out)
    try:
        handle.write(header + "\n")
        for row in rows:
            handle.write(row + "\n")
    finally:
        if handle is not sys.stdout:
            handle.close()


def cmd_spectrum(opts: dict[str, object]) -> int:
    params = derive_params(float(opts["g"]), float(opts["delta"]))
    chain = ChainSelector(_BRANCHES[str(opts["branch"])], _PARITIES[str(opts["parity"])])
    levels = int(opts["levels"])
    if levels < 1:
        raise ValueError("--levels must be at least 1")
    spectrum = converged_levels(params, chain, levels, float(opts["tol"]))
    offset = chain.parity.offset
    rows = [
        f"{k},{2 * k + offset},{_fmt(spectrum.values[k])},{int(k < spectrum.trusted_count)}"
        for k in range(levels)
    ]
    _write_rows(str(opts["out"]), "n,fock_index,energy,trusted", rows)
    return 0


def cmd_residuals(opts: dict[str, object]) -> int:
    params = derive_params(float(opts["g"]), float(opts["delta"]))
    branch = _BRANCHES[str(opts["branch"])]
    study = perturb.residual_study(
        params, branch, int(opts["n_min"]), int(opts["n_max"]), float(opts["tol"])
    )
    rows = []
    for b in study:
        rows.append(
            ",".join(
                [
                    str(b.n),
                    _fmt(b.numeric),
                    _fmt(b.linear),
                    _fmt(b.shift),
                    _fmt(b.oscillatory),
                    _fmt(b.three_term),
                    _fmt(b.residual),
                    _fmt(b.res_n_over_log_n),
                    _fmt(b.res_times_n),
                ]
            )
        )
    header = "n,numeric,linear,shift,oscillatory,three_term,residual,res_n_over_logn,res_n"
    _write_rows(str(opts["out"]), header, rows)
    return 0


@dataclass(frozen=True)
class _Check:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value < self.threshold


def _suite_squeeze(g: float, delta: float, dim: int) -> list[_Check]:
    params = derive_params(g, delta)
    block = min(dim // 4, 64)
    oracle = squeeze.u_matrix_oracle(dim, params.lam)
    table = np.array(
        [[squeeze.u_element(m, n, params.lam) for n in range(block)] for m in range(block)]
    )
    orth = float(np.max(np.abs((oracle.T @ oracle - np.eye(dim))[:block, :block])))
    return [
        _Check("factorization_residual", squeeze.factorization_residual(dim, params.lam), 1e-7),
        _Check("h0_transform_residual", squeeze.h0_transform_residual(dim, g), 1e-6),
        _Check("uvu_residual", squeeze.uvu_residual(dim, params.lam, delta), 1e-8),
        _Check("u_element_vs_oracle", float(np.max(np.abs(table - oracle[:block, :block]))), 1e-9),
        _Check("oracle_orthogonality", orth, 1e-9),
    ]


def _bundle_max_residual(target: int, s: int, parity: int, x: float) -> float:
    worst = 0.0
    for step in range(-2, 3):
        size = target + 4 * step
        n_full = size // 2 - s + parity
        m_full = size // 2 + s + parity
        ref = polys.p_fast_parts(n_full, s, x)
        asym = polys.p_asym_parts(n_full, m_full, x)
        diff = abs(ref.value - asym.value) if asym.log_envelope < 700 else math.inf
        worst = max(worst, diff / math.exp(asym.log_envelope))
    return worst


def _suite_polys(g: float) -> list[_Check]:
    params = derive_params(g, 0.0)
    x = params.omega / (2.0 * params.g)
    checks = []
    spec = polys.PhaseSpec(s=0, lambda_hat=25.0, t_max=1.0)
    closed = 25.0 * math.atan(math.sinh(1.0))
    checks.append(_Check("phase_integral_closed_form", abs(polys.phase_integral(spec) - closed), 1e-12))
    worst_rel = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", polys.CancellationWarning)
        for n, s in ((25, 0), (60, 3), (120, 0)):
            exact = float(polys.p_exact(n, s, Fraction(x)))
            fast = polys.p_fast(n, s, x)
            worst_rel = max(worst_rel, abs(fast - exact) / abs(exact))
    checks.append(_Check("p_fast_vs_p_exact_rel", worst_rel, 1e-9))
    xr = Fraction(7, 3)
    mismatch = 0.0
    for n_h in range(0, 8):
        for m_h in range(n_h, 8):
            even = polys.p_exact(2 * n_h, m_h - n_h, xr) - (-1) ** n_h * Fraction(
                math.factorial(2 * n_h), math.factorial(n_h) * math.factorial(m_h)
            ) * polys.hyper_f(n_h, m_h, Fraction(1, 2), -(xr**2))
            odd = polys.p_exact(2 * n_h + 1, m_h - n_h, xr) - (-1) ** n_h * Fraction(
                math.factorial(2 * n_h + 1), math.factorial(n_h) * math.factorial(m_h)
            ) * 2 * xr * polys.hyper_f(n_h, m_h, Fraction(3, 2), -(xr**2))
            mismatch = max(mismatch, abs(float(even)), abs(float(odd)))
    checks.append(_Check("hypergeometric_identity", mismatch, 1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", polys.CancellationWarning)
        for parity in (0, 1):
            near = _bundle_max_residual(200, 0, parity, x)
            far = _bundle_max_residual(400, 0, parity, x)
            label = "even" if parity == 0 else "odd"
            checks.append(_Check(f"asym_decay_inverse_ratio_{label}", far / near, 1.0 / 1.5))
    return checks


def _suite_perturb(g: float, delta: float, dim: int) -> list[_Check]:
    params = derive_params(g, delta)
    checks = []
    worst = 0.0
    for n in (4, 11, 25):
        _, vals = perturb.v_tilde_row(params, n, 2000)
        worst = max(worst, abs(float(np.sum(vals**2)) - delta**2 / 4.0))
    checks.append(_Check("row_sum_identity", worst, 1e-8))
    a = perturb.v_tilde(6, 2, params)
    b = perturb.v_tilde(2, 6, params)
    sym = 0.0 if a == b == 0.0 else abs(a - b) / max(abs(a), abs(b))
    checks.append(_Check("v_tilde_symmetry_rel", sym, 1e-13))
    block = min(dim // 4, 32)
    signs = squeeze.parity_sign_diagonal(block, delta)
    consist = 0.0
    for m in range(block):
        for n in range(block):
            via_u = signs[m] * squeeze.u_element(m, n, 2.0 * params.lam)
            consist = max(consist, abs(perturb.v_tilde(m, n, params) - via_u))
    checks.append(_Check("v_tilde_vs_squeeze_product", consist, 1e-10))
    model = perturb.SpectrumModel.from_functions(
        lambda m: float(m), lambda m: 1.0 / (1.0 + m), 600
    )
    brute = 0.0
    n0, cut = 40, 500
    r_n = 0.5
    for m in range(cut + 1):
        denom = model.mu[m] - model.mu[n0] + (r_n if m <= n0 else -r_n)
        brute += (model.row_norms[m] / denom) ** 2
    checks.append(
        _Check("delta_n_vs_bruteforce", abs(perturb.delta_n(model, n0, cut) - math.sqrt(brute)), 1e-12)
    )
    if delta != 0.0:
        worst_diag = 0.0
        for n in (100, 400):
            resid = abs(perturb.v_tilde(n, n, params) - perturb.v_tilde_diag_asym(n, params))
            worst_diag = max(worst_diag, resid * n**1.5)
        checks.append(_Check("diag_asym_scaled_residual", worst_diag, 0.5))
    return checks


def cmd_verify(opts: dict[str, object]) -> int:
    g = float(opts["g"])
    delta = float(opts["delta"])
    dim = int(opts["dim"])
    suite = str(opts["suite"])
    if not 8 <= dim <= 512:
        raise ValueError("--dim must be in [8, 512]")
    derive_params(g, delta)  # domain gate before any work
    checks: list[_Check] = []
    if suite in ("squeeze", "all"):
        checks += _suite_squeeze(g, delta, dim)
    if suite in ("polys", "all"):
        checks += _suite_polys(g)
    if suite in ("perturb", "all"):
        checks += _suite_perturb(g, delta, dim)
    failures = []
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(f"{check.name}: {check.value:.6e} < {check.threshold:.1e} {verdict}")
        if not check.passed:
            failures.append(check.name)
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    print(f"all {len(checks)} checks passed (suite={suite}, g={g}, delta={delta}, dim={dim})")
    return 0


def cmd_poly(opts: dict[str, object]) -> int:
    n_full = int(opts["n"])
    m_full = int(opts["m"])
    x_min = float(opts["x_min"])
    x_max = float(opts["x_max"])
    points = int(opts["points"])
    if n_full < 0 or m_full < n_full:
        raise ValueError("requires 0 <= n <= m")
    if (m_full - n_full) % 2:
        raise ValueError("parity mismatch: n and m must share parity")
    if x_min > x_max:
        raise ValueError("malformed range: x-min must not exceed x-max")
    if points < 1:
        raise ValueError("--points must be at least 1")
    s = (m_full - n_full) // 2
    grid = np.linspace(x_min, x_max, points)
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", polys.CancellationWarning)
        for x in grid:
            x = float(x)
            exact_cell = ""
            if n_full <= polys.MAX_EXACT_DEGREE:
                exact = polys.p_exact(n_full, s, Fraction(x))
                exact_cell = _fmt(exact) if abs(exact) < Fraction(10) ** 308 else _fmt(math.inf)
            fast_cell = _fmt(polys.p_fast(n_full, s, x))
            try:
                parts = polys.p_asym_parts(n_full, m_full, x)
                asym_cell = _fmt(parts.value)
                env_cell = _fmt(parts.envelope)
            except ValueError:
                asym_cell = ""
                env_cell = ""
            rows.append(f"{_fmt(x)},{exact_cell},{fast_cell},{asym_cell},{env_cell}")
    _write_rows(str(opts["out"]), "x,p_exact,p_fast,p_asym,envelope", rows)
    return 0


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "residuals": cmd_residuals,
    "verify": cmd_verify,
    "poly": cmd_poly,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(os.environ.get("RABI_SPECTRA_CONFIG"))
        opts = _resolve(args, cfg)
        return _COMMANDS[args.command](opts)
    except (ConvergenceError, polys.EscalationError) as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
