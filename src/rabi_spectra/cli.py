"""Command-line surface: spectra, residual tables, verification suites, CSV export.

Subcommands
-----------
spectrum
    Certified low-lying eigenvalues of one parity chain as CSV.
residuals
    Per-level three-term asymptotic breakdown with certified eigenvalues and
    the normalized remainder sequences.
verify
    Runs the verification suites on the model that --g/--delta/--dim set
    (squeeze: closed form against the exponential oracle; polynomials at
    x = omega/(2g); V~ rows) and reports each residual against its threshold.
poly
    Tabulates one polynomial index pair across an x grid (exact, fast,
    asymptotic, and envelope columns).

Every option is declared once, in ``_TABLE``, with its default; the default's
type and ``_CHOICES`` check a flag and a config value alike.  Flags take
precedence over the optional key=value config file named by
RABI_SPECTRA_CONFIG, which takes precedence over built-in defaults.  A config
key that no subcommand knows is an error.

Exit codes: 0 success, 1 verification threshold failure, 2 usage or domain
error (a bad flag or config value, an unwritable --out file), 3 numerical
non-convergence.  All numbers are printed with 17 significant digits in the
C locale, so outputs are bitwise-reproducible and diff-able.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from . import perturb, polys, squeeze
from .eigensolve import ConvergenceError, converged_levels
from .model import Branch, ChainSelector, Parity, derive_params

__all__ = ["main"]

# Largest x grid that `poly` tabulates.
MAX_POINTS = 100_000

# Choices in the order that --help lists them.
_BRANCHES = {"minus": Branch.MINUS, "plus": Branch.PLUS}
_PARITIES = {"even": Parity.EVEN, "odd": Parity.ODD}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_rows(out: str, header: str, rows: list[str]) -> None:
    text = "".join(f"{line}\n" for line in (header, *rows))
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file {out!r}: {exc.strerror}") from exc


def cmd_spectrum(opts: dict[str, Any]) -> int:
    params = derive_params(opts["g"], opts["delta"])
    chain = ChainSelector(_BRANCHES[opts["branch"]], _PARITIES[opts["parity"]])
    levels = opts["levels"]
    if levels < 1:
        raise ValueError("--levels must be at least 1")
    spectrum = converged_levels(params, chain, levels, opts["tol"])
    offset = chain.parity.offset
    # converged_levels certifies every level or raises, so every row is trusted.
    rows = [
        "%d,%d,%.17g,1" % (k, 2 * k + offset, value)
        for k, value in enumerate(spectrum.values.tolist())
    ]
    _write_rows(opts["out"], "n,fock_index,energy,trusted", rows)
    return 0


def cmd_residuals(opts: dict[str, Any]) -> int:
    params = derive_params(opts["g"], opts["delta"])
    study = perturb.residual_study(
        params, _BRANCHES[opts["branch"]], opts["n_min"], opts["n_max"], opts["tol"]
    )
    # One C-level format per row, with the 17 significant digits of _fmt.
    row_format = "%d" + ",%.17g" * 8
    rows = [
        row_format
        % (b.n, b.numeric, b.linear, b.shift, b.oscillatory, b.three_term, b.residual,
           b.res_n_over_log_n, b.res_times_n)
        for b in study
    ]
    header = "n,numeric,linear,shift,oscillatory,three_term,residual,res_n_over_logn,res_n"
    _write_rows(opts["out"], header, rows)
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
    # The exponential of an antisymmetric truncation is orthogonal whatever the
    # cut, so the whole oracle is checked, one parity block at a time: the
    # cross-parity entries of its Gram matrix are sums of exact zeros.
    oracle = squeeze.u_matrix_oracle(dim, params.lam)
    orth = []
    for p in (0, 1):
        block = oracle[p::2, p::2]
        gram = block.T @ block
        gram.flat[:: len(gram) + 1] -= 1.0
        orth.append(np.max(np.abs(gram)))
    return [
        _Check("factorization_residual", squeeze.factorization_residual(dim, params.lam), 1e-9),
        _Check("h0_transform_residual", squeeze.h0_transform_residual(dim, g), 1e-6),
        _Check("uvu_residual", squeeze.uvu_residual(dim, params.lam, delta), 1e-8),
        _Check("oracle_orthogonality", float(np.max(orth)), 1e-9),
    ]


def _bundle_max_residual(target: int, parity: int, x: float) -> float:
    """Largest s = 0 remainder over the five same-parity sizes target - 8 .. target + 8."""
    degrees = range(target // 2 - 4 + parity, target // 2 + 5 + parity, 2)
    try:
        return float(np.max([polys.p_asym_remainder(n, n, x) for n in degrees]))
    except ValueError:  # x too large for the asymptotic form's domain
        return math.inf


def _p_from_hyper_f(n: int, s: int, x: Fraction) -> Fraction:
    """P_n^{(s)}(x) through the terminating series of ``polys.hyper_f``, exactly."""
    n_h, m_h = n // 2, n // 2 + s
    scale = (-1) ** n_h * Fraction(math.factorial(n), math.factorial(n_h) * math.factorial(m_h))
    if n % 2:
        return scale * 2 * x * polys.hyper_f(n_h, m_h, Fraction(3, 2), -(x**2))
    return scale * polys.hyper_f(n_h, m_h, Fraction(1, 2), -(x**2))


def _suite_polys(g: float, _delta: float, _dim: int) -> list[_Check]:
    params = derive_params(g, 0.0)
    x = params.omega / (2.0 * params.g)
    rels = []
    for n, s in ((25, 0), (60, 3), (120, 0)):
        parts = polys.p_fast_parts(n, s, x)  # first: it rejects an x that overflowed
        exact = _p_from_hyper_f(n, s, Fraction(x))
        # Both sides scaled by 2^-shift, exactly for the rational, so that values
        # past the double range compare too; shift is 0 within it.
        shift = max(0, abs(exact.numerator).bit_length() - exact.denominator.bit_length() - 1000)
        scaled_exact = float(exact / 2**shift)
        scaled_fast = parts.sign * math.exp(parts.log_abs - shift * math.log(2.0))
        rels.append(abs(scaled_fast - scaled_exact) / abs(scaled_exact))
    checks = [_Check("p_fast_vs_hyper_f_rel", float(np.max(rels)), 1e-9)]
    for parity in (0, 1):
        near = _bundle_max_residual(200, parity, x)
        far = _bundle_max_residual(400, parity, x)
        label = "even" if parity == 0 else "odd"
        checks.append(_Check(f"asym_decay_inverse_ratio_{label}", far / near, 1.0 / 1.5))
    return checks


def _suite_perturb(g: float, delta: float, dim: int) -> list[_Check]:
    params = derive_params(g, delta)
    block = min(dim // 4, 32)
    sums, consist = [], []
    # Recurrence rows against the closed-form squeeze elements behind v_tilde.
    for n in (4, 11, 25):
        # Four times the row's outer turning point, n (1+2g)/(1-2g) in Fock index,
        # so that the row holds its mass; 2000 up to g about 0.4524 (19/42 for n 25).
        cutoff = max(2000, math.ceil(4 * n * (1 + 2 * g) / (1 - 2 * g)))
        ks, vals = perturb.v_tilde_row(params, n, cutoff)
        # 0.25 * delta * delta overflows to inf where delta**2 would raise.
        sums.append(abs(float(np.sum(vals**2)) - 0.25 * delta * delta))
        for k, value in zip(ks[:block].tolist(), vals[:block].tolist()):
            consist.append(abs(value - perturb.v_tilde(k, n, params)))
    checks = [
        _Check("row_sum_identity", float(np.max(sums)), 1e-8),
        _Check("v_tilde_row_vs_closed_form", float(np.max(consist)), 1e-10),
    ]
    if delta != 0.0:
        diag = []
        for n in (100, 400):
            resid = abs(perturb.v_tilde(n, n, params) - perturb.v_tilde_diag_asym(n, params))
            diag.append(resid * n**1.5)
        checks.append(_Check("diag_asym_scaled_residual", float(np.max(diag)), 0.5))
    return checks


_SUITES = {
    "squeeze": (_suite_squeeze,),
    "polys": (_suite_polys,),
    "perturb": (_suite_perturb,),
    "all": (_suite_squeeze, _suite_polys, _suite_perturb),
}


def cmd_verify(opts: dict[str, Any]) -> int:
    g, delta, dim, suite = opts["g"], opts["delta"], opts["dim"], opts["suite"]
    if not 8 <= dim <= squeeze.MAX_ORACLE_DIM:
        raise ValueError(f"--dim must be in [8, {squeeze.MAX_ORACLE_DIM}]")
    derive_params(g, delta)  # domain gate before any work
    # The V~ rows n <= 25 of the perturb suite recur over Fock indices
    # k <= 2n + 9 at tiny g, with t_j ~ (n - k)/(2g) and |n - k| <= 34, so
    # they stay finite exactly for g >= 17/max (checked double by double);
    # x ~ 1/g of the squeeze suite is finite there too.
    limit = 17.0 / sys.float_info.max
    if g < limit:
        raise ValueError(f"--g={g!r} is below {limit:.1e}, where the V~ rows overflow")
    checks: list[_Check] = []
    # Residuals are combined by np.max, which keeps a nan that the builtin max
    # drops unless it comes first, so an inf or nan residual prints as FAIL
    # and numpy's warnings about it add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for run_suite in _SUITES[suite]:
            checks += run_suite(g, delta, dim)
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


def cmd_poly(opts: dict[str, Any]) -> int:
    n_full, m_full, points = opts["n"], opts["m"], opts["points"]
    x_min, x_max = opts["x_min"], opts["x_max"]
    if n_full < 0 or m_full < n_full:
        raise ValueError("requires 0 <= n <= m")
    if (m_full - n_full) % 2:
        raise ValueError("parity mismatch: n and m must share parity")
    # One check for inf and NaN ends and for a width that overflows.
    if not math.isfinite(x_max - x_min):
        raise ValueError("the width --x-max minus --x-min must be finite")
    if x_min > x_max:
        raise ValueError("malformed range: x-min must not exceed x-max")
    if not 1 <= points <= MAX_POINTS:
        raise ValueError(f"--points must be in [1, {MAX_POINTS}]")
    s = (m_full - n_full) // 2
    grid = np.linspace(x_min, x_max, points)
    rows = []
    for x in grid:
        x = float(x)
        exact_cell = ""
        if n_full <= polys.MAX_EXACT_DEGREE:
            exact_cell = _fmt(polys._exact_double(n_full, s, x))
        fast_cell = _fmt(polys.p_fast(n_full, s, x))
        try:
            parts = polys.p_asym_parts(n_full, m_full, x)
            asym_cell = _fmt(parts.value)
            env_cell = _fmt(parts.envelope)
        except ValueError:
            asym_cell = ""
            env_cell = ""
        rows.append(f"{_fmt(x)},{exact_cell},{fast_cell},{asym_cell},{env_cell}")
    _write_rows(opts["out"], "x,p_exact,p_fast,p_asym,envelope", rows)
    return 0


# One row per subcommand: its handler, its help text and its option -> default
# map.  Each option is the flag --{key with "_" as "-"} of type type(default),
# checked against _CHOICES[key] where present; config values are parsed by
# the same rule.
_TABLE: dict[str, tuple[Callable[[dict[str, Any]], int], str, dict[str, Any]]] = {
    "spectrum": (
        cmd_spectrum,
        "certified chain eigenvalues as CSV",
        {"g": 0.2, "delta": 1.0, "branch": "plus", "parity": "even", "levels": 10, "tol": 1e-8,
         "out": ""},
    ),
    "residuals": (
        cmd_residuals,
        "three-term asymptotics residual table",
        {"g": 0.2, "delta": 1.0, "branch": "plus", "n_min": 50, "n_max": 200, "tol": 1e-8,
         "out": ""},
    ),
    "verify": (
        cmd_verify,
        "run residual/identity verification suites",
        {"g": 0.2, "delta": 1.0, "dim": 256, "suite": "all"},
    ),
    "poly": (
        cmd_poly,
        "tabulate one polynomial index pair over x",
        {"n": 0, "m": 0, "x_min": 0.5, "x_max": 3.0, "points": 50, "out": ""},
    ),
}
_CHOICES = {"branch": _BRANCHES, "parity": _PARITIES, "suite": _SUITES}
# Every key a config file may set; a key's type is the same in every row.
_KEY_TYPES = {
    key: type(default) for _, _, options in _TABLE.values() for key, default in options.items()
}


# Built once per process, so repeated in-process calls of main skip a build of about 1 ms.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabi-spectra",
        description="Two-photon quantum Rabi model spectra and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _TABLE.items():
        sp = sub.add_parser(command, help=help_text)
        for key, default in options.items():
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, type=type(default), choices=_CHOICES.get(key))
    return parser


def _parse_value(key: str, text: str) -> Any:
    """A config value parsed and checked as the flag --key would parse it."""
    kind = _KEY_TYPES[key]
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"config key {key}: invalid {kind.__name__} value: {text!r}") from None
    choices = _CHOICES.get(key)
    if choices is not None and value not in choices:
        allowed = ", ".join(map(repr, choices))
        raise ValueError(f"config key {key}: invalid choice: {text!r} (choose from {allowed})")
    return value


def _load_config(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    cfg: dict[str, Any] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"malformed config line: {line!r}")
                key, text = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in _KEY_TYPES:
                    raise ValueError(f"unknown config key {key!r}")
                cfg[key] = _parse_value(key, text.strip())
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
    return cfg


def _resolve(args: argparse.Namespace, cfg: dict[str, Any]) -> dict[str, Any]:
    opts: dict[str, Any] = {}
    for key, default in _TABLE[args.command][2].items():
        flag_value = getattr(args, key)
        opts[key] = flag_value if flag_value is not None else cfg.get(key, default)
    return opts


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(os.environ.get("RABI_SPECTRA_CONFIG"))
        opts = _resolve(args, cfg)
        return _TABLE[args.command][0](opts)
    except ConvergenceError as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
