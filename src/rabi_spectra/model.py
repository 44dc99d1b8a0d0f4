"""Model parameters and truncated Hamiltonian matrices.

The full Hamiltonian is the two-level system coupled quadratically to one
bosonic mode,

    H = (Delta/2) sigma_z + a+ a + g (a^2 + a+^2) sigma_x ,

with 0 < g < 1/2 (discrete spectrum) and real Delta.  It splits into two
branches H_plus / H_minus that act on a single Fock chain as

    H_sigma = a+ a + g (a^2 + a+^2) + sigma (Delta/2) diag{(-1)^floor(n/2)} ,

and each branch further decouples into an even-index and an odd-index Fock
chain, which are symmetric tridiagonal in the Fock basis.  This module builds
those truncated matrices; eigensolving lives in :mod:`rabi_spectra.eigensolve`.
It also holds the leading asymptotics of the squeezed perturbation's diagonal,
which the eigensolver's Newton starts and :mod:`rabi_spectra.perturb`'s
three-term formula share.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "Branch",
    "Parity",
    "ChainSelector",
    "ModelParams",
    "SymTriMatrix",
    "derive_params",
    "build_chain",
    "build_full_branch",
]


class DomainError(ValueError):
    """Coupling outside the discrete-spectrum domain 0 < g < 1/2, or non-finite Delta."""


class Branch(enum.Enum):
    """Which of the two invariant branches: sign of the diagonal perturbation."""

    PLUS = 1
    MINUS = -1

    @property
    def sign(self) -> int:
        return self.value


class Parity(enum.Enum):
    """Fock-index parity of a decoupled chain."""

    EVEN = 0
    ODD = 1

    @property
    def offset(self) -> int:
        return self.value


@dataclass(frozen=True)
class ChainSelector:
    """One of the four decoupled chains: branch sign x Fock parity."""

    branch: Branch
    parity: Parity


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings plus all derived constants.

    This is a plain carrier; :func:`derive_params` is the validated
    constructor and guarantees the algebraic relations between the fields:
    ``omega = sqrt(1 - 4 g^2)``, ``tanh(4 lam) = 2 g`` and
    ``a_phase = arctan(omega / (2 g))``.
    """

    g: float
    delta: float
    omega: float
    lam: float
    a_phase: float


def derive_params(g: float, delta: float) -> ModelParams:
    """Derive the squeeze and asymptotics constants from the couplings.

    The squeeze parameter solves tanh(4 lam) = 2 g and is evaluated in the
    closed form lam = artanh(2 g)/4 = (log1p(2g) - log1p(-2g))/8, which is
    stable for g near 0 and near 1/2.

    Raises:
        DomainError: if g is outside (0, 1/2), where the spectrum is no
            longer discrete (or the model degenerates), or if delta is not
            finite.
    """
    if not 0.0 < g < 0.5:
        raise DomainError(
            f"coupling g={g!r} outside the discrete-spectrum domain (0, 1/2)"
        )
    if not math.isfinite(delta):
        raise DomainError(f"level splitting delta={delta!r} must be finite")
    lam = (math.log1p(2.0 * g) - math.log1p(-2.0 * g)) / 8.0
    omega = math.sqrt((1.0 - 2.0 * g) * (1.0 + 2.0 * g))
    a_phase = math.atan2(omega, 2.0 * g)
    return ModelParams(g=g, delta=delta, omega=omega, lam=lam, a_phase=a_phase)


def _diag_asym(params: ModelParams, fock: np.ndarray) -> np.ndarray:
    """Leading asymptotics of the transformed perturbation's diagonal V~_nn at Fock indices n.

       (-1)^{floor(n/2)} (Delta/2) sqrt(omega/(pi g n)) cos(A (n+1/2) - pi n/2),

    A = ``a_phase``; non-finite at n = 0, where the asymptotics has no value.
    """
    amplitude = (params.delta / 2.0) * np.sqrt(params.omega / (math.pi * params.g * fock))
    phase = params.a_phase * (fock + 0.5) - math.pi * fock / 2.0
    return (-1.0) ** (fock // 2) * amplitude * np.cos(phase)


@dataclass(frozen=True)
class SymTriMatrix:
    """Symmetric tridiagonal matrix stored as diagonal + off-diagonal arrays of finite entries.

    Each b^2 and |lo| + |hi| (lo, hi the Gershgorin ends) must be finite too, so that
    the Sturm sweeps meet finite b^2, d - x and lo + hi for every shift x in [lo, hi].
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "off", np.asarray(self.off, dtype=float))
        if self.diag.ndim != 1 or self.off.ndim != 1:
            raise ValueError("diag and off must be one-dimensional")
        if self.diag.size < 2:
            raise ValueError("dimension must be at least 2")
        if self.off.size != self.diag.size - 1:
            raise ValueError("off-diagonal must have length N-1")
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = self.gershgorin()
            if not (np.isfinite(self.off**2).all() and math.isfinite(abs(lo) + abs(hi))):
                raise ValueError("entries, off-diagonal squares and Gershgorin ends must be finite")

    @property
    def n(self) -> int:
        return self.diag.size

    def gershgorin(self) -> tuple[float, float]:
        """Ends (lo, hi) of the Gershgorin interval, which holds every eigenvalue."""
        radius = np.zeros(self.n)
        radius[:-1] += np.abs(self.off)
        radius[1:] += np.abs(self.off)
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        a[idx, idx + 1] = self.off
        a[idx + 1, idx] = self.off
        return a


def build_chain(params: ModelParams, chain: ChainSelector, n_dim: int) -> SymTriMatrix:
    """Truncated tridiagonal matrix of one parity chain.

    Chain index k = 0..n_dim-1 holds Fock index n = 2k + p (p = 0 for the
    even chain, 1 for the odd one), so truncation at n_dim covers Fock states
    up to 2 n_dim - 2 (even) or 2 n_dim - 1 (odd):

        diag[k] = n + sigma (Delta/2) (-1)^floor(n/2),
        off[k]  = g sqrt((n+1)(n+2)).
    """
    fock = 2 * np.arange(n_dim) + chain.parity.offset
    signs = (-1.0) ** (fock // 2)
    diag = fock + chain.branch.sign * (params.delta / 2.0) * signs
    nf = fock[:-1].astype(float)
    off = params.g * np.sqrt((nf + 1.0) * (nf + 2.0))
    return SymTriMatrix(diag=diag, off=off)


def build_full_branch(params: ModelParams, branch: Branch, n_dim: int) -> np.ndarray:
    """Dense bandwidth-2 truncation of a full branch (parity chains interleaved).

    The oracle for the parity split: its spectrum at even n_dim equals the
    union of the two chain spectra at dimension n_dim/2 exactly, because the
    split is a permutation similarity of the truncated matrix.  At Delta = 0
    its rows are the H0 rows of the eigen-equation H0 U = U D in
    :func:`rabi_spectra.squeeze.h0_transform_residual`.
    """
    if n_dim < 4:
        raise ValueError("n_dim must be at least 4")
    fock = np.arange(n_dim)
    signs = (-1.0) ** (fock // 2)
    h = np.diag(fock + branch.sign * (params.delta / 2.0) * signs)
    nf = fock[:-2].astype(float)
    off2 = params.g * np.sqrt((nf + 1.0) * (nf + 2.0))
    h[fock[:-2], fock[2:]] = off2
    h[fock[2:], fock[:-2]] = off2
    return h
