"""Spectral analysis of the two-photon quantum Rabi model.

The library computes eigenvalues of the two-photon Rabi Hamiltonian by
truncated-matrix diagonalization and independently reconstructs them from
closed-form squeeze-operator matrix elements, polynomial asymptotics, and
the three-term large-n eigenvalue formula, quantifying the proven O(ln n/n)
residual decay and emitting (without asserting) the conjectured O(1/n) one.
"""

from .eigensolve import (
    ConvergenceError,
    Spectrum,
    converged_levels,
    eigenvalues_bisection,
    eigenvalues_dense,
    sturm_count,
)
from .model import (
    BandedMatrix,
    Branch,
    ChainSelector,
    DomainError,
    ModelParams,
    Parity,
    SymTriMatrix,
    build_chain,
    build_full_branch,
    derive_params,
)
from .perturb import (
    AsymptoticBreakdown,
    DegenerateGapError,
    SpectrumModel,
    delta_n,
    k_norm_sq,
    k_norm_sq_tail,
    residual_study,
    row_tail_mass,
    second_order,
    second_order_tail,
    three_term,
    v_tilde,
    v_tilde_diag_asym,
    v_tilde_row,
)
from .polys import (
    AsymValue,
    PhaseSpec,
    PolyValue,
    TurningPointError,
    hyper_f,
    p_asym,
    p_asym_parts,
    p_exact,
    p_fast,
    p_fast_parts,
    phase_integral,
)
from .squeeze import (
    factorization_residual,
    h0_transform_residual,
    squeeze_generator,
    u_element,
    u_matrix_oracle,
    uvu_residual,
)

__version__ = "0.1.0"

__all__ = [
    "AsymValue",
    "AsymptoticBreakdown",
    "BandedMatrix",
    "Branch",
    "ChainSelector",
    "ConvergenceError",
    "DegenerateGapError",
    "DomainError",
    "ModelParams",
    "Parity",
    "PhaseSpec",
    "PolyValue",
    "Spectrum",
    "SpectrumModel",
    "SymTriMatrix",
    "TurningPointError",
    "build_chain",
    "build_full_branch",
    "converged_levels",
    "delta_n",
    "derive_params",
    "eigenvalues_bisection",
    "eigenvalues_dense",
    "factorization_residual",
    "h0_transform_residual",
    "hyper_f",
    "k_norm_sq",
    "k_norm_sq_tail",
    "p_asym",
    "p_asym_parts",
    "p_exact",
    "p_fast",
    "p_fast_parts",
    "phase_integral",
    "residual_study",
    "row_tail_mass",
    "second_order",
    "second_order_tail",
    "squeeze_generator",
    "sturm_count",
    "three_term",
    "u_element",
    "u_matrix_oracle",
    "uvu_residual",
    "v_tilde",
    "v_tilde_diag_asym",
    "v_tilde_row",
]
