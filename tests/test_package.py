"""Package surface: the names re-exported from the modules' ``__all__`` lists."""

import rabi_spectra
from rabi_spectra import eigensolve, model, perturb, polys, squeeze

# Every name the package exported by hand before it re-exported the modules'
# __all__ lists (BandedMatrix is gone: the full-branch matrix is a dense array),
# and the public names added since.
FROZEN = {
    "AsymValue", "AsymptoticBreakdown", "Branch", "ChainSelector", "ConvergenceError",
    "DegenerateGapError", "DomainError", "ModelParams", "Parity", "PhaseSpec", "PolyValue",
    "Spectrum", "SpectrumModel", "SymTriMatrix", "TurningPointError", "build_chain",
    "build_full_branch", "converged_levels", "delta_n", "derive_params",
    "eigenvalues_bisection", "eigenvalues_dense", "factorization_residual",
    "h0_transform_residual", "hyper_f", "k_norm_sq", "k_norm_sq_tail", "p_asym",
    "p_asym_parts", "p_asym_remainder", "p_exact", "p_fast", "p_fast_parts", "phase_integral",
    "residual_study", "row_tail_mass", "second_order", "second_order_tail", "squeeze_generator",
    "sturm_count", "three_term", "u_element", "u_matrix_oracle", "uvu_residual", "v_tilde",
    "v_tilde_diag_asym", "v_tilde_row",
}


def test_exports_keep_frozen_names_once():
    names = rabi_spectra.__all__
    assert len(names) == len(set(names))
    assert FROZEN <= set(names), sorted(FROZEN - set(names))


def test_each_export_is_its_module_object():
    modules = (eigensolve, model, perturb, polys, squeeze)
    for name in rabi_spectra.__all__:
        (owner,) = [m for m in modules if name in m.__all__]
        assert getattr(rabi_spectra, name) is getattr(owner, name), name
