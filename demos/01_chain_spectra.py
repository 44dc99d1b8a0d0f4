"""Build the decoupled parity chains and certify their low-lying spectra.

The two-photon Rabi Hamiltonian splits into four symmetric tridiagonal Fock
chains (branch sign x index parity).  This demo derives the squeeze
constants from the couplings, diagonalizes one chain two independent ways,
and certifies the infinite-chain levels from one truncation with a posteriori
bounds.  At delta = 0 the model is exactly solvable, which anchors everything.
"""

import numpy as np

from rabi_spectra import (
    Branch,
    ChainSelector,
    Parity,
    build_chain,
    converged_levels,
    derive_params,
    eigenvalues_bisection,
    eigenvalues_dense,
)

params = derive_params(g=0.2, delta=1.0)
print("derived constants for g = 0.2, delta = 1:")
print(f"  omega  = sqrt(1 - 4g^2)   = {params.omega:.15f}")
print(f"  lam    = artanh(2g)/4     = {params.lam:.15f}")
print(f"  gamma  = tanh(2 lam)/2    = {params.gamma:.15f}")
print(f"  beta   = -ln cosh(2 lam)  = {params.beta:.15f}")
print(f"  A      = arctan(omega/2g) = {params.a_phase:.15f}")

chain = ChainSelector(Branch.PLUS, Parity.EVEN)
tri = build_chain(params, chain, 48)
print("\nplus/even chain, truncated at 48 sites (Fock indices 0, 2, ..., 94):")
print(f"  diag starts {tri.diag[:4]}")
print(f"  off  starts {tri.off[:4]}")

bis = eigenvalues_bisection(tri, 1e-12).values
dense = eigenvalues_dense(tri.to_dense()).values
print(f"  lowest five (Sturm bisection): {bis[:5]}")
print(f"  lowest five (LAPACK eigvalsh): {dense[:5]}")
print(f"  max |bisection - LAPACK| = {np.abs(bis - dense).max():.3e}")

print("\ntruncation certificate (10 levels, tol 1e-10):")
spectrum = converged_levels(params, chain, 10, 1e-10)
print(f"  certified at chain dimension {spectrum.truncation_dim} ({spectrum.path})")
print(f"  values: {spectrum.values}")
print(f"  largest bound: {spectrum.bounds.max():.3e}")

print("\nexact-solvability anchor at delta = 0:")
p0 = derive_params(g=0.2, delta=0.0)
s0 = converged_levels(p0, chain, 8, 1e-10)
exact = p0.omega * (2 * np.arange(8) + 0.5) - 0.5
print(f"  certified - omega(n + 1/2) + 1/2 = {np.abs(s0.values - exact).max():.3e}")
