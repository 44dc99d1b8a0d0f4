"""Verify the squeeze-operator algebra numerically.

U(lam) = exp(lam (a^2 - a+^2)) diagonalizes the quadratic part of the model
when tanh(4 lam) = 2g.  Two independent constructions are compared once
per coupling on the certified 64x64 block of a 256-dimensional truncation:
the closed-form matrix elements of the normal-ordered factorization
(u_element; factorization_residual fills the block with the same closed form,
taking the polynomial factors column by column from their exact three-term
relation, equal to u_element's Horner sums where those are exact) and the
matrix exponential.  The diagonalization is checked on the same block as the
eigen-equation H0 U = U D.
"""

import math

import numpy as np

from rabi_spectra import (
    derive_params,
    factorization_residual,
    h0_transform_residual,
    u_element,
    u_matrix_oracle,
    uvu_residual,
)

g = 0.3
params = derive_params(g, 1.0)
lam = params.lam
print(f"g = {g}: lam = {lam:.12f}, tanh(4 lam) = {math.tanh(4 * lam):.12f} (= 2g)")

print("\nvacuum amplitude (U e_0, e_0) two ways:")
print(f"  closed form      : {u_element(0, 0, lam):.15f}")
print(f"  1/sqrt(cosh 2lam): {1 / math.sqrt(math.cosh(2 * lam)):.15f}")

oracle = u_matrix_oracle(256, lam)
gram = oracle.T @ oracle - np.eye(256)
print("\nmatrix exponential, whole 256x256 truncation:")
print(f"  orthogonality residual = {np.abs(gram).max():.3e}")

print("\nnormal-ordered factorization U = e^(-gamma a+^2) e^(beta(a+a+1/2)) e^(gamma a^2):")
print("closed-form elements vs matrix exponential on the 64x64 block:")
for gv in (0.1, 0.3, 0.45):
    lv = derive_params(gv, 1.0).lam
    print(f"  g = {gv:4}: max |difference| = {factorization_residual(256, lv):.3e}")

print("\nH0 U = U D, D = diag(omega(n + 1/2) - 1/2), on the 64x64 block:")
for gv in (0.1, 0.3, 0.45):
    print(f"  g = {gv:4}: residual = {h0_transform_residual(256, gv):.3e}")

print("\nU V U = V for the periodic branch diagonal (delta = 1):")
for gv in (0.1, 0.3, 0.45):
    lv = derive_params(gv, 1.0).lam
    print(f"  g = {gv:4}: residual = {uvu_residual(256, lv, 1.0):.3e}")
