"""The polynomial family behind the matrix elements, three ways.

P_n^{(s)}(x) is evaluated exactly (rational arithmetic), in floating point
with a switch to the exact integer sum when the double sum cancels, and
through its large-index asymptotic form (envelope times cos/sin of a phase
integral, which has a closed form).  The demo shows the catastrophic
cancellation that motivates the switch and the O(1/(n+m)) decay of the
asymptotic remainder.
"""

import math
from fractions import Fraction

from rabi_spectra import (
    PhaseSpec,
    derive_params,
    hyper_f,
    p_asym_parts,
    p_exact,
    p_fast_parts,
    phase_integral,
)

params = derive_params(0.2, 1.0)
x = params.omega / (2 * params.g)
print(f"model evaluation point x = omega/(2g) = {x:.12f}")

print("\nterminating hypergeometric identity (exact rational check, n=m=6):")
n_h = m_h = 6
lhs = p_exact(12, 0, Fraction(7, 3))
rhs = (
    (-1) ** n_h
    * Fraction(math.factorial(12), math.factorial(6) ** 2)
    * hyper_f(n_h, m_h, Fraction(1, 2), -Fraction(7, 3) ** 2)
)
print(f"  P_12 - identity rhs = {lhs - rhs} (exact zero)")

print("\ncancellation of the alternating sum at the model point:")
for n in (50, 100, 200, 400):
    parts = p_fast_parts(n, 0, x)
    note = "exact integer sum" if parts.escalated else "double"
    print(
        f"  degree {n:4}: condition {parts.condition:9.2e} -> {note}; "
        f"log|P| = {parts.log_abs:10.3f}"
    )

print("\nphase integral at s = 0 against its special case y = lambda arctan sinh t:")
spec = PhaseSpec(s=0, lambda_hat=40.0, t_max=1.2)
closed = 40.0 * math.atan(math.sinh(1.2))
print(f"  phase_integral {phase_integral(spec):.14f} vs arctan form {closed:.14f}")

print("\nenvelope-normalized remainder of the asymptotic form at x:")
for n_full in (100, 200, 400, 800):
    ref = p_fast_parts(n_full, 0, x)
    asym = p_asym_parts(n_full, n_full, x)
    resid = abs(
        ref.sign * math.exp(ref.log_abs - asym.log_envelope)
        - asym.sign * math.exp(asym.log_abs - asym.log_envelope)
    )
    print(f"  size {2 * n_full:4}: residual {resid:.3e}, residual*(n+m) = {resid * 2 * n_full:.3f}")
print("  (the scaled column stays bounded: the remainder is O(1/(n+m)))")
