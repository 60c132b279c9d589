"""Coherence minimization end to end, with the optimality certificate.

Premultiplying a frame by a nonsingular G changes nothing about the linear
system but can shrink the largest normalized inner product.  The search over
all G with G Phi unit-norm is a semidefinite program in X = G^T G; this demo
solves it, extracts G, inspects the duals, and cross-checks the certificate
that decides whether any strict improvement was possible at all.
"""

import numpy as np

from framecond import conic, frames
from framecond.precondition import certificate_feasibility, kkt_residuals, solve_coherence

settings = conic.SolverSettings(gap_tol=1e-8, feas_tol=1e-8)

print("=== a frame that cannot be improved ===")
mb = frames.mercedes_benz_frame()
result = solve_coherence(mb, settings)
print(f"coherence {result.coherence_before:.4f} -> {result.q:.4f} (already at the Welch bound)")
cert = certificate_feasibility(mb)
print(f"certificate system feasible: {cert.feasible} "
      f"(max violation {cert.max_violation:.1e}) -> identity is optimal")

print()
print("=== a frame that improves strictly ===")
gauss = frames.random_gaussian_frame(8, 16, seed=3)
result = solve_coherence(gauss, settings)
print(f"coherence {result.coherence_before:.4f} -> {result.q:.4f} "
      f"(welch bound {frames.welch_bound(8, 16):.4f})")
print(f"recomputed from the factor: mu(G Phi) = {result.verified_coherence:.6f}")
print(f"condition number kappa(G) = {result.condition_number:.2f}")
cert = certificate_feasibility(gauss)
print(f"certificate system feasible: {cert.feasible} -> strict improvement exists, as found")

print()
print("=== the optimum is a genuine KKT point ===")
solution = solve_coherence(gauss, settings).solution
residuals = kkt_residuals(gauss, solution)
print(f"stationarity product       : {residuals.stationarity:.2e}")
print(f"slack complementarity (+/-): {residuals.pos_complementarity:.2e}, "
      f"{residuals.neg_complementarity:.2e}")
print(f"multiplier normalization   : {residuals.normalization:.2e}")
z_ii = -solution.y[np.arange(gauss.n_vectors)]
print(f"q* = {solution.q:.8f} vs -sum(z_ii) = {-z_ii.sum():.8f}")

print()
print("=== the active pairs carry the dual certificate ===")
print(f"pairs at +q: {result.active_pos}")
print(f"pairs at -q: {result.active_neg}")
gram = (result.G @ gauss.matrix).T @ (result.G @ gauss.matrix)
values = [gram[i, j] for i, j in result.active_pos] + [gram[i, j] for i, j in result.active_neg]
print("their Gram entries:", np.round(values, 5))
