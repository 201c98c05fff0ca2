"""The 2-to-2 to colouring reduction at full desk scale.

Takes the reduced magic-square instance (24 vertices, alphabet 4), expands
each vertex by all 256 strings over four colours, and joins strings whose
permuted blocks are disjoint — the support of the certified transition
matrix. The quantum strategy pushes through the faithful-template transfer
and the canonical colouring of the glued target, giving a perfect quantum
4-colouring of the 6144-vertex digraph on the same 4-dimensional space.

Runs in about ten seconds, including the exact sweep of all 1,254,528
forbidden products (about 2 s: it decides each distinct family tuple once).
"""

import time

from chromagap import colouring, dkkms, qop
from chromagap.relstruct import clique

system, assignment = qop.mermin_peres()
rho2 = dkkms.build_rho2(dkkms.build_rho1(system, 1, 2))
_, transferred = dkkms.rho_quantum_transfer(system, 1, 2, assignment, rho1=rho2)

t0 = time.perf_counter()
eta, coloured, ctx = colouring.eta_quantum_transfer(rho2.instance, transferred, 0)
print(f"reduced digraph: {len(eta.domain)} vertices, "
      f"{len(eta.relations['E'])} edges ({time.perf_counter() - t0:.0f}s)")
print("colouring dimension:", coloured.dim)

t0 = time.perf_counter()
report = qop.verify_assignment(eta, clique(4), coloured, 0)
print(f"verification ({time.perf_counter() - t0:.0f}s):", report.summary())
