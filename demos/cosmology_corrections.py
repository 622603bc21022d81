"""Isotropic cosmology: moment corrections to the collapse equations.

The model Hamiltonian -3 c^2 sqrt(p) / (gamma^2 kappa) + E generates a
classical collapse; second-order moments add correction terms to the
(c, p) equations.  This script prints the correction series extracted
from the direct bracket flow for a range of volumes, then integrates a
collapsing trajectory with back-reaction until the moment growth stops
the run, demonstrating the flagged partial trajectory and its stop cause.
"""

from momentflow import (
    CosmologyParams,
    SemiclassicalState,
    cosmology_effective_rhs,
    cosmology_hamiltonian,
    cosmology_moments,
    expand_quantum_hamiltonian,
    generate_eom,
    integrate,
)

params = CosmologyParams(g0=1e-3, g32=0.0, g3=1e-3, hbar=1e-4)

print("relative correction to cdot from the bracket flow (c = -0.3):")
print(f"  {'p':>8s} {'cdot/classical - 1':>20s}")
for p in (1.0, 4.0, 16.0, 64.0):
    out = cosmology_effective_rhs(params, -0.3, p)
    rel = out["cdot_direct"] / (out["cdot_classical"] / 2.0) - 1.0
    print(f"  {p:8.1f} {rel:20.3e}")

# collapse with visible back-reaction: the n = 2 moments grow toward the
# small-p region and eventually make the integration fail; the trajectory
# up to that point is still returned, flagged incomplete
strong = CosmologyParams(g0=1.0, g32=0.0, g3=1.0, hbar=1.0)
model = cosmology_hamiltonian(gamma=1.0, kappa=1.0, E=1.0)
system = generate_eom(expand_quantum_hamiltonian(model, 2))
c0, p0 = -0.5, 1.0
s0 = SemiclassicalState(1.0, {"c": c0, "p": p0}, cosmology_moments(strong, c0, p0), 2)

traj = integrate(system, s0, (0.0, 50.0))
print(f"\ncollapse run from p = {p0}: stopped at t = {traj.stats['t_stop']:.3f} "
      f"({traj.stats.get('stop_cause', 'reached t1')})")
print(f"the trajectory keeps the {traj.t.size} samples before that, complete={traj.complete}")
