"""Harmonic oscillator: the truncated moment system is exact.

For quadratic Hamiltonians the moment hierarchy decouples order by order,
so a coherent state's moments are constant and (q, p) follow the classical
ellipse.  This script integrates the n_max = 4 system for ten periods and
prints the drift against the closed-form values and against a truncated
Fock-basis reference evolution.
"""

import math

import numpy as np

from momentflow import (
    ClassicalHamiltonian,
    ConstantMomentEmbedding,
    coherent_tilde_moment,
    expand_quantum_hamiltonian,
    from_dimensionless,
    generate_eom,
    integrate,
    moment_vars,
)
from momentflow import oracle as orc

M = W = HBAR = 1.0
N_MAX = 4

model = ClassicalHamiltonian(m=M, omega=W)
system = generate_eom(expand_quantum_hamiltonian(model, N_MAX))
s0 = ConstantMomentEmbedding.coherent(model).state(1.0, 0.0, HBAR, N_MAX)

T = 10 * 2 * math.pi / W
traj = integrate(system, s0, (0.0, T), n_samples=401, rtol=1e-12, atol=1e-14)

print("drift of each moment from its constant value over 10 periods:")
for idx in moment_vars(N_MAX):
    a, n = idx.p_power, idx.order
    ref = from_dimensionless(coherent_tilde_moment(a, n), a, n, M, W, HBAR)
    drift = np.max(np.abs(traj.column(str(idx)) - ref))
    print(f"  {str(idx):8s} {drift:.3e}")

err_q = np.max(np.abs(traj.column("q") - np.cos(W * traj.t)))
print(f"(q, p) error vs classical solution: {err_q:.3e}")

# cross-check the final state against exact quantum evolution
space = orc.FockSpace(60, M, W, HBAR)
vac = np.zeros(60, dtype=complex)
vac[0] = 1.0
psi = orc.Propagator(space.p1 @ space.p1 / 2 + space.q1 @ space.q1 / 2, HBAR)(
    orc.displacement((1.0, 0.0), space) @ vac, T
)
st = orc.moments_of(psi, space, N_MAX)
worst = max(
    abs(st.moment(idx) - traj.y[-1][traj.labels.index(str(idx))])
    for idx in moment_vars(N_MAX)
)
print(f"final-time disagreement with the Fock-basis reference: {worst:.3e}")
