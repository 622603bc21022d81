"""Quartic oscillator: quantum back-reaction as a position-dependent mass.

The adiabatic expansion closes the second-moment sector in terms of
(q, qdot, qddot) and turns the moment back-reaction into a corrected
Newton equation m_eff(q) qddot + B(q) qdot^2 + F_q(q) = 0.  This script
tabulates the corrected coefficients, then compares the corrected
trajectory and the bare classical one against exact quantum evolution.
"""

import math

import numpy as np

from momentflow import (
    AdiabaticConfig,
    ClassicalHamiltonian,
    PotentialSpec,
    effective_coefficients,
    solve_effective,
)
from momentflow import oracle as orc
from momentflow.dynamics import dormand_prince

DELTA, HBAR = 0.1, 1.0
model = ClassicalHamiltonian(potential=PotentialSpec.quartic(DELTA))
cfg = AdiabaticConfig()

print("effective coefficients, delta = 0.1, m = w = hbar = 1:")
print(f"  {'q':>4s} {'m_eff - m':>12s} {'B':>12s} {'F_q - F_cl':>12s}")
for q in (0.0, 0.5, 1.0, 1.5, 2.0):
    co = effective_coefficients(q, cfg, model, HBAR)
    f_cl = q + model.potential.derivative(q, 1)
    print(f"  {q:4.1f} {co.m_eff - 1:12.5e} {co.B:12.5e} {co.F_q - f_cl:12.5e}")

# exact <q>(t) from a truncated Fock basis
space = orc.FockSpace(120, 1.0, 1.0, HBAR)
vac = np.zeros(120, dtype=complex)
vac[0] = 1.0
psi0 = orc.displacement((1.0, 0.0), space) @ vac
Hop = (
    space.p1 @ space.p1 / 2
    + space.q1 @ space.q1 / 2
    + (DELTA / 24.0) * np.linalg.matrix_power(space.q1, 4)
)
prop = orc.Propagator(Hop, HBAR)

T = 2 * 2 * math.pi
ts = np.linspace(0.0, T, 121)
q_exact = np.array([orc.moments_of(prop(psi0, t), space, 2).x["q"] for t in ts])

corrected = solve_effective(cfg, model, HBAR, 1.0, 0.0, (0.0, T), n_samples=121)
classical = dormand_prince(
    lambda y: np.array([y[1], -(y[0] + model.potential.derivative(y[0], 1))]),
    [1.0, 0.0], ts, rtol=1e-11, atol=1e-13,
)

err_corr = np.max(np.abs(corrected.column("q") - q_exact))
err_cl = np.max(np.abs(classical.y[:, 0] - q_exact))
print(f"\nmax <q> error over two periods:")
print(f"  corrected Newton equation {err_corr:.4f}")
print(f"  bare classical equation   {err_cl:.4f}")
print(f"  improvement factor        {err_cl / err_corr:.1f}x")
