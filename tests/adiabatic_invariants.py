"""Closed-form identities of the adiabatic expansion that only the tests
check: a second, expanded form of the G(0, 2) correction, the lemma
constraint on the leading-order moments and the ladder relation between
successive corrections.  The package computes none of these itself."""

import math

import numpy as np

from momentflow.adiabatic import (
    AdiabaticConfig,
    AdiabaticEmbedding,
    _checked_u,
    g0_time_derivative,
    g1_correction,
    g2_correction,
    g2_pp_correction,
)
from momentflow.errors import RangeError
from momentflow.hamiltonian import ClassicalHamiltonian


def g2_correction_expanded(q: float, qdot: float, qddot: float, config: AdiabaticConfig, H: ClassicalHamiltonian) -> float:
    """Equivalent expanded form in potential derivatives, scaled from the
    vacuum display by (C2 / (1/2))^3."""
    u = _checked_u(q, H, 0)[0]
    m, w = H.m, H.omega
    U3 = H.potential.derivative(q, 3)
    U4 = H.potential.derivative(q, 4)
    vac = ((1 + u) ** -3.5 / (4 * w**2)) * (
        (1 + u) * (U3 * qddot + U4 * qdot**2) / (4 * m * w**2)
        - 5 * (U3 * qdot / (4 * m * w**2)) ** 2
    )
    return (config.C2 / 0.5) ** 3 * vac


def lemma_constraint_residual(q: float, qdot: float, n: int, config: AdiabaticConfig, H: ClassicalHamiltonian) -> float:
    """sum_{a even} (n/2 choose a/2) (1+u)^{(n-a)/2} d/dt G0(a, n); vanishes
    identically for the adiabatic leading-order solution."""
    u = _checked_u(q, H, 0)[0]
    total = 0.0
    for a in range(0, n + 1, 2):
        total += (
            math.comb(n // 2, a // 2)
            * (1 + u) ** ((n - a) / 2.0)
            * g0_time_derivative(q, qdot, n, a, config, H)
        )
    return total


def ladder_residual(q: float, qdot: float, qddot: float, order: int, config: AdiabaticConfig, H: ClassicalHamiltonian) -> np.ndarray:
    """A(G_order) - d/dt G_{order-1} for the n = 2 sector, componentwise in
    a = 0, 1, 2, where A(G)^a = w((2-a) G^{a+1} - a (1+u) G^{a-1}).
    Zero for the implemented orders 1 and 2."""
    if order not in (1, 2):
        raise RangeError("ladder implemented for orders 1 and 2")
    u = _checked_u(q, H, 0)[0]
    w = H.omega

    if order == 1:
        G = [0.0, g1_correction(qdot, q, config, H), 0.0]
        Gdot_prev = [g0_time_derivative(q, qdot, 2, a, config, H) for a in range(3)]
    else:
        G = [
            g2_correction(q, qdot, qddot, config, H),
            0.0,
            g2_pp_correction(q, qdot, qddot, config, H),
        ]
        emb = AdiabaticEmbedding(H, config)
        g1d = emb._g1_time_derivative(q, qdot, qddot)
        Gdot_prev = [0.0, g1d, 0.0]

    res = np.empty(3)
    for a in range(3):
        up_term = (2 - a) * G[a + 1] if a + 1 <= 2 else 0.0
        dn_term = a * (1 + u) * G[a - 1] if a - 1 >= 0 else 0.0
        res[a] = w * (up_term - dn_term) - Gdot_prev[a]
    return res
