"""Adiabatic moment corrections, effective Newton coefficients, and the
identities tying them together."""

import math

import numpy as np
import pytest

import adiabatic_invariants as inv
from momentflow import adiabatic as adi
from momentflow.errors import AdiabaticBreakdownError, ConfigError, RangeError
from momentflow.hamiltonian import (
    ClassicalHamiltonian,
    PotentialSpec,
    expand_quantum_hamiltonian,
    from_dimensionless,
    generate_eom,
)


def _quartic_model(delta=0.1, m=1.0, w=1.0):
    return ClassicalHamiltonian(m=m, omega=w, potential=PotentialSpec.quartic(delta))


# -- configuration -----------------------------------------------------------


def test_config_validation():
    adi.AdiabaticConfig()  # defaults fine
    with pytest.raises(ConfigError):
        adi.AdiabaticConfig(e=3)
    with pytest.raises(ConfigError):
        adi.AdiabaticConfig(C2=0.0)


def test_config_constants():
    cfg = adi.AdiabaticConfig(C2=0.7, Cn={4: 1.1})
    assert cfg.constant(2) == 0.7
    assert cfg.constant(4) == 1.1
    # unset higher orders fall back to vacuum values
    assert cfg.constant(6) == pytest.approx(math.factorial(6) / (2**6 * 6))


# -- leading order -----------------------------------------------------------


def test_g0_vacuum_values():
    cfg = adi.AdiabaticConfig()
    H = ClassicalHamiltonian()  # u = 0
    assert adi.g0_moments(0.3, 2, 0, cfg, H) == pytest.approx(0.5)
    assert adi.g0_moments(0.3, 2, 2, cfg, H) == pytest.approx(0.5)
    assert adi.g0_moments(0.3, 4, 0, cfg, H) == pytest.approx(0.75)
    assert adi.g0_moments(0.3, 4, 2, cfg, H) == pytest.approx(0.25)
    assert adi.g0_moments(0.3, 2, 1, cfg, H) == 0.0
    assert adi.g0_moments(0.3, 3, 0, cfg, H) == 0.0


def test_g0_dressing_exponent():
    cfg = adi.AdiabaticConfig()
    H = _quartic_model(0.4)
    q = 1.2
    u = H.potential.derivative(q, 2) / (H.m * H.omega**2)
    assert adi.g0_moments(q, 2, 0, cfg, H) == pytest.approx(0.5 * (1 + u) ** -0.5)
    assert adi.g0_moments(q, 2, 2, cfg, H) == pytest.approx(0.5 * (1 + u) ** 0.5)
    assert adi.g0_moments(q, 4, 4, cfg, H) == pytest.approx(0.75 * (1 + u) ** 1.0)


def test_g0_index_checks():
    cfg = adi.AdiabaticConfig()
    H = ClassicalHamiltonian()
    with pytest.raises(RangeError):
        adi.g0_moments(0.0, 2, 3, cfg, H)
    with pytest.raises(RangeError):
        adi.g0_moments(0.0, 1, 0, cfg, H)


def test_breakdown_raises():
    # U'' = -m w^2 at the origin kills 1 + u
    pot = PotentialSpec(coefficients=[0.0, 0.0, -0.5])
    H = ClassicalHamiltonian(potential=pot)
    cfg = adi.AdiabaticConfig()
    with pytest.raises(AdiabaticBreakdownError):
        adi.g0_moments(0.0, 2, 0, cfg, H)


def test_g0_time_derivative_finite_difference():
    cfg = adi.AdiabaticConfig(C2=0.8)
    H = _quartic_model(0.3)
    q, qdot = 0.9, 0.4
    for n, a in [(2, 0), (2, 2), (4, 2), (6, 4)]:
        h = 1e-5
        fd = (
            adi.g0_moments(q + h, n, a, cfg, H) - adi.g0_moments(q - h, n, a, cfg, H)
        ) / (2 * h) * qdot
        assert adi.g0_time_derivative(q, qdot, n, a, cfg, H) == pytest.approx(fd, rel=1e-8)


# -- correction identities ---------------------------------------------------


def test_ladder_residual_vanishes():
    cfg = adi.AdiabaticConfig()
    H = _quartic_model(0.25)
    for q, qdot, qddot in [(0.7, 0.3, -0.2), (1.4, -0.6, 0.1)]:
        for order in (1, 2):
            res = inv.ladder_residual(q, qdot, qddot, order, cfg, H)
            assert np.max(np.abs(res)) < 1e-10
    with pytest.raises(RangeError):
        inv.ladder_residual(0.5, 0.0, 0.0, 3, cfg, H)


def test_ladder_residual_nonvacuum_constant():
    cfg = adi.AdiabaticConfig(C2=0.9)
    H = _quartic_model(0.4)
    for order in (1, 2):
        res = inv.ladder_residual(1.1, 0.5, -0.3, order, cfg, H)
        assert np.max(np.abs(res)) < 1e-10


def test_lemma_constraint_residual_vanishes():
    cfg = adi.AdiabaticConfig(C2=0.6, Cn={4: 0.9, 6: 2.0})
    H = _quartic_model(0.35)
    for n in (2, 4, 6):
        assert abs(inv.lemma_constraint_residual(0.8, 0.5, n, cfg, H)) < 1e-12


def test_g2_compact_equals_expanded():
    H = _quartic_model(0.3)
    for C2 in (0.5, 0.9):
        cfg = adi.AdiabaticConfig(C2=C2)
        for q, qdot, qddot in [(0.6, 0.2, -0.1), (1.3, -0.4, 0.3)]:
            a = adi.g2_correction(q, qdot, qddot, cfg, H)
            b = inv.g2_correction_expanded(q, qdot, qddot, cfg, H)
            assert a == pytest.approx(b, rel=1e-12)


# -- effective coefficients --------------------------------------------------


def test_classical_limit():
    cfg = adi.AdiabaticConfig()
    H = _quartic_model(0.2)
    co = adi.effective_coefficients(0.8, cfg, H, hbar=0.0)
    assert co.m_eff == H.m
    assert co.B == 0.0
    assert co.F_q == pytest.approx(
        H.m * H.omega**2 * 0.8 + H.potential.derivative(0.8, 1)
    )


def test_force_correction_derivative_identity():
    # the hbar piece of F_q must be d/dq of C2 hbar w sqrt(1+u) / (m w^2)
    # times m w^2, i.e. d/dq [C2 hbar w sqrt(1+u)]
    H = _quartic_model(0.3)
    hbar = 0.7
    for C2 in (0.5, 0.8):
        cfg = adi.AdiabaticConfig(C2=C2)
        q = 1.1
        co = adi.effective_coefficients(q, cfg, H, hbar)
        classical = H.m * H.omega**2 * q + H.potential.derivative(q, 1)
        h = 1e-6

        def energy(qq):
            u = H.potential.derivative(qq, 2) / (H.m * H.omega**2)
            return C2 * hbar * H.omega * math.sqrt(1 + u)

        fd = (energy(q + h) - energy(q - h)) / (2 * h)
        assert co.F_q - classical == pytest.approx(fd, rel=1e-8)


def test_coefficients_c2_scaling():
    H = _quartic_model(0.4)
    hbar, q = 0.5, 0.9
    base = adi.effective_coefficients(q, adi.AdiabaticConfig(), H, hbar)
    scaled = adi.effective_coefficients(q, adi.AdiabaticConfig(C2=1.0), H, hbar)
    # mass and qdot^2 corrections scale as C2^3, the force correction as C2
    assert scaled.m_eff - H.m == pytest.approx(8 * (base.m_eff - H.m), rel=1e-12)
    assert scaled.B == pytest.approx(8 * base.B, rel=1e-12)
    cl = H.m * H.omega**2 * q + H.potential.derivative(q, 1)
    assert scaled.F_q - cl == pytest.approx(2 * (base.F_q - cl), rel=1e-12)


def test_coefficient_values_quartic():
    # recorded values at q = 1 for delta = 0.1, m = w = hbar = 1, C2 = 1/2
    co = adi.effective_coefficients(1.0, adi.AdiabaticConfig(), _quartic_model(0.1), 1.0)
    u = 0.05
    assert co.m_eff == pytest.approx(1 + 0.01 / (32 * (1 + u) ** 2.5), rel=1e-12)
    assert co.B == pytest.approx(
        (4 * 0.1 * 0.1 * (1 + u) - 5 * 0.001) / (128 * (1 + u) ** 3.5), rel=1e-12
    )
    assert co.F_q == pytest.approx(
        1 + 0.1 / 6 + 0.5 * 0.1 / (2 * math.sqrt(1 + u)), rel=1e-12
    )


def test_newton_equation_matches_compiled_system():
    # m_eff qddot + B qdot^2 + F_q must reproduce pdot of the n = 2 moment
    # system evaluated on the embedded adiabatic state
    H = _quartic_model(0.1)
    hbar = 1.0
    system = generate_eom(expand_quantum_hamiltonian(H, 2))
    emb = adi.AdiabaticEmbedding(H)
    for q, p in [(1.0, 0.0), (0.5, 0.4), (1.5, -0.7)]:
        st = emb.state(q, p, hbar, 2)
        vals = dict(zip(system.labels(), system.compile(hbar)(system.pack(st))))
        qdot = p / H.m
        qdd = adi._qddot(q, qdot, adi.AdiabaticConfig(), H, hbar)
        assert vals["p"] == pytest.approx(H.m * qdd, rel=1e-12, abs=1e-12)


# -- trajectory solver -------------------------------------------------------


def test_solve_effective_harmonic_is_classical():
    H = ClassicalHamiltonian(m=1.0, omega=1.3)
    traj = adi.solve_effective(adi.AdiabaticConfig(), H, 1.0, 1.0, 0.0, (0.0, 4.0))
    assert traj.complete
    assert np.allclose(traj.column("q"), np.cos(1.3 * traj.t), atol=1e-8)
    # moments stay at the dressed (here plain) vacuum values
    assert np.allclose(traj.column("G_0_2"), 1.0 / 2.6, atol=1e-10)
    assert np.allclose(traj.column("G_1_2"), 0.0, atol=1e-10)


def test_solve_effective_quartic_moments_move():
    traj = adi.solve_effective(
        adi.AdiabaticConfig(), _quartic_model(0.1), 1.0, 1.0, 0.0, (0.0, 6.0)
    )
    assert traj.complete
    g02 = traj.column("G_0_2")
    assert g02.max() - g02.min() > 1e-3
    assert np.ptp(traj.column("G_1_2")) > 1e-4


def test_solve_effective_honours_the_adiabatic_order():
    # the order e sets which corrections the moments carry, not the
    # trajectory: e = 0 is the leading order, e = 1 adds G1 to G_1_2 only,
    # and e = 2 adds G2 to G_0_2 and G_2_2
    H = _quartic_model(0.1)
    runs = {e: adi.solve_effective(adi.AdiabaticConfig(e=e), H, 1.0, 1.0, 0.3, (0.0, 3.0),
                                   n_samples=31) for e in (0, 1, 2)}
    lead = runs[0]
    for e, traj in runs.items():
        assert traj.complete and traj.meta["e"] == e
        assert np.array_equal(traj.y[:, :2], lead.y[:, :2])
    assert np.all(lead.column("G_1_2") == 0.0)
    g0 = [from_dimensionless(adi.g0_moments(q, 2, 0, adi.AdiabaticConfig(), H), 0, 2, 1.0, 1.0, 1.0)
          for q in lead.column("q")]
    assert np.array_equal(lead.column("G_0_2"), g0)
    for label, changed in (("G_0_2", False), ("G_1_2", True), ("G_2_2", False)):
        assert np.array_equal(runs[1].column(label), lead.column(label)) != changed
    for label, changed in (("G_0_2", True), ("G_1_2", False), ("G_2_2", True)):
        assert np.array_equal(runs[2].column(label), runs[1].column(label)) != changed


def test_solve_effective_breakdown_incomplete():
    # cubic potential: U'' crosses -m w^2 at q = 5/6 and the motion runs
    # through it at nearly classical speed for small hbar
    pot = PotentialSpec(coefficients=[0.0, 0.0, 0.0, -0.2])
    H = ClassicalHamiltonian(potential=pot)
    traj = adi.solve_effective(adi.AdiabaticConfig(), H, 1e-6, 0.2, 1.2, (0.0, 10.0))
    assert not traj.complete
    assert traj.t[-1] < 10.0
    assert traj.column("q").max() <= 5.0 / 6.0 + 1e-6
