"""Truncated-basis oracle tests: operator construction, evolution,
moment extraction, bracket oracle, and Hamburger reconstruction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from momentflow import oracle as orc
from momentflow.errors import CapacityError, ReconstructionError, StateError
from momentflow.moment_algebra import MomentIndex, check_uncertainty_order2, moment_indices


def G(a, n):
    return MomentIndex.single(a, n)


def _vacuum(D):
    psi = np.zeros(D, dtype=complex)
    psi[0] = 1.0
    return psi


# -- operators --------------------------------------------------------------


def test_fock_ops_basic():
    hbar, m, w = 0.8, 1.5, 2.0
    q, p = orc.fock_ops(32, m, w, hbar)
    assert np.allclose(q, q.conj().T)
    assert np.allclose(p, p.conj().T)
    vac = _vacuum(32)
    assert abs(vac @ q @ vac) < 1e-14
    assert np.isclose((vac @ q @ q @ vac).real, hbar / (2 * m * w))
    comm = q @ p - p @ q
    inner = comm[:-2, :-2]
    assert np.allclose(inner, 1j * hbar * np.eye(30), atol=1e-12)


def test_fock_ops_min_dimension():
    with pytest.raises(CapacityError):
        orc.fock_ops(4, 1.0, 1.0, 1.0)


def _ordering_average(j, k, q, p):
    """Weyl-ordered q^j p^k as the plain average over all C(j + k, j)
    placements of the q factors."""
    orderings = list(itertools.combinations(range(j + k), j))
    total = np.zeros(q.shape, dtype=complex)
    for qslots in orderings:
        acc = np.eye(q.shape[0], dtype=complex)
        for pos in range(j + k):
            acc = acc @ (q if pos in qslots else p)
        total += acc
    return total / len(orderings)


def _assert_weyl_matches_ordering_average(space, j, k):
    W = space.weyl(j, k)
    assert np.array_equal(W, W.conj().T)
    # the cutoff pollutes the last j + k rows and columns
    b = space.D - (j + k)
    ref = _ordering_average(j, k, space.q1, space.p1)[:b, :b]
    assert np.allclose(W[:b, :b], ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_weyl_op_symmetrization(space50):
    for n in range(9):
        for j in range(n + 1):
            _assert_weyl_matches_ordering_average(space50, j, n - j)
            # the cached table takes the same Jordan steps as weyl_op
            assert np.array_equal(space50.weyl(j, n - j), orc.weyl_op(j, n - j, space50.q1, space50.p1))


def test_weyl_beyond_order_8():
    _assert_weyl_matches_ordering_average(orc.FockSpace(20), 5, 5)


# -- evolution --------------------------------------------------------------


def test_evolve_identity_and_period():
    D, hbar = 60, 1.0
    space = orc.FockSpace(D, 1.0, 1.0, hbar)
    H = space.p1 @ space.p1 / 2 + space.q1 @ space.q1 / 2
    psi0 = orc.coherent(1.2 + 0.3j, D)
    prop = orc.Propagator(H, hbar)
    assert np.allclose(prop(psi0, 0.0), psi0)
    psiT = prop(psi0, 2 * np.pi)
    assert abs(abs(np.vdot(psi0, psiT)) - 1) < 1e-10
    assert abs(np.linalg.norm(psiT) - 1) < 1e-12


def test_evolve_energy_conserved(rng):
    D = 60
    space = orc.FockSpace(D)
    H = space.p1 @ space.p1 / 2 + space.q1 @ space.q1 / 2 \
        + 0.02 * np.linalg.matrix_power(space.q1, 4)
    psi0 = orc.random_state(rng, D)
    prop = orc.Propagator(H, 1.0)
    e0 = (psi0.conj() @ H @ psi0).real
    for t in (0.7, 3.1):
        psi = prop(psi0, t)
        assert abs((psi.conj() @ H @ psi).real - e0) < 1e-10


def test_propagator_rejects_nonhermitian():
    with pytest.raises(StateError):
        orc.Propagator(np.array([[0.0, 1.0], [0.0, 0.0]]))


# -- moments ----------------------------------------------------------------


def test_moments_ground_state():
    hbar, m, w = 0.9, 1.3, 0.7
    space = orc.FockSpace(40, m, w, hbar)
    st = orc.moments_of(_vacuum(40), space, 2)
    assert np.isclose(st.G(0, 2), hbar / (2 * m * w))
    assert abs(st.G(1, 2)) < 1e-14
    assert np.isclose(st.G(2, 2), hbar * m * w / 2)


def test_moments_coherent_displaced(space50):
    psi = orc.displacement((0.8, -0.4), space50) @ _vacuum(50)
    st = orc.moments_of(psi, space50, 4)
    assert np.isclose(st.x["q"], 0.8) and np.isclose(st.x["p"], -0.4)
    vac = orc.moments_of(_vacuum(50), space50, 4)
    for n in (2, 3, 4):
        for a in range(n + 1):
            assert abs(st.G(a, n) - vac.G(a, n)) < 1e-12


def test_moments_number_state(space50):
    psi = np.zeros(50, dtype=complex)
    psi[1] = 1.0
    st = orc.moments_of(psi, space50, 2)
    # with m = w = hbar = 1 the dimensionless and dimensionful values agree
    assert np.isclose(st.G(0, 2), 1.5)


def test_moments_pass_uncertainty(rng, space50):
    for _ in range(5):
        psi = orc.random_state(rng, 50)
        st = orc.moments_of(psi, space50, 2)
        assert check_uncertainty_order2(st) >= -1e-12


def _centred_moments(psi, space, up_to_n):
    """Reference: the classical point and every central moment from centred
    operators, weyl_op(j, k, q - <q>, p - <p>) per mode."""
    x, centred = {}, []
    for f in range(space.dof):
        mats = [None] * space.dof
        mats[f] = space.q1
        qbar = np.vdot(psi, space.apply_modes(mats, psi)).real
        mats[f] = space.p1
        pbar = np.vdot(psi, space.apply_modes(mats, psi)).real
        x["q" if space.dof == 1 else f"q{f}"] = qbar
        x["p" if space.dof == 1 else f"p{f}"] = pbar
        centred.append((space.q1 - qbar * np.eye(space.D), space.p1 - pbar * np.eye(space.D)))
    moments = {}
    for n in range(2, up_to_n + 1):
        for idx in moment_indices(n, space.dof):
            mats = [
                None if j + k == 0 else orc.weyl_op(j, k, *centred[f])
                for f, (j, k) in enumerate(zip(idx.q_powers, idx.p_powers))
            ]
            moments[idx] = np.vdot(psi, space.apply_modes(mats, psi)).real
    return x, moments


def _assert_moments_match_centred(psi, space, up_to_n):
    st = orc.moments_of(psi, space, up_to_n)
    x, moments = _centred_moments(psi, space, up_to_n)
    assert list(st.x) == list(x) and st.moments.keys() == moments.keys()
    assert all(abs(st.x[v] - x[v]) <= 1e-14 * (1 + abs(x[v])) for v in x)
    # round-off scale of an order-n moment: (|<q>| + sd q)^j (|<p>| + sd p)^k per mode
    width = []
    for f in range(space.dof):
        sq = [0] * space.dof
        sq[f] = 2
        sd_q = math.sqrt(moments[MomentIndex(tuple(sq), (0,) * space.dof)])
        sd_p = math.sqrt(moments[MomentIndex((0,) * space.dof, tuple(sq))])
        names = ("q", "p") if space.dof == 1 else (f"q{f}", f"p{f}")
        width.append((abs(x[names[0]]) + sd_q, abs(x[names[1]]) + sd_p))
    for idx, ref in moments.items():
        scale = math.prod(
            width[f][0] ** j * width[f][1] ** k
            for f, (j, k) in enumerate(zip(idx.q_powers, idx.p_powers))
        )
        assert abs(st.moments[idx] - ref) <= 1e-13 * scale, idx


def test_moments_of_matches_centred_operators():
    local = np.random.default_rng(8)
    space = orc.FockSpace(80, 1.3, 0.8, 0.9)
    for _ in range(3):
        psi = orc.random_state(local, 80)
        psi = orc.displacement(local.uniform(-1, 1, size=2), space) @ psi
        _assert_moments_match_centred(psi, space, 8)


@pytest.mark.filterwarnings("ignore:D=16 is small")
def test_moments_of_matches_centred_operators_two_modes():
    local = np.random.default_rng(9)
    D = 16
    space = orc.FockSpace(D, dof=2)
    for _ in range(3):
        parts = [orc.random_state(local, D, support=5) for _ in range(4)]
        psi = np.kron(parts[0], parts[1]) + 0.5 * np.kron(parts[2], parts[3])
        _assert_moments_match_centred(psi / np.linalg.norm(psi), space, 4)


def test_moments_truncation_robust(rng):
    psi_small = orc.random_state(np.random.default_rng(5), 60, support=15)
    big = np.zeros(120, dtype=complex)
    big[:60] = psi_small
    st1 = orc.moments_of(psi_small, orc.FockSpace(60), 4)
    st2 = orc.moments_of(big, orc.FockSpace(120), 4)
    for n in (2, 3, 4):
        for a in range(n + 1):
            assert abs(st1.G(a, n) - st2.G(a, n)) < 1e-9


# -- bracket oracle ---------------------------------------------------------


def test_bracket_oracle_canonical(rng, space50):
    psi = orc.random_state(rng, 50)
    st = orc.moments_of(psi, space50, 2)
    assert np.isclose(orc.bracket_oracle(G(0, 2), G(2, 2), psi, space50), 4 * st.G(1, 2))
    assert abs(orc.bracket_oracle("q", G(0, 2), psi, space50)) < 1e-12
    assert np.isclose(orc.bracket_oracle("q", "p", psi, space50), 1.0)


def test_bracket_oracle_antisymmetric(rng, space50):
    psi = orc.random_state(rng, 50)
    for i1, i2 in [(G(0, 2), G(1, 3)), (G(2, 2), G(0, 4))]:
        a = orc.bracket_oracle(i1, i2, psi, space50)
        b = orc.bracket_oracle(i2, i1, psi, space50)
        assert abs(a + b) < 1e-9


@pytest.mark.filterwarnings("ignore:D=10 is small")
def test_two_mode_per_mode_application():
    D = 10
    space = orc.FockSpace(D, dof=2)
    local = np.random.default_rng(3)
    parts = [orc.random_state(local, D, support=4) for _ in range(4)]
    psi = np.kron(parts[0], parts[1]) + 0.5 * np.kron(parts[2], parts[3])
    psi /= np.linalg.norm(psi)
    for powers in [((1, 0), (0, 0)), ((0, 0), (0, 1)), ((2, 1), (1, 1)), ((0, 2), (3, 0))]:
        ref = np.kron(space.weyl(*powers[0]), space.weyl(*powers[1])) @ psi
        assert np.allclose(space.apply_weyl(powers, psi), ref, rtol=0, atol=1e-12)

    st = orc.moments_of(psi, space, 2)
    q0 = np.kron(space.q1, np.eye(D))
    p1 = np.kron(np.eye(D), space.p1)
    assert np.isclose(st.x["q0"], (psi.conj() @ q0 @ psi).real)
    assert np.isclose(st.x["p1"], (psi.conj() @ p1 @ psi).real)
    qc = space.q1 - st.x["q0"] * np.eye(D)
    pc = space.p1 - st.x["p1"] * np.eye(D)
    ref = np.kron(qc, pc) @ psi  # G with q-power 1 on mode 0, p-power 1 on mode 1
    assert np.isclose(st.moment(MomentIndex((1, 0), (0, 1))), (psi.conj() @ ref).real)

    assert np.isclose(orc.bracket_oracle(("q", 0), ("p", 0), psi, space), 1.0)
    assert np.isclose(orc.bracket_oracle(("q", 1), ("p", 1), psi, space), 1.0)
    assert abs(orc.bracket_oracle(("q", 0), ("p", 1), psi, space)) < 1e-12


# -- state factories --------------------------------------------------------


def test_coherent_zero_is_vacuum():
    psi = orc.coherent(0.0, 30)
    assert np.isclose(abs(psi[0]), 1.0)


def test_coherent_tail_guard():
    with pytest.raises(CapacityError):
        orc.coherent(6.0, 20)


def test_squeezed_zero_is_coherent(space50):
    psi = orc.squeezed(np.zeros((2, 2)), (0.5, 0.1), space50)
    ref = orc.displacement((0.5, 0.1), space50) @ _vacuum(50)
    assert abs(abs(np.vdot(psi, ref)) - 1) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.floats(0.5, 2.0), st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_exponentials_match_expm(q0, p0, m, w, hbar, gs, a0, a1):
    def dist(a, b):  # a scalar, so that a failure does not print the arrays
        return float(np.max(np.abs(a - b)))

    D = 60
    space = orc.FockSpace(D, m, w, hbar)
    q, p = space.q1, space.p1
    disp = expm((1j / hbar) * (p0 * q - q0 * p))
    assert dist(orc.displacement((q0, p0), space), disp) <= 1e-12
    # the displaced vacuum is the oracle's closed-form coherent state
    alpha = complex(q0 * math.sqrt(m * w / (2 * hbar)), p0 / math.sqrt(2 * hbar * m * w))
    assert dist(orc.displacement((q0, p0), space) @ _vacuum(D), orc.coherent(alpha, D)) <= 1e-14

    g = np.array([[gs[0], gs[1]], [gs[1], gs[2]]])
    xs = [q - q0 * np.eye(D), p - p0 * np.eye(D)]
    quad = sum(g[i, j] * (xs[i] @ xs[j]) for i in range(2) for j in range(2))
    want = expm((1j / (2 * hbar)) * quad) @ disp @ _vacuum(D)
    psi = orc.squeezed(g, (q0, p0), space)
    assert dist(psi, want / np.linalg.norm(want)) <= 1e-12

    # D(alpha) is centred at the state's own mean, not at the squeeze point
    x = orc.moments_of(psi, space, 1).x
    gen = a0 * (q - x["q"] * np.eye(D)) + a1 * (p - x["p"] * np.eye(D))
    prov = orc.OracleDProvider(psi, space)
    assert dist(prov.D([a0, a1]), np.vdot(psi, expm(gen) @ psi).real) <= 1e-12


# -- Hamburger reconstruction ----------------------------------------------


def _gaussian_moments(order):
    # <q^l> for the ground state, m = w = hbar = 1: (l-1)!! / 2^{l/2}
    a = []
    for l in range(order + 1):
        if l % 2:
            a.append(0.0)
        else:
            k = l // 2
            a.append(float(np.prod(np.arange(1, l, 2))) / 2**k if l else 1.0)
    return a


def test_hamburger_density_ground_state():
    order = 12
    dens = orc.hamburger_density(_gaussian_moments(order), order)
    qs = np.linspace(-3, 3, 61)
    assert np.max(np.abs(dens(qs) - np.exp(-qs**2) / np.sqrt(np.pi))) < 1e-6


def test_hamburger_density_needs_enough_moments():
    with pytest.raises(ReconstructionError):
        orc.hamburger_density([1.0, 0.0], 4)


def test_hamburger_phase_real_wave_function():
    order = 8
    a = _gaussian_moments(order)
    dens = orc.hamburger_density(a, order)
    # real Psi: b_n = <q^n p> = i (n/2) a_{n-1} exactly, so m_n = 0
    b = [0.5j * n * (a[n - 1] if n else 0.0) for n in range(order + 1)]
    grad = orc.hamburger_phase(b, a, dens, order)
    qs = np.linspace(-1.5, 1.5, 21)
    assert np.max(np.abs(grad(qs))) < 1e-10


def test_hamburger_phase_plane_wave():
    order, p0, hbar = 8, 0.7, 1.0
    a = _gaussian_moments(order)
    dens = orc.hamburger_density(a, order)
    # e^{i p0 q / hbar} factor shifts <q^n p> by p0 <q^n>
    b = [p0 * a[n] + 0.5j * hbar * n * (a[n - 1] if n else 0.0) for n in range(order + 1)]
    grad = orc.hamburger_phase(b, a, dens, order, hbar)
    qs = np.linspace(-1.2, 1.2, 13)
    assert np.max(np.abs(grad(qs) - p0 / hbar)) < 1e-6


def test_hamburger_phase_rejects_inconsistent():
    order = 4
    a = _gaussian_moments(order)
    dens = orc.hamburger_density(a, order)
    b = [1.0j] * (order + 1)  # wildly complex where it must be real
    with pytest.raises(ReconstructionError):
        orc.hamburger_phase(b, a, dens, order)


# -- characteristic-function provider ---------------------------------------


def test_oracle_dprovider_matches_gaussian(space50):
    from momentflow.moment_algebra import GaussianDProvider

    psi = _vacuum(50)
    oprov = orc.OracleDProvider(psi, space50)
    st = orc.moments_of(psi, space50, 2)
    cov = np.array([[st.G(0, 2), st.G(1, 2)], [st.G(1, 2), st.G(2, 2)]])
    gprov = GaussianDProvider(cov, 1.0)
    for alpha in ([0.3, 0.1], [-0.2, 0.4]):
        assert np.isclose(oprov.D(np.array(alpha)), gprov.D(np.array(alpha)), atol=1e-10)
