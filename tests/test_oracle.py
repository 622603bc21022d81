"""Truncated-basis oracle tests: operator construction, evolution,
moment extraction, bracket oracle, and Hamburger reconstruction."""

import functools
import gc
import itertools
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracle_reference as per_call
from momentflow import oracle as orc
from momentflow.errors import CapacityError, DomainError, RangeError, ReconstructionError, StateError
from momentflow.hamiltonian import (
    CLOSURES,
    ClassicalHamiltonian,
    PotentialSpec,
    expand_quantum_hamiltonian,
    generate_eom,
)
from momentflow.moment_algebra import (
    MomentIndex,
    MomentPolynomial,
    bracket_general,
    bracket_moments,
    check_uncertainty_order2,
    moment_indices,
    moment_vars,
)


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

    assert np.isclose(orc.bracket_oracle("q0", "p0", psi, space), 1.0)
    assert np.isclose(orc.bracket_oracle("q1", "p1", psi, space), 1.0)
    assert abs(orc.bracket_oracle("q0", "p1", psi, space)) < 1e-12


@pytest.mark.filterwarnings("ignore:D=16 is small")
def test_bracket_oracle_reads_the_coordinate_names(rng):
    # each classical coordinate has one name, the one moments_of writes:
    # "q1" is mode 1's position, and a name of no coordinate is an error
    # (once "q1" read as mode 0 and any name but "q" as a momentum)
    space = orc.FockSpace(16, dof=2)
    psi = _kron_state(rng, 16, 7)
    assert set(orc.moments_of(psi, space, 2).x) == {"q0", "p0", "q1", "p1"}
    assert np.isclose(orc.bracket_oracle("q1", "p1", psi, space), 1.0)
    assert np.isclose(orc.bracket_oracle("p1", "q1", psi, space), -1.0)
    for bad in ("x", "q", ("q", 0)):
        with pytest.raises(RangeError, match=re.escape(repr(bad))):
            orc.bracket_oracle(bad, "q0", psi, space)
    with pytest.raises(RangeError, match="'q0'"):
        orc.bracket_oracle(G(0, 2), "q0", orc.random_state(rng, 20, support=5), orc.FockSpace(20))


@pytest.mark.filterwarnings("ignore:D=16 is small")
def test_bracket_oracle_refuses_a_moment_of_another_dof(rng):
    # a 1-DOF index on a 2-DOF space once died with IndexError, and a 2-DOF
    # index on a 1-DOF space dropped its second mode: {G_2_0_0_0, G_0_0_0_2}
    # read about 1e-16 on FockSpace(20)
    space2, psi2 = orc.FockSpace(16, dof=2), _kron_state(rng, 16, 7)
    with pytest.raises(RangeError, match="G_0_2 is a 1-DOF moment, not one of a 2-DOF space"):
        orc.bracket_oracle(G(0, 2), "q0", psi2, space2)
    with pytest.raises(RangeError, match="G_0_2 is a 1-DOF"):
        orc.bracket_oracle(MomentIndex((1, 0), (0, 1)), G(0, 2), psi2, space2)
    space1, psi1 = orc.FockSpace(20), orc.random_state(rng, 20, support=5)
    for i1, i2 in [(MomentIndex((2, 0), (0, 0)), MomentIndex((0, 0), (0, 2))),
                   (G(0, 2), MomentIndex((0, 0), (0, 2)))]:
        with pytest.raises(RangeError, match="is a 2-DOF moment, not one of a 1-DOF space"):
            orc.bracket_oracle(i1, i2, psi1, space1)


def _kron_state(rng, D, support):
    """An entangled two-mode state, as A1 draws them."""
    parts = [orc.random_state(rng, D, support=support) for _ in range(4)]
    psi = np.kron(parts[0], parts[1]) + 0.5 * np.kron(parts[2], parts[3])
    return psi / np.linalg.norm(psi)


def _assert_same_moments(psi, space, order):
    st, want = orc.moments_of(psi, space, order), per_call.moments_of(psi, space, order)
    assert (st.hbar, st.n_max, st.x, st.moments) == (want.hbar, want.n_max, want.x, want.moments)


def _assert_same_bracket(i1, i2, psi, space):
    assert orc.bracket_oracle(i1, i2, psi, space) == per_call.bracket_oracle(i1, i2, psi, space)


@pytest.mark.filterwarnings("ignore:D=16 is small")
@pytest.mark.parametrize("dof", [1, 2])
def test_state_table_equals_per_call_reference(dof):
    # the per-state table returns the floats that recomputing every Weyl
    # vector, gradient and commutator matrix per call gives, bit for bit:
    # two states alternating on one space, moments_of before and after
    # bracket_oracle, and psi changed in place between calls
    rng = np.random.default_rng(70 + dof)
    if dof == 1:
        space, order = orc.FockSpace(60), 6
        a, b = (orc.random_state(rng, 60, support=20) for _ in range(2))
        labels = [G(0, 2), G(1, 3), G(2, 4), G(4, 4), "q", "p"]
    else:
        space, order = orc.FockSpace(16, dof=2), 4
        a, b = (_kron_state(rng, 16, 7) for _ in range(2))
        labels = [MomentIndex((2, 0), (0, 0)), MomentIndex((1, 0), (0, 1)),
                  MomentIndex((1, 1), (1, 0)), MomentIndex((0, 0), (0, 3)), "q0", "p1"]
    _assert_same_moments(a, space, order)
    for i1 in labels:
        for i2 in labels:
            for psi in (a, b):
                _assert_same_bracket(i1, i2, psi, space)
    for psi in (a, b):
        _assert_same_moments(psi, space, order)

    psi = a.copy()
    for step in range(3):
        for i1, i2 in zip(labels, labels[::-1]):
            _assert_same_bracket(i1, i2, psi, space)
        _assert_same_moments(psi, space, 2)
        psi[step] += 0.25 - 0.5j  # in place: the space must not serve the old table


@pytest.mark.filterwarnings("ignore:D=16 is small")
@pytest.mark.parametrize("dof", [1, 2])
def test_commutator_matrix_agrees_with_pairwise_entries(dof):
    # the matrix form against one np.vdot per commutator entry and the
    # double loop over the gradients, on every pair a <= b of moment and
    # coordinate labels; the scale is the largest Cauchy-Schwarz bound of
    # a term, which the largest term reaches where the bracket does not
    # cancel, and which stays the round-off scale where it vanishes
    rng = np.random.default_rng(80 + dof)
    if dof == 1:
        space, psi = orc.FockSpace(60), orc.random_state(rng, 60, support=20)
        labels = [*moment_vars(4, 1), "q", "p"]
    else:
        space, psi = orc.FockSpace(16, dof=2), _kron_state(rng, 16, 7)
        labels = [*moment_vars(3, 2)[::2], "q0", "p0", "q1", "p1"]
    for a, i1 in enumerate(labels):
        for i2 in labels[a:]:
            terms, bounds = per_call.bracket_terms_pairwise(i1, i2, psi, space)
            got = orc.bracket_oracle(i1, i2, psi, space)
            assert abs(got - sum(terms, 0.0)) <= 1e-12 * max(bounds), (i1, i2)


@pytest.mark.filterwarnings("ignore:D=16 is small")
@pytest.mark.parametrize("dof", [1, 2])
def test_bracket_oracle_does_not_depend_on_what_the_table_holds(dof):
    # each pair's float is the same whether it is asked first, after
    # moments_of at a higher order, or after a pair of a higher order: the
    # commutator matrix of order n is built from the keys of orders 1..n
    # alone, since the leading block of a larger one differs in round-off
    rng = np.random.default_rng(90 + dof)
    if dof == 1:
        make, psi, top = (lambda: orc.FockSpace(60)), orc.random_state(rng, 60, support=20), 6
        labels, higher = [*moment_vars(4, 1), "q", "p"], (G(0, 5), "q")
    else:
        make, psi, top = (lambda: orc.FockSpace(16, dof=2)), _kron_state(rng, 16, 7), 4
        labels, higher = [*moment_vars(3, 2)[::2], "q0", "p1"], (MomentIndex((2, 0), (1, 1)), "p0")
    pairs = [(i1, i2) for a, i1 in enumerate(labels) for i2 in labels[a:]]
    first = [orc.bracket_oracle(i1, i2, psi, make()) for i1, i2 in pairs]
    space = make()
    orc.moments_of(psi, space, top)
    after_moments = [orc.bracket_oracle(i1, i2, psi, space) for i1, i2 in pairs]
    space = make()
    orc.bracket_oracle(*higher, psi, space)
    after_higher = [orc.bracket_oracle(i1, i2, psi, space) for i1, i2 in pairs]
    assert first == after_moments == after_higher


def test_fock_space_is_freed_without_the_cycle_collector(rng):
    space = orc.FockSpace(20)
    psi = orc.random_state(rng, 20, support=5)
    orc.moments_of(psi, space, 2)
    orc.bracket_oracle(G(0, 2), "p", psi, space)
    alive = weakref.ref(space)
    gc.disable()
    try:
        del space
        assert alive() is None
    finally:
        gc.enable()


#: spaces and labels of the bracket property test: every index to order 5
#: at 1 DOF and to order 3 at 2 DOF, and classical labels
_PROPERTY_SPACES = {1: orc.FockSpace(80), 2: orc.FockSpace(16, dof=2)}
_PROPERTY_LABELS = {1: [*moment_vars(5, 1), "q", "p"],
                    2: [*moment_vars(3, 2), "q0", "p1", "q1"]}
#: the canonical pairs of the classical labels, by DOF
_PROPERTY_PAIRS = {1: (("q", "p"),), 2: (("q0", "p0"), ("q1", "p1"))}


@functools.lru_cache(maxsize=None)
def _property_state(dof, seed):
    """A seeded random state and its moments up to the order its brackets
    reach.  The 1-DOF support of 10 keeps the order-8 moments of the state
    modest, so that the oracle's round-off on a bracket that vanishes
    identically stays below A1's absolute floor of 1e-10."""
    rng = np.random.default_rng(seed)
    if dof == 1:
        psi = orc.random_state(rng, 80, support=10)
        return psi, orc.moments_of(psi, _PROPERTY_SPACES[1], 8)
    psi = _kron_state(rng, 16, 7)
    return psi, orc.moments_of(psi, _PROPERTY_SPACES[2], 4)


def _algebra_bracket(dof, i1, i2):
    if isinstance(i1, MomentIndex) and isinstance(i2, MomentIndex):
        return bracket_moments(i1, i2)
    P, Q = (MomentPolynomial.moment(i) if isinstance(i, MomentIndex) else MomentPolynomial.x_var(i)
            for i in (i1, i2))
    return bracket_general(P, Q, _PROPERTY_PAIRS[dof])


@pytest.mark.filterwarnings("ignore:D=16 is small")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2]).flatmap(lambda dof: st.tuples(
    st.just(dof), st.integers(0, 7),
    st.sampled_from(_PROPERTY_LABELS[dof]), st.sampled_from(_PROPERTY_LABELS[dof]))))
@example((1, 0, G(5, 5), G(0, 5)))
@example((1, 1, G(0, 4), G(0, 5)))
@example((1, 2, "p", G(2, 5)))
@example((1, 3, "q", "p"))
@example((2, 1, "p1", "q1"))
@example((2, 0, "p1", MomentIndex((0, 1), (2, 0))))
def test_bracket_moments_matches_oracle_beyond_A1(case):
    dof, seed, i1, i2 = case
    psi, state = _property_state(dof, seed)
    space = _PROPERTY_SPACES[dof]
    exact = orc.bracket_oracle(i1, i2, psi, space)
    tol = 1e-10 + 1e-8 * abs(exact) if abs(exact) > 1e-6 else 1e-10
    assert abs(_algebra_bracket(dof, i1, i2).evaluate(state) - exact) < tol
    assert abs(orc.bracket_oracle(i2, i1, psi, space) + exact) < tol


#: polynomial potentials U(q) = sum c_k q^k on top of the harmonic part,
#: and the degree d of H: the equation of an order-n variable holds no
#: moment above n + d - 2, so orders n <= n_max - d + 2 are closure free
_RATE_POTENTIALS = {"harmonic": ([0.0], 2), "quartic": ([0.0, 0.0, 0.0, 0.0, 0.3 / 24], 4),
                    "cubic+quartic": ([0.0, 0.0, 0.0, 0.1, 0.05], 4),
                    "sextic": ([0.0, 0.0, 0.0, 0.0, 0.02, 0.0, 0.01], 6)}
_RATE_D = 60


@functools.lru_cache(maxsize=None)
def _rate_space(name, hbar):
    """The Fock space at hbar and the Hamiltonian matrix of a potential."""
    space = orc.FockSpace(_RATE_D, hbar=hbar)
    q, p = space.q1, space.p1
    H = p @ p / 2 + q @ q / 2
    for k, c in enumerate(_RATE_POTENTIALS[name][0]):
        if c:
            H = H + c * np.linalg.matrix_power(q, k)
    return space, H


@functools.lru_cache(maxsize=None)
def _rate_system(name, n_max, closure):
    model = ClassicalHamiltonian(potential=PotentialSpec(coefficients=_RATE_POTENTIALS[name][0]))
    return generate_eom(expand_quantum_hamiltonian(model, n_max), closure)


@st.composite
def _rate_case(draw):
    name = draw(st.sampled_from(sorted(_RATE_POTENTIALS)))
    d = _RATE_POTENTIALS[name][1]
    n_max = draw(st.integers(d, 10))
    # a random state leaves n_max + d + a few levels free; a squeezed one is Gaussian
    state = draw(st.one_of(st.integers(4, _RATE_D - n_max - d - 2),
                           st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                                     st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))))
    return (name, n_max, draw(st.sampled_from(CLOSURES)), draw(st.sampled_from([0.6, 1.0, 1.7])),
            state, draw(st.integers(0, 99)))


@pytest.mark.filterwarnings("ignore:D=60 is small")
@settings(max_examples=16, deadline=None, derandomize=True)
@given(_rate_case())
@example(("sextic", 10, "gaussian-factorize", 1.7, (0.2, -0.1, 0.3, 0.5, -0.4), 0))
@example(("quartic", 8, "zero", 0.6, 30, 1))
@example(("cubic+quartic", 6, "gaussian-factorize", 1.7, 12, 2))
def test_generated_equations_are_the_exact_heisenberg_rates(case):
    # the paper's central claim: for a polynomial H of degree d, the H_Q flow
    # of every order n <= n_max - d + 2 is the exact Heisenberg rate under
    # either closure, at any state.  At a Gaussian state the Gaussian closure
    # is exact, so there every order is.  Elsewhere a higher order must
    # differ, or the comparison would show nothing
    name, n_max, closure, hbar, state, seed = case
    space, H = _rate_space(name, hbar)
    if isinstance(state, int):
        psi, gaussian = orc.random_state(np.random.default_rng(seed), _RATE_D, support=state), False
    else:
        a, b, c, q0, p0 = state
        psi, gaussian = orc.squeezed(np.array([[a, b], [b, c]]), (q0, p0), space), True
    system = _rate_system(name, n_max, closure)
    y = system.pack(orc.moments_of(psi, space, n_max))
    got = dict(zip(system.variables, system.compile(hbar)(y)))
    exact = orc.rates_of(psi, space, H, n_max)
    assert set(exact) == set(got)
    top = n_max if gaussian and closure == "gaussian-factorize" else n_max - _RATE_POTENTIALS[name][1] + 2
    off = {}
    for var, rate in exact.items():
        order = 1 if isinstance(var, str) else var.order
        off[var] = abs(got[var] - rate) / max(1.0, abs(rate))
        if order <= top:
            assert off[var] < 1e-10, (var, got[var], rate)
    if top < n_max:
        assert max(off.values()) > 1e-6


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


def test_exponential_of_an_overflowed_generator_is_a_domain_error(space50):
    # eigh does not converge on an inf or nan matrix; the oracle says why
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError, match="finite"):
        orc.displacement((1.7976931348623157e308, 0.0), space50)


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
