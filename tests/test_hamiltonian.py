"""Hamiltonian expansion, closure, and generated moment ODE structure."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import fold_reference as fold
from fold_reference import exact_items
from momentflow import moment_algebra
from momentflow.errors import ConfigError, DomainError
from momentflow.hamiltonian import (
    ClassicalHamiltonian,
    EquationSystem,
    Hamiltonian,
    PotentialSpec,
    cosmology_hamiltonian,
    closure_apply,
    expand_quantum_hamiltonian,
    from_dimensionless,
    generate_eom,
    to_dimensionless,
)
from momentflow.moment_algebra import (
    MomentIndex,
    MomentPolynomial,
    SemiclassicalState,
    moment_indices,
)
from momentflow.dynamics import coherent_tilde_moment, integrate


def G(a, n):
    return MomentIndex.single(a, n)


# -- potentials --------------------------------------------------------------


def test_potential_polynomial_derivatives():
    pot = PotentialSpec.quartic(0.6)
    assert pot(2.0) == pytest.approx(0.6 / 24.0 * 16.0)
    assert pot.derivative(2.0, 3) == pytest.approx(0.6 * 2.0)
    assert pot.derivative(1.5, 4) == pytest.approx(0.6)
    assert pot.derivative(1.5, 5) == 0.0
    assert PotentialSpec.zero()(3.0) == 0.0


# -- classical Hamiltonians --------------------------------------------------


def test_classical_hamiltonian_validation():
    with pytest.raises(ConfigError):
        ClassicalHamiltonian(m=-1.0)
    with pytest.raises(ConfigError, match="underflows"):
        cosmology_hamiltonian(gamma=1e-200, kappa=1e-200)


def test_cosmology_polynomial_value():
    H = cosmology_hamiltonian(gamma=0.8, kappa=1.3, E=0.4)
    st = SemiclassicalState(1.0, {"c": 0.5, "p": 2.0}, {}, 2)
    expected = -3.0 * 0.25 * math.sqrt(2.0) / (0.8**2 * 1.3) + 0.4
    assert H.poly.evaluate(st) == pytest.approx(expected)
    assert H.bracket_scale == pytest.approx(0.8 * 1.3 / 3.0)


# -- quantum expansion -------------------------------------------------------


def test_expand_rejects_small_order():
    with pytest.raises(ConfigError):
        expand_quantum_hamiltonian(ClassicalHamiltonian(), 1)


def test_expand_harmonic_energy():
    m, w, hbar = 1.4, 0.9, 0.7
    H = ClassicalHamiltonian(m=m, omega=w)
    HQ = expand_quantum_hamiltonian(H, 2)
    moments = {
        G(a, 2): from_dimensionless(coherent_tilde_moment(a, 2), a, 2, m, w, hbar)
        for a in range(3)
    }
    st = SemiclassicalState(hbar, {"q": 0.3, "p": -0.2}, moments, 2)
    classical = 0.2**2 / (2 * m) + 0.5 * m * w**2 * 0.3**2
    # vacuum-shaped moments add the ground state energy hbar w / 2
    assert HQ.evaluate(st) == pytest.approx(classical + hbar * w / 2)


def test_expand_quartic_term_content():
    H = ClassicalHamiltonian(potential=PotentialSpec.quartic(1.0))
    HQ = expand_quantum_hamiltonian(H, 4)
    idxs = HQ.poly.moment_indices()
    assert G(0, 3) in idxs and G(0, 4) in idxs
    assert max(i.order for i in idxs) == 4


# -- closure -----------------------------------------------------------------


def test_closure_zero_policy():
    assert closure_apply("zero", G(0, 5)).is_zero()


def test_closure_gaussian_pairings():
    # G(0,4) -> 3 G(0,2)^2
    repl = closure_apply("gaussian-factorize", G(0, 4))
    expected = MomentPolynomial.term(3, gs=(G(0, 2), G(0, 2)))
    assert repl == expected
    # G(2,4) -> G(0,2) G(2,2) + 2 G(1,2)^2
    repl = closure_apply("gaussian-factorize", G(2, 4))
    expected = MomentPolynomial.term(1, gs=(G(0, 2), G(2, 2))) + MomentPolynomial.term(
        2, gs=(G(1, 2), G(1, 2))
    )
    assert repl == expected


def test_closure_odd_order_vanishes():
    assert closure_apply("gaussian-factorize", G(1, 5)).is_zero()


def test_closure_unknown_policy():
    with pytest.raises(ConfigError):
        closure_apply("mean-field", G(0, 4))


# -- generated equations -----------------------------------------------------


def _harmonic_system(n_max=2, m=1.0, w=1.0):
    H = ClassicalHamiltonian(m=m, omega=w)
    return generate_eom(expand_quantum_hamiltonian(H, n_max))


def test_harmonic_rhs_structure():
    m, w = 2.0, 1.5
    sys2 = _harmonic_system(2, m, w)
    assert sys2.rhs["q"] == MomentPolynomial.term(1.0 / m, x={"p": 1})
    assert sys2.rhs["p"] == MomentPolynomial.term(-m * w**2, x={"q": 1})
    assert sys2.rhs[G(0, 2)] == MomentPolynomial.term(2.0 / m, gs=(G(1, 2),))
    assert sys2.rhs[G(1, 2)] == (
        MomentPolynomial.term(1.0 / m, gs=(G(2, 2),))
        + MomentPolynomial.term(-m * w**2, gs=(G(0, 2),))
    )
    assert sys2.rhs[G(2, 2)] == MomentPolynomial.term(-2.0 * m * w**2, gs=(G(1, 2),))


def test_harmonic_structure_probes():
    sys3 = _harmonic_system(3)
    assert sys3.classical_backreaction_free()
    assert sys3.block_diagonal()


def test_quartic_structure_probes():
    H = ClassicalHamiltonian(potential=PotentialSpec.quartic(0.5))
    sys3 = generate_eom(expand_quantum_hamiltonian(H, 3))
    assert not sys3.classical_backreaction_free()
    assert not sys3.block_diagonal()


def test_quartic_pdot_value():
    delta, m, w = 0.4, 1.2, 0.8
    H = ClassicalHamiltonian(m=m, omega=w, potential=PotentialSpec.quartic(delta))
    system = generate_eom(expand_quantum_hamiltonian(H, 3))
    hbar = 1.0
    moments = {G(a, n): 0.1 * (a + 1) / n for n in (2, 3) for a in range(n + 1)}
    st = SemiclassicalState(hbar, {"q": 0.7, "p": 0.1}, moments, 3)
    q = 0.7
    u1 = delta * q**3 / 6.0
    u3 = delta * q
    expected = -(m * w**2 * q + u1 + 0.5 * u3 * st.G(0, 2) + delta / 6.0 * st.G(0, 3))
    assert system.rhs["p"].evaluate(st) == pytest.approx(expected, rel=1e-12)


def test_compile_matches_symbolic(rng):
    delta = 0.3
    H = ClassicalHamiltonian(m=1.1, omega=0.9, potential=PotentialSpec.quartic(delta))
    system = generate_eom(expand_quantum_hamiltonian(H, 3), closure="gaussian-factorize")
    hbar = 0.6
    rhs = system.compile(hbar)
    for _ in range(3):
        moments = {g: float(rng.normal(scale=0.2)) for g in system.moment_vars}
        st = SemiclassicalState(hbar, {"q": float(rng.normal()), "p": float(rng.normal())},
                                moments, 3)
        y = system.pack(st)
        vals = rhs(y)
        for var, v in zip(system.variables, vals):
            assert v == pytest.approx(system.rhs[var].evaluate(st), rel=1e-12, abs=1e-14)


# -- lowering of the compiled RHS ------------------------------------------


LOWERING_CASES = [
    (kind, n_max, closure)
    for closure in ("zero", "gaussian-factorize")
    for kind, n_max in (("quartic", 8), ("quartic", 12), ("sextic", 6), ("cosmology", 4))
]


def _lowering_case(kind, n_max, closure, rng, states=20):
    """(system, hbar, random states y) for one lowering case."""
    H = {
        "quartic": ClassicalHamiltonian(m=1.1, omega=0.9, potential=PotentialSpec.quartic(0.3)),
        # a sextic with constant, linear, cubic and quartic terms: its RHS holds q^1 ... q^5
        "sextic": ClassicalHamiltonian(potential=PotentialSpec([0.1, -0.2, 0.0, 0.15, 0.0125, 0.0, 0.01])),
        "cosmology": cosmology_hamiltonian(gamma=0.9, kappa=1.2, E=1.0),
    }[kind]
    system = generate_eom(expand_quantum_hamiltonian(H, n_max), closure)
    Y = rng.normal(scale=0.4, size=(states, len(system.variables)))
    if kind == "cosmology":
        Y[:, 1] = np.abs(Y[:, 1]) + 0.2  # p > 0
    return system, 0.7, Y


def _reference_rhs(system, hbar, y):
    """The term loop the lowering replaces: coefficient, x powers, moment
    factors multiplied left to right, terms summed in order from 0.0."""
    slot = {v: i for i, v in enumerate(system.variables)}
    out = np.empty(len(slot))
    for i, var in enumerate(system.variables):
        total = 0.0
        for c, h, x, gs in system.rhs[var].terms():
            val = float(c) * hbar ** float(h)
            for sym, e in x:
                val *= y[slot[sym]] ** float(e)
            for g in gs:
                val *= y[slot[g]]
            total += val
        out[i] = total
    return out


@pytest.mark.parametrize("kind,n_max,closure", LOWERING_CASES)
def test_compile_matches_evaluate(kind, n_max, closure, rng):
    system, hbar, Y = _lowering_case(kind, n_max, closure, rng)
    if kind == "sextic":
        assert {e for v in system.variables for _, _, x, _ in system.rhs[v].terms()
                for sym, e in x if sym == "q"} == set(range(1, 6))
    rhs = system.compile(hbar)
    for y in Y:
        st = system.unpack(y, hbar)
        want = np.array([system.rhs[var].evaluate(st) for var in system.variables])
        assert np.allclose(rhs(y), want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("kind,n_max,closure", LOWERING_CASES)
def test_compile_bit_identical_to_term_loop(kind, n_max, closure, rng):
    system, hbar, Y = _lowering_case(kind, n_max, closure, rng)
    rhs = system.compile(hbar)
    for y in Y:
        assert np.array_equal(rhs(y), _reference_rhs(system, hbar, y))


@pytest.mark.parametrize("kind,n_max,closure", [
    (kind, n_max, closure) for closure in ("zero", "gaussian-factorize")
    for kind, n_max in (("quartic", 6), ("quartic", 10), ("sextic", 4), ("cosmology", 4))])
def test_generate_eom_equals_fold_reference(kind, n_max, closure):
    # the one-dict bracket and closure passes against the polynomial fold:
    # the same terms in the same key order, with the same coefficients
    system, _, _ = _lowering_case(kind, n_max, closure, np.random.default_rng(0), states=0)
    HQ = expand_quantum_hamiltonian(system.model, n_max)
    want = fold.generate_eom_rhs(HQ, closure)
    assert list(system.rhs) == list(want)
    for var, poly in want.items():
        assert exact_items(system.rhs[var]) == exact_items(poly)


def test_generate_eom_brackets_each_factor_pair_once(monkeypatch):
    # quartic H_Q has four distinct moment factors (G_2_2, G_0_2, G_0_3, G_0_4;
    # G_0_2 both bare and times q^2): each of the 42 moments at n_max 8 is
    # bracketed once with each of them, and a second derivation repeats every
    # call, so nothing is carried over from the first
    calls = []
    bracket = moment_algebra.bracket_moments

    def counted(i1, i2):
        calls.append((i1, i2))
        return bracket(i1, i2)

    monkeypatch.setattr(moment_algebra, "bracket_moments", counted)
    HQ = expand_quantum_hamiltonian(ClassicalHamiltonian(potential=PotentialSpec.quartic(0.1)), 8)
    first = generate_eom(HQ)
    assert len(calls) == 168 == 42 * 4
    assert len(set(calls)) == 168
    second = generate_eom(HQ)
    assert calls[168:] == calls[:168]
    assert first.listing_json() == second.listing_json()


def test_compile_returns_fresh_arrays(rng):
    # the stepper keeps the derivative at the step's end for the next step:
    # a reused output buffer would overwrite it on the next call
    system, hbar, Y = _lowering_case("quartic", 8, "zero", rng, states=2)
    rhs = system.compile(hbar)
    first = rhs(Y[0])
    kept = first.copy()
    second = rhs(Y[1])
    assert first is not second and not np.shares_memory(first, second)
    assert np.array_equal(first, kept)


def test_pack_unpack_roundtrip():
    system = _harmonic_system(3)
    moments = {g: 0.01 * i for i, g in enumerate(system.moment_vars)}
    st = SemiclassicalState(0.5, {"q": 1.0, "p": 2.0}, moments, 3)
    y = system.pack(st)
    st2 = system.unpack(y, 0.5)
    assert st2.x == st.x
    for g in system.moment_vars:
        assert st2.moment(g) == st.moment(g)


# sha256 of listing_json; a change in term order, coefficient arithmetic or
# formatting shows here
LISTING_SHA256 = {
    ("quartic", 8, "zero"):
        "fb66c4cb90eaf5cc8060a73971d27f5c340b6bce1b35ff95fbdf8ed92b89124b",
    ("quartic", 8, "gaussian-factorize"):
        "07c16a337a8a6b193915d327c4a5d524f60602bb7ba7bf7f0a99f9853dd95dca",
    ("cosmology", 4, "zero"):
        "31034f14bb5f9319de77d7220805e863743806e1cf76b5f7fcda2610ae59b9c0",
    ("cosmology", 4, "gaussian-factorize"):
        "6e0aaeae42abfb1afa34d49d817d904cb14be86fd470f384703af509eb6f9adb",
    # the top order of the derive benchmark, and Fraction exponents with
    # float coefficients under a closure that multiplies them out
    ("quartic", 12, "zero"):
        "e6894ed2c13cf3d52199d9d9a9e7c1fea04b6f17c7d17980740f97443dfc7a3e",
    ("quartic", 12, "gaussian-factorize"):
        "d773f6414d4797f873dc15a61953dcc6baf0860eb1a1b6a0a51831d6c5634f24",
    ("cosmology", 6, "gaussian-factorize"):
        "109b49ece3c927362af2ce8091a94fc0c9696fb48d33540a8b8ad28e5c56448c",
}


@pytest.mark.parametrize("model, n_max, closure", sorted(LISTING_SHA256))
def test_listing_bytes_pinned(model, n_max, closure):
    H = (ClassicalHamiltonian(m=1.1, omega=0.9, potential=PotentialSpec.quartic(0.3))
         if model == "quartic" else cosmology_hamiltonian(gamma=0.9, kappa=1.2))
    system = generate_eom(expand_quantum_hamiltonian(H, n_max), closure)
    digest = hashlib.sha256(system.listing_json().encode()).hexdigest()
    assert digest == LISTING_SHA256[model, n_max, closure]


def _dumps_listing(system):
    """The listing as one json.dumps call, the reference for listing_json."""
    eqs = []
    for var in system.variables:
        terms = [{"coeff": str(c) if isinstance(c, Fraction) else c, "hbar_power": str(h),
                  "x": [[sym, str(e)] for sym, e in x], "moments": [str(g) for g in gs]}
                 for c, h, x, gs in system.rhs[var].terms()]
        eqs.append({"variable": str(var), "terms": terms})
    meta = {"model": system.model.name, "n_max": system.n_max, "closure": system.closure}
    return json.dumps({"meta": meta, "equations": eqs}, indent=2, sort_keys=True)


def test_listing_json_equals_json_dumps():
    H = cosmology_hamiltonian(gamma=0.9, kappa=1.2, E=1)
    system = generate_eom(expand_quantum_hamiltonian(H, 4), "gaussian-factorize")
    assert system.listing_json() == _dumps_listing(system)
    # floats json spells its own way, a numpy float, a subnormal, an empty
    # equation and both exponent types
    system.rhs["p"] = MomentPolynomial({
        (0, (("p", Fraction(-1, 2)),), ()): math.nan,
        (1, (("c", 3),), (G(0, 2),)): math.inf,
        (2, (), (G(1, 2), G(1, 2))): -math.inf,
        (0, (), (G(2, 2),)): np.float64(0.1),
        (3, (), ()): 5e-324,
        (0, (("c", 1),), ()): Fraction(-7, 3),
    })
    system.rhs[G(0, 2)] = MomentPolynomial()
    assert system.listing_json() == _dumps_listing(system)


def test_listing_json_structure():
    payload = json.loads(_harmonic_system(2).listing_json())
    assert payload["meta"]["model"] == "oscillator"
    assert payload["meta"]["n_max"] == 2
    names = [eq["variable"] for eq in payload["equations"]]
    assert names[:2] == ["q", "p"] and len(names) == 5


def test_cosmology_compiled_classical_flow():
    gamma, kappa = 0.9, 1.2
    H = cosmology_hamiltonian(gamma=gamma, kappa=kappa, E=1.0)
    system = generate_eom(expand_quantum_hamiltonian(H, 2))
    c, p = -0.4, 2.5
    st = SemiclassicalState(1.0, {"c": c, "p": p}, {G(a, 2): 0.0 for a in range(3)}, 2)
    vals = dict(zip(system.labels(), system.compile(1.0)(system.pack(st))))
    # {c, p} = gamma kappa / 3 gives cdot = -c^2/(2 gamma sqrt p), pdot = 2 c sqrt(p)/gamma
    assert vals["c"] == pytest.approx(-(c**2) / (2 * gamma * math.sqrt(p)))
    assert vals["p"] == pytest.approx(2 * c * math.sqrt(p) / gamma)


def test_cosmology_domain_guard():
    # H_Q refuses p <= 0; a run stops before, at the p-guard event (test_cli.py)
    HQ = expand_quantum_hamiltonian(cosmology_hamiltonian(), 2)
    with pytest.raises(DomainError):
        HQ.evaluate(SemiclassicalState(1.0, {"c": 0.1, "p": 0.0}, {}, 2))


# -- a bare record ----------------------------------------------------------


@pytest.mark.parametrize("closure", ["zero", "gaussian-factorize"])
def test_bare_record_lists_as_the_oscillator(closure):
    # the pipeline reads only the record: the oscillator's polynomial alone
    # gives its pinned listing
    osc = ClassicalHamiltonian(m=1.1, omega=0.9, potential=PotentialSpec.quartic(0.3))
    system = generate_eom(expand_quantum_hamiltonian(Hamiltonian(osc.poly), 8), closure)
    assert hashlib.sha256(system.listing_json().encode()).hexdigest() == (
        LISTING_SHA256["quartic", 8, closure])


def _toy_hamiltonian():
    """p^2/2 + (4/3) q^{3/2}: q is raised to a non-integer power, so q > 0."""
    poly = (MomentPolynomial.term(Fraction(1, 2), x={"p": 2})
            + MomentPolynomial.term(Fraction(4, 3), x={"q": Fraction(3, 2)}))
    return Hamiltonian(poly, name="toy")


def test_bare_record_stops_at_its_guard():
    # the classical fall from q = 1 at rest reaches q = 0 at t = 1.0561831;
    # the repulsive order-hbar force delays the fall, and the guard stops the
    # run where q falls to its floor 1e-6 q0
    H, hbar = _toy_hamiltonian(), 1e-4
    assert H.domain == ("q",)
    system = generate_eom(expand_quantum_hamiltonian(H, 2))
    s0 = SemiclassicalState(hbar, {"q": 1.0, "p": 0.0}, {G(0, 2): hbar / 2, G(1, 2): 0.0,
                                                          G(2, 2): hbar / 2}, 2)
    traj = integrate(system, s0, (0.0, 2.0))
    assert not traj.complete and traj.stats["status"] == 1
    assert traj.stats["stop_cause"] == "toy q-guard: q fell to its floor 1e-06"
    assert traj.stats["t_stop"] == pytest.approx(1.05619, abs=1e-5)
    assert traj.column("q")[-1] > 0


@pytest.mark.parametrize("q", [0.0, -1.0])
def test_bare_record_evaluate_refuses_its_domain(q):
    HQ = expand_quantum_hamiltonian(_toy_hamiltonian(), 2)
    with pytest.raises(DomainError, match=r"^toy Hamiltonian needs q > 0$"):
        HQ.evaluate(SemiclassicalState(1.0, {"q": q, "p": 0.0}, {}, 2))


def test_generate_eom_unknown_closure():
    HQ = expand_quantum_hamiltonian(ClassicalHamiltonian(), 2)
    with pytest.raises(ConfigError):
        generate_eom(HQ, closure="truncate-hard")


# -- moment conventions ------------------------------------------------------


def test_dimensionless_roundtrip(rng):
    m, w, hbar = 1.7, 0.6, 0.3
    for n in (2, 3, 4):
        for a in range(n + 1):
            v = float(rng.normal())
            tilde = to_dimensionless(v, a, n, m, w, hbar)
            assert from_dimensionless(tilde, a, n, m, w, hbar) == pytest.approx(v)


def test_dimensionless_vacuum_value():
    # hbar/2mw maps to the dimensionless vacuum value 1/2
    m, w, hbar = 2.0, 3.0, 0.4
    assert to_dimensionless(hbar / (2 * m * w), 0, 2, m, w, hbar) == pytest.approx(0.5)
