"""Bracket algebra unit tests: closed-form brackets vs the commutator
oracle, generating-function consistency, and uncertainty checks."""

import math
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fold_reference as fold
from fold_reference import exact_items
from momentflow import oracle as orc
from momentflow.errors import RangeError, StateError, UnsupportedProviderError
from momentflow.moment_algebra import (
    GaussianDProvider,
    MomentIndex,
    MomentPolynomial,
    SemiclassicalState,
    SymplecticMatrix,
    bracket_general,
    bracket_moments,
    check_uncertainty_generating,
    check_uncertainty_order2,
    gaussian_moment,
    gaussian_pairings,
    kk_coefficient,
    moment_indices,
    moment_vars,
)


def G(a, n):
    return MomentIndex.single(a, n)


# -- indexing ---------------------------------------------------------------


def test_index_shorthand_and_order():
    idx = G(1, 3)
    assert idx.q_powers == (2,) and idx.p_powers == (1,)
    assert idx.order == 3 and idx.p_power == 1
    assert str(idx) == "G_1_3"
    assert str(MomentIndex((1, 0), (0, 2))) == "G_1_0_0_2"


def test_index_invalid():
    with pytest.raises(RangeError):
        MomentIndex((-1,), (0,))
    with pytest.raises(RangeError):
        MomentIndex.single(3, 2)


def test_index_hashable_and_sorted():
    idxs = moment_indices(3, 1)
    assert len(set(idxs)) == 4
    assert sorted(idxs, key=MomentIndex.sort_key) == sorted(idxs, key=MomentIndex.sort_key)


def test_symplectic_matrix():
    for dof in (1, 2):
        eps = SymplecticMatrix(dof).matrix
        assert np.array_equal(eps, -eps.T)
        assert np.array_equal(eps @ eps, -np.eye(2 * dof))


# -- polynomial structural equality ----------------------------------------


def test_polynomial_equality_two_constructions():
    p1 = MomentPolynomial.term(2, gs=(G(1, 2),)) + MomentPolynomial.term(3, gs=(G(0, 2),))
    p2 = MomentPolynomial.term(3, gs=(G(0, 2),)) + MomentPolynomial.term(1, gs=(G(1, 2),)) \
        + MomentPolynomial.term(1, gs=(G(1, 2),))
    assert p1 == p2


def test_polynomial_zero_terms_dropped():
    p = MomentPolynomial.term(1, gs=(G(1, 2),)) + MomentPolynomial.term(-1, gs=(G(1, 2),))
    assert p == MomentPolynomial.zero()
    assert not p.terms()


def test_polynomial_order_one_annihilates():
    # n = 1 moments vanish by construction
    assert MomentPolynomial.term(5, gs=(G(1, 1),)) == MomentPolynomial.zero()


def test_polynomial_text_deterministic():
    p = MomentPolynomial.term(Fraction(1, 2), hbar=2, gs=(G(0, 2),)) \
        + MomentPolynomial.term(3, x=(("q", 1),))
    assert p.to_text() == p.to_text()
    assert "1/2" in p.to_text()


# -- kk coefficient ---------------------------------------------------------


def test_kk_forced_value():
    # single-term case: every binomial in the product is forced
    assert kk_coefficient(0, 0, (1,), (2,), (0,), (0,), (2,)) == 4


def test_kk_empty_range_is_zero():
    # g range is max(e-s, e-a, e-d, 0) .. min(b, c, 2r+1-s, e); empty here
    assert kk_coefficient(0, 0, (1,), (0,), (0,), (1,), (1,)) == 0


def test_kk_out_of_range():
    with pytest.raises(RangeError):
        kk_coefficient(-1, 0, (1,), (2,), (0,), (0,), (2,))
    with pytest.raises(RangeError):
        kk_coefficient(0, 5, (1,), (2,), (0,), (0,), (2,))


@pytest.mark.parametrize("dof, top", [(1, 6), (2, 4)])
def test_kk_table_gives_every_linear_bracket_term(dof, top):
    # the linear part of {G^a_b, G^c_d} is sum_{r,s,e} (-1)^{r+s} (hbar/2)^{2r}
    # K(r, s, e) G^{a+c-e}_{b+d-e}: each e fixes the result index, so the
    # coefficient of hbar^{2r} G^{a+c-e}_{b+d-e} is the sum over s
    idxs = moment_vars(top, dof)
    for i1, i2 in product(idxs, repeat=2):
        a, b, c, d = i1.q_powers, i1.p_powers, i2.q_powers, i2.p_powers
        linear = {(h, gs): coeff for coeff, h, _, gs in bracket_moments(i1, i2).terms()
                  if len(gs) < 2}
        expected = {}
        ranges = [range(min(a[f], d[f]) + min(b[f], c[f]) + 1) for f in range(dof)]
        for e in product(*ranges):
            if sum(e) % 2 == 0:
                continue
            r = (sum(e) - 1) // 2
            coeff = sum((-1) ** (r + s) * kk_coefficient(r, s, e, a, b, c, d)
                        for s in range(2 * r + 2)) / 4**r
            g = MomentIndex(tuple(x - y for x, y in zip(map(sum, zip(a, c)), e)),
                            tuple(x - y for x, y in zip(map(sum, zip(b, d)), e)))
            if coeff and g.order != 1:
                expected[2 * r, (g,) if g.order else ()] = coeff
        assert linear == expected, (i1, i2)


# -- closed-form brackets ---------------------------------------------------


def test_bracket_canonical_examples():
    assert bracket_moments(G(0, 2), G(2, 2)) == MomentPolynomial.term(4, gs=(G(1, 2),))
    assert bracket_moments(G(0, 2), G(1, 2)) == MomentPolynomial.term(2, gs=(G(0, 2),))


def test_bracket_self_vanishes():
    for n in range(2, 5):
        for idx in moment_indices(n, 1):
            assert bracket_moments(idx, idx) == MomentPolynomial.zero()


def test_bracket_antisymmetry_up_to_n5():
    idxs = []
    for n in range(2, 6):
        idxs.extend(moment_indices(n, 1))
    for i1 in idxs:
        for i2 in idxs:
            assert bracket_moments(i1, i2) + bracket_moments(i2, i1) == MomentPolynomial.zero()


def test_bracket_requires_order_two():
    with pytest.raises(RangeError):
        bracket_moments(MomentIndex((1,), (0,)), G(0, 2))


def test_bracket_general_over_canonical_pairs():
    # {q_f, p_g} = delta_fg, and every moment commutes with every coordinate
    x = MomentPolynomial.x_var
    assert bracket_general(x("q"), x("p")) == MomentPolynomial.constant(1)
    assert bracket_general(x("p"), x("q")) == MomentPolynomial.constant(-1)
    assert bracket_general(x("p"), x("p")) == MomentPolynomial.zero()
    assert bracket_general(x("q"), MomentPolynomial.moment(G(1, 3))) == MomentPolynomial.zero()
    pairs = (("q0", "p0"), ("q1", "p1"))
    names = [name for pair in pairs for name in pair]
    moments = [MomentIndex((1, 1), (0, 1)), MomentIndex((0, 2), (1, 0)), MomentIndex((1, 0), (0, 1))]
    for a in names:
        for b in names:
            delta = 1 if (a, b) in pairs else -1 if (b, a) in pairs else 0
            assert bracket_general(x(a), x(b), pairs) == MomentPolynomial.constant(delta)
        for g in map(MomentPolynomial.moment, moments):
            assert bracket_general(x(a), g, pairs) == MomentPolynomial.zero()
            assert bracket_general(g, x(a), pairs) == MomentPolynomial.zero()


def test_bracket_general_leibniz():
    q = MomentPolynomial.x_var("q")
    p = MomentPolynomial.x_var("p")
    res = bracket_general(q * p, q)
    assert res == MomentPolynomial.constant(-1) * q
    assert bracket_general(q * p + MomentPolynomial.constant(7), MomentPolynomial.constant(3)) \
        == MomentPolynomial.zero()


def test_bracket_general_bilinear():
    a = MomentPolynomial.moment(G(0, 2))
    b = MomentPolynomial.moment(G(2, 2))
    two = MomentPolynomial.constant(2)
    assert bracket_general(two * a, b) == two * bracket_general(a, b)


# -- properties on random one-DOF polynomials ------------------------------

_coeff = st.fractions(-4, 4, max_denominator=6).filter(bool)
_moment = st.integers(2, 4).flatmap(lambda n: st.integers(0, n).map(lambda a: G(a, n)))
_term = st.builds(
    lambda c, h, i, j, gs: MomentPolynomial.term(c, hbar=h, x={"q": i, "p": j}, gs=gs),
    _coeff, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.lists(_moment, max_size=2),
)
_poly = st.lists(_term, max_size=3).map(MomentPolynomial.sum)


def _exact(poly):
    # sorted terms with each coefficient's type, so that 1/2 and 0.5 differ
    return [(type(c), c, h, x, gs) for c, h, x, gs in poly.terms()]


@settings(max_examples=40, deadline=None)
@given(_poly, _poly, _poly, _coeff, _coeff)
def test_bracket_general_antisymmetric_and_bilinear(P, Q, R, a, b):
    assert bracket_general(P, Q) + bracket_general(Q, P) == MomentPolynomial.zero()
    lhs = bracket_general(a * P + b * R, Q)
    assert _exact(lhs) == _exact(a * bracket_general(P, Q) + b * bracket_general(R, Q))
    lhs = bracket_general(Q, a * P + b * R)
    assert _exact(lhs) == _exact(a * bracket_general(Q, P) + b * bracket_general(Q, R))


@settings(max_examples=25, deadline=None)
@given(_poly, _poly, _poly)
def test_bracket_general_leibniz_rule(P, Q, R):
    # {PQ, R} = P {Q, R} + {P, R} Q
    lhs = bracket_general(P * Q, R)
    assert _exact(lhs) == _exact(P * bracket_general(Q, R) + bracket_general(P, R) * Q)


# floats whose sums round and cancel, next to exact rationals, on four keys
# so that partial sums often cancel and restart
_mixed_term = st.builds(
    lambda c, i, a: MomentPolynomial.term(c, x={"q": i}, gs=(G(a, 2),)),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), 0.1, -0.1, 0.2, 0.3, -0.3,
                     1e16, -1e16]),
    st.integers(0, 1), st.integers(0, 1),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_mixed_term, max_size=4).map(MomentPolynomial.sum), max_size=6))
def test_polynomial_sum_is_left_fold(ps):
    fold = MomentPolynomial.zero()
    for p in ps:
        fold = fold + p
    assert _exact(MomentPolynomial.sum(ps)) == _exact(fold)


# -- the accumulating bracket against the fold reference --------------------

_ref_coeff = st.one_of(st.fractions(-3, 3, max_denominator=5).filter(bool),
                       st.sampled_from([0.1, -0.3, 2.5, 1e16, -1e-3]))
_ref_term = st.builds(
    lambda c, h, i, e, gs: MomentPolynomial.term(c, hbar=h, x={"q": i, "p": e}, gs=gs),
    _ref_coeff, st.integers(0, 2), st.integers(0, 2),
    st.sampled_from([0, 1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)]),
    st.lists(_moment, max_size=2),
)
_ref_poly = st.lists(_ref_term, min_size=1, max_size=4).map(MomentPolynomial.sum)


@settings(max_examples=80, deadline=None)
@given(_ref_poly, _ref_poly, st.sampled_from([Fraction(1), Fraction(-2, 3), 0.3, 1.0]))
def test_bracket_general_equals_fold_reference(P, Q, scale):
    # same keys in the same order, same coefficient types and values
    got = bracket_general(P, Q, scale=scale)
    assert exact_items(got) == exact_items(fold.bracket_general(P, Q, scale=scale))


def test_bracket_moments_equals_fold_reference():
    one = [g for n in range(2, 7) for g in moment_indices(n, 1)]
    two = [g for n in range(2, 5) for g in moment_indices(n, 2)]
    for idxs in (one, two):
        for i1 in idxs:
            for i2 in idxs:
                assert exact_items(bracket_moments(i1, i2)) == exact_items(fold.bracket_moments(i1, i2))


_jacobi_term = st.builds(
    lambda c, i, j, gs: MomentPolynomial.term(c, x={"q": i, "p": j}, gs=gs),
    _coeff, st.integers(0, 2), st.integers(0, 2), st.lists(_moment, max_size=1),
)
_jacobi_poly = st.lists(_jacobi_term, min_size=1, max_size=2).map(MomentPolynomial.sum)


@settings(max_examples=40, deadline=None)
@given(_jacobi_poly, _jacobi_poly, _jacobi_poly)
def test_bracket_general_jacobi_identity(P, Q, R):
    # exact rational coefficients, so the cyclic sum cancels term by term
    cyclic = MomentPolynomial.sum([bracket_general(P, bracket_general(Q, R)),
                                   bracket_general(Q, bracket_general(R, P)),
                                   bracket_general(R, bracket_general(P, Q))])
    assert cyclic.is_zero()


# -- oracle cross-checks ----------------------------------------------------


def _eval_poly(poly, state):
    return poly.evaluate(state)


@pytest.mark.filterwarnings("ignore:D=50 is small")
def test_bracket_vs_oracle_sample(rng, space50):
    psi = orc.random_state(rng, 50)
    st = orc.moments_of(psi, space50, 6)
    pairs = [(G(0, 2), G(2, 2)), (G(1, 3), G(2, 2)), (G(0, 4), G(1, 3)), (G(2, 3), G(1, 4))]
    for i1, i2 in pairs:
        lhs = _eval_poly(bracket_moments(i1, i2), st)
        rhs = orc.bracket_oracle(i1, i2, psi, space50)
        assert abs(lhs - rhs) < 1e-10 + 1e-8 * abs(rhs)


@pytest.mark.filterwarnings("ignore:D=50 is small")
def test_jacobi_identity_on_state(rng, space50):
    psi = orc.random_state(rng, 50)
    st = orc.moments_of(psi, space50, 7)
    triples = [
        (G(0, 2), G(1, 2), G(2, 2)),
        (G(0, 2), G(1, 3), G(2, 3)),
        (G(2, 2), G(0, 3), G(3, 3)),
    ]
    for a, b, c in triples:
        total = 0.0
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = bracket_moments(y, z)
            outer = bracket_general(MomentPolynomial.moment(x), inner)
            total += _eval_poly(outer, st)
        assert abs(total) < 1e-8


def test_hbar_to_zero_limit():
    # hbar^2 terms appear from r = 1 contractions; they must die in the limit
    poly = bracket_moments(G(2, 3), G(1, 3))
    terms = poly.terms()
    assert any(h >= 2 for _, h, _, _ in terms)
    st1 = SemiclassicalState(
        1.0, {"q": 0.0, "p": 0.0},
        {idx: (0.5 if idx.p_power % 2 == 0 and idx.order % 2 == 0 else 0.0)
         for n in range(2, 5) for idx in moment_indices(n, 1)},
        4,
    )
    st0 = st1.copy()
    st0.hbar = 1e-8
    v1 = _eval_poly(poly, st1)
    v0 = _eval_poly(poly, st0)
    classical = sum(
        float(c) * np.prod([st1.moment(g) for g in gs])
        for c, h, x, gs in terms if h == 0
    )
    assert abs(v0 - classical) < 1e-12
    assert abs(v1 - classical) > 0  # the quantum term is genuinely there


# -- generating-function consistency ---------------------------------------


def test_generating_function_taylor_consistency():
    """Taylor coefficients of the characteristic-function bracket identity
    reproduce bracket_moments exactly (rational arithmetic, degree 2..3 per
    argument)."""
    import sympy as sp

    deg = 3
    aq, ap_, bq, bp = gens = sp.symbols("aq ap bq bp")
    hb = sp.symbols("hbar", positive=True)
    Gs = {}

    def gsym(j, k):
        # j q-powers, k p-powers
        if j + k == 0:
            return sp.Integer(1)
        if j + k == 1:
            return sp.Integer(0)
        return Gs.setdefault((j, k), sp.Symbol(f"G{j}_{k}"))

    def D(x, y, top):
        total = sp.Integer(0)
        for j in range(top + 1):
            for k in range(top + 1 - j):
                total += gsym(j, k) * x**j * y**k / (sp.factorial(j) * sp.factorial(k))
        return total

    def truncate(expr, lo=0):
        # the terms of degree lo..deg in (aq, ap) and in (bq, bp)
        return sp.Poly.from_dict({m: c for m, c in sp.Poly(expr, *gens).terms()
                                  if lo <= m[0] + m[1] <= deg and lo <= m[2] + m[3] <= deg}, *gens)

    # right side, each factor truncated to the compared degrees before the
    # products are expanded
    top = 2 * deg
    z = sp.Symbol("z")
    cross = aq * bp - ap_ * bq
    sine = sp.series(2 / hb * sp.sin(hb * z / 2), hb, 0, 6).removeO()
    rhs = truncate(sine.subs(z, cross)) * truncate(D(aq + bq, ap_ + bp, top)) \
        - truncate(cross) * truncate(D(aq, ap_, top)) * truncate(D(bq, bp, top))
    rhs = truncate(rhs.as_expr(), lo=2)

    # left side: chain rule over the moment coordinates
    lhs = sp.Integer(0)
    idxs = [(j, k) for j in range(deg + 1) for k in range(deg + 1 - j) if 2 <= j + k]
    for (j1, k1) in idxs:
        for (j2, k2) in idxs:
            i1 = MomentIndex((j1,), (k1,))
            i2 = MomentIndex((j2,), (k2,))
            poly = bracket_moments(i1, i2)
            br = sp.Integer(0)
            for c, h, x, gs in poly.terms():
                term = sp.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) \
                    else sp.Float(c)
                term *= hb**h
                for gidx in gs:
                    term *= gsym(gidx.q_powers[0], gidx.p_powers[0])
                br += term
            pref1 = aq**j1 * ap_**k1 / (sp.factorial(j1) * sp.factorial(k1))
            pref2 = bq**j2 * bp**k2 / (sp.factorial(j2) * sp.factorial(k2))
            lhs += pref1 * pref2 * br
    lhs = truncate(lhs, lo=2)

    lhs_terms, rhs_terms = dict(lhs.terms()), dict(rhs.terms())
    monoms = set(lhs_terms) | set(rhs_terms)
    assert len(monoms) == 38  # every monomial of degree 2..3 in each argument that occurs
    for monom in monoms:
        coeff = lhs_terms.get(monom, 0) - rhs_terms.get(monom, 0)
        assert sp.expand(coeff) == 0, f"monomial {monom}: {coeff}"


# -- Gaussian pairings ------------------------------------------------------


def _matching_sum(factors, cov):
    """Sum over the perfect matchings of ``factors`` (0 = q, 1 = p) of the
    product of cov[a][b] over the pairs: the first factor pairs with each
    other one in turn, and the rest is matched recursively."""
    if not factors:
        return 1.0
    first, rest = factors[0], factors[1:]
    return sum(
        cov[first][rest[i]] * _matching_sum(rest[:i] + rest[i + 1:], cov)
        for i in range(len(rest))
    )


_powers = st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda jk: sum(jk) <= 12)


@given(_powers)
def test_gaussian_pairings_count_matchings(jk):
    j, k = jk
    pairings = list(gaussian_pairings(j, k))
    if (j + k) % 2:
        assert pairings == []
        return
    assert sum(count for count, *_ in pairings) == math.prod(range(1, j + k, 2))
    assert [n_qp for _, _, n_qp, _ in pairings] == sorted(n_qp for _, _, n_qp, _ in pairings)
    for count, n_qq, n_qp, n_pp in pairings:
        assert isinstance(count, int) and count > 0
        assert (2 * n_qq + n_qp, n_qp + 2 * n_pp) == (j, k)


@settings(max_examples=60, deadline=None)
@given(
    _powers,
    st.floats(0.05, 3.0),
    st.floats(0.05, 3.0),
    st.floats(-0.99, 0.99),
)
@example((1, 3), 1.0, 0.5, 5e-324)
def test_gaussian_moment_matches_matching_sum(jk, c_qq, c_pp, rho):
    j, k = jk
    c_qp = rho * math.sqrt(c_qq * c_pp)
    factors = (0,) * j + (1,) * k
    ref = _matching_sum(factors, [[c_qq, c_qp], [c_qp, c_pp]])
    scale = _matching_sum(factors, [[c_qq, abs(c_qp)], [abs(c_qp), c_pp]])
    # below the normal range relative precision does not exist: a subnormal
    # correlation can leave 1e-323 in one sum and underflow to 0 in the other
    bound = max(1e-13 * scale, sys.float_info.min)
    assert abs(gaussian_moment(j, k, c_qq, c_qp, c_pp) - ref) <= bound


# -- uncertainty ------------------------------------------------------------


def _state_from(hbar, g02, g12, g22):
    return SemiclassicalState(
        hbar, {"q": 0.0, "p": 0.0},
        {G(0, 2): g02, G(1, 2): g12, G(2, 2): g22}, 2,
    )


def test_uncertainty_coherent_margin_zero():
    hbar, m, w = 0.7, 2.0, 3.0
    st = _state_from(hbar, hbar / (2 * m * w), 0.0, hbar * m * w / 2)
    assert abs(check_uncertainty_order2(st)) < 1e-15


def test_uncertainty_margin_arithmetic():
    hbar = 0.5
    st = _state_from(hbar, hbar, 0.0, hbar)
    assert np.isclose(check_uncertainty_order2(st), 0.75 * hbar**2)


def test_uncertainty_squeezed_saturates():
    from momentflow.states import SqueezeMatrix

    hbar = 1.3
    g = np.array([[0.4, 0.1], [0.1, -0.2]])
    C = SqueezeMatrix(g).covariance(hbar)
    st = _state_from(hbar, C[0, 0], C[0, 1], C[1, 1])
    assert abs(check_uncertainty_order2(st)) < 1e-12


def test_state_validation_rejects_bad_variance():
    with pytest.raises(StateError):
        _state_from(1.0, -0.5, 0.0, 0.5).validate()
    with pytest.raises(StateError):
        _state_from(1.0, 0.1, 0.0, 0.1).validate()  # below hbar^2/4


def test_generating_inequality_gaussian():
    hbar = 1.0
    cov = np.array([[0.5, 0.0], [0.0, 0.5]]) * hbar
    prov = GaussianDProvider(cov, hbar)
    alpha = np.array([0.3, 0.0])
    beta = np.array([0.0, 0.25])
    assert check_uncertainty_generating(prov, alpha, alpha) == pytest.approx(0.0, abs=1e-14)
    res = check_uncertainty_generating(prov, alpha, beta)
    assert res >= -1e-12
    # saturation in the small-amplitude limit for minimal uncertainty states
    small = check_uncertainty_generating(prov, alpha, beta, order=8)
    assert abs(small) < abs(res)


def test_generating_inequality_oracle(space50):
    psi = np.zeros(50, dtype=complex)
    psi[0] = 1.0
    prov = orc.OracleDProvider(psi, space50)
    res = check_uncertainty_generating(prov, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert res >= -1e-9


def test_generating_rejects_bad_provider():
    with pytest.raises(UnsupportedProviderError):
        check_uncertainty_generating(object(), np.zeros(2), np.zeros(2))
