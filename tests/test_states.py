"""Squeezed-state moment tensors, reconstructed density-operator elements,
and the symplectic pull-back."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from momentflow import oracle as orc
from momentflow import states
from momentflow.errors import DegenerateStateError, StateError
from momentflow.moment_algebra import MomentIndex


def G(a, n):
    return MomentIndex.single(a, n)


# -- squeeze matrices --------------------------------------------------------


def test_squeeze_matrix_validation():
    with pytest.raises(StateError):
        states.SqueezeMatrix([[0.0, 0.1], [0.2, 0.0]])
    with pytest.raises(StateError):
        states.SqueezeMatrix(np.zeros((3, 3)))
    # symmetric only to rtol 1e-5: its map would not have det 1
    near = [[0.2, 0.1], [0.1000009, 0.3]]
    with pytest.raises(StateError):
        states.SqueezeMatrix(near)
    with pytest.raises(StateError):
        orc.squeezed(near, (0.0, 0.0), orc.FockSpace(10))


def test_squeeze_map_unit_determinant(rng):
    for _ in range(5):
        g = rng.normal(scale=0.5, size=(2, 2))
        g = (g + g.T) / 2
        sq = states.SqueezeMatrix(g)
        assert np.linalg.det(sq.map) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(sq.covariance(0.7)) == pytest.approx(0.7**2 / 4, rel=1e-10)


_entry = st.floats(-3, 3)
# general symmetric g, and g = lam v v^T + eta 1 with det g = eta (lam |v|^2 + eta) near 0
_any_g = st.tuples(_entry, _entry, _entry).map(lambda e: [[e[0], e[1]], [e[1], e[2]]])
_near_singular_g = st.tuples(_entry, _entry, _entry, st.sampled_from([0.0, 1e-300, -1e-12, 1e-9])).map(
    lambda e: [[e[0] * e[1] ** 2 + e[3], e[0] * e[1] * e[2]], [e[0] * e[1] * e[2], e[0] * e[2] ** 2 + e[3]]])


@settings(max_examples=200, deadline=None)
@given(st.one_of(_any_g, _near_singular_g))
def test_squeeze_map_matches_expm(g):
    want = expm(-states.EPS @ np.array(g))
    got = states.SqueezeMatrix(g).map
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_zero_squeeze_covariance():
    cov = states.SqueezeMatrix(np.zeros((2, 2))).covariance(0.9)
    assert np.allclose(cov, 0.45 * np.eye(2))


# -- moment tensors ----------------------------------------------------------


def test_squeezed_moments_vacuum():
    t2 = states.squeezed_moments(np.zeros((2, 2)), 2, 1.0)
    assert np.allclose(t2, 0.5 * np.eye(2))
    t4 = states.squeezed_moments(np.zeros((2, 2)), 4, 1.0)
    assert t4[0, 0, 0, 0] == pytest.approx(0.75)
    assert t4[0, 0, 1, 1] == pytest.approx(0.25)
    assert t4[0, 1, 0, 1] == pytest.approx(0.25)


def test_squeezed_moments_odd_zero():
    assert not np.any(states.squeezed_moments(np.zeros((2, 2)), 3, 1.0))


def test_squeezed_moment_saturates_uncertainty(rng):
    for _ in range(5):
        g = rng.normal(scale=0.4, size=(2, 2))
        g = (g + g.T) / 2
        hbar = 0.8
        g02 = states.squeezed_moment(g, G(0, 2), hbar)
        g12 = states.squeezed_moment(g, G(1, 2), hbar)
        g22 = states.squeezed_moment(g, G(2, 2), hbar)
        assert g02 * g22 - g12**2 == pytest.approx(hbar**2 / 4, rel=1e-10)


def _permutation_tensor(g, n, hbar):
    """Reference: hbar^{n/2} n!/(2^n (n/2)!) times the average over all n!
    permutations of the pair products of A = M M^T, for every entry."""
    shape = (2,) * n
    if n % 2:
        return np.zeros(shape)
    A = states.SqueezeMatrix(g).covariance(1.0) * 2
    coeff = hbar ** (n // 2) * math.factorial(n) / (2**n * math.factorial(n // 2))
    out = np.zeros(shape)
    for idx in itertools.product(range(2), repeat=n):
        acc = 0.0
        for perm in itertools.permutations(range(n)):
            prod = 1.0
            for k in range(0, n, 2):
                prod *= A[idx[perm[k]], idx[perm[k + 1]]]
            acc += prod
        out[idx] = coeff * acc / math.factorial(n)
    return out


def test_squeezed_moments_match_permutation_sum():
    local = np.random.default_rng(4)
    for hbar in (1.0, 0.3):
        g = local.normal(scale=0.4, size=(2, 2))
        g = (g + g.T) / 2
        for n in range(2, 7):
            ref = _permutation_tensor(g, n, hbar)
            got = states.squeezed_moments(g, n, hbar)
            # entries that cancel are compared at the scale of the tensor
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))


def test_squeezed_moments_match_oracle(rng):
    space = orc.FockSpace(80)
    for _ in range(3):
        g = rng.normal(scale=0.3, size=(2, 2))
        g = (g + g.T) / 2
        psi = orc.squeezed(g, (0.0, 0.0), space)
        st = orc.moments_of(psi, space, 8)
        for n in range(2, 9):
            for a in range(n + 1):
                pred = states.squeezed_moment(g, G(a, n), 1.0)
                assert st.G(a, n) == pytest.approx(pred, abs=1e-8)


def test_squeezed_moments_rejects_low_order():
    with pytest.raises(StateError):
        states.squeezed_moments(np.zeros((2, 2)), 1, 1.0)


# -- density-operator elements -----------------------------------------------


def _vac_G(hbar):
    return 0.5 * hbar * np.eye(2)


def test_rho_element_matches_overlaps(space50):
    # vacuum-moment reconstruction at the origin must reproduce the exact
    # coherent-state overlaps <alpha|0><0|alpha'>
    D = 50
    for za, zb in [(0.3 + 0.2j, -0.1 + 0.4j), (0.0 + 0.0j, 0.5j)]:
        pa = orc.coherent(za, D)
        pb = orc.coherent(zb, D)
        vac = np.zeros(D, dtype=complex)
        vac[0] = 1.0
        exact = np.vdot(pa, vac) * np.vdot(vac, pb)
        got = states.rho_element(za, zb, np.zeros(2), _vac_G(1.0), 1.0)
        assert got == pytest.approx(exact, abs=1e-12)


def test_rho_element_hermitian(rng):
    g = np.array([[0.3, 0.1], [0.1, -0.2]])
    Gm = states.SqueezeMatrix(g).covariance(1.0)
    x = np.array([0.4, -0.2])
    for _ in range(4):
        a, b = rng.normal(size=2), rng.normal(size=2)
        lhs = states.rho_element(a, b, x, Gm)
        rhs = states.rho_element(b, a, x, Gm)
        assert lhs == pytest.approx(np.conj(rhs), rel=1e-12)


def test_rho_element_on_peak_diagonal():
    Gm = _vac_G(1.0)
    x = np.array([0.7, -0.3])
    val = states.rho_element(x, x, x, Gm)
    assert val.imag == pytest.approx(0.0, abs=1e-14)
    assert val.real == pytest.approx(1.0 / math.sqrt(np.linalg.det(0.5 * np.eye(2) + Gm)))


def _cross_scale(pts, x, Gm, hbar):
    """|c| max|w|^2 of the rho_matrix docstring, with c by its second closed
    form (4 det(G/hbar) - 1) / (2 hbar det(I + 2 G/hbar)); the rank-two path
    is taken where it is at most 2^-26."""
    Gh = np.asarray(Gm) / hbar
    c = (4 * np.linalg.det(Gh) - 1) / (2 * hbar * np.linalg.det(np.eye(2) + 2 * Gh))
    u = np.asarray(pts) - x
    return abs(c) * np.max(u[:, 0] ** 2 + u[:, 1] ** 2)


def _coherent_rows(pts, hbar, D):
    # row i holds <n|alpha_i>, the label z = (q + i p) / sqrt(2 hbar)
    return np.array([orc.coherent(complex(q, p) / math.sqrt(2 * hbar), D) for q, p in pts])


def test_rho_matrix_pure_path_matches_oracle(rng):
    # <alpha_i| psi><psi |alpha_j> for the exact squeezed state in the Fock basis
    hbar, D = 1.0, 90
    g = np.array([[0.25, 0.1], [0.1, -0.15]])
    x = np.array([0.3, -0.1])
    Gm = states.SqueezeMatrix(g).covariance(hbar)
    pts = x + rng.uniform(-2, 2, size=(10, 2))
    assert _cross_scale(pts, x, Gm, hbar) <= 2.0**-26
    amps = _coherent_rows(pts, hbar, D).conj() @ orc.squeezed(g, x, orc.FockSpace(D))
    R = states.rho_matrix(pts, x, Gm, hbar)
    assert np.abs(R - np.outer(amps, amps.conj())).max() <= 1e-12


def test_rho_matrix_exp_path_matches_thermal_oracle(rng):
    # the thermal state sum_n p_n |n><n|, p_n = nbar^n / (1 + nbar)^(n+1), has
    # G = (nbar + 1/2) hbar 1 and is mixed
    hbar, D, nbar = 1.0, 90, 0.4
    Gm = (nbar + 0.5) * hbar * np.eye(2)
    pts = rng.uniform(-2, 2, size=(10, 2))
    assert _cross_scale(pts, np.zeros(2), Gm, hbar) > 2.0**-26
    A = _coherent_rows(pts, hbar, D)
    p = nbar ** np.arange(D) / (1 + nbar) ** np.arange(1, D + 1)
    R = states.rho_matrix(pts, np.zeros(2), Gm, hbar)
    assert np.abs(R - (A.conj() * p) @ A.T).max() <= 1e-12


_half = st.floats(-0.5, 0.5)
_offset = st.tuples(st.floats(-6, 6), st.floats(-6, 6))


@settings(max_examples=100, deadline=None)
@given(st.tuples(_half, _half, _half), st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
       st.floats(0.3, 3.0), st.one_of(st.sampled_from([1.0, 1 + 1e-10]), st.floats(1.05, 3.0)),
       st.lists(_offset, min_size=1, max_size=6))
def test_rho_matrix_agrees_on_both_paths(e, x, hbar, s, offsets):
    # s = 1 is pure, s = 1 + 1e-10 lies on either side of the 2^-26 bound and
    # s >= 1.05 is mixed.  The exponent c w conj(w') carries a rounding error
    # of its size, so the Hermitian bound is 1e-15 max|R| on the rank-two path
    # and grows with |c| max|w|^2 on the exp path
    Gm = s * states.SqueezeMatrix([[e[0], e[1]], [e[1], e[2]]]).covariance(hbar)
    x = np.array(x)
    pts = x + np.array(offsets)
    R = states.rho_matrix(pts, x, Gm, hbar)
    for i, j in itertools.product(range(len(pts)), repeat=2):
        assert R[i, j] == pytest.approx(
            states.rho_element(pts[i], pts[j], x, Gm, hbar), rel=1e-12, abs=1e-14)
    bound = 1e-15 * (1 + _cross_scale(pts, x, Gm, hbar)) * np.abs(R).max()
    assert np.abs(R - R.conj().T).max() <= bound


def test_rho_matrix_matches_scalar(rng):
    # points spread over +-6 around an off-centre x, where the exponent is
    # large and f(alpha) + g(alpha') + alpha^T C alpha' must cancel
    x = np.array([0.9, -0.6])
    for hbar in (0.37, 1.0, 2.5):
        Gm = states.SqueezeMatrix([[0.2, 0.05], [0.05, -0.1]]).covariance(hbar)
        pts = np.vstack([x + rng.normal(size=(4, 2)), x + rng.uniform(-6, 6, size=(8, 2))])
        R = states.rho_matrix(pts, x, Gm, hbar)
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert R[i, j] == pytest.approx(
                    states.rho_element(pts[i], pts[j], x, Gm, hbar), rel=1e-12, abs=1e-14
                )
        assert np.abs(R - R.conj().T).max() <= 1e-15 * np.abs(R).max()


def _lattice(center, half_width, n):
    qs = np.linspace(center[0] - half_width, center[0] + half_width, n)
    ps = np.linspace(center[1] - half_width, center[1] + half_width, n)
    pts = np.array([[q, p] for q in qs for p in ps])
    dA = (qs[1] - qs[0]) * (ps[1] - ps[0])
    return pts, dA


def test_rho_trace_and_purity():
    hbar = 1.0
    g = np.array([[0.25, 0.1], [0.1, -0.15]])
    Gm = states.SqueezeMatrix(g).covariance(hbar)
    x = np.array([0.3, -0.1])
    # the 41 x 41 grid of the rho-quadrature benchmark; at 81 x 81, R alone is 689 MB
    pts, dA = _lattice(x, 6.0, 41)
    R = states.rho_matrix(pts, x, Gm, hbar)
    w = dA / (2 * math.pi * hbar)
    trace = np.sum(np.diag(R)).real * w
    purity = np.einsum("ab,ba->", R, R).real * w**2
    assert trace == pytest.approx(1.0, abs=1e-6)
    assert purity == pytest.approx(1.0, abs=1e-5)


def test_rho_mixed_purity():
    # twice a pure covariance: det G = hbar^2 and purity hbar / (2 sqrt det G) = 1/2;
    # the wider diagonal loses 5e-6 of its trace beyond the half-width 6
    Gm = 2 * states.SqueezeMatrix([[0.25, 0.1], [0.1, -0.15]]).covariance(1.0)
    x = np.array([0.3, -0.1])
    pts, dA = _lattice(x, 6.0, 41)
    assert _cross_scale(pts, x, Gm, 1.0) > 2.0**-26
    R = states.rho_matrix(pts, x, Gm, 1.0)
    w = dA / (2 * math.pi)
    assert np.sum(np.diag(R)).real * w == pytest.approx(1.0, abs=1e-5)
    purity = np.einsum("ab,ba->", R, R).real * w**2
    assert purity == pytest.approx(1.0 / (2 * math.sqrt(np.linalg.det(Gm))), abs=1e-6)


def test_rho_matrix_allocates_only_its_output():
    # on the 41 x 41 grid of the rho-quadrature benchmark the returned
    # matrix is the only N x N buffer (numpy reports buffers to tracemalloc),
    # on the rank-two path (s = 1) and on the exp path (s = 2)
    x = np.array([0.3, -0.1])
    pts, _ = _lattice(x, 6.0, 41)
    for s in (1.0, 2.0):
        Gm = s * states.SqueezeMatrix([[0.25, 0.1], [0.1, -0.15]]).covariance(1.0)
        tracemalloc.start()
        try:
            R = states.rho_matrix(pts, x, Gm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert R.shape == (1681, 1681)
        assert peak <= 1.1 * R.nbytes


def test_rho_degenerate_guard():
    with pytest.raises(DegenerateStateError):
        states.rho_element(0.0j, 0.0j, np.zeros(2), -0.5 * np.eye(2))
    with pytest.raises(DegenerateStateError):
        states.rho_matrix(np.zeros((4, 2)), np.zeros(2), -0.5 * np.eye(2))


#: (x, G, hbar) that rho_element and rho_matrix refuse: a NaN, an inf or an
#: asymmetric G, a wrong shape, a NaN x, hbar not finite and positive, and a
#: G whose det(1/2 + G/hbar) overflows
_BAD_RHO_INPUTS = [
    (np.zeros(2), [[np.nan, 0.0], [0.0, 0.5]], 1.0),
    (np.zeros(2), [[np.inf, 0.0], [0.0, 0.5]], 1.0),
    (np.zeros(2), [[0.5, 0.1], [0.2, 0.5]], 1.0),
    (np.zeros(2), np.eye(3), 1.0),
    (np.zeros(3), _vac_G(1.0), 1.0),
    ([np.nan, 0.0], _vac_G(1.0), 1.0),
    (np.zeros(2), _vac_G(1.0), 0.0),
    (np.zeros(2), _vac_G(1.0), -1.0),
    (np.zeros(2), _vac_G(1.0), np.nan),
    (np.zeros(2), _vac_G(1.0), np.inf),
    (np.zeros(2), [[1e300, 0.0], [0.0, 1e300]], 1.0),
]


def test_rho_matrix_input_check():
    with pytest.raises(StateError):
        states.rho_matrix(np.zeros((4, 3)), np.zeros(2), _vac_G(1.0))
    for x, Gm, hbar in _BAD_RHO_INPUTS:
        with pytest.raises(StateError):
            states.rho_matrix(np.zeros((4, 2)), x, Gm, hbar)
        with pytest.raises(StateError):
            states.rho_element(0.0j, 0.0j, x, Gm, hbar)


# -- symplectic pull-back ----------------------------------------------------


def test_pullback_constant_field():
    form = states.omega_pullback(lambda x: np.zeros((2, 2)), np.zeros(2), 1.0)
    assert form.x_coeff == pytest.approx(states.CLASSICAL_BLOCK_FACTOR * 2)
    assert form.g_coeff == pytest.approx(0.0, abs=1e-12)
    assert form.total == form.x_coeff


def test_pullback_analytic_vs_fd():
    def g_field(x):
        s = 0.2 * x[0] + 0.1 * x[1] ** 2
        off = 0.05 * x[0] * x[1]
        return np.array([[s, off], [off, -s]])

    def dg(x):
        grads = np.zeros((2, 2, 2))
        grads[0, 0] = [0.2, 0.2 * x[1]]
        grads[1, 1] = [-0.2, -0.2 * x[1]]
        grads[0, 1] = grads[1, 0] = [0.05 * x[1], 0.05 * x[0]]
        return grads

    x = np.array([0.7, -0.4])
    a = states.omega_pullback(g_field, x, 0.9, dg=dg)
    b = states.omega_pullback(g_field, x, 0.9)
    assert a.g_coeff == pytest.approx(b.g_coeff, rel=1e-6, abs=1e-10)
    assert a.g_coeff != 0.0


def test_pullback_scales_with_hbar():
    def g_field(x):
        return np.array([[0.3 * x[0], 0.1 * x[1]], [0.1 * x[1], -0.3 * x[0]]])

    x = np.array([0.5, 0.2])
    a = states.omega_pullback(g_field, x, 1.0)
    b = states.omega_pullback(g_field, x, 2.0)
    assert b.g_coeff == pytest.approx(2 * a.g_coeff, rel=1e-8)
    assert b.x_coeff == a.x_coeff


def test_pullback_json():
    form = states.omega_pullback(lambda x: np.zeros((2, 2)), np.zeros(2), 1.0)
    payload = json.loads(form.to_json())
    assert set(payload) == {"x_coeff", "g_coeff", "total"}
    assert payload["total"] == payload["x_coeff"] + payload["g_coeff"]
