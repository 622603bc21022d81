"""Integrator, closed-form reference solutions, and the order-scaling
diagnostic."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from momentflow import adiabatic as adi
from momentflow import cli
from momentflow import dynamics as dyn
from momentflow.errors import DomainError, RangeError, StateError
from momentflow.hamiltonian import (
    ClassicalHamiltonian,
    PotentialSpec,
    expand_quantum_hamiltonian,
    from_dimensionless,
    generate_eom,
)
from momentflow.moment_algebra import MomentIndex, SemiclassicalState, check_uncertainty_order2


def G(a, n):
    return MomentIndex.single(a, n)


def _coherent_state(m, w, hbar, q, p, n_max):
    emb = dyn.HarmonicCoherentEmbedding(ClassicalHamiltonian(m=m, omega=w))
    return emb.state(q, p, hbar, n_max)


def _harmonic_system(n_max=2, m=1.0, w=1.0):
    return generate_eom(expand_quantum_hamiltonian(ClassicalHamiltonian(m=m, omega=w), n_max))


# -- integration -------------------------------------------------------------


def test_integrate_harmonic_coherent():
    m, w, hbar = 1.0, 1.3, 0.8
    system = _harmonic_system(2, m, w)
    s0 = _coherent_state(m, w, hbar, 1.0, 0.0, 2)
    traj = dyn.integrate(system, s0, (0.0, 2 * math.pi / w), rtol=1e-11, atol=1e-13)
    assert traj.complete
    t = traj.t
    assert np.allclose(traj.column("q"), np.cos(w * t), atol=1e-8)
    assert np.allclose(traj.column("p"), -m * w * np.sin(w * t), atol=1e-8)
    for a in range(3):
        val = s0.G(a, 2)
        assert np.allclose(traj.column(f"G_{a}_2"), val, atol=1e-10)


def test_integrate_rejects_bad_tolerances():
    system = _harmonic_system(2)
    s0 = _coherent_state(1.0, 1.0, 1.0, 0.0, 0.0, 2)
    with pytest.raises(StateError):
        dyn.integrate(system, s0, (0.0, 1.0), rtol=0.0)


def test_integrate_validates_initial_state():
    system = _harmonic_system(2)
    bad = SemiclassicalState(
        1.0, {"q": 0.0, "p": 0.0}, {G(0, 2): 0.1, G(1, 2): 0.0, G(2, 2): 0.1}, 2
    )
    with pytest.raises(StateError):
        dyn.integrate(system, bad, (0.0, 1.0))


def test_time_reversal():
    system = _harmonic_system(3)
    s0 = _coherent_state(1.0, 1.0, 0.5, 0.8, 0.3, 3)
    fwd = dyn.integrate(system, s0, (0.0, 2.0), rtol=1e-11, atol=1e-13)
    s1 = fwd.state(-1)
    back = dyn.integrate(system, s1, (2.0, 0.0), rtol=1e-11, atol=1e-13)
    assert np.allclose(back.y[-1], system.pack(s0), atol=1e-7)


# -- the stepper against scipy's RK45 ----------------------------------------


def _solve_ivp(fun, y0, t_eval, rtol, atol, event=None):
    """scipy's RK45 on the stepper's inputs (fun and event take y only)."""
    events = None
    if event is not None:
        def events(t, y):
            return event(y)

        events.terminal, events.direction = True, -1
    return solve_ivp(lambda t, y: fun(y), (t_eval[0], t_eval[-1]), y0, method="RK45",
                     t_eval=t_eval, rtol=rtol, atol=atol, events=events)


@pytest.mark.parametrize("model, n_max, backward", [
    ("harmonic", 3, False), ("harmonic", 8, False),
    ("quartic", 3, False), ("quartic", 8, False), ("quartic", 3, True),
])
def test_integrate_bit_identical_to_solve_ivp(model, n_max, backward):
    cfg = cli.load_config(None, {"model": model, "n_max": n_max})
    H = cli.build_model(cfg)
    system = generate_eom(expand_quantum_hamiltonian(H, n_max), closure=cfg["closure"])
    s0 = cli.initial_state(cfg, H)
    span = (cfg["t1"], cfg["t0"]) if backward else (cfg["t0"], cfg["t1"])
    traj = dyn.integrate(system, s0, span, cfg["samples"], cfg["rtol"], cfg["atol"])
    sol = _solve_ivp(system.compile(s0.hbar), system.pack(s0), np.linspace(*span, cfg["samples"]),
                     cfg["rtol"], cfg["atol"])
    assert sol.status == 0 and traj.complete
    assert np.array_equal(traj.t, sol.t) and np.array_equal(traj.y, sol.y.T)
    assert traj.stats["nfev"] == sol.nfev


def _cosmology_collapse():
    model = ClassicalHamiltonian(kind="cosmology", gamma=1.0, kappa=1.0, E=1.0)
    system = generate_eom(expand_quantum_hamiltonian(model, 2))
    s0 = SemiclassicalState(1e-6, {"c": -0.5, "p": 1.0}, {G(a, 2): 0.0 for a in range(3)}, 2)
    return dyn.integrate(system, s0, (0.0, 100.0), validate=False)


def _adiabatic_breakdown():
    H = ClassicalHamiltonian(potential=PotentialSpec(coefficients=[0.0, 0.0, 0.0, -0.2]))
    return adi.solve_effective(adi.AdiabaticConfig(), H, 1e-6, 0.2, 1.2, (0.0, 10.0))


@pytest.mark.parametrize("run", [_cosmology_collapse, _adiabatic_breakdown],
                         ids=["cosmology-p-guard", "adiabatic-breakdown"])
def test_event_runs_match_solve_ivp(run, monkeypatch):
    # spy on the stepper to replay its own RHS and event through scipy
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs, stepper(*args, **kwargs)))
        return calls[-1][2]

    stepper = dyn.dormand_prince
    monkeypatch.setattr(dyn, "dormand_prince", spy)
    monkeypatch.setattr(adi, "dormand_prince", spy)
    traj = run()
    (args, kwargs, got), = calls
    sol = _solve_ivp(*args, **kwargs)
    assert got.status == sol.status == 1 and not traj.complete
    assert abs(got.t_stop - sol.t_events[0][0]) <= 1e-12
    assert np.array_equal(got.t, sol.t) and np.array_equal(got.y, sol.y.T)
    assert np.array_equal(traj.t, sol.t)


def _harmonic_run():
    return dyn.integrate(_harmonic_system(2), _coherent_state(1.0, 1.0, 1.0, 1.0, 0.0, 2),
                         (0.0, 1.0))


def _quartic_divergence():
    # the truncated quartic system with delta = -5 diverges at t = 1.7275
    cfg = cli.load_config(None, {"model": "quartic", "delta": -5})
    H = cli.build_model(cfg)
    system = generate_eom(expand_quantum_hamiltonian(H, cfg["n_max"]))
    return dyn.integrate(system, cli.initial_state(cfg, H), (cfg["t0"], cfg["t1"]))


def _adiabatic_run():
    H = ClassicalHamiltonian(potential=PotentialSpec.quartic(0.1))
    return adi.solve_effective(adi.AdiabaticConfig(), H, 1.0, 1.0, 0.0, (0.0, 1.0))


@pytest.mark.parametrize("run, status", [
    (_harmonic_run, 0), (_cosmology_collapse, 1), (_quartic_divergence, -1),
    (_adiabatic_run, 0), (_adiabatic_breakdown, 1),
], ids=["integrate", "integrate-p-guard", "integrate-collapse", "adiabatic",
        "adiabatic-breakdown"])
def test_integrate_and_solve_effective_share_one_stats_schema(run, status):
    traj = run()
    stats = traj.stats
    assert stats["status"] == status and traj.complete == (status == 0)
    keys = {"method", "rtol", "atol", "nfev", "nsteps", "nrejected", "status", "t_stop"}
    assert set(stats) == (keys | {"stop_cause"} if status else keys)
    assert stats["nfev"] == 2 + 6 * (stats["nsteps"] + stats["nrejected"])
    if status:
        assert traj.stop == f"{stats['stop_cause']} at t={stats['t_stop']!r}"


# -- trajectory container ----------------------------------------------------


def test_trajectory_monotonic_guard():
    with pytest.raises(StateError):
        dyn.Trajectory(np.array([0.0, 1.0, 0.5]), np.zeros((3, 2)), ["q", "p"], 1.0)


def test_trajectory_csv_json(tmp_path):
    system = _harmonic_system(2)
    s0 = _coherent_state(1.0, 1.0, 1.0, 1.0, 0.0, 2)
    traj = dyn.integrate(system, s0, (0.0, 0.5), n_samples=11)
    csv_path = tmp_path / "traj.csv"
    traj.to_csv(csv_path)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t"] + traj.labels
    assert len(rows) == 12
    assert float(rows[1][1]) == pytest.approx(1.0)

    json_path = tmp_path / "traj.json"
    traj.to_json(json_path)
    payload = json.loads(json_path.read_text())
    assert payload["labels"] == traj.labels
    assert payload["complete"] is True
    assert len(payload["t"]) == 11


# -- harmonic closed forms ---------------------------------------------------


def test_mode_constants_roundtrip():
    A = dyn.HarmonicModeConstants.from_moments(0.7, 0.1, 0.9)
    assert A.n2_values(0.0) == pytest.approx((0.7, 0.1, 0.9))
    assert A.uncertainty_margin() == pytest.approx(
        0.8**2 - 4 * abs(A.A2) ** 2 - 0.25
    )


def test_coherent_mode_constants_saturate():
    A = dyn.HarmonicModeConstants.from_moments(0.5, 0.0, 0.5)
    assert abs(A.uncertainty_margin()) < 1e-14


def test_harmonic_analytic_matches_integration():
    m, w, hbar = 1.0, 1.0, 1.0
    system = _harmonic_system(2)
    g0 = (0.7, 0.1, 0.9)
    moments = {G(a, 2): from_dimensionless(g0[a], a, 2, m, w, hbar) for a in range(3)}
    s0 = SemiclassicalState(hbar, {"q": 0.0, "p": 1.0}, moments, 2)
    traj = dyn.integrate(system, s0, (0.0, 3.0), rtol=1e-11, atol=1e-13)
    A = dyn.HarmonicModeConstants.from_moments(*g0)
    for i in (30, 77, 150, 200):
        theta = w * traj.t[i]
        vals = dyn.harmonic_analytic(A, 2, theta)
        got = [traj.y[i][traj.labels.index(f"G_{a}_2")] for a in range(3)]
        assert np.allclose(got, vals, atol=1e-8)


def test_harmonic_analytic_invariants():
    A = dyn.HarmonicModeConstants.from_moments(0.6, 0.2, 0.8)
    for theta in (0.3, 1.7, 4.0):
        g02, g12, g22 = A.n2_values(theta)
        assert (g02 + g22) / 2 == pytest.approx(A.A0)
        assert g02 * g22 - g12**2 == pytest.approx(
            A.A0**2 - 4 * abs(A.A2) ** 2
        )


def test_harmonic_analytic_general_order():
    vec = np.array([0.75, 0.0, 0.25, 0.0, 0.75])
    out = dyn.harmonic_analytic(vec, 4, 2 * math.pi)
    assert np.allclose(out, vec, atol=1e-12)
    with pytest.raises(RangeError):
        dyn.harmonic_analytic(dyn.HarmonicModeConstants(0.5), 4, 0.0)


def _mode_matrix(n):
    """Generator of the order-n moment rotation:
    (d/d theta) G(a) = (n - a) G(a+1) - a G(a-1)."""
    return np.diag(np.arange(n, 0, -1.0), 1) - np.diag(np.arange(1.0, n + 1), -1)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.floats(-10, 10),
       st.lists(st.floats(-1, 1), min_size=13, max_size=13))
def test_harmonic_analytic_matches_expm(n, theta, amplitudes):
    vec = np.array(amplitudes[: n + 1])
    want = expm(theta * _mode_matrix(n)) @ vec
    got = dyn.harmonic_analytic(vec, n, theta)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * (1 + np.max(np.abs(want))))


def test_coherent_tilde_moments():
    assert dyn.coherent_tilde_moment(0, 2) == pytest.approx(0.5)
    assert dyn.coherent_tilde_moment(1, 2) == 0.0
    assert dyn.coherent_tilde_moment(0, 4) == pytest.approx(0.75)
    assert dyn.coherent_tilde_moment(2, 4) == pytest.approx(0.25)
    assert dyn.coherent_tilde_moment(1, 3) == 0.0


# -- free particle -----------------------------------------------------------


def test_free_particle_closed_form_matches_integration():
    m, hbar = 1.0, 1.0
    q0, p0 = 0.0, 1.0
    c = dyn.coherent_free_constants(q0, p0, m, 1.0, hbar)
    system = generate_eom(expand_quantum_hamiltonian(ClassicalHamiltonian(m=m, omega=0.0), 2))
    ref = dyn.free_particle_moments(c, q0, p0, 2, hbar)
    s0 = SemiclassicalState(hbar, {"q": q0, "p": p0}, {G(a, 2): ref[a] for a in range(3)}, 2)
    traj = dyn.integrate(system, s0, (0.0, 5.0), rtol=1e-11, atol=1e-13)
    for i in (50, 120, 200):
        q, p = traj.y[i][0], traj.y[i][1]
        ref_t = dyn.free_particle_moments(c, q, p, 2, hbar)
        for a in range(3):
            col = traj.labels.index(f"G_{a}_2")
            assert traj.y[i][col] == pytest.approx(ref_t[a], rel=1e-8, abs=1e-10)


def test_coherent_free_constants_saturate():
    c = dyn.coherent_free_constants(0.4, 1.3, 1.0, 2.0, 0.7)
    out = dyn.free_particle_moments(c, 0.4, 1.3, 2, 0.7)
    assert abs(out[-1]) < 1e-14
    assert out[0] == pytest.approx(0.7 / (2 * 1.0 * 2.0))


def test_free_particle_input_checks():
    with pytest.raises(RangeError):
        dyn.free_particle_moments([1.0, 0.0], 0.0, 1.0, 2)
    with pytest.raises(DomainError):
        dyn.coherent_free_constants(0.0, 0.0, 1.0, 1.0, 1.0)


# -- cosmology ---------------------------------------------------------------


def test_cosmology_params_defaults():
    params = dyn.CosmologyParams(gamma=0.5, kappa=2.0, E=3.0, hbar=0.25)
    assert params.ell == pytest.approx(6.0)
    assert params.ell_P == pytest.approx(math.sqrt(0.5))
    c, p = 0.4, 1.21
    assert params.x_coord(c, p) == pytest.approx(
        0.5 * math.log(6.0 * c**2 / math.sqrt(p))
    )
    with pytest.raises(DomainError):
        params.x_coord(0.4, -1.0)


def test_cosmology_g_solution_deep_expansion_limit():
    params = dyn.CosmologyParams(g0=0.3, g32=0.2, g3=0.1)
    # ell c^2 / sqrt(p) -> 0 kills the growing pieces
    g02, g12, g22 = params, None, None
    g02, g12, g22 = dyn.cosmology_g_solution(params, 1e-8, 1.0)
    assert g02 == pytest.approx(0.3, abs=1e-8)
    assert g12 == pytest.approx(0.6, abs=1e-8)
    assert g22 == pytest.approx(1.2, abs=1e-8)


def test_cosmology_uncertainty_margin_sign():
    good = dyn.CosmologyParams(g0=1.0, g3=1.0)
    assert good.uncertainty_margin(0.5, 1.0) > 0
    bad = dyn.CosmologyParams(g0=0.0, g32=0.0, g3=0.0)
    assert bad.uncertainty_margin(0.5, 1.0) < 0


def test_cosmology_uncertainty_margin_rejects_c_zero():
    # the bound divides by (c^2 sqrt(p))^2.5: c = 0 (once a ZeroDivisionError)
    # and ell <= 0 are the DomainError of x_coord, and a tiny c whose power
    # underflows is one too
    params = dyn.CosmologyParams(g0=1.0, g3=1.0)
    for c, p in [(0.0, 1.0), (-0.0, 2.0), (1e-70, 1.0)]:
        with pytest.raises(DomainError):
            params.uncertainty_margin(c, p)
    with pytest.raises(DomainError, match="ell c"):
        dyn.CosmologyParams(ell=-1.0).uncertainty_margin(0.5, 1.0)


def _cosmology_order2_state(gamma, kappa, g02, g12, g22):
    model = ClassicalHamiltonian(kind="cosmology", gamma=gamma, kappa=kappa, E=1.0)
    s0 = SemiclassicalState(1.0, {"c": -0.5, "p": 1.0}, {G(0, 2): g02, G(1, 2): g12, G(2, 2): g22}, 2)
    return generate_eom(expand_quantum_hamiltonian(model, 2)), s0


def test_integrate_uncertainty_bound_carries_the_bracket_scale():
    # {c, p} = gamma kappa / 3, so the order-2 bound is (hbar gamma kappa / 3)^2 / 4:
    # 0.09 passes at gamma = kappa = 1 (bound 1/36), and 1 fails at 3 (bound 9/4)
    system, s0 = _cosmology_order2_state(1.0, 1.0, 0.3, 0.0, 0.3)
    dyn.integrate(system, s0, (0.0, 0.01), n_samples=3)
    system, s0 = _cosmology_order2_state(3.0, 3.0, 1.0, 0.0, 1.0)
    with pytest.raises(StateError, match="order-2 uncertainty"):
        dyn.integrate(system, s0, (0.0, 0.01), n_samples=3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gamma=st.floats(0.2, 5), kappa=st.floats(0.2, 5), hbar=st.floats(0.05, 2),
       c=st.floats(0.1, 2) | st.floats(-2, -0.1), p=st.floats(0.1, 4),
       g0=st.floats(0, 0.5), g32=st.floats(-0.5, 0.5), g3=st.floats(0, 0.5))
def test_moment_margin_is_the_cosmology_margin(gamma, kappa, hbar, c, p, g0, g32, g3):
    # the order-2 moment margin with {c, p} = gamma kappa / 3 is the bound on
    # the g constants times 9 e^{3x} c^2 p^2; the tolerance is relative to the
    # terms, as the margin may cancel them
    params = dyn.CosmologyParams(gamma=gamma, kappa=kappa, hbar=hbar, g0=g0, g32=g32, g3=g3)
    s0 = SemiclassicalState(hbar, {"c": c, "p": p}, dyn.cosmology_moments(params, c, p), 2)
    scale = ClassicalHamiltonian(kind="cosmology", gamma=gamma, kappa=kappa).bracket_scale
    margin = check_uncertainty_order2(s0, scale)
    expected = 9 * params._e3x2(c, p) ** 2 * c**2 * p**2 * params.uncertainty_margin(c, p)
    terms = abs(s0.G(0, 2) * s0.G(2, 2)) + s0.G(1, 2) ** 2 + (hbar * scale) ** 2 / 4
    assert margin == pytest.approx(expected, rel=1e-9, abs=1e-9 * terms)


def test_cosmology_series_vs_direct_half_factor():
    params = dyn.CosmologyParams(g0=0.02, g32=0.005, g3=0.01, hbar=1e-3)
    c, p = -0.3, 2.0
    out = dyn.cosmology_effective_rhs(params, c, p)
    # the direct bracket flow carries a global factor 1/2 relative to the
    # printed series, uniformly in the correction terms
    corr_series_c = out["cdot_series"] / out["cdot_classical"] - 1.0
    corr_direct_c = out["cdot_direct"] / (out["cdot_classical"] / 2.0) - 1.0
    assert corr_direct_c == pytest.approx(corr_series_c, rel=1e-9)
    corr_series_p = out["pdot_series"] / out["pdot_classical"] - 1.0
    corr_direct_p = out["pdot_direct"] / (out["pdot_classical"] / 2.0) - 1.0
    assert corr_direct_p == pytest.approx(corr_series_p, rel=1e-9)


def test_cosmology_moment_rates_are_transport():
    # the closed-form rates must equal the chain-rule derivative of the
    # g-solution along the classical flow with the g amplitudes frozen
    params = dyn.CosmologyParams(g0=3e-4, g32=1e-4, g3=2e-4, hbar=1e-6)
    c, p = -0.3, 2.0
    gamma = params.gamma
    cdot = -(c**2) / (2 * gamma * math.sqrt(p))
    pdot = 2 * c * math.sqrt(p) / gamma
    eps = 1e-7
    plus = dyn.cosmology_moments(params, c + eps * cdot, p + eps * pdot)
    minus = dyn.cosmology_moments(params, c - eps * cdot, p - eps * pdot)
    rates = dyn.cosmology_moment_rates(params, c, p)
    for idx, vp in plus.items():
        fd = (vp - minus[idx]) / (2 * eps)
        assert rates[str(idx)] == pytest.approx(fd, rel=1e-6)


def test_cosmology_moment_rates_vs_direct():
    # the bracket flow of the moments, with {c, p} = gamma kappa / 3 scaling
    # the moment brackets too, is the transport of the g-solution
    c, p = -0.3, 2.0
    for gamma, kappa in [(1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (0.5, 2.0)]:
        params = dyn.CosmologyParams(gamma=gamma, kappa=kappa, g0=3e-4, g32=1e-4, g3=2e-4, hbar=1e-6)
        out = dyn.cosmology_effective_rhs(params, c, p)
        for label, val in dyn.cosmology_moment_rates(params, c, p).items():
            assert out["moment_rates_direct"][label] == pytest.approx(val, rel=1e-12), (gamma, kappa)


def test_cosmology_collapse_hits_guard():
    # zero moments: the classical collapse runs p down to the relative floor
    params = dyn.CosmologyParams(hbar=1e-6)
    model = ClassicalHamiltonian(kind="cosmology", gamma=1.0, kappa=1.0, E=1.0)
    system = generate_eom(expand_quantum_hamiltonian(model, 2))
    s0 = SemiclassicalState(
        1e-6, {"c": -0.5, "p": 1.0}, {G(a, 2): 0.0 for a in range(3)}, 2
    )
    traj = dyn.integrate(system, s0, (0.0, 100.0), validate=False)
    assert not traj.complete
    assert traj.y[-1][system.variables.index("p")] > 0


def test_cosmology_backreaction_failure_is_flagged():
    # growing n = 2 moments make collapse integration fail before p -> 0;
    # the failure must surface as a diagnosable error, not silent garbage
    params = dyn.CosmologyParams(g0=1.0, g32=0.0, g3=1.0, hbar=1.0)
    model = ClassicalHamiltonian(kind="cosmology", gamma=1.0, kappa=1.0, E=1.0)
    system = generate_eom(expand_quantum_hamiltonian(model, 2))
    c0, p0 = -0.5, 1.0
    s0 = SemiclassicalState(1.0, {"c": c0, "p": p0}, dyn.cosmology_moments(params, c0, p0), 2)
    try:
        traj = dyn.integrate(system, s0, (0.0, 100.0))
        assert not traj.complete
    except DomainError:
        pass


# -- order-scaling diagnostic ------------------------------------------------


def test_order_check_requires_hbar_span():
    model = ClassicalHamiltonian()
    emb = dyn.HarmonicCoherentEmbedding(model)
    with pytest.raises(RangeError):
        dyn.order_check(emb, model, [1e-3, 1e-2, 1e-1])
    with pytest.raises(RangeError):
        dyn.order_check(emb, model, [1e-2, 2e-2, 4e-2, 8e-2])


def test_order_check_harmonic_exact():
    model = ClassicalHamiltonian(m=1.0, omega=1.0)
    res = dyn.order_check(
        dyn.HarmonicCoherentEmbedding(model), model, np.geomspace(1e-3, 1e-1, 5)
    )
    assert res.exact
    assert str(res) == "exact"


def test_order_check_free_slope_zero():
    model = ClassicalHamiltonian(m=1.0, omega=0.0)
    ref = {
        G(a, 2): dyn.free_particle_moments(
            dyn.coherent_free_constants(1.0, 1.0, 1.0, 1.0, 1.0), 1.0, 1.0, 2
        )[a]
        for a in range(3)
    }
    res = dyn.order_check(
        dyn.FreeConstantEmbedding(model, ref), model, np.geomspace(1e-3, 1e-1, 5)
    )
    assert not res.exact
    assert abs(res.slope) < 0.05
