"""End-to-end acceptance checks, one per criterion, each emitting a single
pass/fail line (run with -s to see them)."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import adiabatic_invariants as inv
from momentflow import adiabatic as adi
from momentflow import dynamics as dyn
from momentflow import oracle as orc
from momentflow import states
from momentflow.hamiltonian import (
    ClassicalHamiltonian,
    PotentialSpec,
    expand_quantum_hamiltonian,
    from_dimensionless,
    generate_eom,
)
from momentflow.moment_algebra import (
    MomentIndex,
    bracket_moments,
    check_uncertainty_generating,
    check_uncertainty_order2,
    moment_indices,
)

def G(a, n):
    return MomentIndex.single(a, n)


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:D=16 is small")
def test_A1_bracket_formula_vs_commutator_oracle():
    t_start = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0

    # 1 DOF, all index pairs with n, m <= 4, 20 random states at D = 60
    space = orc.FockSpace(60, 1.0, 1.0, 1.0)
    idxs1 = [i for n in (2, 3, 4) for i in moment_indices(n, 1)]
    for _ in range(20):
        psi = orc.random_state(rng, 60, support=20)
        st = orc.moments_of(psi, space, 6)
        for a in range(len(idxs1)):
            for b in range(a, len(idxs1)):
                lhs = bracket_moments(idxs1[a], idxs1[b]).evaluate(st)
                rhs = orc.bracket_oracle(idxs1[a], idxs1[b], psi, space)
                tol = 1e-10 + 1e-8 * abs(rhs) if abs(rhs) > 1e-6 else 1e-10
                err = abs(lhs - rhs)
                worst = max(worst, err / tol)
                assert err < tol, (idxs1[a], idxs1[b], lhs, rhs)

    # 2 DOF, all index pairs with n, m <= 3, entangled small-support states
    space2 = orc.FockSpace(16, 1.0, 1.0, 1.0, dof=2)
    idxs2 = [i for n in (2, 3) for i in moment_indices(n, 2)]
    for _ in range(20):
        parts = [orc.random_state(rng, 16, support=7) for _ in range(4)]
        psi = np.kron(parts[0], parts[1]) + 0.5 * np.kron(parts[2], parts[3])
        psi = psi / np.linalg.norm(psi)
        st = orc.moments_of(psi, space2, 4)
        for a in range(len(idxs2)):
            for b in range(a, len(idxs2)):
                lhs = bracket_moments(idxs2[a], idxs2[b]).evaluate(st)
                rhs = orc.bracket_oracle(idxs2[a], idxs2[b], psi, space2)
                tol = 1e-10 + 1e-8 * abs(rhs) if abs(rhs) > 1e-6 else 1e-10
                err = abs(lhs - rhs)
                worst = max(worst, err / tol)
                assert err < tol, (idxs2[a], idxs2[b], lhs, rhs)

    elapsed = time.time() - t_start
    _report(
        "A1 bracket formula vs commutator oracle",
        elapsed < 60.0,
        f"worst err/tol {worst:.2e}, {elapsed:.1f}s",
    )


def test_A2_harmonic_strong_effective_system():
    t_start = time.time()
    m = w = hbar = 1.0
    n_max = 4
    model = ClassicalHamiltonian(m=m, omega=w)
    system = generate_eom(expand_quantum_hamiltonian(model, n_max))
    emb = dyn.ConstantMomentEmbedding.coherent(model)
    s0 = emb.state(1.0, 0.0, hbar, n_max)
    T = 10 * 2 * math.pi
    traj = dyn.integrate(system, s0, (0.0, T), n_samples=401, rtol=1e-12, atol=1e-14)

    err_x = max(
        np.max(np.abs(traj.column("q") - np.cos(traj.t))),
        np.max(np.abs(traj.column("p") + np.sin(traj.t))),
    )
    err_g = 0.0
    for n in range(2, n_max + 1):
        for idx in moment_indices(n, 1):
            ref = from_dimensionless(
                dyn.coherent_tilde_moment(idx.p_power, n), idx.p_power, n, m, w, hbar
            )
            err_g = max(err_g, np.max(np.abs(traj.column(str(idx)) - ref)))

    space = orc.FockSpace(60, m, w, hbar)
    vac = np.zeros(60, dtype=complex)
    vac[0] = 1.0
    psi0 = orc.displacement((1.0, 0.0), space) @ vac
    Hop = space.p1 @ space.p1 / 2 + space.q1 @ space.q1 / 2
    prop = orc.Propagator(Hop, hbar)
    err_orc = 0.0
    for i in range(0, 401, 50):
        st = orc.moments_of(prop(psi0, traj.t[i]), space, n_max)
        err_orc = max(err_orc, abs(st.x["q"] - traj.y[i][0]), abs(st.x["p"] - traj.y[i][1]))
        for n in range(2, n_max + 1):
            for idx in moment_indices(n, 1):
                col = traj.labels.index(str(idx))
                err_orc = max(err_orc, abs(st.moment(idx) - traj.y[i][col]))

    elapsed = time.time() - t_start
    _report(
        "A2 harmonic strong effective system",
        err_g < 1e-8 and err_x < 1e-6 and err_orc < 1e-8 and elapsed < 10.0,
        f"moments {err_g:.2e}, (q,p) {err_x:.2e}, oracle {err_orc:.2e}, {elapsed:.1f}s",
    )


def test_A3_free_particle_spreading():
    m = hbar = 1.0
    q0, p0 = 0.0, 1.0
    c = dyn.coherent_free_constants(q0, p0, m, 1.0, hbar)
    model = ClassicalHamiltonian(m=m, omega=0.0)
    system = generate_eom(expand_quantum_hamiltonian(model, 2))
    ref0 = dyn.free_particle_moments(c, q0, p0, 2)
    from momentflow.moment_algebra import SemiclassicalState

    s0 = SemiclassicalState(hbar, {"q": q0, "p": p0}, {G(a, 2): ref0[a] for a in range(3)}, 2)
    traj = dyn.integrate(system, s0, (0.0, 5.0), n_samples=201, rtol=1e-12, atol=1e-14)
    err_closed = 0.0
    for i in range(201):
        q, p = traj.y[i][0], traj.y[i][1]
        ref = dyn.free_particle_moments(c, q, p, 2)
        col = traj.labels.index("G_0_2")
        err_closed = max(err_closed, abs(traj.y[i][col] - ref[0]))

    space = orc.FockSpace(200, m, 1.0, hbar)
    vac = np.zeros(200, dtype=complex)
    vac[0] = 1.0
    psi0 = orc.displacement((q0, p0), space) @ vac
    prop = orc.Propagator(space.p1 @ space.p1 / (2 * m), hbar)
    err_orc = 0.0
    for t in np.linspace(0.0, 1.0, 6):
        st = orc.moments_of(prop(psi0, t), space, 2)
        qt = q0 + p0 * t / m
        ref = dyn.free_particle_moments(c, qt, p0, 2)
        err_orc = max(err_orc, abs(st.G(0, 2) - ref[0]))

    _report(
        "A3 free-particle spreading",
        err_closed < 1e-8 and err_orc < 1e-4,
        f"closed form {err_closed:.2e}, oracle {err_orc:.2e}",
    )


def test_A4_quartic_effective_vs_exact():
    m = w = hbar = 1.0
    delta = 0.1
    model = ClassicalHamiltonian(m=m, omega=w, potential=PotentialSpec.quartic(delta))
    space = orc.FockSpace(120, m, w, hbar)
    vac = np.zeros(120, dtype=complex)
    vac[0] = 1.0
    psi0 = orc.displacement((1.0, 0.0), space) @ vac
    Hop = (
        space.p1 @ space.p1 / 2
        + space.q1 @ space.q1 / 2
        + (delta / 24.0) * np.linalg.matrix_power(space.q1, 4)
    )
    prop = orc.Propagator(Hop, hbar)

    # (a) adiabatic trajectory vs <q> over two periods, against classical
    T2 = 2 * 2 * math.pi
    ts = np.linspace(0.0, T2, 121)
    q_exact = np.array([orc.moments_of(prop(psi0, t), space, 2).x["q"] for t in ts])
    traj = adi.solve_effective(
        adi.AdiabaticConfig(), model, hbar, 1.0, 0.0, (0.0, T2), n_samples=121
    )
    err_adi = float(np.max(np.abs(traj.column("q") - q_exact)))

    def classical_rhs(t, y):
        return [y[1], -(y[0] + model.potential.derivative(y[0], 1))]

    sol = solve_ivp(classical_rhs, (0.0, T2), [1.0, 0.0], t_eval=ts, rtol=1e-11, atol=1e-13)
    err_cl = float(np.max(np.abs(sol.y[0] - q_exact)))
    ratio = err_adi / err_cl

    # (b) n_max = 3 moment system vs oracle second moments over one period
    T1 = 2 * math.pi
    system = generate_eom(expand_quantum_hamiltonian(model, 3))
    st0 = orc.moments_of(psi0, space, 3)
    mtraj = dyn.integrate(system, st0, (0.0, T1), n_samples=61, rtol=1e-10, atol=1e-12)
    err_mom = 0.0
    for i in range(0, 61, 5):
        st = orc.moments_of(prop(psi0, mtraj.t[i]), space, 2)
        for a in range(3):
            col = mtraj.labels.index(f"G_{a}_2")
            err_mom = max(err_mom, abs(mtraj.y[i][col] - st.G(a, 2)))

    _report(
        "A4 quartic effective dynamics vs exact evolution",
        err_adi <= 2e-2 and ratio <= 0.5 and err_mom <= 5e-2,
        f"<q> err {err_adi:.2e}, vs classical ratio {ratio:.3f}, G(a,2) err {err_mom:.2e}",
    )


def test_A5_effective_action_identity():
    delta, hbar = 0.1, 1.0
    model = ClassicalHamiltonian(potential=PotentialSpec.quartic(delta))
    cfg = adi.AdiabaticConfig()
    system = generate_eom(expand_quantum_hamiltonian(model, 2))
    emb = adi.AdiabaticEmbedding(model, cfg)
    rng = np.random.default_rng(3)

    worst_el = worst_lemma = worst_g2 = 0.0
    for _ in range(20):
        q = float(rng.uniform(0.2, 1.6))
        p = float(rng.uniform(-1.0, 1.0))
        qdot = p / model.m
        qdd = adi._qddot(q, qdot, cfg, model, hbar)
        # Euler-Lagrange form vs the compiled flow on the embedded state
        st = emb.state(q, p, hbar, 2)
        vals = dict(zip(system.labels(), system.compile(hbar)(system.pack(st))))
        co = adi.effective_coefficients(q, cfg, model, hbar)
        worst_el = max(
            worst_el,
            abs(co.m_eff * qdd + co.B * qdot**2 + co.F_q),
            abs(vals["p"] - model.m * qdd),
        )
        for n in (2, 4, 6):
            worst_lemma = max(
                worst_lemma, abs(inv.lemma_constraint_residual(q, qdot, n, cfg, model))
            )
        worst_g2 = max(
            worst_g2,
            abs(
                adi.g2_correction(q, qdot, qdd, cfg, model)
                - inv.g2_correction_expanded(q, qdot, qdd, cfg, model)
            ),
        )

    _report(
        "A5 effective-action identity",
        worst_el < 1e-12 and worst_lemma < 1e-12 and worst_g2 < 1e-12,
        f"EL {worst_el:.2e}, constraint {worst_lemma:.2e}, G2 forms {worst_g2:.2e}",
    )


def test_A6_uncertainty():
    hbar = 1.0
    rng = np.random.default_rng(17)

    # order-2 saturation for coherent and squeezed states
    from momentflow.moment_algebra import SemiclassicalState

    worst_sat = 0.0
    coh = SemiclassicalState(
        hbar, {"q": 1.0, "p": 0.0}, {G(0, 2): 0.5, G(1, 2): 0.0, G(2, 2): 0.5}, 2
    )
    worst_sat = max(worst_sat, abs(check_uncertainty_order2(coh)))
    for _ in range(10):
        g = rng.normal(scale=0.4, size=(2, 2))
        g = (g + g.T) / 2
        moments = {G(a, 2): states.squeezed_moment(g, G(a, 2), hbar) for a in range(3)}
        sq = SemiclassicalState(hbar, {"q": 0.0, "p": 0.0}, moments, 2)
        worst_sat = max(worst_sat, abs(check_uncertainty_order2(sq)))

    # generating-function inequality on random oracle states
    space = orc.FockSpace(40, 1.0, 1.0, hbar)
    worst_res = 0.0
    for _ in range(50):
        psi = orc.random_state(rng, 40, support=13)
        prov = orc.OracleDProvider(psi, space)
        for _ in range(10):
            alpha = rng.normal(scale=0.25, size=2)
            beta = rng.normal(scale=0.25, size=2)
            res = check_uncertainty_generating(prov, alpha, beta)
            worst_res = min(worst_res, res)

    _report(
        "A6 uncertainty saturation and generating inequality",
        worst_sat < 1e-12 and worst_res >= -1e-10,
        f"saturation {worst_sat:.2e}, min residual {worst_res:.2e}",
    )


def test_A7_cosmology_cross_validation():
    c, p = -0.3, 2.0
    amp = 1e-3
    base = dyn.CosmologyParams(hbar=1e-6, g0=0.0, g32=0.0, g3=0.0)
    out0 = dyn.cosmology_effective_rhs(base, c, p)

    ratios = []
    for key in ("g0", "g32", "g3"):
        kw = {"hbar": 1e-6, "g0": 0.0, "g32": 0.0, "g3": 0.0, key: amp}
        out = dyn.cosmology_effective_rhs(dyn.CosmologyParams(**kw), c, p)
        for eq in ("cdot", "pdot"):
            direct_corr = out[f"{eq}_direct"] - out0[f"{eq}_direct"]
            series_corr = out[f"{eq}_series"] - out[f"{eq}_classical"]
            if abs(series_corr) > 1e-300:
                ratios.append(direct_corr / series_corr)
    ratios = np.array(ratios)
    spread = float(np.max(np.abs(ratios - ratios[0])))
    global_factor = float(ratios[0])

    # scaling of the dominant moment drift for the slow-growth choice of
    # integration constants, on the constraint surface
    ps = np.geomspace(10.0, 1e5, 9)
    rates = []
    for pv in ps:
        cv = -math.sqrt(1.0 / (3.0 * math.sqrt(pv)))  # c^2 sqrt(p) = 1/3
        g0 = (cv**2 * math.sqrt(pv)) ** -2.5  # ellP = ell = 1
        params = dyn.CosmologyParams(g0=g0, g32=0.0, g3=1.0, hbar=1.0)
        rates.append(abs(dyn.cosmology_moment_rates(params, cv, pv)["G_2_2"]))
    slope = float(np.polyfit(np.log(ps), np.log(rates), 1)[0])

    _report(
        "A7 cosmology cross-validation",
        spread < 1e-10 and abs(slope - 1.25) < 0.05,
        f"global factor {global_factor:.12g}, spread {spread:.2e}, slope {slope:.4f}",
    )


def test_A8_squeezed_state_formulas(space50):
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(10):
        g = rng.normal(scale=0.3, size=(2, 2))
        g = (g + g.T) / 2
        psi = orc.squeezed(g, (0.0, 0.0), space50)
        st = orc.moments_of(psi, space50, 4)
        for n in (2, 3, 4):
            for a in range(n + 1):
                worst = max(
                    worst, abs(st.G(a, n) - states.squeezed_moment(g, G(a, n), 1.0))
                )

    hbar = 1.0
    g = np.array([[0.25, 0.1], [0.1, -0.15]])
    Gm = states.SqueezeMatrix(g).covariance(hbar)
    x = np.array([0.3, -0.1])
    n_side = 81
    qs = np.linspace(x[0] - 6, x[0] + 6, n_side)
    pp = np.linspace(x[1] - 6, x[1] + 6, n_side)
    pts = np.array([[qv, pv] for qv in qs for pv in pp])
    dA = (qs[1] - qs[0]) * (pp[1] - pp[0])
    R = states.rho_matrix(pts, x, Gm, hbar)
    wgt = dA / (2 * math.pi * hbar)
    trace = float(np.sum(np.diag(R)).real * wgt)
    purity = float(np.einsum("ab,ba->", R, R).real * wgt**2)

    _report(
        "A8 squeezed-state formulas",
        worst < 1e-8 and abs(trace - 1) < 1e-6 and abs(purity - 1) < 1e-5,
        f"moment err {worst:.2e}, trace {trace:.8f}, purity {purity:.8f}",
    )


def test_A9_structural_decoupling():
    ok = True
    for model in (
        ClassicalHamiltonian(m=1.3, omega=0.8),
        ClassicalHamiltonian(m=2.0, omega=0.0),
        ClassicalHamiltonian(m=1.0, omega=1.0, potential=PotentialSpec(coefficients=[0.0, 0.5, 0.25])),
    ):
        for n_max in (2, 4, 6):
            system = generate_eom(expand_quantum_hamiltonian(model, n_max))
            ok = ok and system.classical_backreaction_free() and system.block_diagonal()
    # a quartic potential must break both properties
    quartic = generate_eom(
        expand_quantum_hamiltonian(
            ClassicalHamiltonian(potential=PotentialSpec.quartic(0.1)), 3
        )
    )
    broken = not quartic.classical_backreaction_free() and not quartic.block_diagonal()
    _report("A9 structural decoupling for quadratic Hamiltonians", ok and broken)


def test_A10_order_diagnostic():
    hbars = np.geomspace(1e-3, 1e-1, 7)
    quartic = ClassicalHamiltonian(potential=PotentialSpec.quartic(0.1))
    res_q = dyn.order_check(adi.AdiabaticEmbedding(quartic), quartic, hbars, n_max=3)
    harmonic = ClassicalHamiltonian()
    res_h = dyn.order_check(dyn.ConstantMomentEmbedding.coherent(harmonic), harmonic, hbars)
    _report(
        "A10 order diagnostic",
        (not res_q.exact) and abs(res_q.slope - 2.0) <= 0.2 and res_h.exact,
        f"quartic slope {res_q.slope:.3f}, harmonic {res_h}",
    )
