"""Adiabatic moment solutions around the dressed oscillator ground state
and the corrected Newton equation they induce.

The slow-motion expansion (bookkeeping parameter lambda, set to 1 at the
end) combined with an hbar expansion closes the n = 2 moment sector in
terms of (q, qdot, qddot).  Orders are capped at lambda^2, hbar^1: the
leading moments G0 dress the vacuum values by powers of 1 + U''/m w^2, the
first correction G1 feeds the velocity, and the second correction G2
renormalizes the mass.  All moments here are in the dimensionless (tilde)
convention; conversion happens at the embedding boundary.

The mass and velocity-squared coefficients scale as C2^3 in the free
second-moment constant; their absolute normalization is anchored to the
vacuum (C2 = 1/2) closed forms, which fixes a factor-8 ambiguity in the
generalized coefficient display of the source derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import AdiabaticBreakdownError, ConfigError, DomainError, RangeError, StiffnessError
from .dynamics import Trajectory, coherent_tilde_moment
from .hamiltonian import ClassicalHamiltonian, from_dimensionless
from .moment_algebra import MomentIndex, SemiclassicalState, moment_indices

__all__ = [
    "AdiabaticConfig",
    "EffectiveCoefficients",
    "g0_moments",
    "g0_time_derivative",
    "g1_correction",
    "g2_correction",
    "g2_correction_expanded",
    "g2_pp_correction",
    "effective_coefficients",
    "solve_effective",
    "AdiabaticEmbedding",
    "lemma_constraint_residual",
    "ladder_residual",
]

BREAKDOWN_EPS = 1e-8


@dataclass
class AdiabaticConfig:
    """Adiabatic expansion order ``e`` and free state constants.

    ``C2`` generalizes the vacuum value 1/2 to non-vacuum (e.g. thermal or
    squeezed-family) initial data; ``Cn`` entries for n > 2 are accepted
    but only affect the leading-order moments, not the implemented
    corrections.
    """

    e: int = 2
    C2: float = 0.5
    Cn: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.e not in (0, 1, 2):
            raise ConfigError("adiabatic order e must be 0, 1, or 2")
        if self.C2 <= 0:
            raise ConfigError("C2 must be positive")

    def constant(self, n: int) -> float:
        if n == 2:
            return self.C2
        return self.Cn.get(n, coherent_tilde_moment(0, n))


def _checked_u(q: float, H: ClassicalHamiltonian, order: int = 2) -> list[float]:
    """[u, u', u'', ...] with u = U''/m w^2, derivatives with respect to q.
    Raises the infrared breakdown error when 1 + u is not safely positive."""
    mw2 = H.m * H.omega**2
    vals = [H.potential.derivative(q, 2 + i) / mw2 for i in range(order + 1)]
    if 1 + vals[0] <= BREAKDOWN_EPS:
        raise AdiabaticBreakdownError(
            f"1 + U''/m w^2 = {1 + vals[0]:.3e} at q = {q}; adiabatic expansion broke down"
        )
    return vals


def g0_moments(q: float, n: int, a: int, config: AdiabaticConfig, H: ClassicalHamiltonian) -> float:
    """Leading-order dimensionless moment; zero for odd a or n."""
    if not 0 <= a <= n or n < 2:
        raise RangeError(f"bad index a={a}, n={n}")
    if a % 2 or n % 2:
        return 0.0
    u = _checked_u(q, H, 0)[0]
    vac = coherent_tilde_moment(a, n)
    return vac * (1 + u) ** ((2 * a - n) / 4.0) * (config.constant(n) / coherent_tilde_moment(0, n))


def g0_time_derivative(q: float, qdot: float, n: int, a: int, config: AdiabaticConfig, H: ClassicalHamiltonian) -> float:
    """d/dt of g0_moments along a trajectory, exact chain rule."""
    if a % 2 or n % 2:
        return 0.0
    u, up = _checked_u(q, H, 1)
    base = g0_moments(q, n, a, config, H)
    return base * ((2 * a - n) / 4.0) * up * qdot / (1 + u)


def g1_correction(qdot: float, q: float, config: AdiabaticConfig, H: ClassicalHamiltonian) -> float:
    """First adiabatic correction; only the (a, n) = (1, 2) entry is nonzero:
    G1 = (1/2w) d/dt G0(0, 2)."""
    return g0_time_derivative(q, qdot, 2, 0, config, H) / (2 * H.omega)


def g2_correction(q: float, qdot: float, qddot: float, config: AdiabaticConfig, H: ClassicalHamiltonian) -> float:
    """Second correction to G(0, 2), compact form
    -(2/w^2) G0^{5/2} d^2/dt^2 sqrt(G0) with G0 = C2 (1+u)^{-1/2}."""
    u, up, upp = _checked_u(q, H, 2)
    C2 = config.C2
    g0 = C2 / math.sqrt(1 + u)
    # f = sqrt(G0) = sqrt(C2) (1+u)^{-1/4}
    sq = math.sqrt(C2)
    fp = sq * (-0.25) * (1 + u) ** -1.25 * up
    fpp = sq * ((5.0 / 16.0) * (1 + u) ** -2.25 * up**2 - 0.25 * (1 + u) ** -1.25 * upp)
    d2f = fpp * qdot**2 + fp * qddot
    return -(2.0 / H.omega**2) * g0**2.5 * d2f


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


def g2_pp_correction(q: float, qdot: float, qddot: float, config: AdiabaticConfig, H: ClassicalHamiltonian) -> float:
    """Second correction to G(2, 2): (1+u) G2(0,2) + (1/2 w^2) d^2/dt^2 G0(0,2)."""
    u, up, upp = _checked_u(q, H, 2)
    C2 = config.C2
    # g = (1+u)^{-1/2}
    gp = -0.5 * (1 + u) ** -1.5 * up
    gpp = 0.75 * (1 + u) ** -2.5 * up**2 - 0.5 * (1 + u) ** -1.5 * upp
    g0dd = C2 * (gpp * qdot**2 + gp * qddot)
    return (1 + u) * g2_correction(q, qdot, qddot, config, H) + g0dd / (2 * H.omega**2)


@dataclass
class EffectiveCoefficients:
    """Coefficients of m_eff(q) qddot + B(q) qdot^2 + F_q(q) = 0."""

    m_eff: float
    B: float
    F_q: float


def effective_coefficients(q: float, config: AdiabaticConfig, H: ClassicalHamiltonian, hbar: float) -> EffectiveCoefficients:
    u = _checked_u(q, H, 0)[0]
    m, w = H.m, H.omega
    U1 = H.potential.derivative(q, 1)
    U3 = H.potential.derivative(q, 3)
    U4 = H.potential.derivative(q, 4)
    s3 = (config.C2 / 0.5) ** 3  # C2^3 scaling anchored at the vacuum value
    m_eff = m + s3 * hbar * U3**2 / (2**5 * m**2 * w**5 * (1 + u) ** 2.5)
    B = s3 * hbar * (4 * m * w**2 * U3 * U4 * (1 + u) - 5 * U3**3) / (
        2**7 * m**3 * w**7 * (1 + u) ** 3.5
    )
    F_q = m * w**2 * q + U1 + config.C2 * hbar * U3 / (2 * m * w * math.sqrt(1 + u))
    if not np.isfinite([m_eff, B, F_q]).all():
        raise DomainError(
            f"non-finite effective coefficients at q={q}: m_eff={m_eff}, B={B}, F_q={F_q}"
        )
    return EffectiveCoefficients(m_eff, B, F_q)


def _qddot(q: float, qdot: float, config, H, hbar) -> float:
    co = effective_coefficients(q, config, H, hbar)
    return -(co.F_q + co.B * qdot**2) / co.m_eff


def solve_effective(
    config: AdiabaticConfig,
    H: ClassicalHamiltonian,
    hbar: float,
    q0: float,
    qdot0: float,
    t_span: tuple[float, float],
    n_samples: int = 201,
    rtol: float = 1e-10,
    atol: float = 1e-12,
):
    """Integrate the corrected Newton equation; returns a trajectory over
    (q, qdot) with the reconstructed dimensionful n = 2 moments appended.

    Adiabatic breakdown mid-run terminates cleanly with the trajectory
    flagged incomplete.
    """
    # the terminal event fires a safety margin above the hard breakdown
    # threshold; trial steps that overshoot past it fall back to a frozen
    # acceleration so the root finder can localize the crossing
    event_eps = 1e4 * BREAKDOWN_EPS

    def rhs(t, y):
        try:
            return [y[1], _qddot(y[0], y[1], config, H, hbar)]
        except AdiabaticBreakdownError:
            return [y[1], 0.0]

    def breakdown(t, y):
        mw2 = H.m * H.omega**2
        return 1 + H.potential.derivative(y[0], 2) / mw2 - event_eps

    breakdown.terminal = True
    breakdown.direction = -1

    t_eval = np.linspace(t_span[0], t_span[1], n_samples)
    sol = solve_ivp(rhs, t_span, [q0, qdot0], t_eval=t_eval, rtol=rtol, atol=atol, events=[breakdown])
    if sol.status == -1:
        raise StiffnessError(f"effective integration failed: {sol.message}", t=sol.t[-1] if sol.t.size else None)
    complete = sol.status == 0

    m, w = H.m, H.omega
    rows = []
    for q, qd in zip(sol.y[0], sol.y[1]):
        qdd = _qddot(q, qd, config, H, hbar)
        g02 = g0_moments(q, 2, 0, config, H) + g2_correction(q, qd, qdd, config, H)
        g12 = g1_correction(qd, q, config, H)
        g22 = g0_moments(q, 2, 2, config, H) + g2_pp_correction(q, qd, qdd, config, H)
        rows.append(
            [
                q,
                qd,
                from_dimensionless(g02, 0, 2, m, w, hbar),
                from_dimensionless(g12, 1, 2, m, w, hbar),
                from_dimensionless(g22, 2, 2, m, w, hbar),
            ]
        )
    labels = ["q", "qdot", "G_0_2", "G_1_2", "G_2_2"]
    stats = {"nfev": int(sol.nfev), "rtol": rtol, "atol": atol}
    meta = {"C2": config.C2, "e": config.e}
    return Trajectory(sol.t, np.array(rows), labels, hbar, stats, meta, complete=complete)


# ---------------------------------------------------------------------------
# embedding for the order-scaling diagnostic


class AdiabaticEmbedding:
    """Embeds (q, p) with moments filled from the adiabatic solution.

    The embedded state carries the full order-e corrections (one extra
    order relative to the flow); the push-forward flow differentiates the
    order-(e-1) embedding, so the reported mismatch isolates the hbar
    error of the truncation rather than the lambda ladder residue.
    """

    def __init__(self, model: ClassicalHamiltonian, config: AdiabaticConfig | None = None):
        self.model = model
        self.config = config or AdiabaticConfig()

    def state(self, q: float, p: float, hbar: float, n_top: int) -> SemiclassicalState:
        H, cfg = self.model, self.config
        m, w = H.m, H.omega
        qdot = p / m
        qddot = _qddot(q, qdot, cfg, H, hbar)
        moments = {}
        for n in range(2, n_top + 1):
            for idx in moment_indices(n, 1):
                a = idx.p_power
                val = g0_moments(q, n, a, cfg, H)
                if n == 2 and cfg.e >= 1 and a == 1:
                    val += g1_correction(qdot, q, cfg, H)
                if n == 2 and cfg.e >= 2:
                    if a == 0:
                        val += g2_correction(q, qdot, qddot, cfg, H)
                    elif a == 2:
                        val += g2_pp_correction(q, qdot, qddot, cfg, H)
                moments[idx] = from_dimensionless(val, a, n, m, w, hbar)
        return SemiclassicalState(hbar, {"q": q, "p": p}, moments, n_top, H.potential)

    def flow(self, q: float, p: float, hbar: float, n_top: int) -> np.ndarray:
        H, cfg = self.model, self.config
        m, w = H.m, H.omega
        qdot = p / m
        qddot = _qddot(q, qdot, cfg, H, hbar)
        out = [qdot, m * qddot]
        for n in range(2, n_top + 1):
            for idx in moment_indices(n, 1):
                a = idx.p_power
                val = g0_time_derivative(q, qdot, n, a, cfg, H)
                if n == 2 and cfg.e >= 2 and a == 1:
                    val += self._g1_time_derivative(q, qdot, qddot)
                out.append(from_dimensionless(val, a, n, m, w, hbar))
        return np.array(out)

    def _g1_time_derivative(self, q: float, qdot: float, qddot: float) -> float:
        H, cfg = self.model, self.config
        u, up, upp = _checked_u(q, H, 2)
        C2 = cfg.C2
        # G1 = -(C2 / 4w) (1+u)^{-3/2} u' qdot
        pref = -C2 / (4 * H.omega)
        d_q = pref * (-1.5 * (1 + u) ** -2.5 * up**2 + (1 + u) ** -1.5 * upp) * qdot
        d_qdot = pref * (1 + u) ** -1.5 * up
        return d_q * qdot + d_qdot * qddot


# ---------------------------------------------------------------------------
# identities used as invariants


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
