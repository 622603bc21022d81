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

from .errors import AdiabaticBreakdownError, ConfigError, DomainError, RangeError
from .dynamics import coherent_tilde_moment, dormand_prince
from .hamiltonian import ClassicalHamiltonian, from_dimensionless
from .moment_algebra import SemiclassicalState, moment_vars

__all__ = [
    "AdiabaticConfig",
    "EffectiveCoefficients",
    "g0_moments",
    "g0_time_derivative",
    "g1_correction",
    "g2_correction",
    "g2_pp_correction",
    "effective_coefficients",
    "solve_effective",
    "AdiabaticEmbedding",
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


def _u(q: float, H: ClassicalHamiltonian, order: int = 0) -> list[float]:
    """[u, u', u'', ...] through the order-th derivative, with u = U''/m w^2
    and derivatives with respect to q."""
    mw2 = H.m * H.omega**2
    return [H.potential.derivative(q, 2 + i) / mw2 for i in range(order + 1)]


def _checked_u(q: float, H: ClassicalHamiltonian, order: int = 2) -> list[float]:
    """``_u``, raising the infrared breakdown error when 1 + u is not safely
    positive."""
    vals = _u(q, H, order)
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
    den_m, den_B = 2**5 * m**2 * w**5 * (1 + u) ** 2.5, 2**7 * m**3 * w**7 * (1 + u) ** 3.5
    if 0.0 in (den_m, den_B):
        raise DomainError(f"effective coefficients divide by m^3 omega^7 = 0 (m = {m!r}, omega = {w!r})")
    m_eff = m + s3 * hbar * U3**2 / den_m
    B = s3 * hbar * (4 * m * w**2 * U3 * U4 * (1 + u) - 5 * U3**3) / den_B
    F_q = m * w**2 * q + U1 + config.C2 * hbar * U3 / (2 * m * w * math.sqrt(1 + u))
    if not np.isfinite([m_eff, B, F_q]).all():
        raise DomainError(
            f"non-finite effective coefficients at q={q}: m_eff={m_eff}, B={B}, F_q={F_q}"
        )
    return EffectiveCoefficients(m_eff, B, F_q)


def _qddot(q: float, qdot: float, config, H, hbar) -> float:
    co = effective_coefficients(q, config, H, hbar)
    return -(co.F_q + co.B * qdot**2) / co.m_eff


def _adiabatic(q: float, qdot: float, qddot: float, e: int, config, H) -> list[float]:
    """Dimensionless G(a, 2), a = 0, 1, 2, with the corrections through
    adiabatic order e: G1 replaces the vanishing G0(1, 2) (an assignment,
    so a -0.0 correction stays -0.0), G2 adds to G0(0, 2) and G0(2, 2)."""
    g = [g0_moments(q, 2, a, config, H) for a in range(3)]
    if e >= 1:
        g[1] = g1_correction(qdot, q, config, H)
    if e >= 2:
        g[0] += g2_correction(q, qdot, qddot, config, H)
        g[2] += g2_pp_correction(q, qdot, qddot, config, H)
    return g


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

    Adiabatic breakdown or a step-size collapse mid-run ends it with the
    trajectory flagged incomplete (see ``StepperRun.trajectory``).
    """
    # the terminal event fires a safety margin above the hard breakdown
    # threshold; trial steps that overshoot past it fall back to a frozen
    # acceleration so the root finder can localize the crossing
    event_eps = 1e4 * BREAKDOWN_EPS

    def rhs(y):
        try:
            return np.array([y[1], _qddot(y[0], y[1], config, H, hbar)])
        except AdiabaticBreakdownError:
            return np.array([y[1], 0.0])

    def breakdown(y):
        return 1 + _u(y[0], H)[0] - event_eps

    t_eval = np.linspace(t_span[0], t_span[1], n_samples)
    run = dormand_prince(rhs, [q0, qdot0], t_eval, rtol, atol, event=breakdown)

    m, w = H.m, H.omega
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # moments past the float range: inf
        for q, qd in run.y:
            g = _adiabatic(q, qd, _qddot(q, qd, config, H, hbar), 2, config, H)
            rows.append([q, qd, *(from_dimensionless(g[a], a, 2, m, w, hbar) for a in range(3))])
    return run.trajectory(
        np.array(rows), ["q", "qdot", "G_0_2", "G_1_2", "G_2_2"], hbar, rtol, atol,
        "adiabatic breakdown: 1 + U''/(m omega^2) fell to its safety margin",
        meta={"C2": config.C2, "e": config.e})


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
        n2 = _adiabatic(q, qdot, _qddot(q, qdot, cfg, H, hbar), cfg.e, cfg, H)
        moments = {}
        for idx in moment_vars(n_top):
            n, a = idx.order, idx.p_power
            val = n2[a] if n == 2 else g0_moments(q, n, a, cfg, H)
            moments[idx] = from_dimensionless(val, a, n, m, w, hbar)
        return SemiclassicalState(hbar, {"q": q, "p": p}, moments, n_top, H.potential)

    def flow(self, q: float, p: float, hbar: float, n_top: int) -> np.ndarray:
        H, cfg = self.model, self.config
        m, w = H.m, H.omega
        qdot = p / m
        qddot = _qddot(q, qdot, cfg, H, hbar)
        out = [qdot, m * qddot]
        for idx in moment_vars(n_top):
            n, a = idx.order, idx.p_power
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
