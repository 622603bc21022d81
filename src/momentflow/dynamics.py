"""Trajectory integration, closed-form reference solutions, and the
order-scaling diagnostic for truncated moment systems.

All dynamics here is single degree of freedom.  The integrator is an
adaptive embedded Runge-Kutta 5(4) pair (scipy).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import DomainError, RangeError, StateError, StiffnessError
from .hamiltonian import (
    ClassicalHamiltonian,
    EquationSystem,
    expand_quantum_hamiltonian,
    from_dimensionless,
    generate_eom,
)
from .moment_algebra import MomentIndex, SemiclassicalState, gaussian_moment, moment_indices

__all__ = [
    "Trajectory",
    "integrate",
    "HarmonicModeConstants",
    "harmonic_analytic",
    "coherent_tilde_moment",
    "coherent_moments",
    "free_particle_moments",
    "coherent_free_constants",
    "CosmologyParams",
    "cosmology_g_solution",
    "cosmology_effective_rhs",
    "cosmology_moment_rates",
    "OrderCheckResult",
    "order_check",
    "HarmonicCoherentEmbedding",
    "FreeConstantEmbedding",
]


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Sampled solution plus integrator bookkeeping.

    ``y`` has one row per sample in the variable order of ``labels``.
    ``complete`` is False when a domain guard (e.g. cosmology p -> 0) or an
    adiabatic breakdown stopped the run early.
    """

    t: np.ndarray
    y: np.ndarray
    labels: list[str]
    hbar: float
    stats: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    system: EquationSystem | None = None
    complete: bool = True

    def __post_init__(self):
        if np.any(np.diff(self.t) == 0) or (
            len(self.t) > 1 and not (np.all(np.diff(self.t) > 0) or np.all(np.diff(self.t) < 0))
        ):
            raise StateError("time grid must be strictly monotonic")

    def state(self, i: int) -> SemiclassicalState:
        if self.system is None:
            raise StateError("trajectory carries no equation system")
        return self.system.unpack(self.y[i], self.hbar)

    def column(self, label: str) -> np.ndarray:
        return self.y[:, self.labels.index(label)]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + self.labels)
            for ti, row in zip(self.t, self.y):
                writer.writerow([f"{ti:.17g}"] + [f"{v:.17g}" for v in row])

    def to_json(self, path) -> None:
        payload = {
            "labels": self.labels,
            "hbar": self.hbar,
            "stats": self.stats,
            "meta": self.meta,
            "complete": self.complete,
            "t": [f"{v:.17g}" for v in self.t],
            "y": [[f"{v:.17g}" for v in row] for row in self.y],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def integrate(
    system: EquationSystem,
    s0: SemiclassicalState,
    t_span: tuple[float, float],
    n_samples: int = 201,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    validate: bool = True,
) -> Trajectory:
    """Integrate the moment ODE system from the given initial state with
    RK45, sampled at ``n_samples`` equally spaced times."""
    if rtol <= 0 or atol <= 0:
        raise StateError("tolerances must be positive")
    if validate:
        s0.validate(margin_tol=1e-9)
    rhs = system.compile(s0.hbar)
    y0 = system.pack(s0)
    finite = np.isfinite(y0)
    if not finite.all():
        bad = [lbl for lbl, ok in zip(system.labels(), finite) if not ok]
        raise DomainError(f"non-finite initial state: {', '.join(bad)}")
    t_eval = np.linspace(t_span[0], t_span[1], n_samples)

    cosmology = system.model.kind == "cosmology"
    complete = True
    stats: dict = {"method": "rk45", "rtol": rtol, "atol": atol}

    events = None
    if cosmology:
        p_index = system.variables.index("p")
        # stop well before the p^{-1/2} singularity makes stepping fail
        p_floor = max(1e-12, 1e-6 * abs(y0[p_index]))

        def p_guard(t, y):
            return y[p_index] - p_floor

        p_guard.terminal = True
        p_guard.direction = -1
        events = [p_guard]

    sol = solve_ivp(
        lambda t, y: rhs(y),
        t_span,
        y0,
        method="RK45",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        dense_output=False,
        events=events,
    )
    if sol.status == -1:
        t_fail = sol.t[-1] if sol.t.size else t_span[0]
        if np.any(~np.isfinite(sol.y)):
            raise DomainError(f"non-finite right-hand side near t={t_fail}")
        raise StiffnessError(f"integration failed near t={t_fail}: {sol.message}", t=t_fail)
    if sol.status == 1:  # terminal event: domain guard hit
        complete = False
    stats.update({"nfev": int(sol.nfev), "status": int(sol.status)})
    traj = Trajectory(
        sol.t, sol.y.T, system.labels(), s0.hbar, stats, system=system, complete=complete
    )
    return traj


# ---------------------------------------------------------------------------
# harmonic oscillator closed forms


def coherent_tilde_moment(a: int, n: int) -> float:
    """Dimensionless moment G(a, n) of a coherent (vacuum-shaped) state:
    the Gaussian pairing sum at covariance diag(1/2, 1/2); zero for odd a
    or n."""
    return gaussian_moment(n - a, a, 0.5, 0.0, 0.5)


def coherent_moments(n_max: int, m: float, w: float, hbar: float) -> dict[MomentIndex, float]:
    """Moments of orders 2..n_max of a coherent state of the oscillator with
    mass m and frequency w."""
    return {
        idx: from_dimensionless(coherent_tilde_moment(idx.p_power, n), idx.p_power, n, m, w, hbar)
        for n in range(2, n_max + 1)
        for idx in moment_indices(n, 1)
    }


@dataclass
class HarmonicModeConstants:
    """Constant mode amplitudes of the order-2 harmonic moment flow.

    In polar coordinates r = sqrt(p^2/m + m w^2 q^2), tan(theta) = m w q/p
    the dimensionless second moments rotate with frequencies 0, +-2; A0 is
    the stationary amplitude and A2 the complex +2-frequency amplitude (the
    -2 one is its conjugate for real moments).
    """

    A0: float
    A2: complex = 0.0

    @classmethod
    def from_moments(cls, g02: float, g12: float, g22: float) -> "HarmonicModeConstants":
        """Amplitudes matching given dimensionless moments at theta = 0."""
        return cls((g02 + g22) / 2.0, complex((g22 - g02) / 4.0, g12 / 2.0))

    def uncertainty_margin(self) -> float:
        """A0^2 - 4 |A2|^2 - 1/4; non-negative for physical order-2 data."""
        return self.A0**2 - 4 * abs(self.A2) ** 2 - 0.25

    def n2_values(self, theta: float) -> tuple[float, float, float]:
        ph = np.exp(2j * theta) * self.A2
        g02 = self.A0 - 2 * ph.real
        g12 = 2 * ph.imag
        g22 = self.A0 + 2 * ph.real
        return g02, g12, g22


def mode_matrix(n: int) -> np.ndarray:
    """Generator of the order-n dimensionless moment rotation:
    (d/d theta) G(a) = (n - a) G(a+1) - a G(a-1)."""
    M = np.zeros((n + 1, n + 1))
    for a in range(n + 1):
        if a + 1 <= n:
            M[a, a + 1] = n - a
        if a - 1 >= 0:
            M[a, a - 1] = -a
    return M


def harmonic_analytic(A: "HarmonicModeConstants | np.ndarray", n: int, theta: float) -> np.ndarray:
    """Dimensionless moments G(a, n), a = 0..n, at phase angle theta.

    ``A`` is either the order-2 mode constants or, for general n, the raw
    amplitude vector (the moment values at theta = 0); the solution is
    exp(theta M) applied to it.
    """
    if n < 2:
        raise RangeError("need n >= 2")
    if isinstance(A, HarmonicModeConstants):
        if n != 2:
            raise RangeError("mode constants cover n = 2; pass a raw vector otherwise")
        vec = np.array(A.n2_values(0.0))
    else:
        vec = np.asarray(A, dtype=float)
        if vec.size != n + 1:
            raise RangeError(f"amplitude vector must have length {n + 1}")
    return expm(theta * mode_matrix(n)) @ vec


# ---------------------------------------------------------------------------
# free particle closed forms


def free_particle_moments(c, q: float, p: float, n: int, hbar: float | None = None) -> dict[int, float]:
    """Moments of the free flow: G(a, n) = p^a sum_i c_i (n-a)!/(n-a-i)! q^{n-a-i}.

    ``c`` has n + 1 entries.  When ``hbar`` is given and n == 2, the
    minimal-uncertainty combination 2 c0 c2 - c1^2 - hbar^2/(4 p^2) is
    reported under key -1 (zero for saturated states).
    """
    if n < 2:
        raise RangeError("need n >= 2")
    c = list(c)
    if len(c) != n + 1:
        raise RangeError(f"need {n + 1} constants for order {n}")
    out: dict[int, float] = {}
    for a in range(n + 1):
        total = 0.0
        for i in range(n - a + 1):
            total += c[i] * math.perm(n - a, i) * q ** (n - a - i)
        out[a] = p**a * total
    if hbar is not None and n == 2:
        out[-1] = 2 * c[0] * c[2] - c[1] ** 2 - hbar**2 / (4 * p**2)
    return out


def coherent_free_constants(q0: float, p0: float, m: float, omega: float, hbar: float) -> list[float]:
    """n = 2 constants making the state a reference-oscillator coherent
    state at (q0, p0); saturates 2 c0 c2 - c1^2 = hbar^2 / 4 p0^2."""
    if p0 == 0:
        raise DomainError("free-particle constants need p0 != 0")
    c0 = hbar * m * omega / (2 * p0**2)
    c1 = -c0 * q0
    # G(0,2)(q0) = c0 q0^2 + 2 c1 q0 + 2 c2 must equal hbar/2mw
    c2 = (hbar / (2 * m * omega) - c0 * q0**2 - 2 * c1 * q0) / 2.0
    return [c0, c1, c2]


# ---------------------------------------------------------------------------
# cosmology closed forms


@dataclass
class CosmologyParams:
    """Constants of the isotropic cosmology model and the n = 2 moment
    integration constants.  ell defaults to kappa E, the only classical
    length scale; the Planck length is sqrt(kappa hbar)."""

    gamma: float = 1.0
    kappa: float = 1.0
    E: float = 1.0
    hbar: float = 1.0
    ell: float | None = None
    g0: float = 0.0
    g32: float = 0.0
    g3: float = 0.0

    def __post_init__(self):
        if self.ell is None:
            self.ell = self.kappa * self.E

    @property
    def ell_P(self) -> float:
        return math.sqrt(self.kappa * self.hbar)

    def x_coord(self, c: float, p: float) -> float:
        self._check(p)
        return 0.5 * math.log(self.ell * c**2 / math.sqrt(p))

    def y_coord(self, c: float, p: float) -> float:
        self._check(p)
        return c**2 * math.sqrt(p) / self.ell

    def _check(self, p: float):
        if p <= 0:
            raise DomainError("cosmology closed forms need p > 0")

    def uncertainty_margin(self, c: float, p: float) -> float:
        """LHS - RHS of the n = 2 bound on the g constants; negative means
        the chosen (g0, g32, g3) are unphysical at this phase-space point."""
        self._check(p)
        bound = (
            self.gamma**2
            * self.ell_P**4
            / (4 * 81 * self.ell**1.5 * (c**2 * math.sqrt(p)) ** 2.5)
        )
        return 4 * self.g0 * self.g3 - self.g32**2 - bound


def cosmology_g_solution(params: CosmologyParams, c: float, p: float):
    """The three n = 2 moment combinations (g02, g12, g22) at (c, p).

    Convention G(a, n) = c^{n-a} p^a g(a, n); the solution mixes the three
    rotation-invariant amplitudes with e^{3x/2} and e^{3x} weights.
    """
    params._check(p)
    ex = math.exp(1.5 * params.x_coord(c, p))  # (ell c^2 / sqrt(p))^{3/4}
    g02 = params.g0 + params.g32 * ex + params.g3 * ex**2
    g12 = 2 * params.g0 - params.g32 * ex - 4 * params.g3 * ex**2
    g22 = 4 * params.g0 - 8 * params.g32 * ex + 16 * params.g3 * ex**2
    return g02, g12, g22


def cosmology_moments(params: CosmologyParams, c: float, p: float) -> dict[MomentIndex, float]:
    g02, g12, g22 = cosmology_g_solution(params, c, p)
    return {
        MomentIndex.single(0, 2): c**2 * g02,
        MomentIndex.single(1, 2): c * p * g12,
        MomentIndex.single(2, 2): p**2 * g22,
    }


def cosmology_effective_rhs(params: CosmologyParams, c: float, p: float):
    """Correction series for (gamma c-dot, gamma p-dot), plus the directly
    evaluated flow of the order-hbar quantum Hamiltonian for arbitration.

    Returns a dict with the classical rates, the series values, and the
    direct bracket values.  The series coefficients follow the printed
    effective equations (1/2 g0, -g32, 11 g3 for c; 2 g0, 2 g32, -16 g3
    for p); the direct evaluation is {x, H_Q} with the n = 2 solution
    inserted, and the two are expected to agree per term only up to one
    global constant (reported by the cross-validation test).
    """
    params._check(p)
    ex = math.exp(1.5 * params.x_coord(c, p))
    gamma = params.gamma
    cdot_cl = -(c**2) / math.sqrt(p) / gamma
    pdot_cl = 4 * c * math.sqrt(p) / gamma

    cdot_series = cdot_cl * (1 + 0.5 * params.g0 - params.g32 * ex + 11 * params.g3 * ex**2)
    pdot_series = (c * math.sqrt(p) / gamma) * (
        4 + 2 * params.g0 + 2 * params.g32 * ex - 16 * params.g3 * ex**2
    )

    model = ClassicalHamiltonian(
        kind="cosmology", gamma=params.gamma, kappa=params.kappa, E=params.E
    )
    system = generate_eom(expand_quantum_hamiltonian(model, 2))
    state = SemiclassicalState(
        params.hbar, {"c": c, "p": p}, cosmology_moments(params, c, p), 2
    )
    rhs = system.compile(params.hbar)(system.pack(state))
    direct = dict(zip(system.labels(), rhs))

    return {
        "cdot_classical": cdot_cl,
        "pdot_classical": pdot_cl,
        "cdot_series": cdot_series,
        "pdot_series": pdot_series,
        "cdot_direct": direct["c"],
        "pdot_direct": direct["p"],
        "moment_rates_direct": {k: v for k, v in direct.items() if k.startswith("G")},
    }


def cosmology_moment_rates(params: CosmologyParams, c: float, p: float):
    """Closed-form n = 2 moment drift rates: the chain-rule transport of the
    g-solution along the classical (c, p) flow, with the g amplitudes held
    fixed.

    The a = 2 entry here differs from older displays of these rates
    (2 g0 + 5 g32 e^{3x/2} + 2 g3 e^{3x} inside the bracket); only the form
    below is consistent with the a = 0, 1 rates and with differentiating
    the closed-form solution directly.  The genuine bracket flow of the
    moments is a uniform factor 3 larger than these transport rates at
    linear order in the g amplitudes, reflecting the slow drift of the g
    constants themselves.
    """
    params._check(p)
    ex = math.exp(1.5 * params.x_coord(c, p))
    gamma = params.gamma
    return {
        "G_0_2": -(c**3) / (gamma * math.sqrt(p)) * (params.g0 + 2.5 * params.g32 * ex + 4 * params.g3 * ex**2),
        "G_1_2": 3 * c**2 * math.sqrt(p) / gamma * (params.g0 + 2 * params.g3 * ex**2),
        "G_2_2": 4 * c * p**1.5 / gamma * (4 * params.g0 - 5 * params.g32 * ex + 4 * params.g3 * ex**2),
    }


# ---------------------------------------------------------------------------
# order-scaling diagnostic


@dataclass
class OrderCheckResult:
    exact: bool
    slope: float | None
    hbars: list[float]
    mismatches: list[float]

    def __str__(self):
        if self.exact:
            return "exact"
        return f"slope {self.slope:.3f}"


class HarmonicCoherentEmbedding:
    """Coherent-moment embedding of the harmonic model; exactly preserved."""

    def __init__(self, model):
        self.model = model

    def state(self, q: float, p: float, hbar: float, n_top: int) -> SemiclassicalState:
        moments = coherent_moments(n_top, self.model.m, self.model.omega, hbar)
        return SemiclassicalState(hbar, {"q": q, "p": p}, moments, n_top)

    def flow(self, q: float, p: float, hbar: float, n_top: int) -> np.ndarray:
        m, w = self.model.m, self.model.omega
        count = sum(len(moment_indices(n, 1)) for n in range(2, n_top + 1))
        out = np.zeros(2 + count)
        out[0] = p / m
        out[1] = -m * w**2 * q
        return out  # moments constant


class FreeConstantEmbedding:
    """Fixed (hbar-independent) constant moments on the free model.

    No constant choice is preserved by the free flow, so the mismatch does
    not shrink with hbar; the diagnostic reports slope near zero.
    """

    def __init__(self, model, reference_moments: dict[MomentIndex, float]):
        self.model = model
        self.reference = reference_moments

    def state(self, q, p, hbar, n_top):
        moments = {}
        for n in range(2, n_top + 1):
            for idx in moment_indices(n, 1):
                moments[idx] = self.reference.get(idx, 0.0)
        return SemiclassicalState(hbar, {"q": q, "p": p}, moments, n_top)

    def flow(self, q, p, hbar, n_top):
        count = sum(len(moment_indices(n, 1)) for n in range(2, n_top + 1))
        out = np.zeros(2 + count)
        out[0] = p / self.model.m
        return out


def order_check(
    embedding,
    model,
    hbars,
    n_max: int = 3,
    points=((1.0, 0.0), (0.6, 0.5), (0.2, -0.8)),
    exact_floor: float = 1e-13,
) -> OrderCheckResult:
    """Fit the hbar-scaling exponent of the flow mismatch X_H - iota_* X_eff.

    The mismatch is the Euclidean norm over the back-reaction components of
    (q, p) and all moments up to n_max + 2 (one extra order retained in the
    embedded state relative to the effective flow).  An effective system of
    order k shows slope >= k + 1; a mismatch below ``exact_floor`` at every
    hbar reports exact instead of fitting.
    """
    hbars = sorted(float(h) for h in hbars)
    if len(hbars) < 4 or hbars[-1] / hbars[0] < 99:
        raise RangeError("need >= 4 hbar values spanning >= 2 decades")
    n_top = n_max + 2
    system = generate_eom(expand_quantum_hamiltonian(model, n_top))

    norms = []
    for hbar in hbars:
        rhs = system.compile(hbar)
        total = 0.0
        for q, p in points:
            st = embedding.state(q, p, hbar, n_top)
            xh = rhs(system.pack(st))
            eff = embedding.flow(q, p, hbar, n_top)
            total += float(np.sum((xh - eff) ** 2))
        norms.append(math.sqrt(total))

    if max(norms) < exact_floor:
        return OrderCheckResult(True, None, hbars, norms)
    slope = float(np.polyfit(np.log(hbars), np.log(norms), 1)[0])
    return OrderCheckResult(False, slope, hbars, norms)
