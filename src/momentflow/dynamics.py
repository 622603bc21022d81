"""Trajectory integration, closed-form reference solutions, and the
order-scaling diagnostic for truncated moment systems.

All dynamics here is single degree of freedom.  The integrator is the
adaptive Dormand-Prince 5(4) pair of ``dormand_prince``, a port of the RK45
stepper of scipy.integrate whose sampled trajectories are bit for bit
those of scipy; only an event's stop time is located differently, by
bisection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError, StateError
from .hamiltonian import (
    ClassicalHamiltonian,
    EquationSystem,
    expand_quantum_hamiltonian,
    from_dimensionless,
    generate_eom,
)
from .moment_algebra import MomentIndex, SemiclassicalState, gaussian_moment, moment_vars

__all__ = [
    "Trajectory",
    "StepperRun",
    "dormand_prince",
    "integrate",
    "HarmonicModeConstants",
    "harmonic_analytic",
    "coherent_tilde_moment",
    "coherent_moments",
    "free_particle_moments",
    "coherent_free_constants",
    "CosmologyParams",
    "cosmology_g_solution",
    "cosmology_moments",
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
    ``complete`` is False when a domain guard (e.g. cosmology p -> 0), an
    adiabatic breakdown or a step-size collapse stopped the run early;
    ``stats`` then names the ``stop_cause`` and ``stop`` says it in words.
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

    @property
    def stop(self) -> str:
        """Why and where an incomplete run stopped: '<stop_cause> at t=<t_stop>'."""
        return f"{self.stats['stop_cause']} at t={self.stats['t_stop']!r}"

    def state(self, i: int) -> SemiclassicalState:
        if self.system is None:
            raise StateError("trajectory carries no equation system")
        return self.system.unpack(self.y[i], self.hbar)

    def column(self, label: str) -> np.ndarray:
        return self.y[:, self.labels.index(label)]

    def to_csv(self, path) -> None:
        # the bytes of csv.writer's default dialect: no quoting, CRLF rows
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["t", *self.labels]) + "\r\n")
            np.savetxt(fh, np.column_stack([self.t, self.y]), fmt="%.17g", delimiter=",",
                       newline="\r\n")

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


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) stepper
#
# The RK45 of scipy.integrate 1.17.1 (rk.py, common.py, ivp.py), cut down to
# what integrate and adiabatic.solve_effective use: an autonomous RHS, samples
# at t_eval from the quartic dense output, and one terminal event on a
# downward zero crossing.  Every float operation is scipy's, in its order and
# on arrays of its shapes (so the same BLAS calls run), which keeps the
# trajectories bit for bit those of solve_ivp(method="RK45", t_eval=...).
# The RHS takes no t, so stage times are never formed.  An event's crossing
# is bisected on the dense output to a few ulps (scipy runs brentq there),
# which can move t_stop by an ulp or so but no sample.

# Dormand & Prince, J. Comput. Appl. Math. 6 (1980); dense output with
# Shampine's c_6, Math. Comp. 46 (1986)
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_EPS = np.finfo(float).eps
STEP_COLLAPSE = "step-size collapse: required step size is less than spacing between numbers"


def _rms(x: np.ndarray) -> np.float64:
    # scipy's np.linalg.norm(x) / sqrt(size) without norm's checks; a numpy
    # scalar, so that dividing by a zero norm gives inf as it does in scipy
    return np.sqrt(x.dot(x)) / x.size**0.5


def _initial_step(fun, y0, f0, interval_length, direction, rtol, atol):
    """First step size (Hairer, Norsett & Wanner, Sec. II.4), as scipy's
    ``select_initial_step`` with max_step = inf and error order 4."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


@dataclass
class StepperRun:
    """What ``dormand_prince`` returns.

    ``t`` holds the samples of t_eval up to ``t_stop`` and ``y`` one row per
    sample.  ``status`` is 0 when the run reached t_eval[-1], 1 when the
    event stopped it at ``t_stop``, and -1 when the step size fell below ten
    ulps of ``t_stop``, the time of the last accepted step.
    """

    t: np.ndarray
    y: np.ndarray
    t_stop: float
    status: int
    nfev: int
    nsteps: int
    nrejected: int

    def trajectory(self, y, labels, hbar, rtol, atol, event_cause=None, **fields) -> Trajectory:
        """The run as a Trajectory with samples ``y`` and the stats every run
        records.  A run that stopped early is incomplete, and its stats name
        the ``stop_cause``: ``event_cause`` for an event stop, STEP_COLLAPSE
        for a step-size collapse.  A collapse before the first sample leaves
        nothing to return, and a sample past the float range is no result:
        both raise DomainError, the latter naming its first label and t."""
        bad = np.argwhere(~np.isfinite(y))
        if bad.size:
            i, j = bad[0]
            raise DomainError(f"non-finite {labels[j]} at t={float(self.t[i])!r}")
        stats = {"method": "rk45", "rtol": rtol, "atol": atol, "nfev": self.nfev,
                 "nsteps": self.nsteps, "nrejected": self.nrejected, "status": self.status,
                 "t_stop": float(self.t_stop)}
        if self.status:
            stats["stop_cause"] = event_cause if self.status == 1 else STEP_COLLAPSE
        traj = Trajectory(self.t, y, labels, hbar, stats, complete=self.status == 0, **fields)
        if self.t.size == 0:
            raise DomainError(traj.stop)
        return traj


def dormand_prince(fun, y0, t_eval, rtol: float, atol: float, event=None) -> StepperRun:
    """Integrate y' = fun(y) from t_eval[0] to t_eval[-1] with the adaptive
    Dormand-Prince 5(4) pair, sampled at t_eval by the dense output.

    ``event(y)``, when given, ends the run where it first crosses zero from
    above; bisection on the dense output locates the crossing.  An rtol
    below 100 eps is raised to it, as scipy does.  numpy floating-point
    warnings are off inside the run: a state that overflows ends it with
    status -1 instead.
    """
    t, t_bound = float(t_eval[0]), float(t_eval[-1])
    if t == t_bound:
        raise StateError("integration needs t_eval[-1] != t_eval[0]")
    direction = 1.0 if t_bound > t else -1.0
    rtol = max(rtol, 100 * _EPS)
    y = np.asarray(y0, dtype=float)
    K = np.empty((7, y.size))
    stages = [(K[:s].T, _A[s, :s]) for s in range(1, 6)]
    KT, KBT = K.T, K[:-1].T
    key = direction * t_eval  # increasing, so searchsorted finds the samples passed
    ts, ys, i = [], [], 0
    nfev, nsteps, nrejected, status = 2, 0, 0, None
    with np.errstate(all="ignore"):
        f = fun(y)
        h_abs = _initial_step(fun, y, f, abs(t_bound - t), direction, rtol, atol)
        g = event(y) if event is not None else None
        while status is None:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if not h_abs >= min_step:  # a NaN step size ends the run too
                    status, t_stop = -1, t
                    break
                t_new = t + h_abs * direction
                if direction * (t_new - t_bound) > 0:
                    t_new = t_bound
                h = t_new - t
                h_abs = abs(h)
                K[0] = f
                for s, (KsT, a) in enumerate(stages, start=1):
                    K[s] = fun(y + np.dot(KsT, a) * h)
                y_new = y + h * np.dot(KBT, _B)
                f_new = K[-1] = fun(y_new)
                nfev += 6
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                err = np.dot(KT, _E)
                err *= h
                err /= scale
                error_norm = _rms(err)
                if error_norm < 1:
                    if error_norm == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                rejected = True
                nrejected += 1
            if status == -1:
                break
            nsteps += 1
            t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
            if direction * (t - t_bound) >= 0:
                status = 0
            Q = None
            t_stop = t
            if event is not None:
                g_new = event(y)
                if g >= 0 and g_new <= 0:
                    Q = K.T.dot(_P)

                    def dense_at(s):
                        p = np.cumprod(np.tile((s - t_old) / h, 4))
                        return h * np.dot(Q, p) + y_old

                    # bisect on the dense output, keeping event(lo) > 0 >= event(hi)
                    lo, hi = t_old, t
                    while abs(hi - lo) > 4 * _EPS * max(1.0, abs(hi)):
                        mid = (lo + hi) / 2
                        lo, hi = (mid, hi) if event(dense_at(mid)) > 0 else (lo, mid)
                    t_stop = hi
                    status = 1
                g = g_new
            j = int(np.searchsorted(key, direction * t_stop, side="right"))
            if j > i:
                Q = K.T.dot(_P) if Q is None else Q
                p = np.cumprod(np.tile((t_eval[i:j] - t_old) / h, (4, 1)), axis=0)
                y_dense = h * np.dot(Q, p)
                y_dense += y_old[:, None]
                ts.append(t_eval[i:j])
                ys.append(y_dense)
                i = j
    y_out = np.hstack(ys).T if ys else np.empty((0, y.size))
    t_out = np.hstack(ts) if ts else np.empty(0)
    return StepperRun(t_out, y_out, t_stop, status, nfev, nsteps, nrejected)


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
    ``dormand_prince``, sampled at ``n_samples`` equally spaced times.

    A run that the cosmology p-guard or a step-size collapse stops early
    returns the samples it reached as an incomplete trajectory (see
    ``StepperRun.trajectory``); a non-finite sample raises DomainError.
    """
    if rtol <= 0 or atol <= 0:
        raise StateError("tolerances must be positive")
    if validate:
        s0.validate(margin_tol=1e-9, scale=system.model.bracket_scale)
    rhs = system.compile(s0.hbar)
    y0 = system.pack(s0)
    finite = np.isfinite(y0)
    if not finite.all():
        bad = [lbl for lbl, ok in zip(system.labels(), finite) if not ok]
        raise DomainError(f"non-finite initial state: {', '.join(bad)}")
    t_eval = np.linspace(t_span[0], t_span[1], n_samples)

    p_guard = p_cause = None
    if system.model.kind == "cosmology":
        p_index = system.variables.index("p")
        # stop before p reaches 0, where the p^{-1/2} terms diverge.  From p0 = 1
        # only n_max 2 runs with c0 >= 1 reach this floor: at n_max >= 3, and
        # for c0 < 0, the step size collapses first
        p_floor = max(1e-12, 1e-6 * abs(y0[p_index]))
        p_cause = f"cosmology p-guard: p fell to its floor {float(p_floor)!r}"

        def p_guard(y):
            return y[p_index] - p_floor

    run = dormand_prince(rhs, y0, t_eval, rtol, atol, event=p_guard)
    return run.trajectory(run.y, system.labels(), s0.hbar, rtol, atol, p_cause, system=system)


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
    return {idx: from_dimensionless(coherent_tilde_moment(idx.p_power, idx.order), idx.p_power,
                                    idx.order, m, w, hbar) for idx in moment_vars(n_max)}


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


def _power_coefficients(k: int, u: float, v: float) -> np.ndarray:
    """Coefficients of (u X + v P)^k by ascending power of P."""
    return np.array([math.comb(k, j) * u ** (k - j) * v**j for j in range(k + 1)])


def harmonic_analytic(A: "HarmonicModeConstants | np.ndarray", n: int, theta: float) -> np.ndarray:
    """Dimensionless moments G(a, n), a = 0..n, at phase angle theta.

    ``A`` is either the order-2 mode constants or, for general n, the raw
    amplitude vector (the moment values at theta = 0).  The flow
    (d/d theta) G(a) = (n - a) G(a+1) - a G(a-1) is the n-fold symmetric
    power of the rotation (X, P) -> (c X + s P, -s X + c P), c = cos theta,
    s = sin theta: G(a) at theta is sum_b T_ab G(b) at 0, with T_ab the
    coefficient of X^{n-b} P^b in (c X + s P)^{n-a} (-s X + c P)^a.
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
    c, s = math.cos(theta), math.sin(theta)
    T = np.array([
        np.convolve(_power_coefficients(n - a, c, s), _power_coefficients(a, -s, c))
        for a in range(n + 1)
    ])
    return T @ vec


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
        return 0.5 * math.log(self._check(c, p))

    def _check(self, c: float, p: float) -> float:
        """ell c^2 / sqrt(p), which every closed form needs positive."""
        if p <= 0:
            raise DomainError("cosmology closed forms need p > 0")
        arg = self.ell * c**2 / math.sqrt(p)
        if arg <= 0:  # c = 0 or ell <= 0, or c**2 underflowed
            raise DomainError(f"cosmology closed forms need ell c^2 / sqrt(p) > 0, got {arg!r}")
        return arg

    def _e3x2(self, c: float, p: float) -> float:
        """e^{3x/2} = (ell c^2 / sqrt(p))^{3/4}, for p > 0."""
        return math.exp(1.5 * self.x_coord(c, p))

    def uncertainty_margin(self, c: float, p: float) -> float:
        """LHS - RHS of the n = 2 bound on the g constants; negative means
        the chosen (g0, g32, g3) are unphysical at this phase-space point."""
        self._check(c, p)
        denom = 4 * 81 * self.ell**1.5 * (c**2 * math.sqrt(p)) ** 2.5
        if denom == 0:
            raise DomainError(f"the n = 2 bound at c = {c!r}, p = {p!r} underflows")
        bound = self.gamma**2 * self.ell_P**4 / denom
        return 4 * self.g0 * self.g3 - self.g32**2 - bound


def cosmology_g_solution(params: CosmologyParams, c: float, p: float):
    """The three n = 2 moment combinations (g02, g12, g22) at (c, p).

    Convention G(a, n) = c^{n-a} p^a g(a, n); the solution mixes the three
    rotation-invariant amplitudes with e^{3x/2} and e^{3x} weights.
    """
    ex = params._e3x2(c, p)
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
    ex = params._e3x2(c, p)
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
    the closed-form solution directly.
    """
    ex = params._e3x2(c, p)
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
        out = np.zeros(2 + len(moment_vars(n_top)))
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
        moments = {idx: self.reference.get(idx, 0.0) for idx in moment_vars(n_top)}
        return SemiclassicalState(hbar, {"q": q, "p": p}, moments, n_top)

    def flow(self, q, p, hbar, n_top):
        out = np.zeros(2 + len(moment_vars(n_top)))
        out[0] = p / self.model.m
        return out


#: phase-space points (q, p) at which order_check compares the flows
_CHECK_POINTS = ((1.0, 0.0), (0.6, 0.5), (0.2, -0.8))
#: a mismatch below this at every hbar is reported as exact
_EXACT_FLOOR = 1e-13


def order_check(embedding, model, hbars, n_max: int = 3) -> OrderCheckResult:
    """Fit the hbar-scaling exponent of the flow mismatch X_H - iota_* X_eff.

    The mismatch is the Euclidean norm over the back-reaction components of
    (q, p) and all moments up to n_max + 2 (one extra order retained in the
    embedded state relative to the effective flow), summed over
    ``_CHECK_POINTS``.  An embedding's ``flow`` lists the moments in the
    layout of ``moment_vars``, as the equation system does.  An effective
    system of order k shows slope >= k + 1; a mismatch below
    ``_EXACT_FLOOR`` at every hbar reports exact instead of fitting.
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
        for q, p in _CHECK_POINTS:
            st = embedding.state(q, p, hbar, n_top)
            xh = rhs(system.pack(st))
            eff = embedding.flow(q, p, hbar, n_top)
            total += float(np.sum((xh - eff) ** 2))
        norms.append(math.sqrt(total))

    if max(norms) < _EXACT_FLOOR:
        return OrderCheckResult(True, None, hbars, norms)
    slope = float(np.polyfit(np.log(hbars), np.log(norms), 1)[0])
    return OrderCheckResult(False, slope, hbars, norms)
