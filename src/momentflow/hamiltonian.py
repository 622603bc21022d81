"""Quantum Hamiltonian expansion and generation of truncated moment ODEs.

The expectation value of the Hamiltonian operator, expanded around the
classical point, is a formal series

    H_Q = sum_{n,a} (1/n!) C(n,a) d^n H / dp^a dq^{n-a} * G(a, n)

truncated at a chosen moment order.  Its Hamiltonian flow under the moment
Poisson algebra gives the equations of motion for (q, p) and all retained
moments; moments above the truncation order are handled by a closure
policy.  Single degree of freedom throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ClosureError, ConfigError, DomainError, RangeError
from .moment_algebra import (
    MomentIndex,
    MomentPolynomial,
    SemiclassicalState,
    _potential_order,
    bracket_general,
    gaussian_pairings,
    moment_indices,
)

__all__ = [
    "PotentialSpec",
    "ClassicalHamiltonian",
    "QuantumHamiltonian",
    "expand_quantum_hamiltonian",
    "closure_apply",
    "generate_eom",
    "EquationSystem",
    "to_dimensionless",
    "from_dimensionless",
]


class PotentialSpec:
    """Anharmonic potential with exact derivative access.

    Either polynomial coefficients ``[c_0, c_1, ...]`` for sum c_k q^k, or a
    callable ``derivs(q, n) -> d^n U/dq^n`` with ``max_order`` stating how
    far the derivatives are trustworthy.
    """

    def __init__(self, coefficients=None, derivs: Callable | None = None, max_order: int | None = None):
        if (coefficients is None) == (derivs is None):
            raise ConfigError("give exactly one of coefficients or derivs")
        if coefficients is not None:
            self.coefficients = [float(c) for c in coefficients]
            self.max_order = math.inf
        else:
            self._derivs = derivs
            self.coefficients = None
            if max_order is None:
                raise ConfigError("callable potential needs max_order")
            self.max_order = max_order

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(coefficients=[0.0])

    @classmethod
    def quartic(cls, delta: float) -> "PotentialSpec":
        return cls(coefficients=[0.0, 0.0, 0.0, 0.0, delta / 24.0])

    def derivative(self, q: float, n: int) -> float:
        if n > self.max_order:
            raise RangeError(f"potential derivatives available only to order {self.max_order}")
        if self.coefficients is not None:
            total = 0.0
            for k, c in enumerate(self.coefficients):
                if k >= n and c != 0.0:
                    total += c * math.perm(k, n) * q ** (k - n)
            return total
        return self._derivs(q, n)

    def __call__(self, q: float) -> float:
        return self.derivative(q, 0)


@dataclass
class ClassicalHamiltonian:
    """Oscillator family p^2/2m + (1/2) m w^2 q^2 + U(q), or the isotropic
    cosmology Hamiltonian -3 c^2 sqrt(p) / (gamma^2 kappa) + E on the
    canonical pair (c, p) with {c, p} = gamma kappa / 3."""

    kind: str = "oscillator"
    m: float = 1.0
    omega: float = 1.0
    potential: PotentialSpec = field(default_factory=PotentialSpec.zero)
    gamma: float = 1.0
    kappa: float = 1.0
    E: float = 0.0

    def __post_init__(self):
        if self.kind not in ("oscillator", "cosmology"):
            raise ConfigError(f"unknown Hamiltonian kind {self.kind!r}")
        if self.kind == "oscillator" and self.m <= 0:
            raise ConfigError("mass must be positive")

    @property
    def xvars(self) -> tuple[str, str]:
        return ("q", "p") if self.kind == "oscillator" else ("c", "p")

    @property
    def bracket_scale(self) -> Fraction | float:
        if self.kind == "oscillator":
            return Fraction(1)
        return self.gamma * self.kappa / 3.0

    def as_polynomial(self) -> MomentPolynomial:
        if self.kind == "oscillator":
            out = MomentPolynomial.term(Fraction(1, 2) * (1.0 / self.m), x={"p": 2})
            if self.omega != 0.0:
                out = out + MomentPolynomial.term(0.5 * self.m * self.omega**2, x={"q": 2})
            # polynomial potentials expand to explicit q powers so that
            # quadratic models stay structurally free of potential symbols
            if self.potential.coefficients is not None:
                for k, c in enumerate(self.potential.coefficients):
                    if c != 0.0:
                        out = out + MomentPolynomial.term(c, x={"q": k})
            else:
                out = out + MomentPolynomial.term(1.0, x={"U0": 1})
            return out
        coeff = -3.0 / (self.gamma**2 * self.kappa)
        out = MomentPolynomial.term(coeff, x={"c": 2, "p": Fraction(1, 2)})
        if self.E != 0.0:
            out = out + MomentPolynomial.constant(self.E)
        return out


@dataclass
class QuantumHamiltonian:
    """H_Q as a formal polynomial, plus the metadata needed to evolve it."""

    poly: MomentPolynomial
    n_max: int
    model: ClassicalHamiltonian

    @property
    def xvars(self):
        return self.model.xvars

    def evaluate(self, state: SemiclassicalState) -> float:
        if self.model.kind == "cosmology" and state.x["p"] <= 0:
            raise DomainError("cosmology Hamiltonian needs p > 0")
        return self.poly.evaluate(state)


def expand_quantum_hamiltonian(H: ClassicalHamiltonian, n_max: int) -> QuantumHamiltonian:
    """Taylor-expand <H> around the classical point, truncating at n_max."""
    if n_max < 2:
        raise ConfigError("n_max must be at least 2")
    if H.kind == "oscillator" and H.potential.max_order < n_max + 2:
        raise ConfigError(
            f"potential derivatives to order {n_max + 2} required, have {H.potential.max_order}"
        )
    qv, pv = H.xvars
    base = H.as_polynomial()
    out = base
    # cache mixed partials: derivs[a] after n passes holds d^n H / dp^a dq^{n-a}
    derivs = {0: base}
    for n in range(1, n_max + 1):
        nxt = {}
        for a in range(n + 1):
            if a == 0:
                nxt[0] = derivs[0].diff_x(qv)
            else:
                nxt[a] = derivs[a - 1].diff_x(pv)
        derivs = nxt
        if n < 2:
            continue
        for a in range(n + 1):
            coeff = Fraction(math.comb(n, a), math.factorial(n))
            g = MomentPolynomial.moment(MomentIndex.single(a, n))
            out = out + coeff * (derivs[a] * g)
    return QuantumHamiltonian(out, n_max, H)


# ---------------------------------------------------------------------------
# closure


def closure_apply(policy: str, idx: MomentIndex) -> MomentPolynomial:
    """Replacement expression for a moment above the truncation order.

    "zero" drops it; "gaussian-factorize" substitutes the Gaussian pairing
    identity (sum over perfect matchings of the n deviation factors into
    second moments, ``gaussian_pairings``), zero for odd order.
    """
    if policy == "zero":
        return MomentPolynomial.zero()
    if policy != "gaussian-factorize":
        raise ConfigError(f"unknown closure policy {policy!r}")
    if idx.dof != 1:
        raise ClosureError(f"gaussian-factorize not defined for {idx}")
    g_qq, g_qp, g_pp = (MomentIndex.single(a, 2) for a in range(3))
    out = MomentPolynomial.zero()
    for count, n_qq, n_qp, n_pp in gaussian_pairings(idx.q_powers[0], idx.p_powers[0]):
        out += MomentPolynomial.term(count, gs=(g_qq,) * n_qq + (g_qp,) * n_qp + (g_pp,) * n_pp)
    return out


# ---------------------------------------------------------------------------
# equation system


@dataclass
class EquationSystem:
    """Symbolic right-hand sides plus a compiled numeric evaluator.

    Variable order is (x coordinates, then moments sorted canonically);
    this fixes the layout of state vectors and CSV columns downstream.
    """

    xvars: tuple[str, str]
    moment_vars: list[MomentIndex]
    rhs: dict[object, MomentPolynomial]
    model: ClassicalHamiltonian
    n_max: int
    closure: str

    @property
    def variables(self) -> list:
        return list(self.xvars) + list(self.moment_vars)

    def labels(self) -> list[str]:
        return list(self.xvars) + [g.column_label() for g in self.moment_vars]

    # -- numeric packing ---------------------------------------------------

    def pack(self, state: SemiclassicalState) -> np.ndarray:
        y = [state.x[v] for v in self.xvars]
        y.extend(state.moment(g) for g in self.moment_vars)
        return np.array(y, dtype=float)

    def unpack(self, y: np.ndarray, hbar: float) -> SemiclassicalState:
        x = {v: float(y[i]) for i, v in enumerate(self.xvars)}
        nx = len(self.xvars)
        moments = {g: float(y[nx + i]) for i, g in enumerate(self.moment_vars)}
        pot = self.model.potential if self.model.kind == "oscillator" else None
        return SemiclassicalState(hbar, x, moments, self.n_max, pot)

    def compile(self, hbar: float) -> Callable[[np.ndarray], np.ndarray]:
        """Lower all RHS terms once to arrays; return the numeric RHS f(y).

        Term t has coefficient c[t] = coeff * hbar**h, equation eq[t] and
        factor column idx[:, t] into z = [y, powered factors, 1.0]; a powered
        factor is a distinct (x slot or U_k, exponent) pair, padding points at
        the 1.0.  f fills the power slots, multiplies the rows of F = [c; z[idx]]
        in order (coefficient, x powers, U powers, moments) and bincounts the
        products by equation from 0.0 in sorted term order: bit for bit a
        left-to-right loop over the terms.  f returns a fresh array but reuses
        internal buffers, so it must not be shared across threads.
        """
        n, slot = len(self.variables), {v: i for i, v in enumerate(self.variables)}
        powers: dict[tuple[str, float], int] = {}  # (symbol, exponent) -> z slot
        xcols: dict[tuple, list[int]] = {}  # x monomial -> z slots, x powers first
        # all factor slots in one list of ints: a list per term would wake the cyclic GC
        coeffs, eqs, lens, flat = [], [], [], []
        for i, var in enumerate(self.variables):
            for c, h, x, gs in self.rhs[var].terms():
                xcol = xcols.get(x)
                if xcol is None:
                    fac = sorted(((sym, float(e)) for sym, e in x), key=lambda f: f[0] not in slot)
                    xcol = xcols[x] = [powers.setdefault(f, n + len(powers)) for f in fac]
                coeffs.append(float(c) * hbar ** float(h))
                eqs.append(i)
                lens.append(len(xcol) + len(gs))
                flat += xcol
                flat += [slot[g] for g in gs]
        one, lens = n + len(powers), np.array(lens, dtype=np.intp)
        idx = np.full((int(lens.max(initial=0)), len(eqs)), one, dtype=np.intp)
        idx.T[np.arange(len(idx)) < lens[:, None]] = flat
        eq, z, F = np.array(eqs, np.intp), np.ones(one + 1), np.empty((len(idx) + 1, len(eqs)))
        F[0] = coeffs
        xpows = [(slot[s], e, zs) for (s, e), zs in powers.items() if s in slot]
        upows = [(_potential_order(s), e, zs) for (s, e), zs in powers.items() if s not in slot]
        pot, qslot, uks = self.model.potential, slot.get("q"), {k for k, _, _ in upows}
        pslot = slot["p"] if self.model.kind == "cosmology" else None

        def rhs_fn(y: np.ndarray) -> np.ndarray:
            if pslot is not None and y[pslot] <= 0.0:
                raise DomainError("reached p <= 0")
            z[:n] = y
            for s, e, zs in xpows:
                z[zs] = y[s] ** e
            u = {k: pot.derivative(y[qslot], k) for k in uks}
            for k, e, zs in upows:
                z[zs] = u[k] ** e
            np.take(z, idx, out=F[1:], mode="clip")
            return np.bincount(eq, np.multiply.reduce(F, axis=0), minlength=n)

        return rhs_fn

    # -- listings ----------------------------------------------------------

    def listing_text(self) -> str:
        lines = [f"# model={self.model.kind} n_max={self.n_max} closure={self.closure}"]
        for var in self.variables:
            name = var if isinstance(var, str) else str(var)
            body = self.rhs[var].to_text().replace("\n", " + ")
            lines.append(f"d/dt {name} = {body}")
        return "\n".join(lines)

    def listing_json(self) -> str:
        eqs = []
        for var in self.variables:
            name = var if isinstance(var, str) else str(var)
            terms = []
            for c, h, x, gs in self.rhs[var].terms():
                terms.append(
                    {
                        "coeff": str(c) if isinstance(c, Fraction) else c,
                        "hbar_power": str(h),
                        "x": [[sym, str(e)] for sym, e in x],
                        "moments": [str(g) for g in gs],
                    }
                )
            eqs.append({"variable": name, "terms": terms})
        meta = {"model": self.model.kind, "n_max": self.n_max, "closure": self.closure}
        return json.dumps({"meta": meta, "equations": eqs}, indent=2, sort_keys=True)

    # -- structural probes -------------------------------------------------

    def classical_backreaction_free(self) -> bool:
        """True if no moment appears in the (q, p) equations."""
        return all(not self.rhs[v].moment_indices() for v in self.xvars)

    def block_diagonal(self) -> bool:
        """True if each moment equation couples only to its own order."""
        for g in self.moment_vars:
            for other in self.rhs[g].moment_indices():
                if other.order != g.order:
                    return False
            for _, _, _, gs in self.rhs[g].terms():
                if len(gs) > 1:
                    return False
        return True


def generate_eom(HQ: QuantumHamiltonian, closure: str = "zero") -> EquationSystem:
    """Hamiltonian flow of H_Q over (x, moments up to n_max)."""
    if closure not in ("zero", "gaussian-factorize"):
        raise ConfigError(f"unknown closure policy {closure!r}")
    qv, pv = HQ.xvars
    scale = HQ.model.bracket_scale
    mvars = []
    for n in range(2, HQ.n_max + 1):
        mvars.extend(moment_indices(n, 1))

    rhs: dict[object, MomentPolynomial] = {}
    for var in (qv, pv):
        rhs[var] = bracket_general(MomentPolynomial.x_var(var), HQ.poly, (qv, pv), scale)
    for g in mvars:
        rhs[g] = bracket_general(MomentPolynomial.moment(g), HQ.poly, (qv, pv), scale)

    # close moments above n_max
    for var, poly in rhs.items():
        high = [g for g in poly.moment_indices() if g.order > HQ.n_max]
        for g in sorted(high, key=MomentIndex.sort_key, reverse=True):
            poly = poly.subs_moment(g, closure_apply(closure, g))
        rhs[var] = poly

    return EquationSystem((qv, pv), mvars, rhs, HQ.model, HQ.n_max, closure)


# ---------------------------------------------------------------------------
# moment conventions


def to_dimensionless(value: float, a: int, n: int, m: float, omega: float, hbar: float) -> float:
    """Dimensionful G(a, n) to the tilde convention hbar^{-n/2}(m w)^{n/2-a} G."""
    return hbar ** (-n / 2) * (m * omega) ** (n / 2 - a) * value


def from_dimensionless(value: float, a: int, n: int, m: float, omega: float, hbar: float) -> float:
    return hbar ** (n / 2) * (m * omega) ** (a - n / 2) * value
