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
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from .errors import ClosureError, ConfigError, DomainError
from .moment_algebra import (
    MomentIndex,
    MomentPolynomial,
    SemiclassicalState,
    _SORT_KEY,
    _accumulate,
    bracket_general,
    gaussian_pairings,
    moment_vars,
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

#: the closure policies, for moments above the truncation order
CLOSURES = ("zero", "gaussian-factorize")


class PotentialSpec:
    """Polynomial potential sum c_k q^k from its coefficients ``[c_0, c_1, ...]``,
    with exact derivatives."""

    def __init__(self, coefficients):
        self.coefficients = [float(c) for c in coefficients]

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls([0.0])

    @classmethod
    def quartic(cls, delta: float) -> "PotentialSpec":
        return cls([0.0, 0.0, 0.0, 0.0, delta / 24.0])

    def derivative(self, q: float, n: int) -> float:
        total = 0.0
        for k, c in enumerate(self.coefficients):
            if k >= n and c != 0.0:
                total += c * math.perm(k, n) * q ** (k - n)
        return total

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
        if self.kind == "cosmology":
            coeff = -3.0 / (self.gamma**2 * self.kappa)
            return MomentPolynomial.term(coeff, x={"c": 2, "p": Fraction(1, 2)}) + self.E
        terms = [MomentPolynomial.term(Fraction(1, 2) * (1.0 / self.m), x={"p": 2}),
                 MomentPolynomial.term(0.5 * self.m * self.omega**2, x={"q": 2})]
        terms += [MomentPolynomial.term(c, x={"q": k}) for k, c in enumerate(self.potential.coefficients)]
        return MomentPolynomial.sum(terms)


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
    qv, pv = H.xvars
    base = H.as_polynomial()
    terms = [base]
    # mixed partials: partials[a] after n passes holds d^n H / dp^a dq^{n-a}
    partials = [base]
    for n in range(1, n_max + 1):
        partials = [partials[0].diff_x(qv)] + [d.diff_x(pv) for d in partials]
        if n >= 2:
            terms += [Fraction(math.comb(n, a), math.factorial(n))
                      * (partials[a] * MomentPolynomial.moment(MomentIndex.single(a, n)))
                      for a in range(n + 1)]
    return QuantumHamiltonian(MomentPolynomial.sum(terms), n_max, H)


# ---------------------------------------------------------------------------
# closure


def closure_apply(policy: str, idx: MomentIndex) -> MomentPolynomial:
    """Replacement expression for a moment above the truncation order.

    "zero" drops it; "gaussian-factorize" substitutes the Gaussian pairing
    identity (sum over perfect matchings of the n deviation factors into
    second moments, ``gaussian_pairings``), zero for odd order.
    """
    if policy not in CLOSURES:
        raise ConfigError(f"unknown closure policy {policy!r}")
    if policy == "zero":
        return MomentPolynomial.zero()
    if idx.dof != 1:
        raise ClosureError(f"gaussian-factorize not defined for {idx}")
    g_qq, g_qp, g_pp = (MomentIndex.single(a, 2) for a in range(3))
    return MomentPolynomial.sum(
        MomentPolynomial.term(count, gs=(g_qq,) * n_qq + (g_qp,) * n_qp + (g_pp,) * n_pp)
        for count, n_qq, n_qp, n_pp in gaussian_pairings(idx.q_powers[0], idx.p_powers[0]))


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
        return list(map(str, self.variables))

    # -- numeric packing ---------------------------------------------------

    def pack(self, state: SemiclassicalState) -> np.ndarray:
        y = [state.x[v] for v in self.xvars]
        y.extend(state.moment(g) for g in self.moment_vars)
        return np.array(y, dtype=float)

    def unpack(self, y: np.ndarray, hbar: float) -> SemiclassicalState:
        x = {v: float(y[i]) for i, v in enumerate(self.xvars)}
        nx = len(self.xvars)
        moments = {g: float(y[nx + i]) for i, g in enumerate(self.moment_vars)}
        return SemiclassicalState(hbar, x, moments, self.n_max)

    def compile(self, hbar: float) -> Callable[[np.ndarray], np.ndarray]:
        """Lower all RHS terms once to arrays; return the numeric RHS f(y).

        Term t has coefficient c[t] = coeff * hbar**h, equation eq[t] and
        factor column idx[:, t] into z = [y, powered factors, 1.0]; a powered
        factor is a distinct (y slot, exponent) pair, except that a variable
        to the first power points at its y slot, and padding points at the
        1.0.  f fills the power slots, multiplies the rows of F = [c; z[idx]]
        in order (coefficient, x powers, moments) and bincounts the products
        by equation from 0.0 in sorted term order: bit for bit a
        left-to-right loop over the terms.  f returns a fresh array but reuses
        internal buffers, so it must not be shared across threads.
        """
        n, slot = len(self.variables), {v: i for i, v in enumerate(self.variables)}
        powers: dict[tuple[int, float], int] = {}  # (y slot, exponent) -> z slot
        xcols: dict[tuple, list[int]] = {}  # x monomial -> z slots
        # all factor slots in one list of ints: a list per term would wake the cyclic GC
        coeffs, eqs, lens, flat = [], [], [], []
        for i, var in enumerate(self.variables):
            for c, h, x, gs in self.rhs[var].terms():
                xcol = xcols.get(x)
                if xcol is None:
                    # y ** 1.0 == y, so a first power reads its y slot
                    xcol = xcols[x] = [slot[sym] if e == 1
                                       else powers.setdefault((slot[sym], float(e)), n + len(powers))
                                       for sym, e in x]
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
        xpows = [(s, e, zs) for (s, e), zs in powers.items()]

        def rhs_fn(y: np.ndarray) -> np.ndarray:
            z[:n] = y
            for s, e, zs in xpows:
                z[zs] = y[s] ** e
            np.take(z, idx, out=F[1:], mode="clip")
            return np.bincount(eq, np.multiply.reduce(F, axis=0), minlength=n)

        return rhs_fn

    # -- listings ----------------------------------------------------------

    def listing_text(self) -> str:
        lines = [f"# model={self.model.kind} n_max={self.n_max} closure={self.closure}"]
        for var in self.variables:
            body = self.rhs[var].to_text().replace("\n", " + ")
            lines.append(f"d/dt {var} = {body}")
        return "\n".join(lines)

    def listing_json(self) -> str:
        """The equations as JSON text: ``meta`` (model, n_max, closure) and,
        per variable, its sorted terms, each with ``coeff`` (a Fraction as a
        string, a float as a number), ``hbar_power``, ``moments`` and ``x``
        (``[symbol, exponent]`` pairs), every key sorted.

        The schema is fixed, so the text is written directly, strings through
        json's ASCII escaper and floats in json's spelling.  The bytes are
        those of ``json.dumps(..., indent=2, sort_keys=True)``, which runs
        json's pure-Python encoder whenever ``indent`` is set.
        """
        esc = encode_basestring_ascii
        eqs = []
        for var in self.variables:
            terms = []
            for c, h, x, gs in self.rhs[var].terms():
                coeff = esc(str(c)) if isinstance(c, Fraction) else _json_float(c)
                moments = _json_list([esc(str(g)) for g in gs], 12)
                xs = _json_list([_json_list([esc(sym), esc(str(e))], 14) for sym, e in x], 12)
                terms.append(f'{{\n          "coeff": {coeff},\n          "hbar_power": {esc(str(h))},'
                             f'\n          "moments": {moments},\n          "x": {xs}\n        }}')
            eqs.append(f'{{\n      "terms": {_json_list(terms, 8)},\n      "variable": {esc(str(var))}\n    }}')
        meta = json.dumps({"model": self.model.kind, "n_max": self.n_max, "closure": self.closure},
                          indent=2, sort_keys=True).replace("\n", "\n  ")
        return f'{{\n  "equations": {_json_list(eqs, 4)},\n  "meta": {meta}\n}}'

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


def _json_list(items: list[str], indent: int) -> str:
    """JSON text of a list of encoded items whose own lines sit at ``indent``."""
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


#: json's spelling of the non-finite floats
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(c: float) -> str:
    r = float.__repr__(c)
    return _JSON_NONFINITE.get(r, r)


def generate_eom(HQ: QuantumHamiltonian, closure: str = "zero") -> EquationSystem:
    """Hamiltonian flow of H_Q over (x, moments up to n_max).

    Each right-hand side is ``bracket_general(var, H_Q)``; the moments above
    n_max in it are then replaced by ``closure_apply`` in one pass that
    writes every term into one dict, with the key order and coefficients
    of summing the term-by-closure products as ``MomentPolynomial``s.
    """
    if closure not in CLOSURES:
        raise ConfigError(f"unknown closure policy {closure!r}")
    pairs, scale = (HQ.xvars,), HQ.model.bracket_scale
    mvars = moment_vars(HQ.n_max)

    rhs: dict[object, MomentPolynomial] = {}
    for var in HQ.xvars:
        rhs[var] = bracket_general(MomentPolynomial.x_var(var), HQ.poly, pairs, scale)
    for g in mvars:
        rhs[g] = bracket_general(MomentPolynomial.moment(g), HQ.poly, pairs, scale)

    # close moments above n_max in one pass per term.  A term holds at most
    # one of them, since the bilinear bracket factors have order <= n_max - 1,
    # and its factors are sorted by order, so it is the last.  The other terms
    # go into the closed polynomial in sorted order; then each closed term,
    # highest moment first, adds its products with the closure's terms.
    closed: dict[MomentIndex, MomentPolynomial] = {}
    for var, poly in rhs.items():
        acc, high = {}, []
        for c, h, x, gs in poly.terms():
            if gs and gs[-1].order > HQ.n_max:
                high.append((gs[-1], c, h, x, gs[:-1]))
            else:
                acc[h, x, gs] = c
        high.sort(key=lambda t: t[0].sort_key(), reverse=True)
        for g, c, h, x, rest in high:
            if g not in closed:
                closed[g] = closure_apply(closure, g)
            for (hc, _, gc), cc in closed[g]._terms.items():
                if cc := c * cc:
                    _accumulate(acc, (h + hc, x, tuple(sorted(rest + gc, key=_SORT_KEY))), cc)
        rhs[var] = MomentPolynomial(acc)

    return EquationSystem(HQ.xvars, mvars, rhs, HQ.model, HQ.n_max, closure)


# ---------------------------------------------------------------------------
# moment conventions


def to_dimensionless(value: float, a: int, n: int, m: float, omega: float, hbar: float) -> float:
    """Dimensionful G(a, n) to the tilde convention hbar^{-n/2}(m w)^{n/2-a} G."""
    return hbar ** (-n / 2) * (m * omega) ** (n / 2 - a) * value


def from_dimensionless(value: float, a: int, n: int, m: float, omega: float, hbar: float) -> float:
    return hbar ** (n / 2) * (m * omega) ** (a - n / 2) * value
