"""Weyl-ordered quantum variables and their Poisson algebra.

All moments follow a single ordering convention: fully symmetric (Weyl)
ordering of products of the basic operators.  A moment index ``G^{a}_{b}``
carries per degree of freedom a power of the position deviation (``a_f``)
and of the momentum deviation (``b_f``).  In the single-degree-of-freedom
shorthand ``G(a, n)`` the first slot is the *momentum* power and ``n - a``
is the position power.

The closed-form bracket between two moments is derived from the
characteristic-function identity

    {D(alpha), D(beta)} = (2/hbar) sin(hbar/2 alpha x beta) D(alpha+beta)
                          - (alpha x beta) D(alpha) D(beta)

rather than transcribed from the printed coefficient table, whose index
ranges contain typos (see ``kk_coefficient``).  Coefficients are exact
rationals; floating point enters only at evaluation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from .errors import RangeError, StateError, UnsupportedProviderError

__all__ = [
    "MomentIndex",
    "SymplecticMatrix",
    "MomentPolynomial",
    "SemiclassicalState",
    "kk_coefficient",
    "bracket_moments",
    "bracket_mixed",
    "bracket_general",
    "gaussian_pairings",
    "gaussian_moment",
    "check_uncertainty_order2",
    "check_uncertainty_generating",
    "GaussianDProvider",
]


# ---------------------------------------------------------------------------
# indices


@dataclass(frozen=True)
class MomentIndex:
    """Identifies one Weyl-ordered quantum variable.

    ``q_powers[f]`` / ``p_powers[f]`` are the powers of the position and
    momentum deviation operators for degree of freedom ``f``.  The total
    order ``n`` is the sum of all powers; ``n == 0`` denotes the constant
    function 1 and ``n == 1`` moments vanish identically by construction.
    """

    q_powers: tuple[int, ...]
    p_powers: tuple[int, ...]

    def __post_init__(self):
        if len(self.q_powers) != len(self.p_powers):
            raise RangeError("q_powers and p_powers must have equal length")
        if any(a < 0 for a in self.q_powers) or any(b < 0 for b in self.p_powers):
            raise RangeError("moment powers must be non-negative")

    @classmethod
    def single(cls, a: int, n: int) -> "MomentIndex":
        """Single-DOF shorthand: momentum power ``a``, position power ``n - a``."""
        if not 0 <= a <= n:
            raise RangeError(f"need 0 <= a <= n, got a={a}, n={n}")
        return cls((n - a,), (a,))

    @property
    def dof(self) -> int:
        return len(self.q_powers)

    @property
    def order(self) -> int:
        return sum(self.q_powers) + sum(self.p_powers)

    @property
    def is_constant(self) -> bool:
        return self.order == 0

    @property
    def p_power(self) -> int:
        """Shorthand slot ``a`` of ``G^{a,n}`` (single DOF only)."""
        if self.dof != 1:
            raise RangeError("shorthand only defined for one degree of freedom")
        return self.p_powers[0]

    def sort_key(self):
        return (self.order, self.q_powers, self.p_powers)

    def __lt__(self, other: "MomentIndex"):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        if self.dof == 1:
            return f"G[{self.p_powers[0]},{self.order}]"
        qs = ",".join(map(str, self.q_powers))
        ps = ",".join(map(str, self.p_powers))
        return f"G[{qs};{ps}]"

    def column_label(self) -> str:
        """Underscore-separated label used in CSV headers."""
        if self.dof == 1:
            return f"G_{self.p_powers[0]}_{self.order}"
        return "G_" + "_".join(map(str, self.q_powers + self.p_powers))


def moment_indices(n: int, dof: int = 1) -> list[MomentIndex]:
    """All moment indices of total order exactly ``n`` for ``dof`` DOFs."""
    out = []
    slots = 2 * dof
    for powers in _compositions(n, slots):
        out.append(MomentIndex(tuple(powers[:dof]), tuple(powers[dof:])))
    return sorted(out, key=MomentIndex.sort_key)


def _compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class SymplecticMatrix:
    """eps^{ij} = {x^i, x^j} for ordering (q_1..q_N, p_1..p_N)."""

    dof: int

    @property
    def matrix(self) -> np.ndarray:
        n = self.dof
        eps = np.zeros((2 * n, 2 * n), dtype=int)
        eps[:n, n:] = np.eye(n, dtype=int)
        eps[n:, :n] = -np.eye(n, dtype=int)
        return eps


# ---------------------------------------------------------------------------
# polynomials in classical variables and moments

_CoeffT = Fraction | float

#: classical-variable monomial: sorted tuple of (symbol, exponent)
_XMono = tuple[tuple[str, Fraction], ...]


def _as_xmono(spec: Mapping[str, object] | _XMono) -> _XMono:
    if isinstance(spec, tuple):
        items = spec
    else:
        items = tuple(spec.items())
    out = []
    for sym, exp in items:
        exp = Fraction(exp) if not isinstance(exp, Fraction) else exp
        if exp != 0:
            out.append((sym, exp))
    return tuple(sorted(out))


def _potential_order(sym: str) -> int | None:
    """Order k for a potential-derivative symbol 'U<k>', else None."""
    if sym.startswith("U") and sym[1:].isdigit():
        return int(sym[1:])
    return None


class MomentPolynomial:
    """Formal linear combination of products of moments.

    Each term is ``coeff * hbar^h * (classical monomial) * G_{i1} ... G_{ik}``.
    Coefficients stay exact rationals where they arise from bracket
    combinatorics; model parameters may introduce floats.  Terms are kept in
    a canonical sorted form so that structurally equal polynomials compare
    equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, _CoeffT] | None = None):
        self._terms: dict[tuple, _CoeffT] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff != 0:
                    self._terms[key] = self._terms.get(key, 0) + coeff
            self._prune()

    def _prune(self):
        for key in [k for k, v in self._terms.items() if v == 0]:
            del self._terms[key]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MomentPolynomial":
        return cls()

    @classmethod
    def constant(cls, value: _CoeffT) -> "MomentPolynomial":
        return cls.term(value)

    @classmethod
    def x_var(cls, name: str) -> "MomentPolynomial":
        return cls.term(1, x={name: 1})

    @classmethod
    def moment(cls, idx: MomentIndex) -> "MomentPolynomial":
        return cls.term(1, gs=(idx,))

    @classmethod
    def term(
        cls,
        coeff: _CoeffT,
        hbar: object = 0,
        x: Mapping[str, object] | _XMono = (),
        gs: Iterable[MomentIndex] = (),
    ) -> "MomentPolynomial":
        """One term; order-1 moment factors annihilate it, order-0 drop out."""
        if isinstance(coeff, int):
            coeff = Fraction(coeff)
        kept = []
        for g in gs:
            if g.order == 1:
                return cls()
            if g.order == 0:
                continue
            kept.append(g)
        key = (Fraction(hbar), _as_xmono(x), tuple(sorted(kept, key=MomentIndex.sort_key)))
        return cls({key: coeff}) if coeff != 0 else cls()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = MomentPolynomial.constant(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return MomentPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return MomentPolynomial({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MomentPolynomial) else -MomentPolynomial.constant(other))

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            if isinstance(other, int):
                other = Fraction(other)
            return MomentPolynomial({k: c * other for k, c in self._terms.items()})
        out = MomentPolynomial()
        acc: dict[tuple, _CoeffT] = {}
        for (h1, x1, g1), c1 in self._terms.items():
            for (h2, x2, g2), c2 in other._terms.items():
                merged = _merge_monos(x1, x2)
                if any(g.order == 1 for g in g1 + g2):
                    continue
                key = (h1 + h2, merged, tuple(sorted(g1 + g2, key=MomentIndex.sort_key)))
                acc[key] = acc.get(key, 0) + c1 * c2
        out = MomentPolynomial(acc)
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = MomentPolynomial.constant(other)
        if not isinstance(other, MomentPolynomial):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):  # pragma: no cover - polynomials are not dict keys
        return hash(frozenset(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return not self.is_zero()

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Canonically sorted (coeff, hbar_power, xmono, g_factors) tuples,
        ordered by hbar power, x monomial, then moment factors."""
        # rational powers scaled to integers on a common denominator order
        # exactly as the Fractions do, but compare without Python calls
        den = math.lcm(*(h.denominator for h, _, _ in self._terms),
                       *(e.denominator for _, x, _ in self._terms for _, e in x))

        def key(item):
            (h, x, gs), _ = item
            return (h.numerator * (den // h.denominator),
                    tuple([(sym, e.numerator * (den // e.denominator)) for sym, e in x]),
                    tuple(map(MomentIndex.sort_key, gs)))

        return [
            (c, h, x, gs)
            for (h, x, gs), c in sorted(self._terms.items(), key=key)
        ]

    def moment_indices(self) -> set[MomentIndex]:
        out = set()
        for (_, _, gs) in self._terms:
            out.update(gs)
        return out

    def max_moment_order(self) -> int:
        return max((g.order for g in self.moment_indices()), default=0)

    def to_text(self) -> str:
        """Deterministic plain-text form, one sorted term per line."""
        if self.is_zero():
            return "0"
        lines = []
        for c, h, x, gs in self.terms():
            if isinstance(c, Fraction):
                cs = f"{c.numerator}/{c.denominator}"
            else:
                cs = repr(c)
            factors = [cs]
            if h:
                factors.append(f"hbar^{h}" if h != 1 else "hbar")
            for sym, e in x:
                factors.append(sym if e == 1 else f"{sym}^{e}")
            factors.extend(str(g) for g in gs)
            lines.append(" * ".join(factors))
        return "\n".join(lines)

    def __repr__(self):
        return f"MomentPolynomial({self.to_text()!r})"

    # -- calculus ----------------------------------------------------------

    def diff_x(self, var: str) -> "MomentPolynomial":
        """Partial derivative with respect to a classical variable.

        Potential-derivative symbols ``U<k>`` are functions of ``q`` and obey
        the chain rule d(U_k)/dq = U_{k+1}; moments are independent of the
        classical point by construction.
        """
        acc: dict[tuple, _CoeffT] = {}
        for (h, x, gs), c in self._terms.items():
            xd = dict(x)
            for sym, e in x:
                dep = sym == var or (var == "q" and _potential_order(sym) is not None)
                if not dep:
                    continue
                if sym == var:
                    new = dict(xd)
                    if e == 1:
                        del new[sym]
                    else:
                        new[sym] = e - 1
                    key = (h, _as_xmono(new), gs)
                    acc[key] = acc.get(key, 0) + c * e
                else:
                    k = _potential_order(sym)
                    # e copies of U_k -> e * U_k^{e-1} U_{k+1}
                    new = dict(xd)
                    if e == 1:
                        del new[sym]
                    else:
                        new[sym] = e - 1
                    nxt = f"U{k + 1}"
                    new[nxt] = new.get(nxt, Fraction(0)) + 1
                    key = (h, _as_xmono(new), gs)
                    acc[key] = acc.get(key, 0) + c * e
        return MomentPolynomial(acc)

    def subs_moment(self, idx: MomentIndex, repl: "MomentPolynomial") -> "MomentPolynomial":
        out = MomentPolynomial()
        for (h, x, gs), c in self._terms.items():
            if idx not in gs:
                out = out + MomentPolynomial({(h, x, gs): c})
                continue
            rest = list(gs)
            count = 0
            while idx in rest:
                rest.remove(idx)
                count += 1
            piece = MomentPolynomial.term(c, hbar=h, x=x, gs=rest)
            for _ in range(count):
                piece = piece * repl
            out = out + piece
        return out

    def evaluate(self, state: "SemiclassicalState", extra_x: Mapping[str, float] | None = None) -> float:
        """Evaluate against a state; ``U<k>`` symbols need ``state.potential``."""
        total = 0.0
        xvals = dict(state.x)
        if extra_x:
            xvals.update(extra_x)
        for (h, x, gs), c in self._terms.items():
            val = float(c) * state.hbar ** float(h)
            for sym, e in x:
                k = _potential_order(sym)
                if k is not None:
                    if state.potential is None:
                        raise StateError(f"symbol {sym} needs a potential on the state")
                    base = state.potential.derivative(xvals["q"], k)
                else:
                    base = xvals[sym]
                val *= base ** float(e)
            for g in gs:
                val *= state.moment(g)
            total += val
        return total


def _merge_monos(x1: _XMono, x2: _XMono) -> _XMono:
    d = dict(x1)
    for sym, e in x2:
        d[sym] = d.get(sym, Fraction(0)) + e
    return _as_xmono(d)


# ---------------------------------------------------------------------------
# states


@dataclass
class SemiclassicalState:
    """Classical point plus all moments up to a truncation order."""

    hbar: float
    x: dict[str, float]
    moments: dict[MomentIndex, float]
    n_max: int
    potential: object = None  # optional, for evaluating U<k> symbols

    def moment(self, idx: MomentIndex) -> float:
        if idx.order == 0:
            return 1.0
        if idx.order == 1:
            return 0.0
        try:
            return self.moments[idx]
        except KeyError:
            raise StateError(f"state carries no value for {idx}") from None

    def G(self, a: int, n: int) -> float:
        """Single-DOF shorthand lookup."""
        return self.moment(MomentIndex.single(a, n))

    def validate(self, margin_tol: float = 0.0) -> None:
        """Raise a diagnosable error on violated structural invariants."""
        dof = next(iter(self.moments)).dof if self.moments else 1
        for f in range(dof):
            for powers in ("q", "p"):
                q = tuple(2 if (i == f and powers == "q") else 0 for i in range(dof))
                p = tuple(2 if (i == f and powers == "p") else 0 for i in range(dof))
                idx = MomentIndex(q, p)
                if idx in self.moments and self.moments[idx] <= 0:
                    raise StateError(f"diagonal second moment {idx} must be positive")
        if dof == 1 and self.n_max >= 2:
            m = check_uncertainty_order2(self)
            if m < -abs(margin_tol):
                raise StateError(
                    f"order-2 uncertainty violated: margin {m:.3e} < 0 "
                    f"(G02={self.G(0, 2):.6g}, G12={self.G(1, 2):.6g}, G22={self.G(2, 2):.6g})"
                )

    def copy(self) -> "SemiclassicalState":
        return SemiclassicalState(self.hbar, dict(self.x), dict(self.moments), self.n_max, self.potential)


# ---------------------------------------------------------------------------
# brackets


def _bracket_linear_terms(a, b, c, d):
    """Yield (coeff, hbar_power, result_q, result_p) for the linear part.

    Derived from the sine term of the characteristic-function identity:
    contractions u_f pair position powers of the first index with momentum
    powers of the second, v_f the reverse; u + v summing to an odd total
    2r + 1 carries weight (hbar/2)^{2r}.
    """
    N = len(a)
    u_ranges = [range(min(a[f], d[f]) + 1) for f in range(N)]
    v_ranges = [range(min(b[f], c[f]) + 1) for f in range(N)]
    for u in product(*u_ranges):
        for v in product(*v_ranges):
            m = sum(u) + sum(v)
            if m == 0 or m % 2 == 0:
                continue
            r = (m - 1) // 2
            coeff = Fraction((-1) ** (r + sum(v)), 4 ** r)
            for f in range(N):
                coeff *= (
                    math.comb(a[f], u[f]) * math.comb(d[f], u[f]) * math.factorial(u[f])
                    * math.comb(b[f], v[f]) * math.comb(c[f], v[f]) * math.factorial(v[f])
                )
            rq = tuple(a[f] + c[f] - u[f] - v[f] for f in range(N))
            rp = tuple(b[f] + d[f] - u[f] - v[f] for f in range(N))
            yield coeff, 2 * r, rq, rp


def bracket_moments(i1: MomentIndex, i2: MomentIndex) -> MomentPolynomial:
    """Closed-form Poisson bracket {G_{i1}, G_{i2}} as a formal polynomial.

    The result is state independent: hbar^{2r}-weighted linear terms plus
    the bilinear terms coupling each index to a once-lowered partner.
    """
    if i1.order < 2 or i2.order < 2:
        raise RangeError("bracket_moments needs both orders >= 2")
    if i1.dof != i2.dof:
        raise RangeError("mismatched degree-of-freedom count")
    a, b = i1.q_powers, i1.p_powers
    c, d = i2.q_powers, i2.p_powers
    N = i1.dof

    out = MomentPolynomial()
    for coeff, hpow, rq, rp in _bracket_linear_terms(a, b, c, d):
        out = out + MomentPolynomial.term(coeff, hbar=hpow, gs=(MomentIndex(rq, rp),))

    for f in range(N):
        if a[f] * d[f]:
            g1 = MomentIndex(_dec(a, f), b)
            g2 = MomentIndex(c, _dec(d, f))
            out = out + MomentPolynomial.term(Fraction(-a[f] * d[f]), gs=(g1, g2))
        if b[f] * c[f]:
            g1 = MomentIndex(a, _dec(b, f))
            g2 = MomentIndex(_dec(c, f), d)
            out = out + MomentPolynomial.term(Fraction(b[f] * c[f]), gs=(g1, g2))
    return out


def _dec(t: tuple[int, ...], f: int) -> tuple[int, ...]:
    return t[:f] + (t[f] - 1,) + t[f + 1 :]


def kk_coefficient(r: int, s: int, e, a, b, c, d) -> Fraction:
    """Exact rational K coefficient of the linear bracket terms.

    Convention: contractions ``u_f`` pair position powers of the first index
    (``a_f``) with momentum powers of the second (``d_f``); ``v_f`` pair
    ``b_f`` with ``c_f``.  ``e_f = u_f + v_f``, ``s = sum(v_f)``, and the
    linear part of the bracket reads

        sum_{r,s,e} (-1)^{r+s} (hbar/2)^{2r} K * G^{a+c-e}_{b+d-e}.

    The printed index ranges in the source table are inconsistent with the
    canonical normalization {G^{0,2}, G^{2,2}} = 4 G^{1,2}; the ranges used
    here are re-derived from the generating-function expansion and verified
    against the exact commutator oracle.  Empty contraction sums return 0.
    """
    a, b, c, d, e = (tuple(int(x) for x in t) for t in (a, b, c, d, e))
    N = len(a)
    if not (len(b) == len(c) == len(d) == len(e) == N):
        raise RangeError("index vectors must share one length")
    if r < 0:
        raise RangeError("r must be non-negative")
    if not 0 <= s <= 2 * r + 1:
        raise RangeError("need 0 <= s <= 2r+1")
    if any(x < 0 for x in e):
        raise RangeError("e_f must be non-negative")
    if sum(e) != 2 * r + 1:
        raise RangeError("sum(e) must equal 2r+1")

    total = Fraction(0)
    for v in product(*[range(min(b[f], c[f], e[f]) + 1) for f in range(N)]):
        if sum(v) != s:
            continue
        u = tuple(e[f] - v[f] for f in range(N))
        if any(u[f] > min(a[f], d[f]) for f in range(N)):
            continue
        piece = Fraction(1)
        for f in range(N):
            piece *= (
                math.comb(a[f], u[f]) * math.comb(d[f], u[f]) * math.factorial(u[f])
                * math.comb(b[f], v[f]) * math.comb(c[f], v[f]) * math.factorial(v[f])
            )
        total += piece
    return total


def bracket_mixed(x_label, i2) -> MomentPolynomial:
    """Bracket of a classical coordinate with a moment or another coordinate.

    {x^i, G} = 0 identically; {q, p} = 1 for each canonical pair.
    Labels are "q"/"p" for one DOF, or ("q", f)/("p", f) for several.
    """
    if isinstance(i2, MomentIndex):
        return MomentPolynomial.zero()
    k1, f1 = _coord(x_label)
    k2, f2 = _coord(i2)
    if f1 == f2 and (k1, k2) == ("q", "p"):
        return MomentPolynomial.constant(Fraction(1))
    if f1 == f2 and (k1, k2) == ("p", "q"):
        return MomentPolynomial.constant(Fraction(-1))
    return MomentPolynomial.zero()


def _coord(label):
    if isinstance(label, tuple):
        kind, f = label
    else:
        kind, f = label, 0
    if kind not in ("q", "p"):
        raise RangeError(f"unknown classical coordinate {label!r}")
    return kind, f


def bracket_general(
    P: MomentPolynomial,
    Q: MomentPolynomial,
    xvars: tuple[str, str] = ("q", "p"),
    scale: _CoeffT = Fraction(1),
) -> MomentPolynomial:
    """Leibniz extension of the basic brackets to polynomials (one DOF).

    ``xvars`` names the canonical pair, with {xvars[0], xvars[1]} = scale
    (e.g. ("c", "p") with scale gamma*kappa/3 for the cosmology model).
    Classical coefficients bracket through partial derivatives; moment
    factors bracket pairwise through :func:`bracket_moments` and commute
    with all classical variables.
    """
    qv, pv = xvars
    out = MomentPolynomial()

    # classical part
    dPq, dPp = P.diff_x(qv), P.diff_x(pv)
    dQq, dQp = Q.diff_x(qv), Q.diff_x(pv)
    out = out + scale * (dPq * dQp - dPp * dQq)

    # moment part, term by term
    for cP, hP, xP, gP in P.terms():
        for cQ, hQ, xQ, gQ in Q.terms():
            if not gP or not gQ:
                continue
            base_c = cP * cQ
            base_h = hP + hQ
            base_x = _merge_monos(xP, xQ)
            for i, gi in enumerate(gP):
                rest_p = gP[:i] + gP[i + 1 :]
                for j, gj in enumerate(gQ):
                    rest_q = gQ[:j] + gQ[j + 1 :]
                    br = bracket_moments(gi, gj)
                    piece = MomentPolynomial.term(base_c, hbar=base_h, x=base_x, gs=rest_p + rest_q)
                    out = out + piece * br
    return out


# ---------------------------------------------------------------------------
# Gaussian moments


def gaussian_pairings(j: int, k: int):
    """Perfect matchings of j q-factors and k p-factors, grouped by type.

    Yields (count, n_qq, n_qp, n_pp) with n_qp ascending: ``count`` (an exact
    int) matchings pair n_qq q's with q's, n_qp q's with p's and n_pp p's
    with p's; nothing for odd j + k.  Every Gaussian moment in the package
    is this Isserlis (Wick) sum.
    """
    if (j + k) % 2:
        return
    for n_qp in range(j % 2, min(j, k) + 1, 2):
        n_qq, n_pp = (j - n_qp) // 2, (k - n_qp) // 2
        count = math.factorial(j) * math.factorial(k) // (
            math.factorial(n_qq) * math.factorial(n_pp) * math.factorial(n_qp) * 2 ** (n_qq + n_pp))
        yield count, n_qq, n_qp, n_pp


def gaussian_moment(j: int, k: int, c_qq: float, c_qp: float, c_pp: float) -> float:
    """Weyl-ordered central moment (q - <q>)^j (p - <p>)^k of a Gaussian
    state with second moments c_qq, c_qp (symmetrized) and c_pp."""
    return sum((n * c_qq**a * c_qp**b * c_pp**c for n, a, b, c in gaussian_pairings(j, k)), 0.0)


# ---------------------------------------------------------------------------
# uncertainty relations


def check_uncertainty_order2(state: SemiclassicalState) -> float:
    """Margin G^{0,2} G^{2,2} - (G^{1,2})^2 - hbar^2/4; negative = unphysical."""
    return state.G(0, 2) * state.G(2, 2) - state.G(1, 2) ** 2 - state.hbar**2 / 4


class GaussianDProvider:
    """Closed-form characteristic function of a centered Gaussian state.

    D(alpha) = <exp(alpha_i (x^i - <x^i>))> = exp(alpha_i alpha_j G^{ij} / 2)
    for real alpha, with G^{ij} the order-2 moment matrix in the ordering
    (q_1..q_N, p_1..p_N).
    """

    def __init__(self, covariance: np.ndarray, hbar: float):
        self.covariance = np.asarray(covariance, dtype=float)
        self.hbar = float(hbar)
        if self.covariance.shape[0] != self.covariance.shape[1]:
            raise StateError("covariance must be square")

    def D(self, alpha: np.ndarray) -> float:
        alpha = np.asarray(alpha, dtype=float)
        return float(np.exp(0.5 * alpha @ self.covariance @ alpha))


def check_uncertainty_generating(provider, alpha, beta, order: int | None = None) -> float:
    """Residual LHS - RHS of the characteristic-function Schwarz inequality.

    Non-negative for physical states.  ``order``, when given, probes the
    small-amplitude regime by scaling both vectors with 2^-order (the bound
    saturates as the amplitudes shrink for minimal-uncertainty states).
    """
    if not hasattr(provider, "D") or not hasattr(provider, "hbar"):
        raise UnsupportedProviderError(
            "provider must expose D(alpha) and hbar; analytic non-Gaussian "
            "providers are unsupported without oracle backing"
        )
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if order is not None:
        s = 2.0 ** (-order)
        alpha, beta = s * alpha, s * beta
    n = alpha.size // 2
    eps = SymplecticMatrix(n).matrix
    cross = float(alpha @ eps @ beta)
    Da, Db = provider.D(alpha), provider.D(beta)
    Dab = provider.D(alpha + beta)
    lhs = (provider.D(2 * alpha) - Da**2) * (provider.D(2 * beta) - Db**2)
    rhs = Dab**2 - 2 * math.cos(0.5 * provider.hbar * cross) * Dab * Da * Db + Da**2 * Db**2
    return lhs - rhs
