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
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, attrgetter, sub
from typing import Iterable, Mapping

import numpy as np

from .errors import RangeError, StateError, UnsupportedProviderError

__all__ = [
    "MomentIndex",
    "moment_indices",
    "moment_vars",
    "EPS",
    "MomentPolynomial",
    "SemiclassicalState",
    "kk_coefficient",
    "bracket_moments",
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
        q, p = self.q_powers, self.p_powers
        powers = q + p
        if len(q) != len(p):
            raise RangeError("q_powers and p_powers must have equal length")
        if powers and min(powers) < 0:
            raise RangeError("moment powers must be non-negative")
        _fill_index(self, q, p, sum(powers))

    @classmethod
    def _unchecked(cls, q: tuple[int, ...], p: tuple[int, ...], order: int) -> "MomentIndex":
        """The index of non-negative powers ``q``, ``p`` of total ``order``,
        built without the checks of ``__post_init__``."""
        g = object.__new__(cls)
        _fill_index(g, q, p, order)
        return g

    def __hash__(self):
        return self._hash

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
    def p_power(self) -> int:
        """Shorthand slot ``a`` of ``G^{a,n}`` (single DOF only)."""
        if self.dof != 1:
            raise RangeError("shorthand only defined for one degree of freedom")
        return self.p_powers[0]

    def sort_key(self):
        """Canonical order: total order, then position powers, then momentum."""
        return self._key

    def __lt__(self, other: "MomentIndex"):
        return self._key < other._key

    def __str__(self):
        """The moment's one name, in CSV headers, configs, state files and
        listings: ``G_a_n`` at one DOF, ``G_<q powers>_<p powers>`` beyond."""
        if self.dof == 1:
            return f"G_{self.p_powers[0]}_{self.order}"
        return "G_" + "_".join(map(str, self.q_powers + self.p_powers))


def _fill_index(g: MomentIndex, q: tuple[int, ...], p: tuple[int, ...], order: int) -> None:
    # every bracket and term sort reads these: compute them once.  The hash
    # is the dataclass's own, so set and dict order do not change.
    g.__dict__.update({"q_powers": q, "p_powers": p, "order": order,
                       "_key": (order, q, p), "_hash": hash((q, p))})


#: sort key of a MomentIndex, read without a Python-level call
_SORT_KEY = attrgetter("_key")


def moment_indices(n: int, dof: int = 1) -> list[MomentIndex]:
    """All moment indices of total order exactly ``n`` for ``dof`` DOFs."""
    out = []
    slots = 2 * dof
    for powers in _compositions(n, slots):
        out.append(MomentIndex(tuple(powers[:dof]), tuple(powers[dof:])))
    return sorted(out, key=MomentIndex.sort_key)


def moment_vars(n_max: int, dof: int = 1) -> list[MomentIndex]:
    """All moment indices of orders 2..n_max in canonical order: the one
    moment layout of state vectors, equation systems and CSV columns."""
    return [idx for n in range(2, n_max + 1) for idx in moment_indices(n, dof)]


def _compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


#: eps^{ij} = {x^i, x^j} for x = (q, p); at N DOF, ordered (q_1..q_N,
#: p_1..p_N), it is kron(EPS, 1_N)
EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])


# ---------------------------------------------------------------------------
# polynomials in classical variables and moments

_CoeffT = Fraction | float

#: classical-variable monomial: sorted tuple of (symbol, exponent); an
#: exponent is an int unless fractional (a Fraction, e.g. p^{1/2})
_XMono = tuple[tuple[str, int | Fraction], ...]


def _as_xmono(spec: Mapping[str, object] | _XMono) -> _XMono:
    items = spec if isinstance(spec, tuple) else spec.items()
    out = []
    for sym, exp in items:
        if type(exp) is not int:
            exp = Fraction(exp)
            if exp.denominator == 1:
                exp = exp.numerator
        if exp:
            out.append((sym, exp))
    return tuple(sorted(out))


def _accumulate(acc: dict, key: tuple, c: _CoeffT) -> None:
    """Add ``c`` to ``acc[key]`` in place: a key whose partial sum cancels is
    dropped, and a later term restarts it from 0."""
    old = acc.get(key)
    if old is not None:
        c = old + c
        if not c:
            del acc[key]
            return
    acc[key] = c


class MomentPolynomial:
    """Formal linear combination of products of moments.

    Each term is ``coeff * hbar^h * (classical monomial) * G_{i1} ... G_{ik}``
    under the key ``(h, x monomial, sorted moment factors)``, with ``h`` a
    plain int.  Coefficients stay exact rationals where they arise from
    bracket combinatorics; model parameters may introduce floats.  Zero
    coefficients are dropped, so structurally equal polynomials compare
    equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, _CoeffT] | None = None):
        self._terms: dict[tuple, _CoeffT] = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def _of(cls, terms: dict[tuple, _CoeffT]) -> "MomentPolynomial":
        """The polynomial over ``terms`` itself, which holds no zero
        coefficient: no filtering pass and no copy."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def sum(cls, polys: Iterable["MomentPolynomial"]) -> "MomentPolynomial":
        """Sum of ``polys``: each key's coefficient accumulates in the order
        given, restarting from 0 where a partial sum cancels, so the result
        equals the left fold of ``+`` bit for bit."""
        acc: dict[tuple, _CoeffT] = {}
        for poly in polys:
            for key, c in poly._terms.items():
                _accumulate(acc, key, c)
        return cls(acc)

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
        hbar: int = 0,
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
        return cls({(hbar, _as_xmono(x), tuple(sorted(kept, key=_SORT_KEY))): coeff})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = MomentPolynomial.constant(other)
        return MomentPolynomial.sum((self, other))

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
        acc: dict[tuple, _CoeffT] = {}
        for (h1, x1, g1), c1 in self._terms.items():
            for (h2, x2, g2), c2 in other._terms.items():
                gs = tuple(sorted(g1 + g2, key=_SORT_KEY))
                key = (h1 + h2, _merge_monos(x1, x2), gs)
                acc[key] = acc.get(key, 0) + c1 * c2
        return MomentPolynomial(acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = MomentPolynomial.constant(other)
        if not isinstance(other, MomentPolynomial):
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return not self.is_zero()

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Canonically sorted (coeff, hbar_power, xmono, g_factors) tuples,
        ordered by hbar power, x monomial, then moment factors."""
        return [(c, h, x, gs) for (h, x, gs), c in sorted(self._terms.items(), key=_term_order)]

    def moment_indices(self) -> set[MomentIndex]:
        out = set()
        for (_, _, gs) in self._terms:
            out.update(gs)
        return out

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
        """Partial derivative with respect to a classical variable; moments
        are independent of the classical point by construction."""
        acc: dict[tuple, _CoeffT] = {}
        for (h, x, gs), c in self._terms.items():
            for sym, e in x:
                if sym == var:
                    # e copies of sym -> e * sym^{e-1}
                    new = dict(x)
                    new[sym] = e - 1
                    key = (h, _as_xmono(new), gs)
                    acc[key] = acc.get(key, 0) + c * e
        return MomentPolynomial(acc)

    def evaluate(self, state: "SemiclassicalState") -> float:
        """Value at the classical point, moments and hbar of ``state``."""
        total = 0.0
        for (h, x, gs), c in self._terms.items():
            val = float(c) * state.hbar ** float(h)
            for sym, e in x:
                val *= state.x[sym] ** float(e)
            for g in gs:
                val *= state.moment(g)
            total += val
        return total


def _term_order(item) -> tuple:
    """Sort key of a ``(key, coeff)`` item: hbar power, x monomial, then the
    moment factors in canonical order."""
    (h, x, gs), _ = item
    return h, x, tuple(map(_SORT_KEY, gs))


def _merge_monos(x1: _XMono, x2: _XMono) -> _XMono:
    d = dict(x1)
    for sym, e in x2:
        d[sym] = d.get(sym, 0) + e
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

    def validate(self, margin_tol: float = 0.0, scale=1) -> None:
        """Raise a diagnosable error on violated structural invariants;
        ``scale`` is {q, p}, as in ``check_uncertainty_order2``."""
        dof = next(iter(self.moments)).dof if self.moments else 1
        for f in range(dof):
            for powers in ("q", "p"):
                q = tuple(2 if (i == f and powers == "q") else 0 for i in range(dof))
                p = tuple(2 if (i == f and powers == "p") else 0 for i in range(dof))
                idx = MomentIndex(q, p)
                if idx in self.moments and self.moments[idx] <= 0:
                    raise StateError(f"diagonal second moment {idx} must be positive")
        if dof == 1 and self.n_max >= 2:
            m = check_uncertainty_order2(self, scale)
            if m < -abs(margin_tol):
                raise StateError(
                    f"order-2 uncertainty violated: margin {m:.3e} < 0 "
                    f"(G02={self.G(0, 2):.6g}, G12={self.G(1, 2):.6g}, G22={self.G(2, 2):.6g})"
                )

    def copy(self) -> "SemiclassicalState":
        return SemiclassicalState(self.hbar, dict(self.x), dict(self.moments), self.n_max)


# ---------------------------------------------------------------------------
# brackets


def _contractions(xs: tuple[int, ...], ys: tuple[int, ...], sign: int) -> list[tuple]:
    """(k, sum k, weight) of every tuple of contraction counts k_f between
    xs[f] and ys[f] factors, in ``itertools.product`` order: k_f
    contractions weigh sign^{k_f} C(x, k_f) C(y, k_f) k_f!."""
    out = [((), 0, 1)]
    for x, y in zip(xs, ys):
        ws, w = [], 1
        for k in range(min(x, y) + 1):
            ws.append((k, w))
            w = w * (x - k) * (y - k) // (k + 1) * sign
        out = [(t + (k,), s + k, p * w) for t, s, p in out for k, w in ws]
    return out


def bracket_moments(i1: MomentIndex, i2: MomentIndex) -> MomentPolynomial:
    """Closed-form Poisson bracket {G_{i1}, G_{i2}} as a formal polynomial.

    The result is state independent: hbar^{2r}-weighted linear terms plus
    the bilinear terms coupling each index to a once-lowered partner.  An
    order-0 result factor is the constant 1 and an order-1 factor vanishes.

    The linear part is the sine term of the characteristic-function
    identity: contractions u_f pair position powers of the first index with
    momentum powers of the second, v_f the reverse; u + v summing to an odd
    total 2r + 1 carries (-1)^(r + sum v) (hbar/2)^{2r} times the weight of
    the contractions.  Terms sharing e = u + v share a result moment and
    the denominator 4^r, so their integer numerators add up by e, in
    (u, v) order and restarting where a partial sum cancels, and each
    result key gets one ``Fraction``.
    """
    if i1.order < 2 or i2.order < 2:
        raise RangeError("bracket_moments needs both orders >= 2")
    a, b = i1.q_powers, i1.p_powers
    c, d = i2.q_powers, i2.p_powers
    if len(a) != len(c):
        raise RangeError("mismatched degree-of-freedom count")

    # integer numerators by e, (-1)^(sum v) in the v weights, (-1)^r below
    vs = _contractions(b, c, -1)
    nums: dict[tuple, int] = {}
    for u, su, wu in _contractions(a, d, 1):
        for v, sv, wv in vs:
            if (su + sv) % 2:
                _accumulate(nums, tuple(map(add, u, v)), wu * wv)

    acc: dict[tuple, _CoeffT] = {}
    ac, bd, n = tuple(map(add, a, c)), tuple(map(add, b, d)), i1.order + i2.order
    for e, num in nums.items():
        r = sum(e) // 2
        order = n - 4 * r - 2
        if order != 1:
            g = MomentIndex._unchecked(tuple(map(sub, ac, e)), tuple(map(sub, bd, e)), order)
            acc[2 * r, (), (g,) if order else ()] = Fraction(-num if r % 2 else num, 4**r)
    # the lowered partners have orders i1.order - 1 and i2.order - 1
    if i1.order > 2 and i2.order > 2:
        lo1, lo2 = i1.order - 1, i2.order - 1
        for f in range(len(a)):
            if a[f] * d[f]:
                _accumulate(acc, _pair_key(MomentIndex._unchecked(_dec(a, f), b, lo1),
                                           MomentIndex._unchecked(c, _dec(d, f), lo2)),
                            Fraction(-a[f] * d[f]))
            if b[f] * c[f]:
                _accumulate(acc, _pair_key(MomentIndex._unchecked(a, _dec(b, f), lo1),
                                           MomentIndex._unchecked(_dec(c, f), d, lo2)),
                            Fraction(b[f] * c[f]))
    return MomentPolynomial._of(acc)


def _pair_key(g1: MomentIndex, g2: MomentIndex) -> tuple:
    """Key of a bilinear bracket term: no hbar, no x, the factors sorted."""
    return (0, (), (g1, g2) if g1._key <= g2._key else (g2, g1))


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


def bracket_general(
    P: MomentPolynomial,
    Q: MomentPolynomial,
    pairs: Iterable[tuple[str, str]] = (("q", "p"),),
    scale: _CoeffT = Fraction(1),
) -> MomentPolynomial:
    """Leibniz extension of the basic brackets to polynomials.

    ``pairs`` lists the canonical pairs, {q_f, p_g} = scale delta_fg:
    ("q", "p") at one DOF, ("q0", "p0") and ("q1", "p1") at two, or
    ("c", "p") with scale gamma*kappa/3 for the cosmology model.  Classical
    coefficients bracket through partial derivatives, summed over the pairs;
    moment factors bracket pairwise through :func:`bracket_moments` and
    commute with every classical coordinate.  With p' = p / scale the
    algebra is the unit one, so a moment-bracket term of hbar power h
    carries scale^(h+1).

    The classical part comes first, pair by pair; then, for each pair of
    terms of P and Q in sorted order and each pair of their moment factors,
    the other factors times each term of the moment bracket add straight
    into one ``(hbar power, x monomial, sorted moments) -> coeff`` dict,
    coefficient ``cP * cQ * (c * scale^(h+1))``.  Order and arithmetic are those of
    ``MomentPolynomial.sum`` over the products ``term * bracket_moments``.
    """
    acc = {}
    # without a classical monomial in P, every partial of P is 0
    if any(x for _, x, _ in P._terms):
        zero = MomentPolynomial()
        for qv, pv in pairs:
            # a product with an empty factor is empty: take Q's partials only where P's are not
            dPq, dPp = P.diff_x(qv), P.diff_x(pv)
            classical = scale * ((dPq * Q.diff_x(pv) if dPq else zero) - (dPp * Q.diff_x(qv) if dPp else zero))
            for key, c in classical._terms.items():
                _accumulate(acc, key, c)
    _bracket_moment_terms(acc, [t for t in P.terms() if t[3]], [t for t in Q.terms() if t[3]], scale)
    return MomentPolynomial._of(acc)


def _bracket_moment_terms(acc: dict, P_moments: list, Q_moments: list, scale: _CoeffT) -> None:
    """Add the moment part of {P, Q} to ``acc``, from the sorted ``terms()``
    of P and of Q that carry moment factors; see :func:`bracket_general`.
    Each distinct pair of factors is bracketed once per call."""
    # a product with Fraction(1) leaves every coefficient as it is: skip it
    scaled = scale != 1 or not isinstance(scale, Fraction)
    brackets: dict[tuple, list] = {}  # (gi, gj) -> [(h, moments, c * scale^(h+1))]
    for cP, hP, xP, gP in P_moments:
        for cQ, hQ, xQ, gQ in Q_moments:
            base_c = cP * cQ
            base_h = hP + hQ
            base_x = _merge_monos(xP, xQ) if xP and xQ else xP or xQ
            for i, gi in enumerate(gP):
                rest_p = gP[:i] + gP[i + 1 :]
                for j, gj in enumerate(gQ):
                    rest = rest_p + gQ[:j] + gQ[j + 1 :]
                    terms = brackets.get((gi, gj))
                    if terms is None:
                        terms = brackets[gi, gj] = [(h, gs, c * scale ** (h + 1) if scaled else c)
                                                    for (h, _, gs), c in bracket_moments(gi, gj)._terms.items()]
                    for h, gs, c in terms:
                        c = base_c * c
                        if c:
                            if rest:
                                gs = tuple(sorted(rest + gs, key=_SORT_KEY))
                            _accumulate(acc, (base_h + h, base_x, gs), c)


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


def check_uncertainty_order2(state: SemiclassicalState, scale=1) -> float:
    """Margin G^{0,2} G^{2,2} - (G^{1,2})^2 - (hbar s)^2/4; negative =
    unphysical.  ``s`` = ``scale`` is the canonical bracket {q, p}: 1 for an
    oscillator, gamma kappa / 3 for the cosmology pair (c, p)."""
    return state.G(0, 2) * state.G(2, 2) - state.G(1, 2) ** 2 - (state.hbar * scale) ** 2 / 4


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
    cross = float(alpha @ np.kron(EPS, np.eye(n)) @ beta)
    Da, Db = provider.D(alpha), provider.D(beta)
    Dab = provider.D(alpha + beta)
    lhs = (provider.D(2 * alpha) - Da**2) * (provider.D(2 * beta) - Db**2)
    rhs = Dab**2 - 2 * math.cos(0.5 * provider.hbar * cross) * Dab * Da * Db + Da**2 * Db**2
    return lhs - rhs
