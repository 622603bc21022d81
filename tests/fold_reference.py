"""The moment-bracket algebra as a fold over MomentPolynomial arithmetic:
every piece is built with ``MomentPolynomial.term``, multiplied with ``*``
and summed by ``_sum``, the accumulation that ``MomentPolynomial.sum``
performs, written out here so that the reference shares none of it.  ``bracket_general`` and
``generate_eom`` write their terms into one dict instead; the tests require
them to return the same terms, in the same key order, with the same
coefficients and coefficient types as this reference."""

import math
from fractions import Fraction
from itertools import product

from momentflow.hamiltonian import closure_apply
from momentflow.moment_algebra import MomentIndex, MomentPolynomial, _merge_monos, moment_indices


def _sum(polys):
    acc = {}
    for poly in polys:
        for key, c in poly._terms.items():
            if key in acc:
                c = acc[key] + c
                if not c:
                    del acc[key]
                    continue
            acc[key] = c
    return MomentPolynomial(acc)


def _linear_terms(a, b, c, d):
    N = len(a)
    for u in product(*[range(min(a[f], d[f]) + 1) for f in range(N)]):
        for v in product(*[range(min(b[f], c[f]) + 1) for f in range(N)]):
            m = sum(u) + sum(v)
            if m % 2 == 0:
                continue
            r = (m - 1) // 2
            coeff = Fraction((-1) ** (r + sum(v)), 4**r)
            for f in range(N):
                coeff *= (
                    math.comb(a[f], u[f]) * math.comb(d[f], u[f]) * math.factorial(u[f])
                    * math.comb(b[f], v[f]) * math.comb(c[f], v[f]) * math.factorial(v[f])
                )
            rq = tuple(a[f] + c[f] - u[f] - v[f] for f in range(N))
            rp = tuple(b[f] + d[f] - u[f] - v[f] for f in range(N))
            yield coeff, 2 * r, rq, rp


def _dec(t, f):
    return t[:f] + (t[f] - 1,) + t[f + 1 :]


def bracket_moments(i1, i2):
    a, b = i1.q_powers, i1.p_powers
    c, d = i2.q_powers, i2.p_powers
    terms = [MomentPolynomial.term(coeff, hbar=hpow, gs=(MomentIndex(rq, rp),))
             for coeff, hpow, rq, rp in _linear_terms(a, b, c, d)]
    for f in range(i1.dof):
        if a[f] * d[f]:
            terms.append(MomentPolynomial.term(-a[f] * d[f], gs=(MomentIndex(_dec(a, f), b),
                                                                 MomentIndex(c, _dec(d, f)))))
        if b[f] * c[f]:
            terms.append(MomentPolynomial.term(b[f] * c[f], gs=(MomentIndex(a, _dec(b, f)),
                                                                MomentIndex(_dec(c, f), d))))
    return _sum(terms)


def bracket_general(P, Q, xvars=("q", "p"), scale=Fraction(1)):
    qv, pv = xvars
    dPq, dPp = P.diff_x(qv), P.diff_x(pv)
    dQq, dQp = Q.diff_x(qv), Q.diff_x(pv)
    pieces = [scale * _sum((dPq * dQp, -(dPp * dQq)))]
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
                    piece = MomentPolynomial.term(base_c, hbar=base_h, x=base_x, gs=rest_p + rest_q)
                    # {q, p} = scale: a moment-bracket term of hbar power h carries scale^(h+1)
                    pieces.append(piece * MomentPolynomial({(h, x, gs): c * scale ** (h + 1) for (h, x, gs), c
                                                            in bracket_moments(gi, gj)._terms.items()}))
    return _sum(pieces)


def generate_eom_rhs(HQ, closure):
    """The ``rhs`` dict of ``generate_eom(HQ, closure)``."""
    qv, pv = HQ.xvars
    scale = HQ.model.bracket_scale
    rhs = {var: bracket_general(MomentPolynomial.x_var(var), HQ.poly, (qv, pv), scale)
           for var in (qv, pv)}
    for n in range(2, HQ.n_max + 1):
        for g in moment_indices(n, 1):
            rhs[g] = bracket_general(MomentPolynomial.moment(g), HQ.poly, (qv, pv), scale)
    closed = {}
    for var, poly in rhs.items():
        pieces, high = [], []
        for c, h, x, gs in poly.terms():
            if gs and gs[-1].order > HQ.n_max:
                high.append((gs[-1], MomentPolynomial.term(c, h, x, gs[:-1])))
            else:
                pieces.append(MomentPolynomial.term(c, h, x, gs))
        for g, piece in sorted(high, key=lambda gp: gp[0].sort_key(), reverse=True):
            if g not in closed:
                closed[g] = closure_apply(closure, g)
            pieces.append(piece * closed[g])
        rhs[var] = _sum(pieces)
    return rhs


def exact_items(poly):
    """Every term in key order, with its coefficient's type and value."""
    return [(key, type(c), c) for key, c in poly._terms.items()]
