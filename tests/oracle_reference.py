"""The bracket oracle and moment extraction recomputed per call: every raw
Weyl operator a call needs is applied to psi again, and every commutator
matrix and gradient is taken again, with no per-state table.  The tests
require the table's results to equal these bit for bit.

``bracket_terms_pairwise`` is the oracle's older arithmetic, one
``np.vdot`` per commutator entry and a double loop over the gradients: a
second reference that the matrix form must agree with up to round-off."""

import warnings

import numpy as np

from momentflow.moment_algebra import MomentIndex, SemiclassicalState, moment_indices, moment_vars
from momentflow.oracle import _central_poly, _coordinates, _poly_grad, _poly_value


def weyl_values(polys, psi, space):
    """Apply each raw Weyl operator the W-polynomials use to psi once;
    returns the applied vectors and their expectations, both by W key."""
    needed = {wk for poly in polys for mono in poly for wk in mono}
    applied = {wk: space.apply_weyl(wk, psi) for wk in needed}
    return applied, {wk: float(np.vdot(psi, vec).real) for wk, vec in applied.items()}


def moments_of(psi, space, up_to_n):
    if space.D < 10 * up_to_n:
        warnings.warn(f"D={space.D} is small for moment order {up_to_n}; "
                      "truncation may bite", stacklevel=2)
    point = _coordinates(space.dof)
    polys = {idx: _central_poly(idx) for idx in moment_vars(up_to_n, space.dof)}
    _, values = weyl_values([{(wk,): 1.0 for wk in point.values()}, *polys.values()], psi, space)
    x = {name: values[wk] for name, wk in point.items()}
    moments = {idx: _poly_value(poly, values) for idx, poly in polys.items()}
    return SemiclassicalState(space.hbar, x, moments, up_to_n)


def _label_poly(idx, space):
    """The W-polynomial of a bracket label and its order."""
    if isinstance(idx, MomentIndex):
        return _central_poly(idx), idx.order
    return {(_coordinates(space.dof)[idx],): 1.0}, 1


def _weyl_keys(n, dof):
    """Every raw W key of orders 1..n, in the order of ``moment_indices``."""
    return [tuple(zip(idx.q_powers, idx.p_powers)) for m in range(1, n + 1) for idx in moment_indices(m, dof)]


def bracket_oracle(i1, i2, psi, space):
    """g1 . PB_n . g2 with PB_n the commutator matrix of every raw W key of
    orders 1..n, n the larger order of the two labels."""
    (poly1, order1), (poly2, order2) = (_label_poly(idx, space) for idx in (i1, i2))
    keys = _weyl_keys(max(order1, order2, 1), space.dof)
    applied, values = weyl_values([{(wk,): 1.0 for wk in keys}], psi, space)
    stacked = np.array([applied[wk] for wk in keys])
    pb = 2.0 * (stacked.conj() @ stacked.T).imag / space.hbar
    grads = []
    for poly, order in ((poly1, order1), (poly2, order2)):
        grad = np.zeros(len(_weyl_keys(order, space.dof)))
        for wk, g in _poly_grad(poly, values).items():
            grad[keys.index(wk)] = g
        grads.append(grad)
    return grads[0] @ pb[: grads[0].size, : grads[1].size] @ grads[1]


def bracket_terms_pairwise(i1, i2, psi, space):
    """The terms g_a g_b pb_ab of {G_i1, G_i2}, one ``np.vdot`` per
    commutator entry, in the order the double loop summed them, and the
    Cauchy-Schwarz bound of each, |g_a g_b| 2 |W_a psi| |W_b psi| / hbar:
    the size a term's round-off scales with, also where the bracket
    vanishes identically."""
    polys = [_label_poly(idx, space)[0] for idx in (i1, i2)]
    applied, values = weyl_values(polys, psi, space)
    grads = [_poly_grad(poly, values) for poly in polys]
    terms, bounds = [], []
    for wa, ga in grads[0].items():
        for wb, gb in grads[1].items():
            pb = 2.0 * np.imag(np.vdot(applied[wa], applied[wb])) / space.hbar
            terms.append(ga * gb * pb)
            bounds.append(abs(ga * gb) * 2.0 * np.linalg.norm(applied[wa]) * np.linalg.norm(applied[wb]) / space.hbar)
    return terms, bounds
