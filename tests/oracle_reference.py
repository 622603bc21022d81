"""The bracket oracle and moment extraction recomputed per call: every raw
Weyl operator a call needs is applied to psi again, and every commutator
entry and gradient is taken again, with no per-state table.  These are the
functions ``moments_of`` and ``bracket_oracle`` computed before the table;
the tests require the table's results to equal them bit for bit."""

import warnings

import numpy as np

from momentflow.moment_algebra import MomentIndex, SemiclassicalState, moment_vars
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


def bracket_oracle(i1, i2, psi, space):
    polys = []
    for idx in (i1, i2):
        if isinstance(idx, MomentIndex):
            polys.append(_central_poly(idx))
        else:
            polys.append({(_coordinates(space.dof)[idx],): 1.0})
    applied, values = weyl_values(polys, psi, space)
    grads = [_poly_grad(poly, values) for poly in polys]
    total = 0.0
    for wa, ga in grads[0].items():
        for wb, gb in grads[1].items():
            pb = 2.0 * np.imag(np.vdot(applied[wa], applied[wb])) / space.hbar
            total += ga * gb * pb
    return total
