"""Exact quantum mechanics in a truncated harmonic-oscillator basis.

Serves as the independent ground truth for the moment algebra and for the
truncated dynamics: dense operator matrices, eigendecomposition-based time
evolution, Weyl-ordered moment extraction, a commutator-based bracket
oracle, exact Heisenberg rates, and moment-sequence reconstruction of
wave functions.

Every exponential here is exp(s H) with H Hermitian (time evolution,
displacement, squeeze, characteristic function), computed stably from
the eigendecomposition H = V diag(w) V^H as V diag(exp(s w)) V^H.

Weyl operators come from the Jordan recursion W_{j+1,k} = (q W_{j,k} +
W_{j,k} q)/2 (and the same for p), which is exact because the Moyal star
product gives (x star f + f star x)/2 = x f for x = q, p.  Each
``FockSpace`` caches the raw table W_{j,k} = W[q^j p^k]; every moment and
bracket is a polynomial in the raw expectations <W_{j,k}>, and central
moments are their binomial shift (``_central_poly``), so no centred
operator is ever built.

Each ``FockSpace`` also keeps a table for one state, the last one asked
about (``FockSpace.state_table``): each W psi, <W>, commutator entry and
``_poly_grad`` result is computed once per state, and ``moments_of``,
``bracket_oracle`` and ``rates_of`` share it.  The table is keyed by the
content of psi and holds a private copy of it, so a psi changed in place
gets a fresh table, never stale values.  Like the RHS that
``EquationSystem.compile`` returns, a space is not safe to share across
threads.

Truncation caveat: the top basis levels are polluted by the cutoff, so
commutator identities hold only on the interior block and states must keep
their support well below dimension D.  A Weyl operator of order n = j + k
built from truncated q and p is exact on the block [:D - n, :D - n], so an
order-n moment is exact for a state supported on [:D - n].
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from itertools import product

import numpy as np
from numpy.polynomial import hermite as np_hermite

from .errors import CapacityError, DomainError, RangeError, ReconstructionError, StateError
from .moment_algebra import MomentIndex, SemiclassicalState, moment_vars

__all__ = [
    "FockSpace",
    "fock_ops",
    "weyl_op",
    "Propagator",
    "moments_of",
    "bracket_oracle",
    "rates_of",
    "coherent",
    "squeezed",
    "random_state",
    "hamburger_density",
    "hamburger_phase",
    "OracleDProvider",
]


def fock_ops(D: int, m: float = 1.0, omega: float = 1.0, hbar: float = 1.0):
    """Position and momentum matrices from the ladder construction.

    Hermiticity is exact by construction (real symmetric q, purely
    imaginary antisymmetric p).
    """
    if D < 8:
        raise CapacityError(f"need D >= 8, got {D}")
    n = np.arange(1, D)
    lower = np.diag(np.sqrt(n), 1)  # annihilation
    lq = math.sqrt(hbar / (2 * m * omega))
    lp = math.sqrt(hbar * m * omega / 2)
    q = lq * (lower + lower.T)
    p = 1j * lp * (lower.T - lower)
    return q, p


class FockSpace:
    """Truncated oscillator basis for N degrees of freedom (N = 1 or 2).

    For N = 2 the per-mode dimension is ``D`` and a state is a vector of
    length D**2 in the ordering of ``np.kron(psi0, psi1)``: its reshape
    Psi = psi.reshape(D, D) carries mode 0 on rows and mode 1 on columns.
    Products of per-mode operators are never formed as D**2 x D**2
    matrices; they are applied mode by mode to the reshaped state, see
    :meth:`apply_modes`.

    Raw Weyl data of a state comes from :meth:`state_table`, which holds
    one state only; a space is not safe to share across threads.
    """

    def __init__(self, D: int, m: float = 1.0, omega: float = 1.0, hbar: float = 1.0, dof: int = 1):
        if dof not in (1, 2):
            raise CapacityError("only 1 or 2 degrees of freedom supported")
        self.D = D
        self.m = m
        self.omega = omega
        self.hbar = hbar
        self.dof = dof
        self.q1, self.p1 = fock_ops(D, m, omega, hbar)
        self._weyl_cache = {(0, 0): np.eye(D, dtype=complex)}
        self._state: _StateTable | None = None

    def weyl(self, j: int, k: int) -> np.ndarray:
        """Single-mode Weyl-ordered q^j p^k from the cached table.

        A missing entry takes one Jordan step from its predecessor, W(0, k-1)
        with p or W(j-1, k) with q: the products of ``weyl_op(j, k, q1, p1)``
        in the same order, so the table equals it bit for bit.
        """
        table = self._weyl_cache
        if (j, k) not in table:
            chain = [(0, s) for s in range(k + 1)] + [(r, k) for r in range(1, j + 1)]
            for prev, key in zip(chain, chain[1:]):
                if key not in table:
                    table[key] = _jordan_step(table[prev], self.q1 if key[0] else self.p1)
        return table[(j, k)]

    def state_table(self, psi: np.ndarray, keys=()) -> _StateTable:
        """The raw Weyl table of psi, with W psi and <W> filled in for every
        W key in ``keys``.  It is keyed by the content of psi (dtype, shape
        and bytes): any other content replaces it with a fresh table."""
        psi = np.asarray(psi)
        key = (psi.dtype.str, psi.shape, psi.tobytes())
        if self._state is None or self._state.key != key:
            self._state = _StateTable(key, psi.copy())
        table = self._state
        for wk in keys:
            if wk not in table.applied:
                table.applied[wk] = self.apply_weyl(wk, table.psi)
                table.values[wk] = _expect(table.psi, table.applied[wk])
        return table

    def apply_modes(self, mats, psi: np.ndarray) -> np.ndarray:
        """Apply the product of per-mode operators ``mats[f]`` to psi.

        ``None`` stands for the identity on its mode.  For two modes this is
        (A kron B) psi = vec(A Psi B^T) with Psi = psi.reshape(D, D).
        """
        if self.dof == 1:
            return psi if mats[0] is None else mats[0] @ psi
        out = psi.reshape(self.D, self.D)
        if mats[0] is not None:
            out = mats[0] @ out
        if mats[1] is not None:
            out = out @ mats[1].T
        return out.reshape(-1)

    def apply_weyl(self, powers: tuple[tuple[int, int], ...], psi: np.ndarray) -> np.ndarray:
        """Apply the product of per-mode Weyl operators, powers[f] = (j_f, k_f)."""
        mats = [None if jk == (0, 0) else self.weyl(*jk) for jk in powers]
        return self.apply_modes(mats, psi)


class _StateTable:
    """Raw Weyl data of one state, each entry computed once: W psi and <W>
    by W key, commutator entries by ordered pair of W keys, and
    ``_poly_grad`` results by index.  It refers to no ``FockSpace``, so
    reference counting alone frees a space."""

    def __init__(self, key, psi: np.ndarray):
        self.key, self.psi = key, psi
        self.applied, self.values, self.brackets, self.grads = {}, {}, {}, {}


def weyl_op(j: int, k: int, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Weyl-ordered (fully symmetrized) product of j copies of q and k of p.

    Built by the Jordan recursion W <- (x W + W x)/2, first k times with
    x = p and then j times with x = q: the Moyal star product gives
    (x star f + f star x)/2 = x f for x = q, p, so each step multiplies the
    Weyl symbol by x.  q and p must be Hermitian (centred operators are too);
    then W x = (x W)^H, one matrix product per step, and every W is exactly
    Hermitian.  With truncated q and p the result is exact on the block
    [:D - (j + k), :D - (j + k)].
    """
    W = np.eye(q.shape[0], dtype=complex)
    for x in (p,) * k + (q,) * j:
        W = _jordan_step(W, x)
    return W


def _jordan_step(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(x W + W x)/2 for Hermitian x and W, with one matrix product."""
    xW = x @ W
    return (xW + xW.conj().T) / 2


# ---------------------------------------------------------------------------
# evolution


class Propagator:
    """exp(-iHt/hbar) applied through a one-time eigendecomposition."""

    def __init__(self, H: np.ndarray, hbar: float = 1.0):
        H = np.asarray(H)
        if not np.allclose(H, H.conj().T, atol=1e-12):
            raise StateError("Hamiltonian must be Hermitian")
        self.hbar = hbar
        self.evals, self.evecs = np.linalg.eigh(H)

    def __call__(self, psi0: np.ndarray, t: float) -> np.ndarray:
        c = self.evecs.conj().T @ psi0
        psi = self.evecs @ (np.exp(-1j * self.evals * t / self.hbar) * c)
        return psi


# ---------------------------------------------------------------------------
# moments


def _expect(psi: np.ndarray, op_psi: np.ndarray) -> float:
    """Re <psi, op psi> from the already applied vector op_psi."""
    return float(np.vdot(psi, op_psi).real)


def moments_of(psi: np.ndarray, space: FockSpace, up_to_n: int) -> SemiclassicalState:
    """Classical point and all Weyl-ordered central moments up to order n.

    Each raw Weyl operator of the space's cached table is applied to psi
    once per state, and each central moment is the binomial shift of the raw
    expectations (``_central_poly``).  Exact for a state supported on the
    block [:D - up_to_n], where the order-n operators are exact.
    """
    if space.D < 10 * up_to_n:
        warnings.warn(
            f"D={space.D} is small for moment order {up_to_n}; "
            "truncation may bite", stacklevel=2
        )
    point = _coordinates(space.dof)
    polys = {idx: _central_poly(idx) for idx in moment_vars(up_to_n, space.dof)}
    keys = [*point.values(), *(wk for poly in polys.values() for mono in poly for wk in mono)]
    values = space.state_table(psi, keys).values
    x = {name: values[wk] for name, wk in point.items()}
    moments = {idx: _poly_value(poly, values) for idx, poly in polys.items()}
    return SemiclassicalState(space.hbar, x, moments, up_to_n)


# ---------------------------------------------------------------------------
# bracket oracle

#: symbol for <Weyl-ordered product>, one (j, k) pair per mode
_WKey = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _coordinates(dof: int) -> dict[str, _WKey]:
    """W key of each classical coordinate by name, in the order q0, p0, q1, p1
    ("q", "p" at one DOF): a unit power on its mode.  Cached; do not modify."""
    return {kind if dof == 1 else f"{kind}{f}": tuple(power if g == f else (0, 0) for g in range(dof))
            for f in range(dof) for kind, power in (("q", (1, 0)), ("p", (0, 1)))}


@lru_cache(maxsize=None)
def _central_poly(idx: MomentIndex) -> dict[tuple[_WKey, ...], float]:
    """G as a polynomial in raw Weyl expectations W[(j1,k1),(j2,k2),...].

    The classical point enters as W with a single unit power, e.g. for one
    DOF q = W[(1,0)] and p = W[(0,1)].  Returned as a dict mapping a sorted
    tuple of W keys (a monomial) to its coefficient; cached per index, so
    callers must not modify it.
    """
    units = [*_coordinates(idx.dof).values()]  # q_f at 2f, p_f at 2f + 1
    terms: dict[tuple[_WKey, ...], float] = {}
    for rs in product(*(range(j + 1) for j in idx.q_powers)):
        for ss in product(*(range(k + 1) for k in idx.p_powers)):
            coeff, factors = 1.0, []
            for f, (j, k, r, s) in enumerate(zip(idx.q_powers, idx.p_powers, rs, ss)):
                coeff *= math.comb(j, r) * math.comb(k, s) * (-1) ** (j - r + k - s)
                factors += [units[2 * f]] * (j - r) + [units[2 * f + 1]] * (k - s)
            wkey = tuple(zip(rs, ss))
            if any(r + s for r, s in wkey):
                factors.append(wkey)
            key = tuple(sorted(factors))
            terms[key] = terms.get(key, 0.0) + coeff
    return terms


def _poly_value(terms, values) -> float:
    """A W-polynomial evaluated at the raw expectations ``values``."""
    return sum(coeff * math.prod(values[wk] for wk in mono) for mono, coeff in terms.items())


def _poly_grad(terms, values):
    """Gradient of a W-polynomial: dict Wkey -> d(poly)/dW evaluated."""
    grad: dict[_WKey, float] = {}
    for mono, coeff in terms.items():
        for i, wk in enumerate(mono):
            rest = mono[:i] + mono[i + 1 :]
            val = coeff
            for other in rest:
                val *= values[other]
            grad[wk] = grad.get(wk, 0.0) + val
    return grad


def bracket_oracle(i1, i2, psi: np.ndarray, space: FockSpace) -> float:
    """{G_{i1}, G_{i2}} evaluated exactly on the state psi.

    Uses the chain rule over the raw Weyl expectations W_A: the bracket of
    two expectation-value functions is <[A, B]>/(i hbar), and moment
    functions are polynomials in the W_A.  Either index may instead name a
    classical coordinate as ``moments_of`` does, "q"/"p" at one DOF and
    "q0".."p1" at two; any other name raises RangeError.  Gradients and
    commutator entries are computed once per state, in the space's table.
    """
    table = space.state_table(psi)
    grads = []
    for idx in (i1, i2):
        if idx not in table.grads:
            if isinstance(idx, MomentIndex):
                poly = _central_poly(idx)
            elif (wk := _coordinates(space.dof).get(idx)) is not None:
                poly = {(wk,): 1.0}
            else:
                raise RangeError(f"{idx!r} names no classical coordinate of a {space.dof}-DOF space")
            space.state_table(psi, {wk for mono in poly for wk in mono})
            table.grads[idx] = _poly_grad(poly, table.values)
        grads.append(table.grads[idx])

    total, pbs, applied = 0.0, table.brackets, table.applied
    for wa, ga in grads[0].items():
        for wb, gb in grads[1].items():
            pb = pbs.get((wa, wb))
            if pb is None:
                # <[A,B]>/(i hbar) = 2 Im <A psi, B psi> / hbar for Hermitian A, B
                pb = pbs[wa, wb] = 2.0 * np.imag(np.vdot(applied[wa], applied[wb])) / space.hbar
            total += ga * gb * pb
    return total


def rates_of(psi: np.ndarray, space: FockSpace, H_op: np.ndarray, n_max: int) -> dict:
    """Exact Heisenberg rates on psi under the Hamiltonian matrix ``H_op``,
    keyed like the state of ``moments_of`` to order n_max: d<W>/dt =
    (i/hbar) <[H, W]> = -(2/hbar) Im <H psi, W psi> for each raw W, with
    W psi from the space's table of psi, and the chain rule through
    ``_central_poly`` for each central moment."""
    polys = {name: {(wk,): 1.0} for name, wk in _coordinates(space.dof).items()}
    polys.update((idx, _central_poly(idx)) for idx in moment_vars(n_max, space.dof))
    keys = {wk for poly in polys.values() for mono in poly for wk in mono}
    table = space.state_table(psi, keys)
    h_psi = H_op @ table.psi
    raw = {wk: -2.0 * np.imag(np.vdot(h_psi, table.applied[wk])) / space.hbar for wk in keys}
    return {label: sum(g * raw[wk] for wk, g in _poly_grad(poly, table.values).items())
            for label, poly in polys.items()}


# ---------------------------------------------------------------------------
# state constructors


def coherent(alpha: complex, D: int) -> np.ndarray:
    """Normalized coherent state; errors out if the tail carries weight."""
    n = np.arange(D)
    log_amp = n * np.log(np.abs(alpha) + 1e-300) - 0.5 * np.cumsum(
        np.concatenate([[0.0], np.log(np.arange(1, D))])
    )
    amps = np.exp(log_amp - np.abs(alpha) ** 2 / 2) * np.exp(1j * n * np.angle(alpha))
    if alpha == 0:
        amps = np.zeros(D, dtype=complex)
        amps[0] = 1.0
    tail = np.sum(np.abs(amps[-max(2, D // 20):]) ** 2)
    if tail > 1e-10:
        raise CapacityError(f"coherent-state tail norm {tail:.2e} too large for D={D}")
    return amps / np.linalg.norm(amps)


def _exp_hermitian(H: np.ndarray, s: complex) -> np.ndarray:
    """exp(s H) for Hermitian H, from its eigendecomposition; a generator
    that overflowed (an inf or nan entry) is a domain error."""
    if not np.isfinite(H).all():
        raise DomainError("an input overflowed the oracle's operators: exp(s H) needs a finite H")
    w, V = np.linalg.eigh(H)
    return (V * np.exp(s * w)) @ V.conj().T


def displacement(x_point, space: FockSpace) -> np.ndarray:
    """exp((i/hbar)(p0 q - q0 p)) shifting the state to the phase-space point."""
    q0, p0 = x_point
    return _exp_hermitian(p0 * space.q1 - q0 * space.p1, 1j / space.hbar)


def squeezed(g: np.ndarray, x_point, space: FockSpace) -> np.ndarray:
    """Squeezed state exp((i/2 hbar) g_ij (xhat-x)^i (xhat-x)^j) D(x) |0>.

    g is real symmetric 2x2 acting on the centered pair (qhat-q, phat-p).
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (2, 2) or not np.array_equal(g, g.T):
        raise StateError("squeeze matrix must be real symmetric 2x2")
    q0, p0 = x_point
    vac = np.zeros(space.D, dtype=complex)
    vac[0] = 1.0
    psi = displacement((q0, p0), space) @ vac
    qc = space.q1 - q0 * np.eye(space.D)
    pc = space.p1 - p0 * np.eye(space.D)
    xs = [qc, pc.astype(complex)]
    quad = sum(g[i, j] * (xs[i] @ xs[j]) for i in range(2) for j in range(2))
    psi = _exp_hermitian(quad, 1j / (2 * space.hbar)) @ psi
    nrm = np.linalg.norm(psi)
    tail = np.sum(np.abs(psi[-max(2, space.D // 20):]) ** 2) / nrm**2
    if tail > 1e-10:
        raise CapacityError(f"squeezed-state tail norm {tail:.2e} too large for D={space.D}")
    return psi / nrm


def random_state(rng: np.random.Generator, D: int, support: int | None = None) -> np.ndarray:
    """Random normalized state supported on the lowest levels (default D/3)."""
    support = support or D // 3
    psi = np.zeros(D, dtype=complex)
    psi[:support] = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# moment-sequence reconstruction


def _hermite_series(moments: np.ndarray, order: int):
    """sum_n c_n H_n(q) / (2^n n! sqrt(pi)) with c_n = int H_n(q) f(q) dq
    computed from the power moments of f, as a function of q."""
    cs = []
    for n in range(order + 1):
        herm = np_hermite.herm2poly([0] * n + [1])  # H_n power-basis coeffs
        cs.append(float(np.dot(herm, moments[: n + 1])))

    def series(q):
        total = np.zeros_like(q)
        for n, cn in enumerate(cs):
            hn = np_hermite.hermval(q, [0] * n + [1])
            total += cn * hn / (2**n * math.factorial(n) * math.sqrt(math.pi))
        return total

    return series


def hamburger_density(a, order: int):
    """Reconstruct |Psi(q)|^2 from the raw position moments a_l = <q^l>.

    Expands the density in the orthogonal family {H_n(q) e^{-q^2}} with the
    standard normalization int H_n H_m e^{-q^2} dq = 2^n n! sqrt(pi) delta_nm
    (the source text prints 2^n pi n! for this constant, which breaks the
    a_0 = 1 normalization; the standard constant is used).  Assumes the
    dimensionless units m = omega = hbar = 1.
    """
    a = np.asarray(a, dtype=float)
    if a.size < order + 1:
        raise ReconstructionError(f"need {order + 1} moments, got {a.size}")
    series = _hermite_series(a, order)

    def density(q):
        q = np.asarray(q, dtype=float)
        return np.exp(-(q**2)) * series(q)

    return density


def hamburger_phase(b, a, density, order: int, hbar: float = 1.0):
    """Reconstruct the phase gradient d(alpha)/dq from b_n = <q^n p>.

    Writing Psi = |Psi| e^{i alpha}, the real combination
    m_n = b_n / hbar - i (n/2) a_{n-1} equals int q^n rho(q) alpha'(q) dq;
    the product rho * alpha' is then expanded like the density and divided
    out pointwise.
    """
    b = np.asarray(b, dtype=complex)
    a = np.asarray(a, dtype=float)
    if b.size < order + 1:
        raise ReconstructionError(f"need {order + 1} mixed moments, got {b.size}")
    m = np.empty(order + 1)
    for n in range(order + 1):
        prev = a[n - 1] if n >= 1 else 0.0
        val = b[n] / hbar - 0.5j * n * prev
        if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
            raise ReconstructionError(
                f"mixed moment b_{n} inconsistent with a-sequence (imag {val.imag:.2e})"
            )
        m[n] = val.real
    series = _hermite_series(m, order)

    def phase_gradient(q):
        q = np.asarray(q, dtype=float)
        rho = density(q)
        if np.any(rho <= 0):
            raise ReconstructionError("density not positive at a phase-evaluation point")
        return np.exp(-(q**2)) * series(q) / rho

    return phase_gradient


# ---------------------------------------------------------------------------
# characteristic-function provider


class OracleDProvider:
    """D(alpha) = <exp(alpha . (xhat - x))> evaluated on a Fock-basis state.

    The exponent is Hermitian, so the matrix exponential grows with alpha;
    keep amplitudes modest relative to the basis size.
    """

    def __init__(self, psi: np.ndarray, space: FockSpace):
        self.psi = psi
        self.space = space
        self.hbar = space.hbar
        st = moments_of(psi, space, 2)
        self._qc = space.q1 - st.x["q"] * np.eye(space.D)
        self._pc = (space.p1 - st.x["p"] * np.eye(space.D)).astype(complex)

    def D(self, alpha) -> float:
        alpha = np.asarray(alpha, dtype=float)
        gen = alpha[0] * self._qc + alpha[1] * self._pc
        return _expect(self.psi, _exp_hermitian(gen, 1.0) @ self.psi)
