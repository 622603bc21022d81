"""Closed-form squeezed-state quantities: moment tensors, density-operator
matrix elements in a coherent basis, and the symplectic pull-back to the
squeezed-state subspace.

Everything here works in m*omega = 1 units; unit conversion is the
caller's job.  Index convention: x^1 = q, x^2 = p, eps = [[0, 1], [-1, 0]].

The squeeze map is M = exp(-eps g).  The transpose placement
(exp(-eps g) vs exp(g eps)) is fixed by matching the exact Fock-space
state exp((i/2 hbar) g_ij (xhat - x)^i (xhat - x)^j) D(x) |0>; the two
readings of the index-free display differ by exactly this transpose.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, StateError
from .moment_algebra import EPS, MomentIndex, gaussian_moment

__all__ = [
    "CLASSICAL_BLOCK_FACTOR",
    "SqueezeMatrix",
    "squeezed_moments",
    "squeezed_moment",
    "rho_element",
    "rho_matrix",
    "omega_pullback",
    "PulledBackForm",
]

# Classical block of the pulled-back form as printed, 2 eps_ij dx^i ^ dx^j.
# Whether the 2 is a convention or a typo is unresolved upstream; keep it
# in one place.
CLASSICAL_BLOCK_FACTOR = 2.0

#: step of the central differences that omega_pullback takes without dg
_FD_STEP = 1e-6


class SqueezeMatrix:
    """Real symmetric 2x2 squeeze label g and its unit-determinant map."""

    def __init__(self, g):
        g = np.asarray(g, dtype=float)
        if g.shape != (2, 2) or not np.array_equal(g, g.T):
            raise StateError("squeeze matrix must be exactly symmetric 2x2")
        self.g = g
        # A = -eps g is trace-free, so A^2 = -det(g) 1 and exp(A) = C 1 + S A
        # with C, S = cosh k, sinh(k)/k for det g = -k^2 < 0, cos k, sin(k)/k
        # for det g = k^2 > 0, and their common limit 1, 1 at det g = 0.  A g
        # too large for the float range gives a non-finite map, not a warning.
        A = -EPS @ g
        with np.errstate(all="ignore"):
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            k = np.sqrt(abs(det))
            if k == 0:
                C, S = 1.0, 1.0
            elif det < 0:
                C, S = np.cosh(k), np.sinh(k) / k
            else:
                C, S = np.cos(k), np.sin(k) / k
            self.map = C * np.eye(2) + S * A

    def __repr__(self):
        return f"SqueezeMatrix({self.g.tolist()})"

    def covariance(self, hbar: float) -> np.ndarray:
        """Order-2 moment matrix (hbar/2) M M^T; det = hbar^2/4 always."""
        C = 0.5 * hbar * self.map @ self.map.T
        C[1, 0] = C[0, 1]  # exactly symmetric, as rho_element requires
        return C


def _as_squeeze(g) -> SqueezeMatrix:
    return g if isinstance(g, SqueezeMatrix) else SqueezeMatrix(g)


def squeezed_moments(g, n: int, hbar: float) -> np.ndarray:
    """Order-n central moment tensor of the squeezed state, shape (2,)*n.

    Entry [i_1, ..., i_n] (0 = q, 1 = p) is the Gaussian pairing sum
    ``gaussian_moment`` at the covariance (hbar/2) M M^T.  It depends only
    on how many indices are 1, so each of the n + 1 values is computed
    once; the tensor is zero for odd n.
    """
    if n < 2:
        raise StateError("moment order must be at least 2")
    sq = _as_squeeze(g)
    values = np.array([squeezed_moment(sq, MomentIndex.single(a, n), hbar) for a in range(n + 1)])
    return values[np.indices((2,) * n).sum(axis=0)]


def squeezed_moment(g, idx: MomentIndex, hbar: float) -> float:
    """Single G(a, n) entry: a p-indices and n-a q-indices of the tensor."""
    with np.errstate(over="ignore", invalid="ignore"):  # too large: inf or nan, no warning
        c = _as_squeeze(g).covariance(hbar)
        return float(gaussian_moment(idx.order - idx.p_power, idx.p_power, c[0, 0], c[0, 1],
                                     c[1, 1]))


def _gaussian(x, G, hbar: float):
    """Checked centre x, G/hbar and det(1/2 + G/hbar) of the Gaussian rho(x)."""
    x, G = np.asarray(x, dtype=float), np.asarray(G, dtype=float)
    if not (math.isfinite(hbar) and hbar > 0):
        raise StateError("hbar must be finite and positive")
    if x.shape != (2,) or G.shape != (2, 2) or G[0, 1] != G[1, 0]:
        raise StateError("x must be a 2-vector and G a symmetric 2x2")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, refused below
        Gh = G / hbar
        det = np.linalg.det(0.5 * np.eye(2) + Gh)
    if not (np.isfinite(x).all() and np.isfinite(Gh).all() and math.isfinite(det)):
        raise StateError("x, G/hbar and det(1/2 + G/hbar) must be finite")
    if not det > 1e-14:
        raise DegenerateStateError("covariance makes 1/2 + G/hbar singular")
    return x, Gh, det


def _phase_point(alpha, hbar: float) -> np.ndarray:
    """Coherent label to a phase-space 2-vector; complex z maps to
    (sqrt(2 hbar) Re z, sqrt(2 hbar) Im z), sequences pass through."""
    if np.isscalar(alpha) and np.iscomplexobj(np.asarray(alpha)):
        z = complex(alpha)
        return np.array([math.sqrt(2 * hbar) * z.real, math.sqrt(2 * hbar) * z.imag])
    arr = np.asarray(alpha, dtype=float)
    if arr.shape != (2,):
        raise StateError("coherent label must be complex or a 2-vector")
    return arr


def rho_element(alpha, alpha_p, x, G: np.ndarray, hbar: float = 1.0) -> complex:
    """Coherent-basis matrix element <alpha| rho(x) |alpha'> of the density
    operator reconstructed from the order-2 moments G.

    Closed Gaussian form in S_i = delta_ij (a'-a)^j + i eps_ij (a'+a-2x)^j.
    The determinant prefactor and the quadratic-form normalization use the
    dimensionless covariance G/hbar throughout; this single convention
    passes the trace and purity checks, resolving the mixed notation of
    the source display.
    """
    x, Gh, det = _gaussian(x, G, hbar)
    a = _phase_point(alpha, hbar)
    ap = _phase_point(alpha_p, hbar)
    M = 2 * Gh + np.eye(2)
    Minv = np.linalg.inv(M)

    S = (ap - a) + 1j * EPS @ (ap + a - 2 * x)
    quad = S @ EPS @ Minv @ EPS @ S
    phase = -(1j / (4 * hbar)) * (ap - a) @ EPS @ (ap + a)
    gauss = -(1.0 / (4 * hbar)) * (ap - a) @ (ap - a)
    return complex(np.exp(-quad / (4 * hbar) + phase + gauss) / math.sqrt(det))


def rho_matrix(points: np.ndarray, x, G: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """All pairwise rho_element values over an (N, 2) array of phase-space
    labels; row index is alpha, column alpha'.  Used for quadrature checks
    (trace, purity) where N^2 scalar calls are too slow.

    With u = alpha - x, u' = alpha' - x, w = u_q - i u_p, M = I + 2 G/hbar,
    Q = eps M^{-1} eps and A = -I + i eps, the exponent of rho_element,
    normalization included, is log phi(u) + conj(log phi(u')) + c w conj(w'):

        log phi(u) = -u^T (A^T Q A + I) u / (4 hbar) + i u^T eps x / (2 hbar)
                     - log det(1/2 + G/hbar) / 4,
        c = (1 - tr M / det M) / (2 hbar) = (4 det(G/hbar) - 1) / (2 hbar det M),

    so c = 0 exactly when the state is pure (det G = hbar^2/4).  Where
    |c| max|w|^2 <= 2^-26, exp(c w conj(w')) is 1 + c w conj(w') to unit
    round-off (the remainder is at most t^2 e^|t| / 2 ~ 2^-53 at
    t = c w conj(w')), and the matrix is the rank-two product
    Phi diag(1, c) Phi^H with Phi = [phi, phi w]: one (N, 2) x (2, N)
    matmul written into the output.  The bound, not c == 0, picks this
    path, since a SqueezeMatrix covariance is pure only up to round-off.
    Otherwise the state is mixed: c w conj(w') is written into the output,
    both log phi are added and one in-place exp follows.  Either way the
    returned N x N array is the only N x N allocation.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise StateError("points must have shape (N, 2)")
    x, Gh, det = _gaussian(x, G, hbar)
    M = 2 * Gh + np.eye(2)
    Q = EPS @ np.linalg.inv(M) @ EPS
    A = -np.eye(2) + 1j * EPS
    F = -(A.T @ Q @ A + np.eye(2)) / (4 * hbar)
    c = (1 - np.trace(M) / np.linalg.det(M)) / (2 * hbar)

    u = pts - x
    w = u[:, 0] - 1j * u[:, 1]
    log_phi = ((u @ F) * u).sum(axis=1) + (1j / (2 * hbar)) * (u @ (EPS @ x)) - 0.25 * math.log(det)
    R = np.empty((len(u), len(u)), dtype=complex)
    if abs(c) * np.max(np.abs(w) ** 2, initial=0.0) <= 2.0**-26:
        phi = np.exp(log_phi)
        Phi = np.stack([phi, phi * w], axis=1)
        return np.matmul(Phi * [1.0, c], Phi.conj().T, out=R)
    np.multiply.outer(c * w, w.conj(), out=R)
    R += log_phi[:, None]
    R += log_phi.conj()[None, :]
    return np.exp(R, out=R)


# ---------------------------------------------------------------------------
# symplectic pull-back


@dataclass
class PulledBackForm:
    """Pull-back of the symplectic form at one point of the x-chart,
    written as (coefficient) dx^1 ^ dx^2."""

    x_coeff: float
    g_coeff: float
    g_block: np.ndarray  # W[(j1,j3),(j2,j4)] pairing tensor, shape (2,2,2,2)

    @property
    def total(self) -> float:
        return self.x_coeff + self.g_coeff

    def to_json(self) -> str:
        return json.dumps(
            {
                "x_coeff": self.x_coeff,
                "g_coeff": self.g_coeff,
                "total": self.total,
            },
            sort_keys=True,
        )


def _g_block_tensor(g, hbar: float) -> np.ndarray:
    """W such that the fiber part is W[j1,j3,j2,j4] dg_{j1 j3} ^ dg_{j2 j4}.

    W = (hbar/32) sum_i delta_{i1 i2} eps_{i3 i4} B_{j1 i1} B_{j2 i2}
    B_{j3 i3} B_{j4 i4} with B = 1 + M, the outer product of B B^T over
    (j1, j2) and B eps B^T over (j3, j4)."""
    B = np.eye(2) + _as_squeeze(g).map
    return np.einsum("ac,bd->abcd", hbar / 2**5 * (B @ B.T), B @ EPS @ B.T)


def omega_pullback(g_field, x, hbar: float, dg=None) -> PulledBackForm:
    """Pull the squeezed-subspace symplectic form back along x -> g(x).

    ``g_field(x)`` returns the symmetric 2x2 squeeze label; ``dg(x)``
    optionally returns the (2, 2, 2) array of d g_ij / d x^k, otherwise
    central differences with step ``_FD_STEP`` are used.
    """
    x = np.asarray(x, dtype=float)
    g0 = np.asarray(_as_squeeze(g_field(x)).g)
    if dg is not None:
        grads = np.asarray(dg(x), dtype=float)
    else:
        grads = np.stack([(_as_squeeze(g_field(x + dx)).g - _as_squeeze(g_field(x - dx)).g)
                          / (2 * _FD_STEP) for dx in _FD_STEP * np.eye(2)], axis=-1)

    # classical block: sum_ij 2 eps_ij dx^i ^ dx^j = 2(eps_12 - eps_21) dq ^ dp
    x_coeff = CLASSICAL_BLOCK_FACTOR * (EPS[0, 1] - EPS[1, 0])

    # fiber block: W[j1,j3,j2,j4] (dg_{j1 j3} ^ dg_{j2 j4})(d_q, d_p)
    W = _g_block_tensor(g0, hbar)
    g_coeff = np.einsum("abcd,abk,cdl,kl->", W, grads, grads, EPS)
    return PulledBackForm(float(x_coeff), float(g_coeff), W)
