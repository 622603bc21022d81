"""Closed-form squeezed-state quantities: moment tensors, density-operator
matrix elements in a coherent basis, and the symplectic pull-back to the
squeezed-state subspace.

Everything here works in m*omega = 1 units; unit conversion is the
caller's job.  Index convention: x^1 = q, x^2 = p, eps = [[0, 1], [-1, 0]].

The squeeze map uses M = expm(-eps g).  The transpose placement
(expm(-eps g) vs expm(g eps)) is fixed by matching the exact Fock-space
state exp((i/2 hbar) g_ij (xhat - x)^i (xhat - x)^j) D(x) |0>; the two
readings of the index-free display differ by exactly this transpose.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DegenerateStateError, StateError
from .moment_algebra import MomentIndex, gaussian_moment

__all__ = [
    "EPS",
    "CLASSICAL_BLOCK_FACTOR",
    "SqueezeMatrix",
    "squeezed_moments",
    "squeezed_moment",
    "rho_element",
    "rho_matrix",
    "omega_pullback",
    "PulledBackForm",
]

EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Classical block of the pulled-back form as printed, 2 eps_ij dx^i ^ dx^j.
# Whether the 2 is a convention or a typo is unresolved upstream; keep it
# in one place.
CLASSICAL_BLOCK_FACTOR = 2.0


class SqueezeMatrix:
    """Real symmetric 2x2 squeeze label g and its unit-determinant map."""

    def __init__(self, g):
        g = np.asarray(g, dtype=float)
        if g.shape != (2, 2) or not np.allclose(g, g.T, atol=0):
            raise StateError("squeeze matrix must be exactly symmetric 2x2")
        self.g = g
        self.map = expm(-EPS @ g)

    def __repr__(self):
        return f"SqueezeMatrix({self.g.tolist()})"

    def covariance(self, hbar: float) -> np.ndarray:
        """Order-2 moment matrix (hbar/2) M M^T; det = hbar^2/4 always."""
        return 0.5 * hbar * self.map @ self.map.T


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
    c = _as_squeeze(g).covariance(hbar)
    return float(gaussian_moment(idx.order - idx.p_power, idx.p_power, c[0, 0], c[0, 1], c[1, 1]))


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
    a = _phase_point(alpha, hbar)
    ap = _phase_point(alpha_p, hbar)
    x = np.asarray(x, dtype=float)
    Gh = np.asarray(G, dtype=float) / hbar
    M = 2 * Gh + np.eye(2)
    det = np.linalg.det(0.5 * np.eye(2) + Gh)
    if det <= 1e-14:
        raise DegenerateStateError("covariance makes 1/2 + G/hbar singular")
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

    With u = alpha - x and u' = alpha' - x the exponent of rho_element,
    normalization included, is a quadratic polynomial f(u) + g(u') + u^T C u'
    (measured from x, the three terms stay small where the element is not).
    S = A_a u + A_b u' with A_a = -I + i eps, A_b = I + i eps; with
    M = I + 2 G/hbar and Q = eps M^{-1} eps,

        C = (-A_a^T Q A_b + i eps + I) / (2 hbar),
        f(u) = -u^T (A_a^T Q A_a + I) u / (4 hbar) + i u^T eps x / (2 hbar)
               - log det(1/2 + G/hbar) / 2,
        g(u') = -u'^T (A_b^T Q A_b + I) u' / (4 hbar) - i u'^T eps x / (2 hbar).

    The matrix is one (N, 2) x (2, N) matmul written into the output, two
    broadcast adds and one in-place exp: the returned N x N array is the
    only N x N allocation.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise StateError("points must have shape (N, 2)")
    x = np.asarray(x, dtype=float)
    Gh = np.asarray(G, dtype=float) / hbar
    det = np.linalg.det(0.5 * np.eye(2) + Gh)
    if det <= 1e-14:
        raise DegenerateStateError("covariance makes 1/2 + G/hbar singular")
    Q = EPS @ np.linalg.inv(2 * Gh + np.eye(2)) @ EPS
    A_a = -np.eye(2) + 1j * EPS
    A_b = np.eye(2) + 1j * EPS
    C = (-A_a.T @ Q @ A_b + 1j * EPS + np.eye(2)) / (2 * hbar)
    F_a = -(A_a.T @ Q @ A_a + np.eye(2)) / (4 * hbar)
    F_b = -(A_b.T @ Q @ A_b + np.eye(2)) / (4 * hbar)
    lin = (1j / (2 * hbar)) * (EPS @ x)

    u = pts - x
    f = ((u @ F_a) * u).sum(axis=1) + u @ lin - 0.5 * math.log(det)
    g = ((u @ F_b) * u).sum(axis=1) - u @ lin
    R = np.empty((len(u), len(u)), dtype=complex)
    np.matmul(u @ C, u.T, out=R)
    R += f[:, None]
    R += g[None, :]
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
    """W such that the fiber part is W[j1,j3,j2,j4] dg_{j1 j3} ^ dg_{j2 j4}."""
    E = _as_squeeze(g).map
    B = np.eye(2) + E
    W = np.zeros((2, 2, 2, 2))
    pref = hbar / 2**5
    for j1, j3, j2, j4 in itertools.product(range(2), repeat=4):
        acc = 0.0
        for i1, i2, i3, i4 in itertools.product(range(2), repeat=4):
            acc += (
                (1.0 if i1 == i2 else 0.0)
                * EPS[i3, i4]
                * B[j1, i1]
                * B[j2, i2]
                * B[j3, i3]
                * B[j4, i4]
            )
        W[j1, j3, j2, j4] = pref * acc
    return W


def omega_pullback(g_field, x, hbar: float, dg=None, fd_step: float = 1e-6) -> PulledBackForm:
    """Pull the squeezed-subspace symplectic form back along x -> g(x).

    ``g_field(x)`` returns the symmetric 2x2 squeeze label; ``dg(x)``
    optionally returns the (2, 2, 2) array of d g_ij / d x^k, otherwise
    central differences with the recorded step are used.
    """
    x = np.asarray(x, dtype=float)
    g0 = np.asarray(_as_squeeze(g_field(x)).g)
    if dg is not None:
        grads = np.asarray(dg(x), dtype=float)
    else:
        grads = np.zeros((2, 2, 2))
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = fd_step
            gp = np.asarray(_as_squeeze(g_field(x + dx)).g)
            gm = np.asarray(_as_squeeze(g_field(x - dx)).g)
            grads[:, :, k] = (gp - gm) / (2 * fd_step)

    # classical block: sum_ij 2 eps_ij dx^i ^ dx^j = 2(eps_12 - eps_21) dq ^ dp
    x_coeff = CLASSICAL_BLOCK_FACTOR * (EPS[0, 1] - EPS[1, 0])

    W = _g_block_tensor(g0, hbar)
    g_coeff = 0.0
    for j1, j3, j2, j4 in itertools.product(range(2), repeat=4):
        g_coeff += W[j1, j3, j2, j4] * (
            grads[j1, j3, 0] * grads[j2, j4, 1] - grads[j1, j3, 1] * grads[j2, j4, 0]
        )
    return PulledBackForm(float(x_coeff), float(g_coeff), W)
