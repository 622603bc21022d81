"""Independent references for the benchmark's output checks.

Nothing here imports momentflow: the quartic H_Q and its gradient are
written out by hand, and the exact evolution is built from this file's own
ladder matrices, so a fault in the program cannot cancel in its own check.
"""

from __future__ import annotations

import math

import numpy as np


def quartic_hq(delta, q, p, g22, g02, g03, g04, m=1.0, omega=1.0):
    """H_Q of p^2/2m + m w^2 q^2/2 + delta q^4/24; exact, since the potential
    has no derivative beyond order 4."""
    return (
        p**2 / (2 * m)
        + m * omega**2 * q**2 / 2
        + delta * q**4 / 24
        + 0.5 * (g22 / m + (m * omega**2 + delta * q**2 / 2) * g02)
        + delta * q / 6 * g03
        + delta / 24 * g04
    )


def quartic_hq_gradient(delta, q, p, g02, g03, m=1.0, omega=1.0):
    """Partial derivatives of :func:`quartic_hq` by label; every other
    variable has a zero partial."""
    return {
        "q": m * omega**2 * q + delta * q**3 / 6 + delta * q * g02 / 2 + delta * g03 / 6,
        "p": p / m,
        "G_2_2": 0.5 / m,
        "G_0_2": 0.5 * (m * omega**2 + delta * q**2 / 2),
        "G_0_3": delta * q / 6,
        "G_0_4": delta / 24,
    }


def ladder(dim, m=1.0, omega=1.0, hbar=1.0):
    """Position and momentum matrices of a dim-level oscillator basis."""
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)
    q = math.sqrt(hbar / (2 * m * omega)) * (lower + lower.T)
    p = 1j * math.sqrt(hbar * m * omega / 2) * (lower.T - lower)
    return q, p


def quartic_hamiltonian(delta, dim, m=1.0, omega=1.0, hbar=1.0):
    """Matrices q, p and H = p^2/2m + m w^2 q^2/2 + delta q^4/24; the last
    four rows of H feel the basis cutoff."""
    q, p = ladder(dim, m, omega, hbar)
    q2 = q @ q
    return q, p, p @ p / (2 * m) + 0.5 * m * omega**2 * q2 + delta / 24 * (q2 @ q2)


def exact_quartic_q_and_g02(delta, q0, p0, times, dim=60, m=1.0, omega=1.0, hbar=1.0):
    """<q>(t) and <(q - <q>)^2>(t) of a coherent state under the quartic
    Hamiltonian, by eigendecomposition in a dim-level oscillator basis."""
    q, _, ham = quartic_hamiltonian(delta, dim, m, omega, hbar)
    # the top levels of q^4 feel the cutoff; keep the state far below them
    evals, evecs = np.linalg.eigh(ham[: dim - 4, : dim - 4])
    alpha = q0 * math.sqrt(m * omega / (2 * hbar)) + 1j * p0 / math.sqrt(2 * hbar * m * omega)
    n = np.arange(dim - 4)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, dim - 4)))])
    psi0 = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - 0.5 * log_fact)
    psi0 = psi0 * np.exp(1j * n * np.angle(alpha))
    coeffs = evecs.conj().T @ psi0
    psis = evecs @ (np.exp(-1j * np.outer(evals, times) / hbar) * coeffs[:, None])
    qs = q[: dim - 4, : dim - 4]
    mean_q = np.einsum("it,ij,jt->t", psis.conj(), qs, psis).real
    mean_q2 = np.einsum("it,ij,jt->t", psis.conj(), qs @ qs, psis).real
    tail = float(np.max(np.sum(np.abs(psis[-8:]) ** 2, axis=0)))
    return mean_q, mean_q2 - mean_q**2, tail


def quartic_moment_rates(delta, psi, n_max, hbar=1.0):
    """Moments of psi and their exact time derivatives under the quartic
    Hamiltonian (m = omega = 1), by label: q, p and G_a_n, the Weyl-ordered
    central moment with a powers of p, for 2 <= n <= n_max.

    psi must leave n_max + 8 empty levels at the top of its basis, so that
    every product below is exact.  The moments of order n come from
    M(th) = <X^n> with X = cos(th) (q - <q>) + sin(th) (p - <p>) at n + 1
    angles, because M(th) = sum_a C(n, a) cos^(n-a) sin^a G_a_n.  Their
    derivatives follow from the Heisenberg equation,
    dM/dt = <(i/hbar)[H, X^n]> - n (cos(th) dq/dt + sin(th) dp/dt) <X^(n-1)>.
    """
    psi = np.asarray(psi, dtype=complex)
    q, p, ham = quartic_hamiltonian(delta, len(psi), hbar=hbar)
    h_psi = ham @ psi

    def mean(v):
        return float(np.vdot(psi, v).real)

    def rate(v):
        # <(i/hbar)[H, A]> for Hermitian A, from v = A psi
        return -2.0 / hbar * float(np.vdot(h_psi, v).imag)

    xq, xp = mean(q @ psi), mean(p @ psi)
    vq, vp = rate(q @ psi), rate(p @ psi)
    values = {"q": xq, "p": xp}
    rates = {"q": vq, "p": vp}
    eye = np.eye(len(psi))
    dq, dp = q - xq * eye, p - xp * eye
    for n in range(2, n_max + 1):
        thetas = np.pi * np.arange(n + 1) / (n + 1)
        moments = np.empty(n + 1)
        derivs = np.empty(n + 1)
        for k, th in enumerate(thetas):
            x = math.cos(th) * dq + math.sin(th) * dp
            lower = psi
            for _ in range(n - 1):
                lower = x @ lower
            top = x @ lower
            moments[k] = mean(top)
            derivs[k] = rate(top) - n * (math.cos(th) * vq + math.sin(th) * vp) * mean(lower)
        a = np.arange(n + 1)
        basis = np.array([[math.comb(n, j) for j in a]]) \
            * np.cos(thetas)[:, None] ** (n - a) * np.sin(thetas)[:, None] ** a
        for j, g, dg in zip(a, np.linalg.solve(basis, moments), np.linalg.solve(basis, derivs)):
            values[f"G_{j}_{n}"] = float(g)
            rates[f"G_{j}_{n}"] = float(dg)
    return values, rates
