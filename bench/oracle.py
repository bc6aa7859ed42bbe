"""Reference computations the benchmark checks the library against.

Nothing here imports ``quditstars``: every reference is rebuilt from the
definitions in the README (the Majorana encoding, the stereographic
projection, the Moebius action and the gate-script semantics), so a check
never compares a library routine with itself.

Points of the Riemann sphere are carried as normalised spinors (u, v), the
point being z = u / v (v = 0 is infinity), which keeps infinity and large
moduli free of special cases.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

# Tolerances the library itself uses: the chordal bound of ``verify``, the
# reconstruction-fidelity bound of its suite (also used for its algebraic
# identities), and the Frobenius unitarity bound of ``UnitaryMatrix``.
CHORDAL_TOL = 1e-8
FIDELITY_TOL = 1e-10
UNITARY_TOL = 1e-9

INF = complex("inf")


def spinors_from_points(points: np.ndarray) -> np.ndarray:
    """(n, 2) spinors of unit-sphere points (n, 3), the inverse of ``sphere``."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    rho = np.hypot(x, y)
    phase = np.where(rho > 0, (x - 1j * y) / np.where(rho > 0, rho, 1.0), 1.0)
    u = np.sqrt(np.clip((1.0 + z) / 2.0, 0.0, 1.0)) * phase
    v = np.sqrt(np.clip((1.0 - z) / 2.0, 0.0, 1.0)) + 0j
    return np.stack([u, v], axis=1)


def spinors_from_values(values) -> np.ndarray:
    """Spinors of complex values, with ``INF`` (or any infinite entry) as infinity."""
    out = np.empty((len(values), 2), dtype=complex)
    for k, z in enumerate(values):
        z = complex(z)
        if math.isinf(z.real) or math.isinf(z.imag):
            out[k] = (1.0, 0.0)
        elif abs(z) > 1.0:
            out[k] = (1.0, 1.0 / z)
        else:
            out[k] = (z, 1.0)
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def sphere(spinors: np.ndarray) -> np.ndarray:
    """Stereographic images (n, 3): z -> (2 Re z, -2 Im z, |z|^2 - 1) / (|z|^2 + 1)."""
    u, v = spinors[:, 0], spinors[:, 1]
    uv = u * v.conj()
    norm = np.abs(u) ** 2 + np.abs(v) ** 2
    return np.stack([2.0 * uv.real, -2.0 * uv.imag, np.abs(u) ** 2 - np.abs(v) ** 2],
                    axis=1) / norm[:, None]


def moebius(matrix: np.ndarray, spinors: np.ndarray) -> np.ndarray:
    """z -> (a z + b)/(c z + d) acting on spinors, renormalised."""
    out = spinors @ matrix.T
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def dicke(spinors: np.ndarray, dim: int) -> np.ndarray:
    """Unit amplitudes of the state whose constellation is the given spinors.

    The normalised symmetric product of the spinors in the Dicke basis:
    adding spinor (u, v) to m others maps a_mu to
    v sqrt(mu/(m+1)) a_{mu-1} + u sqrt((m+1-mu)/(m+1)) a_mu, which is
    multiplication of p(z) = sum a_mu (-1)^mu sqrt(C(n,mu)) z^mu by (v z - u),
    up to sign.  Every step is bounded, so it is stable at any dimension.
    """
    if len(spinors) != dim - 1:
        raise ValueError(f"{len(spinors)} spinors for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    for m, (u, v) in enumerate(spinors):
        k = m + 1
        root = np.sqrt(np.arange(k + 1) / k)     # sqrt(j / (m + 1)), j = 0..m+1
        head = amps[:k].copy()
        amps[:k] = u * root[k:0:-1] * head
        amps[k] = 0.0
        amps[1:k + 1] += v * root[1:] * head
        amps /= math.sqrt(np.vdot(amps, amps).real)
    return amps


def majorana_coefficients(amps: np.ndarray) -> np.ndarray:
    """c_mu = a_mu (-1)^mu sqrt(C(n, mu)), the weights taken through lgamma."""
    n = len(amps) - 1
    mu = np.arange(n + 1)
    log_binom = (math.lgamma(n + 1) - np.array([math.lgamma(k + 1) for k in mu])
                 - np.array([math.lgamma(n - k + 1) for k in mu]))
    return amps * np.where(mu % 2 == 0, 1.0, -1.0) * np.exp(0.5 * log_binom)


def fidelity_error(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |<a|b>| / (|a| |b|): zero iff the two vectors span the same ray."""
    return float(1.0 - abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))


def matched_distances(found: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Chordal distance of each expected point to its partner in an optimal
    perfect matching between two multisets of sphere points (n, 3)."""
    cost = np.linalg.norm(found[:, None, :] - expected[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    out = np.empty(len(expected))
    out[cols] = cost[rows, cols]
    return out


def projective_residual(m1: np.ndarray, m2: np.ndarray) -> float:
    """Relative residual of the best scalar fit m1 ~ s * m2 (0 iff same map)."""
    v1, v2 = m1.ravel(), m2.ravel()
    s = np.vdot(v2, v1) / np.vdot(v2, v2)
    return float(np.linalg.norm(v1 - s * v2) / np.linalg.norm(v1))


def _su2(a: complex, b: complex) -> np.ndarray:
    nrm = math.hypot(abs(a), abs(b))
    a, b = a / nrm, b / nrm
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def gate_matrix(kind: str, args: tuple[float, ...]) -> np.ndarray:
    """The 2x2 matrix of one gate-script term, from the README's definitions."""
    if kind == "not":
        return _su2(0.0, 1j)
    if kind == "hadamard":
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    if kind == "su2":
        return _su2(complex(args[0], args[1]), complex(args[2], args[3]))
    half = args[0] / 2.0
    if kind == "rotx":
        return _su2(math.cos(half), 1j * math.sin(half))
    if kind == "roty":
        return _su2(math.cos(half), math.sin(half))
    if kind == "rotz":
        return _su2(complex(math.cos(half), -math.sin(half)), 0.0)
    raise ValueError(f"no reference for gate kind {kind!r}")


def program_matrix(terms) -> np.ndarray:
    """Product of the term matrices, first term acting first."""
    out = np.eye(2, dtype=complex)
    for kind, args in terms:
        out = gate_matrix(kind, args) @ out
    return out
