"""Moebius transformations of the Riemann sphere and their amplitude lifts.

A nonsingular 2x2 complex matrix acts on C u {inf} by
z -> (a z + b)/(c z + d).  The special-unitary subfamily, built with
``from_su2``, acts as rigid rotations of the sphere and lifts to an exact
d x d unitary on the amplitudes of a d-level state, for any d: the same
two complex parameters drive every dimension.  The lift takes the map's
Euler angles and one cached per-d eigenbasis of the spin-(d-1)/2 Jx (the
Dicke ladder); the rotation is nine closed-form quadratics in the entries.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary, SingularMatrix, UnknownGate, ZeroInput
from .majorana import Constellation, _unit_phase
from .sphere import ExtendedComplex, SpherePoint, _point, _spinor

__all__ = [
    "MoebiusMap",
    "UnitaryMatrix",
    "RotationMatrix",
    "make",
    "from_su2",
    "apply_point",
    "compose",
    "inverse",
    "is_special_unitary",
    "projective_distance",
    "projectively_equal",
    "transform_constellation",
    "lift_to_unitary",
    "to_rotation",
    "standard_gate",
    "phase_aligned_distance",
]

# |ad - bc| must exceed this times the squared largest entry modulus.
_SINGULAR_REL = 1e-14
_SU2_TOL = 1e-10
_UNITARY_FROBENIUS_TOL = 1e-9
_ROTATION_TOL = 1e-10


@dataclass(frozen=True)
class MoebiusMap:
    """z -> (a z + b)/(c z + d), stored normalized to determinant 1.

    Maps are projective: matrices equal up to a nonzero scalar describe the
    same transformation (after the determinant-1 normalization a residual
    global sign remains; compare with ``projectively_equal``).
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        entries = [complex(v) for v in (self.a, self.b, self.c, self.d)]
        for v in entries:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"entries must be finite, got {v!r}")
        a, b, c, d = entries
        det = a * d - b * c
        scale = max(abs(v) for v in entries) ** 2
        if abs(det) <= _SINGULAR_REL * scale or det == 0:
            raise SingularMatrix(f"ad - bc = {det!r} is singular at the working precision")
        s = cmath.sqrt(det)
        object.__setattr__(self, "a", a / s)
        object.__setattr__(self, "b", b / s)
        object.__setattr__(self, "c", c / s)
        object.__setattr__(self, "d", d / s)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def __call__(self, z) -> ExtendedComplex:
        return apply_point(self, z)


def make(a, b, c, d) -> MoebiusMap:
    """Build a map from raw matrix entries; raises SingularMatrix if ad = bc."""
    return MoebiusMap(a, b, c, d)


def from_su2(a, b) -> MoebiusMap:
    """The special-unitary map with matrix ((a, b), (-conj b, conj a)).

    (a, b) is rescaled to |a|^2 + |b|^2 = 1 first, so any nonzero complex
    pair works: two parameters pick out the whole rotation family.
    """
    a, b = complex(a), complex(b)
    nrm = math.hypot(abs(a), abs(b))
    if nrm == 0:
        raise ZeroInput("from_su2 needs (a, b) != (0, 0)")
    a, b = a / nrm, b / nrm
    return MoebiusMap(a, b, -b.conjugate(), a.conjugate())


def apply_point(m: MoebiusMap, z) -> ExtendedComplex:
    """(a z + b)/(c z + d), applied to the spinor of z (see ``sphere._spinor``)."""
    u, v = _spinor(z)
    return _point(m.a * u + m.b * v, m.c * u + m.d * v)


def compose(m1: MoebiusMap, m2: MoebiusMap) -> MoebiusMap:
    """Matrix product: the map applying m2 first, then m1."""
    return MoebiusMap(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def inverse(m: MoebiusMap) -> MoebiusMap:
    # For a determinant-1 matrix the adjugate is the inverse.
    return MoebiusMap(m.d, -m.b, -m.c, m.a)


def is_special_unitary(m: MoebiusMap, tol: float = _SU2_TOL) -> bool:
    """True iff the determinant-1 form is ((a, b), (-conj b, conj a))."""
    return (abs(m.d - m.a.conjugate()) <= tol
            and abs(m.c + m.b.conjugate()) <= tol)


def projective_distance(m1: MoebiusMap, m2: MoebiusMap) -> float:
    """Relative residual of the best scalar fit m1 ~ s * m2 (0 iff same map)."""
    v1 = np.array([m1.a, m1.b, m1.c, m1.d])
    v2 = np.array([m2.a, m2.b, m2.c, m2.d])
    s = np.vdot(v2, v1) / np.vdot(v2, v2)
    return float(np.linalg.norm(v1 - s * v2) / np.linalg.norm(v1))


def projectively_equal(m1: MoebiusMap, m2: MoebiusMap, tol: float = 1e-12) -> bool:
    """Equality up to a nonzero complex scalar."""
    return projective_distance(m1, m2) <= tol


def transform_constellation(m: MoebiusMap, constellation: Constellation) -> Constellation:
    """Move every root by the map; works for any nonsingular map."""
    return Constellation(constellation.dim,
                         tuple(apply_point(m, r) for r in constellation.roots))


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A d x d unitary; construction verifies U+U = I to 1e-9 in Frobenius."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        gram = mat.conj().T @ mat
        defect = np.linalg.norm(gram - np.eye(mat.shape[0]))
        if not defect <= _UNITARY_FROBENIUS_TOL:
            raise NotUnitary(f"U+U deviates from I by {defect:.3e} in Frobenius norm")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(amplitudes, dtype=complex)


@dataclass(frozen=True, eq=False)
class RotationMatrix:
    """A proper rotation of 3-space (orthogonal, determinant +1)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {mat.shape}")
        defect = np.linalg.norm(mat.T @ mat - np.eye(3))
        det = np.linalg.det(mat)
        if defect > _ROTATION_TOL or abs(det - 1.0) > _ROTATION_TOL:
            raise ValueError(f"not a rotation: orthogonality defect {defect:.3e}, det {det!r}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def apply(self, point: SpherePoint) -> SpherePoint:
        return SpherePoint(*(self.matrix @ np.array(point.as_tuple())))


@functools.lru_cache(maxsize=64)
def _spin_table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Jx = v diag(lam) v^T in spin (d-1)/2: lam exact, v from ``eigh`` of the
    Dicke ladder, polished by one Newton-Schulz step; Jz = diag(-lam).  Both
    are read-only, since every lift of dimension d shares them."""
    ladder = np.sqrt(np.arange(1.0, dim) * np.arange(dim - 1.0, 0.0, -1.0)) / 2.0
    _, v = np.linalg.eigh(np.diag(ladder, 1) + np.diag(ladder, -1))
    v = v @ (1.5 * np.eye(dim) - 0.5 * (v.T @ v))
    lam = np.arange(dim) - (dim - 1) / 2.0
    lam.flags.writeable = v.flags.writeable = False
    return lam, v


def lift_to_unitary(m: MoebiusMap, dim: int) -> UnitaryMatrix:
    """The d x d unitary acting on amplitudes the way m acts on the roots.

    exp(-i alpha Jz) exp(-i beta Jx) exp(-i gamma Jz) in spin (d-1)/2, from m's
    Euler angles and the cached ``_spin_table``: unitary to rounding at every
    d, m's own matrix at d = 2, with column 0's first significant entry real
    positive.  Other maps raise NotUnitary (``transform_constellation`` moves them).
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if not is_special_unitary(m):
        raise NotUnitary("only special-unitary maps lift to a unitary; "
                         "use transform_constellation for general maps")
    # a = exp(-i(alpha+gamma)/2) cos(beta/2), i b = exp(-i(alpha-gamma)/2) sin(beta/2);
    # where a or b is 0 its arg is arbitrary, since its factor vanishes.
    beta = 2.0 * math.atan2(abs(m.b), abs(m.a))
    arg_a, arg_b = cmath.phase(m.a), cmath.phase(1j * m.b)
    lam, v = _spin_table(dim)
    mat = (np.exp(-1j * (arg_a + arg_b) * lam)[:, None]
           * ((v * np.exp(-1j * beta * lam)) @ v.T) * np.exp(1j * (arg_b - arg_a) * lam))
    return UnitaryMatrix(mat * _unit_phase(mat[:, 0]))


def to_rotation(m: MoebiusMap) -> RotationMatrix:
    """The 3x3 rotation R with to_sphere(m(z)) = R to_sphere(z) for all z.

    to_sphere(z) is the Bloch vector of (z, 1), so R_ij = Re Tr(s_i U s_j U+)/2
    for U = ((a, b), (-b*, a*)): nine quadratics over |a|^2 + |b|^2."""
    if not is_special_unitary(m):
        raise NotUnitary("only special-unitary maps act as rotations")
    a, b = m.a, m.b
    p, q, r, c = a * a - b * b, a * a + b * b, 2 * a * b, 2 * a * b.conjugate()
    rows = [[p.real, q.imag, -r.real], [-p.imag, q.real, r.imag],
            [c.real, c.imag, abs(a) ** 2 - abs(b) ** 2]]
    return RotationMatrix(np.array(rows) / (abs(a) ** 2 + abs(b) ** 2))


# Every gate kind: (parameter count, builder from the float parameters).
# The parser, GateTerm and the random terms of ``verify`` read kinds and
# arities from here; ``verify`` draws kinds in this order.
_GATES = {
    "not": (0, lambda: from_su2(0.0, 1j)),
    "hadamard": (0, lambda: make(1.0, 1.0, 1.0, -1.0)),
    "rotx": (1, lambda t: from_su2(math.cos(t / 2.0), 1j * math.sin(t / 2.0))),
    "roty": (1, lambda t: from_su2(math.cos(t / 2.0), math.sin(t / 2.0))),
    "rotz": (1, lambda t: from_su2(cmath.exp(-1j * t / 2.0), 0.0)),
    "su2": (4, lambda ar, ai, br, bi: from_su2(complex(ar, ai), complex(br, bi))),
    "raw": (8, lambda *e: make(*(complex(e[k], e[k + 1]) for k in range(0, 8, 2)))),
}
_ALIASES = {"h": "hadamard", "rx": "rotx", "ry": "roty", "rz": "rotz"}


def standard_gate(name: str, *params: float) -> MoebiusMap:
    """The map of a gate-script term, by kind and parameters.

    Kinds: not, hadamard, rotx(t), roty(t), rotz(t) (radians),
    su2(a_re, a_im, b_re, b_im) and raw(a_re, a_im, ..., d_re, d_im), with
    the script aliases h, rx, ry, rz.  Names are case-insensitive and, unlike
    in scripts, may contain underscores (``rot_x``).

    ``hadamard`` is the map z -> (z + 1)/(z - 1), whose dim-2 lift is exactly
    the Hadamard matrix up to global phase.
    """
    key = name.lower().replace("_", "")
    key = _ALIASES.get(key, key)
    if key not in _GATES:
        raise UnknownGate(f"unknown gate {name!r}")
    arity, build = _GATES[key]
    if len(params) != arity:
        raise ValueError(f"gate {name!r} takes {arity} parameter(s), got {len(params)}")
    return build(*(float(p) for p in params))


def phase_aligned_distance(a, b) -> float:
    """Frobenius distance between two matrices after optimal global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    s = np.trace(a.conj().T @ b)
    if abs(s) == 0:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a * (s / abs(s)) - b))
