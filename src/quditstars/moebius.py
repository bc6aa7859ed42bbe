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
from .sphere import ExtendedComplex, _point, _pow2, _spinor

__all__ = [
    "MoebiusMap",
    "UnitaryMatrix",
    "RotationMatrix",
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
        a, b, c, d = complex(self.a), complex(self.b), complex(self.c), complex(self.d)
        for v in (a, b, c, d):
            if not cmath.isfinite(v):
                raise ValueError(f"entries must be finite, got {v!r}")
        # Maps are projective, so the exact rescale keeps |v| and ad - bc in range.
        scale = _pow2(max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag),
                          abs(c.real), abs(c.imag), abs(d.real), abs(d.imag)))
        if scale != 1.0:
            a, b = complex(a.real * scale, a.imag * scale), complex(b.real * scale, b.imag * scale)
            c, d = complex(c.real * scale, c.imag * scale), complex(d.real * scale, d.imag * scale)
        det = a * d - b * c
        if abs(det) <= _SINGULAR_REL * max(abs(a), abs(b), abs(c), abs(d)) ** 2:
            raise SingularMatrix(f"ad - bc = {det!r} (entries times {scale!r}) "
                                 f"is singular at the working precision")
        s = cmath.sqrt(det)
        object.__setattr__(self, "a", a / s)
        object.__setattr__(self, "b", b / s)
        object.__setattr__(self, "c", c / s)
        object.__setattr__(self, "d", d / s)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)


def from_su2(a, b) -> MoebiusMap:
    """The special-unitary map with matrix ((a, b), (-conj b, conj a)).

    (a, b) is rescaled to |a|^2 + |b|^2 = 1 first, so any nonzero complex
    pair works: two parameters pick out the whole rotation family.
    """
    a, b = complex(a), complex(b)
    s = _pow2(max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag)))  # |a| may overflow
    if s != 1.0:
        a, b = complex(a.real * s, a.imag * s), complex(b.real * s, b.imag * s)
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


def is_special_unitary(m: MoebiusMap) -> bool:
    """True iff the determinant-1 form is ((a, b), (-conj b, conj a)), to 1e-10 per entry."""
    return (abs(m.d - m.a.conjugate()) <= _SU2_TOL
            and abs(m.c + m.b.conjugate()) <= _SU2_TOL)


def projective_distance(m1: MoebiusMap, m2: MoebiusMap) -> float:
    """Relative residual of the best scalar fit m1 ~ s * m2 (0 iff same map)."""
    v1 = np.array([m1.a, m1.b, m1.c, m1.d])
    v2 = np.array([m2.a, m2.b, m2.c, m2.d])
    s = np.vdot(v2, v1) / np.vdot(v2, v2)
    return float(np.linalg.norm(v1 - s * v2) / np.linalg.norm(v1))


def projectively_equal(m1: MoebiusMap, m2: MoebiusMap) -> bool:
    """Equality up to a nonzero complex scalar: ``projective_distance`` at most 1e-12."""
    return projective_distance(m1, m2) <= 1e-12


def transform_constellation(m: MoebiusMap, constellation: Constellation) -> Constellation:
    """Move every root by the map; works for any nonsingular map."""
    return Constellation(constellation.dim,
                         tuple(apply_point(m, r) for r in constellation.roots))


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A d x d unitary, d >= 2; construction verifies U+U = I to 1e-9 in Frobenius."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise ValueError(f"expected a square matrix of at least 2 rows, got shape {mat.shape}")
        # A unitary's entries have modulus at most 1.  An entry past 2 (inf
        # and NaN included) is rejected before the product, which it could
        # overflow or fill with NaN.
        top = np.abs(mat).max()
        if not top <= 2.0:
            raise NotUnitary(f"an entry of modulus {top:.3e} cannot belong to a unitary")
        # U+U - I flattened, so its diagonal is every (d + 1)th entry.
        gram = (mat.conj().T @ mat).ravel()
        gram[::mat.shape[0] + 1] -= 1.0
        defect = math.sqrt(np.vdot(gram, gram).real)
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
        # Columns x, y, z: the Frobenius norm of the Gram matrix less I, and
        # det = x . (y cross z).  NaN fails both comparisons.
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = mat.tolist()
        xx = x0 * x0 + x1 * x1 + x2 * x2 - 1.0
        yy = y0 * y0 + y1 * y1 + y2 * y2 - 1.0
        zz = z0 * z0 + z1 * z1 + z2 * z2 - 1.0
        xy, xz = x0 * y0 + x1 * y1 + x2 * y2, x0 * z0 + x1 * z1 + x2 * z2
        yz = y0 * z0 + y1 * z1 + y2 * z2
        defect = math.sqrt(xx * xx + yy * yy + zz * zz + 2.0 * (xy * xy + xz * xz + yz * yz))
        det = x0 * (y1 * z2 - y2 * z1) + x1 * (y2 * z0 - y0 * z2) + x2 * (y0 * z1 - y1 * z0)
        if not (defect <= _ROTATION_TOL and abs(det - 1.0) <= _ROTATION_TOL):
            raise ValueError(f"not a rotation: orthogonality defect {defect:.3e}, det {det!r}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


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
        raise NotUnitary("only special-unitary maps lift to a unitary; use "
                         "transform_constellation (transform --allow-nonunitary on "
                         "the command line) for general maps")
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
    ra, rb = abs(a), abs(b)
    n = ra * ra + rb * rb
    return RotationMatrix(np.array([
        [p.real / n, q.imag / n, -r.real / n], [-p.imag / n, q.real / n, r.imag / n],
        [c.real / n, c.imag / n, (ra * ra - rb * rb) / n]]))


# Maps are immutable, so the two fixed gates are built once and shared.
_NOT, _HADAMARD = from_su2(0.0, 1j), MoebiusMap(1.0, 1.0, 1.0, -1.0)

# Every gate kind: (parameter count, builder from the float parameters).
# The parser, GateTerm and the random terms of ``verify`` read kinds and
# arities from here; ``verify`` draws kinds in this order.
_GATES = {
    "not": (0, lambda: _NOT),
    "hadamard": (0, lambda: _HADAMARD),
    "rotx": (1, lambda t: from_su2(math.cos(t / 2.0), 1j * math.sin(t / 2.0))),
    "roty": (1, lambda t: from_su2(math.cos(t / 2.0), math.sin(t / 2.0))),
    "rotz": (1, lambda t: from_su2(cmath.exp(-1j * t / 2.0), 0.0)),
    "su2": (4, lambda ar, ai, br, bi: from_su2(complex(ar, ai), complex(br, bi))),
    "raw": (8, lambda *e: MoebiusMap(*(complex(e[k], e[k + 1]) for k in range(0, 8, 2)))),
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
