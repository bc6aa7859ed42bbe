import cmath
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm, logm

from quditstars import majorana, moebius
from quditstars.errors import NotUnitary, SingularMatrix, UnknownGate, ZeroInput
from quditstars.majorana import (
    Constellation,
    QuditState,
    basis_state,
    constellation_distance,
    constellation_to_state,
    projective_fidelity,
    state_to_constellation,
)
from quditstars.moebius import (
    MoebiusMap,
    RotationMatrix,
    UnitaryMatrix,
    apply_point,
    compose,
    from_su2,
    inverse,
    is_special_unitary,
    lift_to_unitary,
    phase_aligned_distance,
    projectively_equal,
    standard_gate,
    to_rotation,
    transform_constellation,
)
from quditstars.sphere import INFINITY, ExtendedComplex, to_sphere
from quditstars.verify import random_state, random_su2
from test_majorana import bits

IDENT = MoebiusMap(1, 0, 0, 1)
RECIP = MoebiusMap(0, 1, 1, 0)            # z -> 1/z
HADAMARD_MAP = MoebiusMap(1, 1, 1, -1)    # z -> (z+1)/(z-1)


def map_bits(m):
    return bits([m.a, m.b, m.c, m.d])


def const(dim, *roots):
    return Constellation(dim, tuple(
        INFINITY if r == "inf" else ExtendedComplex(complex(r)) for r in roots))


class TestConstruction:
    def test_identity(self):
        assert IDENT.a == 1 and IDENT.d == 1 and IDENT.b == 0 and IDENT.c == 0

    def test_swap_normalizes_projectively(self):
        # det -1 normalizes through the principal root; a global sign may remain.
        assert projectively_equal(RECIP, MoebiusMap(0, 1j, 1j, 0))

    def test_singular_rejected(self):
        # ad - bc of (1e200, 1, 0, 1) is 1e-200 of the largest entry squared.
        for entries in ((1, 1, 1, 1), (1e200, 1, 0, 1)):
            with pytest.raises(SingularMatrix):
                MoebiusMap(*entries)

    def test_tiny_identity(self):
        assert projectively_equal(MoebiusMap(1e-170, 0, 0, 1e-170), IDENT)
        # Maps are built at unit scale: a power of two keeping parts normal changes no bit.
        rng = np.random.default_rng(8)
        for _ in range(20):
            e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            for k in (-1000, -1, 3, 1000):
                scaled = (complex(v.real * 2.0 ** k, v.imag * 2.0 ** k) for v in e)
                assert map_bits(MoebiusMap(*scaled)) == map_bits(MoebiusMap(*e))

    def test_su2_identity(self):
        assert projectively_equal(from_su2(1, 0), IDENT)

    def test_su2_reciprocal(self):
        m = from_su2(0, 1j)
        assert (m.a, m.b, m.c, m.d) == (0j, 1j, 1j, 0j)

    def test_su2_rescales(self):
        assert projectively_equal(from_su2(2, 0), IDENT)
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            for k in (-1000, -1, 3, 1000):
                assert map_bits(from_su2(a * 2.0 ** k, b * 2.0 ** k)) == map_bits(from_su2(a, b))

    @pytest.mark.parametrize("build", [MoebiusMap])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(8))  # re and im of a, b, c, d
    def test_nonfinite_rejected(self, build, bad, slot):
        parts = [1.0, 0.0, 0.5, 0.25, 0.0, 0.0, 1.0, 0.0]
        parts[slot] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            build(*(complex(parts[k], parts[k + 1]) for k in range(0, 8, 2)))

    def test_su2_zero_rejected(self):
        with pytest.raises(ZeroInput):
            from_su2(0, 0)

    def test_su2_huge_parts(self):
        # |a| overflows a double; the exact power-of-two rescale comes first.
        assert from_su2(1.7e308 + 1.7e308j, 0) == from_su2(1 + 1j, 0)
        assert from_su2(-1.7e308, 1.7e308j) == from_su2(-1, 1j)


class TestApplyPoint:
    def test_reciprocal_at_zero(self):
        assert apply_point(RECIP, 0).is_infinite

    def test_identity_fixes_everything(self):
        for z in (0, 1j, 5 - 2j, INFINITY):
            assert apply_point(IDENT, z) == (z if isinstance(z, ExtendedComplex)
                                             else ExtendedComplex(complex(z)))

    def test_hadamard_map_at_infinity(self):
        assert apply_point(HADAMARD_MAP, INFINITY).value == pytest.approx(1.0)

    def test_infinity_with_zero_c(self):
        assert apply_point(MoebiusMap(2, 1, 0, 1), INFINITY).is_infinite

    def test_huge_argument(self):
        got = apply_point(HADAMARD_MAP, 1e200)
        assert got.value == pytest.approx(1.0, abs=1e-12)


class TestGroup:
    def test_inverse_both_sides(self):
        m = MoebiusMap(2, 1j, -1, 0.5)
        assert projectively_equal(compose(m, inverse(m)), IDENT)
        assert projectively_equal(compose(inverse(m), m), IDENT)

    def test_reciprocal_involution(self):
        assert projectively_equal(compose(RECIP, RECIP), IDENT)

    def test_hadamard_map_involution(self):
        assert projectively_equal(compose(HADAMARD_MAP, HADAMARD_MAP), IDENT)

    def test_compose_acts_right_to_left(self):
        m1, m2 = MoebiusMap(1, 2, 0, 1), MoebiusMap(0, 1, 1, 0)
        z = ExtendedComplex(0.3 - 0.4j)
        lhs = apply_point(compose(m1, m2), z)
        rhs = apply_point(m1, apply_point(m2, z))
        assert abs(lhs.value - rhs.value) <= 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (MoebiusMap(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
                       for _ in range(3))
            assert projectively_equal(compose(compose(a, b), c),
                                      compose(a, compose(b, c)))


class TestSpecialUnitary:
    def test_su2_members(self):
        assert is_special_unitary(from_su2(3 / 5, 4j / 5))
        assert is_special_unitary(MoebiusMap(0, 1, 1, 0))

    def test_squeeze_is_not(self):
        assert not is_special_unitary(MoebiusMap(2, 0, 0, 0.5))

    def test_hadamard_map_is(self):
        assert is_special_unitary(HADAMARD_MAP)


class TestTransformConstellation:
    def test_reciprocal_swaps_poles(self):
        c = transform_constellation(RECIP, const(3, 0, "inf"))
        assert constellation_distance(c, const(3, "inf", 0)) <= 1e-12

    def test_identity(self):
        c0 = const(4, 1, -2j, "inf")
        assert transform_constellation(IDENT, c0) == c0

    def test_reciprocal_fixes_i_pair(self):
        c = transform_constellation(RECIP, const(3, 1j, -1j))
        assert constellation_distance(c, const(3, 1j, -1j)) <= 1e-12


class TestLift:
    def test_identity_dim5(self):
        u = lift_to_unitary(IDENT, 5)
        np.testing.assert_allclose(u.matrix, np.eye(5), atol=1e-14)

    def test_not_gate_dim3_is_antidiagonal(self):
        u = lift_to_unitary(standard_gate("not"), 3)
        np.testing.assert_allclose(u.matrix, np.eye(3)[::-1], atol=1e-12)

    def test_hadamard_dim2(self):
        u = lift_to_unitary(HADAMARD_MAP, 2)
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(u.matrix, h, atol=1e-12)

    def test_rot_z_dim3_geometric_phases(self):
        theta = 0.7
        u = lift_to_unitary(standard_gate("rot_z", theta), 3)
        expected = np.diag([1.0, cmath.exp(1j * theta), cmath.exp(2j * theta)])
        np.testing.assert_allclose(u.matrix, expected, atol=1e-12)

    def test_dim2_faithful(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = random_su2(rng)
            assert phase_aligned_distance(lift_to_unitary(m, 2).matrix, m.matrix) <= 1e-12

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            lift_to_unitary(MoebiusMap(2, 0, 0, 0.5), 3)

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError, match="dim must be >= 2"):
            lift_to_unitary(IDENT, 1)

    def test_homomorphism_up_to_phase(self):
        rng = np.random.default_rng(37)
        for dim in range(2, 7):
            for _ in range(10):
                m1, m2 = random_su2(rng), random_su2(rng)
                left = lift_to_unitary(compose(m1, m2), dim).matrix
                right = lift_to_unitary(m1, dim).matrix @ lift_to_unitary(m2, dim).matrix
                assert phase_aligned_distance(left, right) <= 1e-9

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_not_involution(self, dim):
        u = lift_to_unitary(standard_gate("not"), dim).matrix
        assert phase_aligned_distance(u @ u, np.eye(dim)) <= 1e-9

    def test_equivariance_with_roots(self):
        rng = np.random.default_rng(41)
        for dim in range(2, 9):
            m = random_su2(rng)
            psi = random_state(rng, dim)
            lifted = QuditState(tuple(lift_to_unitary(m, dim).apply(psi.as_vector())))
            lhs = state_to_constellation(lifted)
            rhs = transform_constellation(m, state_to_constellation(psi))
            worst = constellation_distance(lhs, rhs)
            assert worst <= 1e-8


class TestLiftLargeDim:
    """The lift stays exact where coefficient expansion used to cancel (d >= 48).

    Equivariance is checked on planted constellations, so no root finder is
    involved: psi is built from known roots and U psi must be the state of the
    moved roots.
    """

    @pytest.mark.parametrize("dim", [48, 65, 101, 301])
    def test_unitary_and_equivariant(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(3):
            m = random_su2(rng)
            u = lift_to_unitary(m, dim).matrix
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-12
            roots = rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1)
            stars = Constellation(dim, tuple(ExtendedComplex(r) for r in roots))
            psi = constellation_to_state(stars)
            moved = QuditState(tuple(u @ psi.as_vector()))
            expected = constellation_to_state(transform_constellation(m, stars))
            assert 1.0 - projective_fidelity(moved, expected) <= 1e-10

    def test_homomorphism_dim101(self):
        rng = np.random.default_rng(101)
        for _ in range(3):
            m1, m2 = random_su2(rng), random_su2(rng)
            left = lift_to_unitary(compose(m1, m2), 101).matrix
            right = lift_to_unitary(m1, 101).matrix @ lift_to_unitary(m2, 101).matrix
            assert phase_aligned_distance(left, right) <= 1e-9


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def spin_generator(m, dim):
    """2 h.J for m = exp(-i h.s): the spin-(dim-1)/2 image of m's generator.

    h comes from the matrix logarithm of m, J from the ladder operator
    J+_{k,k+1} = sqrt((k+1)(n-k)) and Jz = diag(n/2 - k), n = dim - 1.
    """
    h = 1j * logm(m.matrix)
    hx, hy, hz = (0.5 * np.trace(h @ s).real for s in PAULI)
    n = dim - 1
    k = np.arange(n)
    jp = np.diag(np.sqrt((k + 1.0) * (n - k)), 1)
    jx, jy = (jp + jp.T) / 2, (jp - jp.T) / 2j
    jz = np.diag(n / 2.0 - np.arange(dim))
    return 2 * (hx * jx + hy * jy + hz * jz)


class TestLiftReference:
    """The lift against expm of the spin-j generator, built here from scratch."""

    @pytest.mark.parametrize("dim,tol", [(d, 1e-12) for d in range(2, 13)]
                             + [(33, 1e-12), (101, 1e-10), (301, 1e-10)])
    def test_matches_expm_of_generator(self, dim, tol):
        rng = np.random.default_rng(dim + 7)
        for _ in range(5 if dim <= 33 else 2):
            m = random_su2(rng)
            want = expm(-1j * spin_generator(m, dim))
            assert phase_aligned_distance(lift_to_unitary(m, dim).matrix, want) <= tol

    def test_unitarity_defect_small_dims(self):
        rng = np.random.default_rng(59)
        for dim in range(2, 11):
            for _ in range(200):
                u = lift_to_unitary(random_su2(rng), dim).matrix
                assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 4e-15

    def test_cached_tables_are_read_only_and_bounded(self):
        lam, v = moebius._spin_table(7)
        sign, mod = majorana._weights(6)
        for arr in (lam, v, sign, mod):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        for dim in range(2, 80):
            moebius._spin_table(dim)
            majorana._weights(dim)
        for cached in (moebius._spin_table, majorana._weights):
            assert cached.cache_info().maxsize == 64
            assert cached.cache_info().currsize <= 64


class TestRotation:
    def test_matches_pauli_adjoint_action(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            m = random_su2(rng)
            u = m.matrix
            want = np.array([[0.5 * np.trace(si @ u @ sj @ u.conj().T).real for sj in PAULI]
                             for si in PAULI])
            assert np.abs(to_rotation(m).matrix - want).max() <= 2e-15

    def test_identity(self):
        np.testing.assert_allclose(to_rotation(IDENT).matrix, np.eye(3), atol=1e-14)

    def test_reciprocal_is_half_turn_about_x(self):
        np.testing.assert_allclose(to_rotation(RECIP).matrix,
                                   np.diag([1.0, -1.0, -1.0]), atol=1e-12)

    def test_apply_moves_sphere_points(self):
        m = standard_gate("su2", 0.3, 0.1, -0.7, 0.2)
        for z in (0, 1.5 - 0.5j, INFINITY):
            np.testing.assert_allclose(to_rotation(m).matrix @ to_sphere(z).as_tuple(),
                                       to_sphere(apply_point(m, z)).as_tuple(), atol=1e-14)

    def test_rot_z_fixes_z_axis(self):
        r = to_rotation(standard_gate("rot_z", 1.1)).matrix
        np.testing.assert_allclose(r[:, 2], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(r[2, :], [0, 0, 1], atol=1e-12)

    def test_pointwise_equivariance(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = random_su2(rng)
            r = to_rotation(m).matrix
            z = complex(rng.standard_normal(), rng.standard_normal())
            lhs = r @ np.array(to_sphere(z).as_tuple())
            rhs = np.array(to_sphere(apply_point(m, z)).as_tuple())
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_double_cover(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            m1, m2 = random_su2(rng), random_su2(rng)
            r1 = to_rotation(m1).matrix
            neg = MoebiusMap(-m1.a, -m1.b, -m1.c, -m1.d)
            assert np.linalg.norm(to_rotation(neg).matrix - r1) <= 1e-10
            prod = to_rotation(compose(m1, m2)).matrix
            assert np.linalg.norm(prod - r1 @ to_rotation(m2).matrix) <= 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            to_rotation(MoebiusMap(2, 0, 0, 0.5))


class TestStandardGates:
    def test_not_sends_zero_to_infinity(self):
        assert apply_point(standard_gate("not"), 0).is_infinite

    def test_hadamard_sends_infinity_to_one(self):
        assert apply_point(standard_gate("hadamard"), INFINITY).value == pytest.approx(1.0)

    def test_zero_angle_rotations_are_identity(self):
        for name in ("rot_x", "rot_y", "rot_z"):
            assert projectively_equal(standard_gate(name, 0.0), IDENT)

    def test_unknown(self):
        with pytest.raises(UnknownGate):
            standard_gate("cnot")

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            standard_gate("rot_x")
        with pytest.raises(ValueError):
            standard_gate("not", 1.0)

    def test_not_basis_action_matches_reversal(self):
        # On a qutrit basis state the NOT lift reverses the level index.
        u = lift_to_unitary(standard_gate("not"), 3)
        out = u.apply(basis_state(3, 0).as_vector())
        np.testing.assert_allclose(out, basis_state(3, 2).as_vector(), atol=1e-12)


class TestMatrixTypes:
    def test_unitary_validation(self):
        with pytest.raises(NotUnitary):
            UnitaryMatrix(np.array([[1, 0], [0, 2]], dtype=complex))

    @pytest.mark.parametrize("shape", [(0, 0), (1, 1)])
    def test_unitary_rejects_fewer_than_two_rows(self, shape):
        # As QuditState and lift_to_unitary: a qudit has at least 2 levels.
        with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
            UnitaryMatrix(np.ones(shape, dtype=complex))

    def test_unitary_immutable(self):
        u = UnitaryMatrix(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            u.matrix[0, 0] = 5

    def test_rotation_validation(self):
        with pytest.raises(ValueError):
            RotationMatrix(np.diag([1.0, 1.0, -1.0]))  # determinant -1

    def test_rotation_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="expected a 3x3 matrix"):
            RotationMatrix(np.eye(2))

    def test_phase_aligned_distance_at_zero_trace(self):
        # Tr(X+ I) = 0 leaves no phase to align: the plain distance |X - I| = 2.
        assert phase_aligned_distance([[0, 1], [1, 0]], np.eye(2)) == 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", range(9))
    def test_rotation_rejects_nonfinite(self, bad, slot):
        # A NaN defect or determinant fails every comparison, so it must not pass.
        mat = np.eye(3)
        mat.flat[slot] = bad
        with pytest.raises(ValueError, match="not a rotation"):
            RotationMatrix(mat)

    def test_rotation_rejects_all_nan(self):
        with pytest.raises(ValueError, match="not a rotation"):
            RotationMatrix(np.full((3, 3), np.nan))

    def test_checks_decide_as_the_numpy_reference(self):
        # Near-rotations and near-unitaries on both sides of the tolerance are
        # accepted exactly when np.linalg.norm and np.linalg.det say so.
        rng = np.random.default_rng(21)
        decisions = set()
        for _ in range(300):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            m = q * np.sign(np.linalg.det(q)) + 10.0 ** rng.uniform(-12, -9) * rng.standard_normal((3, 3))
            want = (np.linalg.norm(m.T @ m - np.eye(3)) <= 1e-10
                    and abs(np.linalg.det(m) - 1.0) <= 1e-10)
            try:
                RotationMatrix(m)
                got = True
            except ValueError:
                got = False
            assert got == want
            decisions.add(("rotation", got))
            d = int(rng.integers(2, 8))
            z = rng.standard_normal((d, d, 2)).view(complex)[..., 0]
            u = np.linalg.qr(z)[0] + 10.0 ** rng.uniform(-11, -8) * z
            want = np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-9
            try:
                UnitaryMatrix(u)
                got = True
            except NotUnitary:
                got = False
            assert got == want
            decisions.add(("unitary", got))
        assert len(decisions) == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", range(8))  # re and im of each entry
    def test_unitary_rejects_nonfinite(self, bad, slot):
        parts = np.eye(2, dtype=complex).view(float)
        parts.flat[slot] = bad
        with pytest.raises(NotUnitary, match="cannot belong to a unitary"):
            UnitaryMatrix(parts.view(complex))

    @pytest.mark.parametrize("dim", [2, 9, 301])
    def test_unitary_rejects_huge_entry(self, dim):
        # Finite, but its square overflows the product U+U.
        mat = np.eye(dim, dtype=complex)
        mat[dim // 2, 0] = 1e200
        with pytest.raises(NotUnitary, match="1.000e[+]200"):
            UnitaryMatrix(mat)
        mat[dim // 2, 0] = 2.0  # the largest modulus let through to the defect check
        with pytest.raises(NotUnitary, match="deviates from I"):
            UnitaryMatrix(mat)
