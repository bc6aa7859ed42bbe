import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from quditstars.errors import DimensionMismatch, WrongDimension, ZeroPolynomial
from quditstars.majorana import (
    Constellation,
    MajoranaPolynomial,
    QuditState,
    _assignment,
    _chordal_matrix,
    _unit_scaled,
    basis_state,
    bloch_vector,
    constellation_distance,
    constellation_to_state,
    find_roots,
    polynomial_to_state,
    projective_fidelity,
    state_to_constellation,
    state_to_polynomial,
)
from quditstars.moebius import lift_to_unitary, standard_gate, transform_constellation
from quditstars.sphere import INFINITY, ExtendedComplex, antipode, chordal_distance, to_sphere
from quditstars.verify import oracle_roots, random_state, random_su2

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def const(dim, *roots):
    return Constellation(dim, tuple(
        INFINITY if r == "inf" else ExtendedComplex(complex(r)) for r in roots))


def bits(values) -> list:
    """float.hex of the parts of each value, None for the point at infinity:
    equal lists are bitwise-equal results, signs of zero included."""
    out = []
    for v in values:
        v = v.value if isinstance(v, ExtendedComplex) else complex(v)
        out.append(None if v is None else (v.real.hex(), v.imag.hex()))
    return out


def times_pow2(state, k):
    """The state times 2^k, exactly while every part stays normal."""
    return QuditState(tuple(complex(math.ldexp(a.real, k), math.ldexp(a.imag, k))
                            for a in state.amplitudes))


class TestTypes:
    def test_state_rejects_all_zero(self):
        with pytest.raises(ValueError):
            QuditState((0, 0, 0))

    def test_state_rejects_short(self):
        with pytest.raises(ValueError):
            QuditState((1,))

    def test_polynomial_all_zero_is_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            MajoranaPolynomial((0, 0, 0))

    @pytest.mark.parametrize("cls", [QuditState, MajoranaPolynomial])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(6))  # re and im of each of three entries
    def test_nonfinite_rejected(self, cls, bad, slot):
        parts = [0.5, 0.0, 1.0, -0.25, 0.0, 2.0]
        parts[slot] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            cls(tuple(complex(parts[k], parts[k + 1]) for k in range(0, 6, 2)))

    def test_constellation_root_count(self):
        with pytest.raises(ValueError):
            Constellation(3, (INFINITY,))

    def test_dim_and_level_bounds(self):
        with pytest.raises(ValueError, match="dim must be >= 2"):
            Constellation(1, ())
        with pytest.raises(ValueError, match="outside 0..2"):
            basis_state(3, 3)


class TestStatePolynomial:
    def test_qubit_weights(self):
        p = state_to_polynomial(QuditState((0.3 + 0.4j, 0.5j)))
        assert p.coefficients == (0.3 + 0.4j, -0.5j)

    def test_qutrit_uniform(self):
        p = state_to_polynomial(QuditState((1 / SQRT3,) * 3))
        np.testing.assert_allclose(
            p.as_vector(), [1 / SQRT3, -SQRT2 / SQRT3, 1 / SQRT3], atol=1e-15)

    def test_d4_single_level(self):
        p = state_to_polynomial(basis_state(4, 1))
        np.testing.assert_allclose(p.as_vector(), [0, -SQRT3, 0, 0], atol=1e-15)

    def test_inverse_pair(self):
        s = polynomial_to_state(MajoranaPolynomial((0.7, -0.2)))
        assert s.amplitudes == (0.7 + 0j, 0.2 + 0j)

    def test_unit_weights_at_ends(self):
        s = polynomial_to_state(MajoranaPolynomial((1, 0, 1)))
        np.testing.assert_allclose(s.as_vector(), [1, 0, 1], atol=1e-16)

    @pytest.mark.parametrize("dim", [2, 3, 7, 25, 300])
    def test_round_trip_relative_error(self, dim):
        rng = np.random.default_rng(dim)
        psi = random_state(rng, dim)
        back = polynomial_to_state(state_to_polynomial(psi))
        err = np.abs(back.as_vector() - psi.as_vector())
        assert np.all(err <= 1e-14 * np.abs(psi.as_vector()) + 1e-300)


class TestFindRoots:
    def test_plus_minus_one(self):
        c = find_roots(MajoranaPolynomial((-1, 0, 1)))
        assert constellation_distance(c, const(3, -1, 1)) <= 1e-12

    def test_leading_zero_forces_infinity(self):
        c = find_roots(MajoranaPolynomial((1, -SQRT2, 0)))
        assert constellation_distance(c, const(3, 1 / SQRT2, "inf")) <= 1e-12

    def test_double_root_at_origin(self):
        c = find_roots(MajoranaPolynomial((0, 0, 1)))
        assert c.roots == (ExtendedComplex(0j), ExtendedComplex(0j))

    def test_random_degree7_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            p = MajoranaPolynomial(tuple(coeffs))
            worst = constellation_distance(find_roots(p), oracle_roots(p))
            assert worst <= 1e-8

    def test_tiny_leading_coefficient_is_zero(self):
        # Relative threshold: 1e-20 against O(1) coefficients reads as zero.
        c = find_roots(MajoranaPolynomial((1.0, 1.0, 1e-20)))
        assert sum(r.is_infinite for r in c.roots) == 1

    def test_deterministic_order(self):
        p = MajoranaPolynomial((2, 0, -3, 1, 0))
        assert find_roots(p).roots == find_roots(p).roots


class TestStateConstellation:
    def test_ground_qubit(self):
        assert state_to_constellation(QuditState((1, 0))).roots == (INFINITY,)

    def test_qutrit_level_one(self):
        c = state_to_constellation(basis_state(3, 1))
        assert c.roots == (ExtendedComplex(0j), INFINITY)

    def test_qutrit_superposition_roots_at_i(self):
        c = state_to_constellation(QuditState((1 / SQRT2, 0, 1 / SQRT2)))
        assert constellation_distance(c, const(3, 1j, -1j)) <= 1e-12

    def test_reconstruct_ground(self):
        s = constellation_to_state(const(2, "inf"))
        assert s.amplitudes == (1 + 0j, 0j)

    def test_reconstruct_pair_canonical(self):
        s = constellation_to_state(const(3, 1, -1))
        np.testing.assert_allclose(s.as_vector(), [1 / SQRT2, 0, -1 / SQRT2], atol=1e-15)

    def test_reconstruct_zero_inf(self):
        s = constellation_to_state(const(3, 0, "inf"))
        np.testing.assert_allclose(s.as_vector(), [0, 1, 0], atol=1e-15)

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_round_trip_fidelity(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(20):
            psi = random_state(rng, dim)
            chi = constellation_to_state(state_to_constellation(psi))
            assert projective_fidelity(psi, chi) >= 1 - 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for dim in (2, 4, 7):
            psi = random_state(rng, dim)
            scaled = QuditState(tuple(np.array(psi.amplitudes) * (2.5 - 1.25j)))
            assert constellation_distance(state_to_constellation(psi),
                                          state_to_constellation(scaled)) <= 1e-9
        # Every function takes a state at unit scale first, so a power of two
        # that keeps all parts (and polynomial coefficients) normal changes no bit.
        for dim in (2, 3, 9, 33):
            psi, chi = random_state(rng, dim), random_state(rng, dim)
            for k in (-1000, -1, 3, 1000):
                scaled = times_pow2(psi, k)
                assert np.abs(scaled.as_vector().view(float)).min() > 2.0 ** -1022
                for f in (lambda s: find_roots(state_to_polynomial(s)).roots,
                          lambda s: state_to_constellation(s).roots,
                          lambda s: s.normalized().amplitudes,
                          lambda s: [projective_fidelity(s, chi)],
                          lambda s: bloch_vector(s).as_tuple() if dim == 2 else []):
                    assert bits(f(scaled)) == bits(f(psi))
                assert scaled.norm == math.ldexp(psi.norm, k)
        # Squares of these parts leave the double range; the results do not.
        assert QuditState((1e-200, 0)).normalized().amplitudes == (1, 0)
        huge = QuditState((1e200, 1e200))
        assert huge.norm == pytest.approx(SQRT2 * 1e200, rel=1e-15)
        assert huge.normalized().amplitudes == pytest.approx((1 / SQRT2, 1 / SQRT2), abs=1e-15)
        # sqrt(2) 1.7e308 overflows: the stars are 1/(sqrt(2) 1.7e308) and one
        # past the double range, within 1e-308 of infinity.
        found = state_to_constellation(QuditState((1, 1.7e308, 1)))
        assert constellation_distance(found, const(3, 1 / SQRT2 / 1.7e308, "inf")) <= 1e-15

    def test_unit_scale_state_is_used_as_is(self):
        psi = QuditState((0.6, 0.8j, -0.25))  # largest part in [1/2, 1)
        assert _unit_scaled(psi)[0] is psi
        unit, s = _unit_scaled(QuditState((1.0, 0.25j)))
        assert (unit.amplitudes, s) == ((0.5, 0.125j), 0.5)

    def test_qubit_ratio_is_exact(self):
        psi = QuditState((0.6 + 0.1j, -0.3 + 0.7j))
        root = state_to_constellation(psi).roots[0]
        assert root.value == psi.amplitudes[0] / psi.amplitudes[1]

    @pytest.mark.parametrize("dim,level", [(2, 0), (2, 1), (5, 0), (5, 2), (5, 4), (8, 3)])
    def test_basis_states(self, dim, level):
        roots = state_to_constellation(basis_state(dim, level)).roots
        zeros = sum(1 for r in roots if not r.is_infinite and r.value == 0)
        infs = sum(1 for r in roots if r.is_infinite)
        assert zeros == level and infs == dim - 1 - level


def dicke_state(roots, dim):
    """Unit amplitudes of the state with the given roots ("inf" for infinity).

    The normalised symmetric product of the roots' spinors (u, v), z = u/v:
    adding one to m others maps a_mu to v sqrt(mu/(m+1)) a_{mu-1}
    + u sqrt((m+1-mu)/(m+1)) a_mu, which is p(z) times (v z - u) up to sign.
    Every step is bounded, so no root finder or polynomial expansion is
    involved and nothing overflows at any dimension.  Two antipodal clusters
    off the poles are the exception to its accuracy: stars at +1 and -1
    cancel, 4e-3 off at d = 101.
    """
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    for m, z in enumerate(roots):
        if z == "inf":
            u, v = 1.0, 0.0
        else:
            u, v = (z, 1.0) if abs(z) <= 1.0 else (1.0, 1.0 / z)
        k = m + 1
        w = np.sqrt(np.arange(k + 1) / k)
        head = amps[:k].copy()
        amps[:k] = u * w[k:0:-1] * head
        amps[k] = 0.0
        amps[1:k + 1] += v * w[1:] * head
        amps /= np.linalg.norm(amps)
    return amps


def phase_distance(got, want) -> float:
    """Distance between two unit vectors after optimal global phase."""
    got, want = np.asarray(got), np.asarray(want)
    s = np.vdot(got, want)
    return float(np.linalg.norm(got * (s / abs(s)) - want))


def uniform_roots(rng, count):
    """Stereographic images of points drawn uniformly on the sphere."""
    x, y, z = rng.standard_normal((3, count))
    r = np.sqrt(x * x + y * y + z * z)
    return list((x + 1j * y) / (r - z))


def ring_roots(dim, radius, seed):
    """dim - 1 stars near |z| = radius, at random angles."""
    rng = np.random.default_rng(seed)
    return list(radius * np.exp(2j * np.pi * rng.random(dim - 1))
                * (1 + 0.1 * rng.standard_normal(dim - 1)))


class TestLargeDim:
    """Round trips, planted constellations and transport up to d = 301."""

    def test_random_state_has_no_root_at_infinity(self):
        psi = random_state(np.random.default_rng(7), 101)
        assert not any(r.is_infinite for r in state_to_constellation(psi).roots)

    @pytest.mark.parametrize("dim", [101, 201, 301])
    def test_random_round_trip(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(2):
            psi = random_state(rng, dim)
            back = constellation_to_state(state_to_constellation(psi))
            assert 1.0 - projective_fidelity(psi, back) <= 1e-10
            assert phase_distance(back.as_vector(), psi.as_vector()) <= 1e-9

    @pytest.mark.parametrize("dim", [101, 301])
    def test_planted_constellation(self, dim):
        # Uniform roots plus a doubled pair, a root at 0 and 1-3 at infinity.
        # The count of infinities found is not checked: a real top amplitude
        # may fall below the leading-zero cut.  The backward error is.
        rng = np.random.default_rng(dim + 1)
        for n_inf in (1, 3):
            alpha = complex(*rng.standard_normal(2))
            roots = [alpha, alpha, 0j] + ["inf"] * n_inf
            roots += uniform_roots(rng, dim - 1 - len(roots))
            psi = dicke_state(roots, dim)
            back = constellation_to_state(state_to_constellation(QuditState(tuple(psi))))
            assert phase_distance(back.as_vector(), psi) <= 1e-9

    @pytest.mark.parametrize("dim,radius", [(101, 1e3), (201, 30.0), (301, 10.0)])
    def test_northern_ring_rebuilds_without_overflow(self, dim, radius):
        # The expanded coefficients are finite, but their squares overflow.
        roots = ring_roots(dim, radius, dim)
        back = constellation_to_state(const(dim, *roots))
        want = dicke_state(roots, dim)
        assert 1.0 - projective_fidelity(back, QuditState(tuple(want))) <= 1e-12
        assert phase_distance(back.as_vector(), want) <= 1e-12

    def test_any_root_order_rebuilds_planted_state(self):
        # Ordered by real part, the factors' partial products grow until
        # rounding swamps the expansion; a shuffle alone would not show it.
        rng = np.random.default_rng(201)
        roots = uniform_roots(rng, 200)
        want = dicke_state(roots, 201)
        for order in ([roots[k] for k in rng.permutation(200)],
                      sorted(roots, key=lambda z: (z.real, z.imag))):
            back = constellation_to_state(const(201, *order))
            assert phase_distance(back.as_vector(), want) <= 1e-9

    def test_transport_matches_lift(self):
        rng = np.random.default_rng(301)
        m, psi = random_su2(rng), random_state(rng, 301)
        moved = constellation_to_state(transform_constellation(m, state_to_constellation(psi)))
        lifted = lift_to_unitary(m, 301).apply(psi.as_vector())
        assert phase_distance(moved.as_vector(), lifted / np.linalg.norm(lifted)) <= 1e-9


class TestWideRange:
    """Stars anywhere in double range: no overflow, NaN or warning anywhere."""

    @pytest.mark.parametrize("dim", [2, 101, 301])
    def test_moduli_from_1e_minus_300_to_1e300(self, dim):
        rng = np.random.default_rng(dim + 300)
        n = dim - 1
        inputs = [[complex(z) for z in 10.0 ** rng.uniform(-300, 300, n)
                   * np.exp(2j * np.pi * rng.random(n))] for _ in range(3)]
        inputs += [["inf"] * n, [0j] * n]
        gates = [standard_gate("not"), standard_gate("h"), random_su2(rng)]
        for k, roots in enumerate(inputs):
            c = const(dim, *roots)
            back = constellation_to_state(c).as_vector()
            assert phase_distance(back, dicke_state(roots, dim)) <= 1e-12
            for m in gates:
                moved = transform_constellation(m, c)
                back = constellation_to_state(moved).as_vector()
                assert np.isfinite(back).all() and abs(np.linalg.norm(back) - 1.0) <= 1e-14
                # h and a random rotation pile the random stars into two
                # antipodal clusters, which test_two_antipodal_clusters covers.
                if m is gates[0] or dim == 2 or k >= 3:
                    want = dicke_state(["inf" if r.is_infinite else r.value
                                        for r in moved.roots], dim)
                    assert phase_distance(back, want) <= 1e-12
            for p, q in zip(c.roots, c.roots[::-1]):
                far = antipode(p)
                assert np.allclose(to_sphere(far).as_tuple(), -np.array(to_sphere(p).as_tuple()),
                                   rtol=0, atol=1e-15)
                assert chordal_distance(p, far) == pytest.approx(2.0, abs=1e-15)
                assert 0.0 <= chordal_distance(p, q) <= 2.0

    @pytest.mark.xfail(strict=True, reason="the monomial-basis product cancels on two "
                       "antipodal clusters off the poles (6e-8 at d = 101 after a "
                       "random rotation), and is orthogonal to the lift here")
    def test_two_antipodal_clusters(self):
        # h moves the 100 stars at 0 and 100 at infinity of |100> to -1 and +1.
        m, psi = standard_gate("h"), basis_state(201, 100)
        moved = constellation_to_state(transform_constellation(m, state_to_constellation(psi)))
        want = lift_to_unitary(m, 201).apply(psi.as_vector())
        assert phase_distance(moved.as_vector(), want) <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_past_d_1000_overflow_is_one_line_error(self):
        # |coefficient mu| reaches 0.999^550 C(1099, 549) ~ 1e329.
        with pytest.raises(ValueError, match="overflows double precision") as err:
            constellation_to_state(const(1100, *[0.999] * 1099))
        assert "\n" not in str(err.value)


class TestFidelity:
    def test_self(self):
        psi = QuditState((1, 2j, -1))
        assert projective_fidelity(psi, psi) == pytest.approx(1.0, abs=1e-15)

    def test_scalar_invariance(self):
        psi = QuditState((1, 2j, -1))
        chi = QuditState(tuple(a * (2 + 3j) for a in psi.amplitudes))
        assert projective_fidelity(psi, chi) == pytest.approx(1.0, abs=1e-15)
        other = QuditState((0.5, 1j, 2))
        for t in (1e-200, 1e200):  # squares past the double range
            far = QuditState(tuple(a * t for a in chi.amplitudes))
            assert projective_fidelity(psi, far) == pytest.approx(1.0, abs=1e-15)
            assert projective_fidelity(far, other) == pytest.approx(
                projective_fidelity(chi, other), abs=1e-15)

    def test_orthogonal(self):
        assert projective_fidelity(QuditState((1, 0)), QuditState((0, 1))) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            projective_fidelity(QuditState((1, 0)), QuditState((1, 0, 0)))


class TestBloch:
    def test_north(self):
        assert bloch_vector(QuditState((1, 0))).as_tuple() == (0.0, 0.0, 1.0)

    def test_plus_x(self):
        v = bloch_vector(QuditState((1 / SQRT2, 1 / SQRT2)))
        assert v.as_tuple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)
        for t in (1e-200, 1e200):  # squares past the double range
            v = bloch_vector(QuditState((t, t)))
            assert v.as_tuple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    def test_plus_y(self):
        v = bloch_vector(QuditState((1 / SQRT2, 1j / SQRT2)))
        assert v.as_tuple() == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            bloch_vector(QuditState((1, 0, 0)))

    def test_matches_projected_root(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            psi = random_state(rng, 2)
            root = state_to_constellation(psi).roots[0]
            got = np.array(to_sphere(root).as_tuple())
            want = np.array(bloch_vector(psi).as_tuple())
            assert np.linalg.norm(got - want) <= 1e-10

    def test_orthogonal_qubits_are_antipodal(self):
        from quditstars.sphere import antipode

        rng = np.random.default_rng(23)
        for _ in range(50):
            psi = random_state(rng, 2)
            a0, a1 = psi.amplitudes
            perp = QuditState((-a1.conjugate(), a0.conjugate()))
            d = chordal_distance(state_to_constellation(perp).roots[0],
                                 antipode(state_to_constellation(psi).roots[0]))
            assert d <= 1e-10


class TestMatching:
    def test_order_insensitive(self):
        assert constellation_distance(const(3, 1, "inf"), const(3, "inf", 1)) <= 1e-9

    def test_cluster_within_tolerance(self):
        assert constellation_distance(const(3, 0, 0), const(3, 1e-10, -1e-10)) <= 1e-8

    def test_far_apart(self):
        assert constellation_distance(const(3, 0, "inf"), const(3, 0, 0)) > 1e-8

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            constellation_distance(const(2, 0), const(3, 0, 0))

    def test_optimal_not_greedy(self):
        # Greedy pairing from the first root would cross the cluster.
        left = const(3, 1.0, 1.0 + 1e-9)
        right = const(3, 1.0 + 1e-9, 1.0)
        worst = constellation_distance(left, right)
        assert worst == 0.0


class TestAssignment:
    """``_assignment`` and ``_chordal_matrix``, behind ``constellation_distance``."""

    @staticmethod
    def cost(rng, n, kind):
        if kind == 0:
            return rng.random((n, n))
        if kind == 1:  # small integers: ties everywhere
            return rng.integers(0, 4, (n, n)).astype(float)
        # A constellation against a shuffled copy moved by about 1e-9, with
        # some stars doubled: what verify compares.
        stars = uniform_roots(rng, n)
        for k in rng.integers(0, n, n // 4):
            stars[k] = stars[rng.integers(0, n)]
        moved = [z * (1 + 1e-9 * complex(*rng.standard_normal(2))) for z in stars]
        return _chordal_matrix(stars, [moved[k] for k in rng.permutation(n)])

    def test_optimal_sum_matches_scipy(self):
        rng = np.random.default_rng(2016)
        for k in range(2400):
            n, kind = 1 + k % 40, (k // 40) % 3
            cost = self.cost(rng, n, kind)
            cols = _assignment(cost)
            assert sorted(cols) == list(range(n)), (k, cols)
            got = cost[np.arange(n), cols].sum()
            rows, want_cols = linear_sum_assignment(cost)
            want = cost[rows, want_cols].sum()
            assert abs(got - want) <= 1e-12 * want, (k, got, want)

    def test_chordal_matrix_is_chordal_distance_bitwise(self):
        rng = np.random.default_rng(300)
        wide = list(10.0 ** rng.uniform(-308, 308, 40) * np.exp(2j * np.pi * rng.random(40)))
        edges = [0j, "inf", 1e300, -1e-300j, 1.7e308 + 1.7e308j, 5e-324, 1.0, 1j,
                 complex(2.0 ** 1023, 2.0 ** 1023), complex(1e-300, 1e300)]
        values = edges + wide + edges + wide[:5]  # the edges and five more doubled
        stars = list(const(len(values) + 1, *values).roots)
        other = [stars[k] for k in rng.permutation(len(stars))]
        for p, q in [(stars, other), (stars, stars), (stars[:1], other[:1])]:
            want = np.array([[chordal_distance(a, b) for b in q] for a in p])
            np.testing.assert_array_equal(_chordal_matrix(p, q), want)
