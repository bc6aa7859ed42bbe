import itertools

import numpy as np
import pytest

from quditstars.errors import NotUnitary, ZeroPolynomial
from quditstars.formats import dumps_canonical
from quditstars.majorana import (
    Constellation,
    MajoranaPolynomial,
    basis_state,
    constellation_distance,
    constellation_to_state,
    find_roots,
    state_to_polynomial,
)
from quditstars.moebius import MoebiusMap, standard_gate
from quditstars.sphere import ExtendedComplex, chordal_distance
from quditstars.verify import (
    SuiteConfig,
    _random_polynomial,
    equivariance_trial,
    oracle_roots,
    random_state,
    run_suite,
)


class TestOracle:
    def test_factored_quadratic(self):
        c = oracle_roots(MajoranaPolynomial((6, -5, 1)))
        assert constellation_distance(
            c, Constellation(3, (ExtendedComplex(2.0), ExtendedComplex(3.0)))) <= 1e-10

    def test_double_root_at_origin(self):
        c = oracle_roots(MajoranaPolynomial((0, 0, 1)))
        assert constellation_distance(
            c, Constellation(3, (ExtendedComplex(0j), ExtendedComplex(0j)))) <= 1e-10

    def test_leading_zeros_go_to_infinity(self):
        c = oracle_roots(MajoranaPolynomial((1, -1, 0, 0)))
        assert sum(r.is_infinite for r in c.roots) == 2

    def test_underflowing_amplitudes_are_not_a_zero_polynomial(self):
        # 5e-324 / sqrt(6) rounds to 0: no rescale, so no amplitude survives.
        p = MajoranaPolynomial((0, 0, 5e-324, 0, 0))
        with pytest.raises(ZeroPolynomial, match="underflows to zero"):
            oracle_roots(p)
        roots = find_roots(p).roots
        assert roots[:2] == (ExtendedComplex(0j),) * 2
        assert all(r.is_infinite for r in roots[2:])

    def test_agrees_with_find_roots(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            dim = int(rng.integers(2, 13))
            coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            style = rng.uniform()
            if style < 0.3 and dim >= 3:
                coeffs[-int(rng.integers(1, min(3, dim - 1) + 1)):] = 0
            p = MajoranaPolynomial(tuple(coeffs))
            worst = constellation_distance(find_roots(p), oracle_roots(p))
            assert worst <= 1e-8

    def test_agrees_on_doubled_roots(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            stars = (ExtendedComplex(alpha), ExtendedComplex(alpha),
                     ExtendedComplex(complex(rng.standard_normal(), rng.standard_normal())))
            p = state_to_polynomial(constellation_to_state(Constellation(4, stars)))
            worst = constellation_distance(find_roots(p), oracle_roots(p))
            assert worst <= 1e-6

    @pytest.mark.parametrize("dim", range(3, 14))
    def test_planted_double_root_is_found(self, dim):
        # The suite's doubled-style draws (matched at 1e-6) must keep their
        # double root.  Rounding splits it by about sqrt(eps) times the
        # cluster's conditioning (up to 1e-5 seen), while distinct drawn
        # stars are more than 4e-3 apart, so 1e-4 tells the two apart.
        rng = np.random.default_rng(1016 + dim)
        doubled = 0
        while doubled < 20:
            poly, limit = _random_polynomial(rng, dim)
            if limit != 1e-6:
                continue
            doubled += 1
            closest = min(chordal_distance(a, b)
                          for a, b in itertools.combinations(find_roots(poly).roots, 2))
            assert closest <= 1e-4


class TestEquivarianceTrial:
    def test_identity_map(self):
        rng = np.random.default_rng(1)
        ok, dev = equivariance_trial(MoebiusMap(1, 0, 0, 1), random_state(rng, 4))
        assert ok and dev <= 1e-12

    def test_not_gate_on_qutrit_level_one(self):
        ok, dev = equivariance_trial(standard_gate("not"), basis_state(3, 1))
        assert ok and dev <= 1e-12

    def test_random_dim7(self):
        from quditstars.verify import random_su2

        rng = np.random.default_rng(2)
        ok, dev = equivariance_trial(random_su2(rng), random_state(rng, 7))
        assert ok and dev <= 1e-8

    def test_rejects_nonunitary(self):
        rng = np.random.default_rng(3)
        with pytest.raises(NotUnitary):
            equivariance_trial(MoebiusMap(2, 0, 0, 0.5), random_state(rng, 3))


class TestSuite:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(dims=(), trials=5, seed=1)
        with pytest.raises(ValueError):
            SuiteConfig(dims=(1,), trials=5, seed=1)
        with pytest.raises(ValueError):
            SuiteConfig(dims=(2,), trials=0, seed=1)

    def test_single_trial_shape(self):
        report = run_suite(SuiteConfig(dims=(2,), trials=1, seed=42))
        assert all(p.trials == 1 for p in report.properties)
        assert all(p.passes + p.failures == 1 for p in report.properties)
        assert len(report.properties) >= 15

    def test_deterministic_reports(self):
        cfg = SuiteConfig(dims=(2, 3, 5), trials=4, seed=7)
        doc1 = dumps_canonical(run_suite(cfg).to_doc())
        doc2 = dumps_canonical(run_suite(cfg).to_doc())
        assert doc1 == doc2

    def test_seed_changes_the_stream(self):
        cfg1 = SuiteConfig(dims=(3,), trials=3, seed=1)
        cfg2 = SuiteConfig(dims=(3,), trials=3, seed=2)
        assert (dumps_canonical(run_suite(cfg1).to_doc())
                != dumps_canonical(run_suite(cfg2).to_doc()))

    def test_large_dims_all_pass(self):
        report = run_suite(SuiteConfig(dims=(33, 101), trials=4, seed=3))
        assert "root_backward_error" in [p.name for p in report.properties]
        failing = [p.name for p in report.properties if p.failures]
        assert not failing, f"failing properties: {failing}"

    def test_small_run_all_passes(self):
        report = run_suite(SuiteConfig(dims=(2, 3, 4), trials=10, seed=11))
        failing = [p.name for p in report.properties if p.failures]
        assert not failing, f"failing properties: {failing}"
        assert report.all_passed
