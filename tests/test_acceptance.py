"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen (they also appear in captured output on failure).
"""

import math
import time

import numpy as np

import script_corpus
from quditstars import formats
from quditstars.cli import main as cli_main
from quditstars.errors import ArityError, GateSyntaxError
from quditstars.gatescript import parse
from quditstars.majorana import (
    Constellation,
    MajoranaPolynomial,
    QuditState,
    bloch_vector,
    constellation_pairing,
    constellation_to_state,
    find_roots,
    polynomial_to_state,
    projective_fidelity,
    state_to_constellation,
    state_to_polynomial,
)
from quditstars.moebius import (
    MoebiusMap,
    compose,
    lift_to_unitary,
    standard_gate,
    to_rotation,
    transform_constellation,
)
from quditstars.sphere import ExtendedComplex, antipode, chordal_distance, to_plane, to_sphere
from quditstars.verify import (
    equivariance_trial,
    oracle_roots,
    random_state,
    random_su2,
)
from quditstars.verify import _random_point  # fixed sampling domain for criterion 7


def report(number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {tag} {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def max_entry_after_phase(got: np.ndarray, want: np.ndarray) -> float:
    s = np.trace(got.conj().T @ want)
    phase = s / abs(s) if abs(s) else 1.0
    return float(np.max(np.abs(got * phase - want)))


def test_criterion_01_qutrit_not():
    gate = standard_gate("not")
    lift_to_unitary(gate, 3)  # warm the code path before timing
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        u = lift_to_unitary(gate, 3)
        best = min(best, time.perf_counter() - t0)
    dev = max_entry_after_phase(u.matrix, np.eye(3)[::-1])
    ok = dev <= 1e-10 and best < 0.010
    report(1, "qutrit NOT lift is the anti-diagonal matrix", ok,
           f"entrywise dev {dev:.2e}, {best * 1e3:.2f} ms")


def test_criterion_02_hadamard_pair():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    dev_main = max_entry_after_phase(lift_to_unitary(MoebiusMap(1, 1, 1, -1), 2).matrix, h)
    literal = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
    dev_lit = max_entry_after_phase(lift_to_unitary(MoebiusMap(1, -1, 1, 1), 2).matrix, literal)
    ok = dev_main <= 1e-10 and dev_lit <= 1e-10
    report(2, "(z+1)/(z-1) lifts to Hadamard; (z-1)/(z+1) to its row-flip", ok,
           f"devs {dev_main:.2e} / {dev_lit:.2e}")


def test_criterion_03_bloch_equivalence():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(1000):
        psi = random_state(rng, 2)
        root = state_to_constellation(psi).roots[0]
        got = np.array(to_sphere(root).as_tuple())
        want = np.array(bloch_vector(psi).as_tuple())
        worst = max(worst, float(np.linalg.norm(got - want)))
    report(3, "1000 random qubits: projected root equals Bloch vector", worst <= 1e-10,
           f"worst {worst:.2e}")


def test_criterion_04_central_equivariance():
    rng = np.random.default_rng(1004)
    worst = 0.0
    t0 = time.perf_counter()
    for dim in range(2, 9):
        for _ in range(200):
            _, dev = equivariance_trial(random_su2(rng), random_state(rng, dim))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(4, "200 (map, state) pairs per d in 2..8: lift commutes with roots", ok,
           f"worst {worst:.2e}, {elapsed:.2f} s")


def test_criterion_05_round_trip_and_scale():
    rng = np.random.default_rng(1005)
    worst_fid = 0.0
    worst_scale = 0.0
    for dim in range(2, 11):
        for _ in range(1000):
            psi = random_state(rng, dim)
            back = constellation_to_state(state_to_constellation(psi))
            worst_fid = max(worst_fid, 1.0 - projective_fidelity(psi, back))
            scalar = ((10.0 ** rng.uniform(-3, 3))
                      * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            scaled = QuditState(tuple(np.array(psi.amplitudes) * scalar))
            _, dev = constellation_pairing(state_to_constellation(psi),
                                           state_to_constellation(scaled))
            worst_scale = max(worst_scale, dev)
    ok = worst_fid <= 1e-10 and worst_scale <= 1e-9
    report(5, "1000 states per d in 2..10: reconstruction and scale invariance", ok,
           f"fidelity gap {worst_fid:.2e}, scale dev {worst_scale:.2e}")


def unit_phase_distance(got: np.ndarray, want: np.ndarray) -> float:
    """Distance between the two normalised vectors after optimal global phase."""
    got = got / np.linalg.norm(got)
    want = want / np.linalg.norm(want)
    s = np.vdot(got, want)
    phase = s / abs(s) if abs(s) else 1.0
    return float(np.linalg.norm(got * phase - want))


def test_criterion_06_root_finder_vs_oracle():
    rng = np.random.default_rng(1006)
    worst_plain = 0.0
    worst_doubled = 0.0
    worst_backward = 0.0
    n_doubled = 0
    for trial in range(500):
        dim = int(rng.integers(2, 14))  # degree <= 12
        style = trial % 3
        if style == 2 and dim >= 3:
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            stars = [ExtendedComplex(alpha), ExtendedComplex(alpha)]
            stars += [ExtendedComplex(complex(*rng.standard_normal(2)))
                      for _ in range(dim - 3)]
            poly = state_to_polynomial(constellation_to_state(Constellation(dim, tuple(stars))))
            rng.standard_normal(2)  # the former scale draw, so later inputs keep their draws
            doubled = True
        else:
            coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            if style == 1 and dim >= 3:
                coeffs[-int(rng.integers(1, min(3, dim - 1) + 1)):] = 0.0
            poly = MajoranaPolynomial(tuple(coeffs))
            doubled = False
        found = find_roots(poly)
        _, dev = constellation_pairing(found, oracle_roots(poly))
        if doubled:
            n_doubled += 1
            worst_doubled = max(worst_doubled, dev)
        else:
            worst_plain = max(worst_plain, dev)
        # Backward error, independent of any second root finder.
        worst_backward = max(worst_backward, unit_phase_distance(
            constellation_to_state(found).as_vector(), polynomial_to_state(poly).as_vector()))
    ok = (worst_plain <= 1e-8 and worst_doubled <= 1e-6 and n_doubled >= 100
          and worst_backward <= 1e-12)
    report(6, "500 polynomials (leading zeros, doubled roots): roots match oracle "
              "and rebuild the state", ok,
           f"plain {worst_plain:.2e}, doubled {worst_doubled:.2e} over {n_doubled}, "
           f"backward {worst_backward:.2e}")


def test_criterion_07_geometry():
    rng = np.random.default_rng(1007)
    worst_rt = 0.0
    worst_metric = 0.0
    for _ in range(1000):
        z = _random_point(rng)
        worst_rt = max(worst_rt, chordal_distance(z, to_plane(to_sphere(z))))
        w = _random_point(rng)
        euclid = float(np.linalg.norm(np.array(to_sphere(z).as_tuple())
                                      - np.array(to_sphere(w).as_tuple())))
        worst_metric = max(worst_metric, abs(chordal_distance(z, w) - euclid))
    worst_antipodal = 0.0
    for _ in range(1000):
        psi = random_state(rng, 2)
        a0, a1 = psi.amplitudes
        perp = QuditState((-a1.conjugate(), a0.conjugate()))
        worst_antipodal = max(worst_antipodal, chordal_distance(
            state_to_constellation(perp).roots[0],
            antipode(state_to_constellation(psi).roots[0])))
    ok = worst_rt <= 1e-12 and worst_metric <= 1e-12 and worst_antipodal <= 1e-10
    report(7, "1000 points: projection round trip, metric identity, antipodality", ok,
           f"rt {worst_rt:.2e}, metric {worst_metric:.2e}, perp {worst_antipodal:.2e}")


def test_criterion_08_group_structure():
    rng = np.random.default_rng(1008)
    worst_hom = 0.0
    for dim in range(2, 7):
        for _ in range(100):
            m1, m2 = random_su2(rng), random_su2(rng)
            left = lift_to_unitary(compose(m1, m2), dim).matrix
            right = lift_to_unitary(m1, dim).matrix @ lift_to_unitary(m2, dim).matrix
            s = np.trace(left.conj().T @ right)
            worst_hom = max(worst_hom, float(
                np.linalg.norm(left * (s / abs(s)) - right)))
    worst_rot = 0.0
    for _ in range(100):
        m1, m2 = random_su2(rng), random_su2(rng)
        r1 = to_rotation(m1).matrix
        neg = MoebiusMap(-m1.a, -m1.b, -m1.c, -m1.d)
        worst_rot = max(worst_rot, float(np.linalg.norm(to_rotation(neg).matrix - r1)))
        worst_rot = max(worst_rot, float(np.linalg.norm(
            to_rotation(compose(m1, m2)).matrix - r1 @ to_rotation(m2).matrix)))
    ok = worst_hom <= 1e-9 and worst_rot <= 1e-10
    report(8, "lift homomorphism (100 pairs per d in 2..6) and rotation double cover",
           ok, f"hom {worst_hom:.2e}, rot {worst_rot:.2e}")


def test_criterion_09_parser_corpus():
    n_valid = len(script_corpus.VALID)
    n_invalid = len(script_corpus.INVALID)
    ok = n_valid >= 20 and n_invalid >= 10
    for source, expected in script_corpus.VALID:
        got = [(t.kind, t.args) for t in parse(source).terms]
        ok = ok and got == [(k, tuple(a)) for k, a in expected]
    for source, err, line, col in script_corpus.INVALID:
        try:
            parse(source)
            ok = False
        except (GateSyntaxError, ArityError) as caught:
            ok = ok and isinstance(caught, err)
            ok = ok and (caught.line, caught.column) == (line, col)
    report(9, f"parser corpus: {n_valid} valid / {n_invalid} invalid, exact positions",
           ok)


def test_criterion_10_performance_smoke():
    rng = np.random.default_rng(1010)
    psi = random_state(rng, 101)
    state_to_constellation(psi)  # warm up
    best_roots = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        constellation = state_to_constellation(psi)
        best_roots = min(best_roots, time.perf_counter() - t0)
    gate = random_su2(rng)
    transform_constellation(gate, constellation)  # warm up
    best_move = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        transform_constellation(gate, constellation)
        best_move = min(best_move, time.perf_counter() - t0)
    ok = best_roots < 1.0 and best_move < 0.001
    report(10, "d=101: roots under 1 s, constellation transform under 1 ms", ok,
           f"roots {best_roots * 1e3:.1f} ms, transform {best_move * 1e6:.0f} us")


def test_criterion_11_verify_determinism(tmp_path):
    out1 = tmp_path / "report1.json"
    out2 = tmp_path / "report2.json"
    args = ["verify", "--dims", "2..8", "--trials", "200", "--seed", "1"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report_doc = formats.load_doc(out1)
    failures = sum(p["trials"] - p["passes"] for p in report_doc["properties"])
    ok = identical and failures == 0
    report(11, "verify --dims 2..8 --trials 200 --seed 1: byte-identical, zero failures",
           ok, f"identical={identical}, failures={failures}")
