"""The in-process pipeline workloads: lowd-pipeline and highd-pipeline.

One op takes a state and a gate-script program through every stage:
compile -> polynomial -> roots -> Moebius transport -> sphere points ->
serialise and parse -> reconstruct -> unitary lift (and apply) -> rotation.
Every stage runs on every op, even after an earlier one raised or returned
a wrong answer (a stage that raised hands a fixed stand-in of the same size
to the next), so a fix that turns a failure into a success does not show as
extra latency.  Outputs are checked against ``oracle`` after the op, outside
its timed span.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import oracle
from tracing import Cores, Stages, Tally, Tracer

# Every stage of one op, in order, under the name its per-layer metrics use.
STAGES = (
    "gatescript.compile_source",
    "majorana.state_to_polynomial",
    "majorana.find_roots",
    "moebius.transform_constellation",
    "sphere.to_sphere",
    "formats.serialise",
    "formats.parse",
    "majorana.constellation_to_state",
    "moebius.lift_to_unitary",
    "moebius.to_rotation",
)

# Ops up to this dimension must pass every check: the library is correct
# there today, so a failure is a regression and makes the run incorrect.
# Above it the known large-d defects (wrong roots from d ~ 90, NotUnitary
# lifts from d ~ 48) are measured as failures instead.
GATED_MAX_DIM = 33

LOWD_DIMS = tuple(range(2, 11))
HIGHD_DIMS = (33, 101, 301)

# Inputs per pool, cycled.  A run goes through its whole pool at least once,
# so the inputs checked, and the failures among them, depend on the seed
# alone; one pass takes about 5 s (lowd) and 20 s (highd) at the time of
# writing.
LOWD_POOL = 2700
HIGHD_POOL_ROUNDS = 12

_GATE_KINDS = ("not", "hadamard", "rotx", "roty", "rotz", "su2")
_PI_FORMS = (("pi", math.pi), ("pi/2", math.pi / 2), ("pi/4", math.pi / 4),
             ("-pi/2", -math.pi / 2))

# Seconds of a run spent on one CPU before moving to the next.
CPU_PERIOD_S = 0.25

# Fixed points at which the rotation's action is checked: the six axis
# points and two generic ones.
ROTATION_PROBES = oracle.spinors_from_values(
    [0.0, oracle.INF, 1.0, -1.0, 1j, -1j, 0.3 - 1.7j, -2.5 + 0.4j])


@dataclass
class Input:
    dim: int
    source: str
    program_matrix: np.ndarray
    state: object            # quditstars.QuditState
    vector: np.ndarray       # its amplitudes
    probe: np.ndarray        # root spinors of a state the lift is checked on
    planted: np.ndarray | None = None      # planted root spinors
    doubled: np.ndarray | None = None      # mask of planted roots that are doubled


def random_program(rng: np.random.Generator):
    terms, texts = [], []
    for _ in range(int(rng.integers(1, 6))):
        kind = _GATE_KINDS[int(rng.integers(len(_GATE_KINDS)))]
        if kind in ("not", "hadamard"):
            args, text = (), kind if rng.uniform() < 0.5 else {"not": "NOT", "hadamard": "h"}[kind]
        elif kind == "su2":
            args = tuple(float(a) for a in rng.standard_normal(4))
            text = f"su2({', '.join(repr(a) for a in args)})"
        elif rng.uniform() < 0.25:
            form, angle = _PI_FORMS[int(rng.integers(len(_PI_FORMS)))]
            args, text = (angle,), f"{kind}({form})"
        else:
            args = (float(rng.uniform(-math.pi, math.pi)),)
            text = f"{kind}({args[0]!r})"
        terms.append((kind, args))
        texts.append(text)
    return "; ".join(texts), oracle.program_matrix(terms)


def uniform_points(rng: np.random.Generator, n: int) -> np.ndarray:
    points = rng.standard_normal((n, 3))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def planted_spinors(rng: np.random.Generator, dim: int):
    """Roots uniform on the sphere plus the hard cases: two doubled roots,
    a root at 0 (the south pole) and one to three roots at infinity.

    Returns (spinors, doubled mask).
    """
    n = dim - 1
    n_inf = int(rng.integers(1, 4))
    n_uniform = n - n_inf - 1 - 4
    pairs = uniform_points(rng, 2)
    points = np.concatenate([uniform_points(rng, n_uniform), pairs, pairs,
                             [[0.0, 0.0, -1.0]], np.tile([0.0, 0.0, 1.0], (n_inf, 1))])
    doubled = np.zeros(n, dtype=bool)
    doubled[n_uniform:n_uniform + 4] = True
    order = rng.permutation(n)
    return oracle.spinors_from_points(points[order]), doubled[order]


def make_input(q, rng: np.random.Generator, dim: int, planted: bool) -> Input:
    """A program and a state; the state is planted or a random unit vector.

    The probe is the planted roots, or for a random state uniform roots on
    whose state the lift is checked when the found roots cannot be trusted.
    """
    source, matrix = random_program(rng)
    spinors = doubled = None
    if planted:
        spinors, doubled = planted_spinors(rng, dim)
        probe = spinors
        vector = oracle.dicke(spinors, dim)
    else:
        vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vector /= np.linalg.norm(vector)
        probe = oracle.spinors_from_points(uniform_points(rng, dim - 1))
    return Input(dim, source, matrix, q.QuditState(tuple(vector)), vector, probe,
                 spinors, doubled)


def lowd_inputs(q, rng: np.random.Generator, count: int) -> list[Input]:
    return [make_input(q, rng, LOWD_DIMS[k % len(LOWD_DIMS)], planted=False)
            for k in range(count)]


def highd_inputs(q, rng: np.random.Generator, rounds: int) -> list[Input]:
    """Rounds of six ops: a random and a planted state at each d of HIGHD_DIMS."""
    return [make_input(q, rng, dim, planted)
            for _ in range(rounds) for dim in HIGHD_DIMS for planted in (False, True)]


# -- one op ---------------------------------------------------------------

class Pipeline:
    """The stage functions and per-dimension stand-ins for stages that raise."""

    def __init__(self, q, dims):
        self.q = q
        from quditstars import formats
        self.formats = formats
        self.identity = q.from_su2(1.0, 0.0)
        self.standins = {}
        rng = np.random.default_rng(0)
        for dim in dims:
            spinors = oracle.spinors_from_points(uniform_points(rng, dim - 1))
            roots = tuple(q.ExtendedComplex(u / v) for u, v in spinors)
            constellation = q.Constellation(dim, roots)
            poly = q.MajoranaPolynomial(tuple(oracle.majorana_coefficients(
                oracle.dicke(spinors, dim))))
            self.standins[dim] = (poly, constellation, self.serialise(constellation))

    def serialise(self, constellation) -> str:
        return self.formats.dumps_canonical(self.formats.constellation_to_doc(constellation))

    def parse(self, text: str):
        return self.formats.constellation_from_doc(json.loads(text))

    def lift_apply(self, m, dim, vector):
        unitary = self.q.lift_to_unitary(m, dim)
        return unitary, unitary.apply(vector)

    def run(self, stages, inp: Input) -> dict:
        """One op: every stage, in order.  Returns the stage outputs."""
        q = self.q
        call = stages.call
        poly_in, roots_in, text_in = self.standins[inp.dim]
        m = call(STAGES[0], q.compile_source, inp.source)
        if m is None:
            m = self.identity
        poly = call(STAGES[1], q.state_to_polynomial, inp.state)
        roots = call(STAGES[2], q.find_roots, poly if poly is not None else poly_in)
        transported = call(STAGES[3], q.transform_constellation, m,
                           roots if roots is not None else roots_in)
        moved = transported if transported is not None else roots_in
        points = [call(STAGES[4], q.to_sphere, r) for r in moved.roots]
        text = call(STAGES[5], self.serialise, moved)
        parsed = call(STAGES[6], self.parse, text if text is not None else text_in)
        back = call(STAGES[7], q.constellation_to_state,
                    parsed if parsed is not None else roots_in)
        lifted = call(STAGES[8], self.lift_apply, m, inp.dim, inp.vector)
        rotation = call(STAGES[9], q.to_rotation, m)
        return {"map": m, "poly": poly, "roots": roots, "transported": transported,
                "moved": moved, "points": points,
                "parsed": parsed, "back": back, "lifted": lifted, "rotation": rotation}


# -- checks ---------------------------------------------------------------

def root_spinors(constellation) -> np.ndarray:
    return oracle.spinors_from_values(
        [oracle.INF if r.value is None else r.value for r in constellation.roots])


def check(inp: Input, out: dict) -> list[tuple[str, float, float, bool]]:
    """(stage, error, tolerance, scored) for every stage output that exists.

    Roots pass when the state rebuilt from them matches the input state
    (1 - fidelity <= 1e-10): a backward error, which a correct finder meets
    however ill-conditioned the roots.  For planted states the chordal
    distance of the simple roots to the planted ones is measured too, with
    no tolerance: doubled and clustered roots are only determined to about
    the square root of the rounding error, so no fixed bound is attainable
    on every input.  Reconstruction is only checked when the roots passed:
    from wrong roots at large d the problem itself is ill-conditioned, and
    no double-precision reference is trustworthy there.
    """
    checks = []
    m = out["map"]
    checks.append((STAGES[0], oracle.projective_residual(m.matrix, inp.program_matrix),
                   oracle.FIDELITY_TOL, True))
    if out["poly"] is not None:
        ref = oracle.majorana_coefficients(inp.vector)
        err = np.max(np.abs(out["poly"].as_vector() - ref)) / np.max(np.abs(ref))
        checks.append((STAGES[1], float(err), oracle.FIDELITY_TOL, True))
    found = None
    roots_ok = False
    if out["roots"] is not None:
        found = root_spinors(out["roots"])
        found_state = oracle.dicke(found, inp.dim)
        error = max(0.0, oracle.fidelity_error(inp.vector, found_state))
        checks.append((STAGES[2], error, oracle.FIDELITY_TOL, True))
        roots_ok = error <= oracle.FIDELITY_TOL
        if inp.planted is not None:
            dist = oracle.matched_distances(oracle.sphere(found), oracle.sphere(inp.planted))
            checks.append((STAGES[2], float(dist[~inp.doubled].max()), None, True))
    moved = root_spinors(out["moved"])
    moved_points = oracle.sphere(moved)
    if found is not None and out["transported"] is not None:
        expected = oracle.sphere(oracle.moebius(inp.program_matrix, found))
        checks.append((STAGES[3], float(np.max(np.linalg.norm(moved_points - expected, axis=1))),
                       oracle.CHORDAL_TOL, True))
    points = [(k, p) for k, p in enumerate(out["points"]) if p is not None]
    if points:
        got = np.array([p.as_tuple() for _, p in points])
        want = moved_points[[k for k, _ in points]]
        checks.append((STAGES[4], float(np.max(np.linalg.norm(got - want, axis=1))),
                       oracle.CHORDAL_TOL, True))
    if out["parsed"] is not None:
        # The serialise-parse round trip must be exact; it counts as parse's.
        same = out["parsed"].roots == out["moved"].roots
        err = 0.0 if same else float(np.max(np.linalg.norm(
            oracle.sphere(root_spinors(out["parsed"])) - moved_points, axis=1)))
        checks.append((STAGES[6], err, 0.0, True))
        if out["back"] is not None and roots_ok:
            ref = oracle.dicke(root_spinors(out["parsed"]), inp.dim)
            checks.append((STAGES[7], max(0.0, oracle.fidelity_error(
                out["back"].as_vector(), ref)), oracle.FIDELITY_TOL, True))
    if out["lifted"] is not None:
        unitary, image = out["lifted"]
        mat = unitary.matrix
        defect = np.linalg.norm(mat.conj().T @ mat - np.eye(inp.dim))
        checks.append((STAGES[8], float(defect), oracle.UNITARY_TOL, True))
        # Equivariance on a state whose roots are known: the roots found when
        # they passed, or else the probe (for a planted input, the input).
        if inp.planted is None and roots_ok:
            roots, image = found, mat @ found_state
        else:
            roots = inp.probe
            if inp.planted is None:
                image = mat @ oracle.dicke(roots, inp.dim)
        target = oracle.dicke(oracle.moebius(inp.program_matrix, roots), inp.dim)
        checks.append((STAGES[8], max(0.0, oracle.fidelity_error(image, target)),
                       oracle.FIDELITY_TOL, True))
    if out["rotation"] is not None:
        rot = out["rotation"].matrix
        got = oracle.sphere(ROTATION_PROBES) @ rot.T
        want = oracle.sphere(oracle.moebius(inp.program_matrix, ROTATION_PROBES))
        checks.append((STAGES[9], float(np.max(np.linalg.norm(got - want, axis=1))),
                       oracle.CHORDAL_TOL, True))
    return checks


# -- the measuring loop ---------------------------------------------------

class PipelineRun:
    """Inputs, set-up and the measuring loop of lowd- or highd-pipeline."""

    def __init__(self, q, workload: str, seed: int):
        self.q = q
        self.low = workload == "lowd-pipeline"
        self.dims = LOWD_DIMS if self.low else HIGHD_DIMS
        self.round_len = len(self.dims) if self.low else 2 * len(self.dims)
        self.seed = seed
        self.oracle_times: list[tuple[int, float, float]] = []

    def setup(self) -> None:
        """Generate the input pool and warm every code path."""
        rng = np.random.default_rng([self.seed, 0])
        warm_rng = np.random.default_rng([self.seed, 1])
        if self.low:
            self.inputs = lowd_inputs(self.q, rng, LOWD_POOL)
            warm = lowd_inputs(self.q, warm_rng, self.round_len)
        else:
            self.inputs = highd_inputs(self.q, rng, HIGHD_POOL_ROUNDS)
            # Warm at the smallest d only: one d = 301 op would cost more
            # than the rest of set-up.
            warm = [make_input(self.q, warm_rng, self.dims[0], planted)
                    for planted in (False, True)]
        self.runner = Pipeline(self.q, self.dims)
        for inp in warm:
            self.runner.run(Stages(), inp)

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Tally:
        """Ops back to back until ``seconds`` of op time have passed and the
        whole pool has run, in whole rounds of the workload's mix.  Checks
        run between ops, untimed."""
        tally = Tally()
        cores = Cores(CPU_PERIOD_S)
        elapsed = 0.0
        k = 0
        while True:
            cores.step()
            inp = self.inputs[k % len(self.inputs)]
            stages = Stages(tracer)
            if tracer is not None:
                tracer.op_id = k
                op_span = tracer.open("op")
            t0 = time.perf_counter()
            out = self.runner.run(stages, inp)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(op_span)
                self._time_oracle(tracer, op_span, inp, out)
            tally.record(dt, inp.dim, k % len(self.inputs), stages.raised, check(inp, out),
                         inp.dim <= GATED_MAX_DIM, f"op {k} (d={inp.dim})")
            elapsed += dt
            k += 1
            if elapsed >= seconds and k % self.round_len == 0 and k >= len(self.inputs):
                cores.release()
                return tally

    def _time_oracle(self, tracer: Tracer, op_span: int, inp: Input, out: dict) -> None:
        """The companion-matrix yardstick ``verify.oracle_roots`` on the op's
        own polynomial, beside the op's ``find_roots`` time."""
        if out["poly"] is None:
            return
        roots_ns = next(s[4] - s[3] for s in tracer.spans[op_span:]
                        if s[0] == "majorana.find_roots")
        t0 = time.perf_counter()
        self.q.oracle_roots(out["poly"])
        self.oracle_times.append((inp.dim, roots_ns / 1e9, time.perf_counter() - t0))

    def layer_extras(self, tally: Tally) -> dict[str, float]:
        """Per-d find_roots medians and its ratio to the oracle."""
        extras = {}
        if self.low:
            extras["majorana.find_roots.vs_oracle.lowd"] = statistics.median(
                r / o for _, r, o in self.oracle_times)
            return extras
        for dim in self.dims:
            roots = [r for d, r, _ in self.oracle_times if d == dim]
            oracles = [o for d, _, o in self.oracle_times if d == dim]
            extras[f"majorana.find_roots.d{dim}.p50_ms"] = 1e3 * statistics.median(roots)
            extras[f"majorana.find_roots.vs_oracle.d{dim}"] = (statistics.median(roots)
                                                               / statistics.median(oracles))
        return extras

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass
