"""The cli-oneshot workload: one ``quditstars`` subprocess per op.

Each round runs all eight subcommands on small files (d = 3 and 9, the two
alternating between rounds, and ``verify`` over dims 2..4), then a d = 101
``roots`` and a d = 101 ``lift``.  An op's time is the subprocess's wall
time, interpreter start and imports included.  Outputs are read back and
checked against ``oracle`` after the op, outside its timed span.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import oracle
import pipeline
from tracing import Cores, Stages, Tally, Tracer

SUBCOMMANDS = ("roots", "reconstruct", "transform", "lift", "rotation", "project",
               "render", "verify")
ROUND_OPS = 10
# Rounds in the pool.  A run goes through the whole pool at least once,
# however long it takes: with 40 ops the tail quantile (p75) has 10 samples
# above it, and the ops checked depend on the seed alone.
POOL_ROUNDS = 4
OP_TIMEOUT_S = 60
# Fresh interpreters per figure of the traced run's start-up split.
STARTUP_REPEATS = 3

# The renderer's default canvas: 512 px, sphere radius 0.45 of it, +z view,
# coordinates written with two decimals.
_SVG_CENTER = 256.0
_SVG_RADIUS = 0.45 * 512
_SVG_PX_TOL = 0.01
_SVG_STAR = re.compile(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="[\d.]+" fill="(?:black|white)"')


@dataclass
class CliOp:
    sub: str
    args: list[str]
    dim: int
    out: str
    check: object = field(repr=False)   # (out_path) -> [(stage, error, tol, scored)]


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in values]


def _root_docs(spinors) -> list[dict]:
    return [{"inf": True} if v == 0 else {"re": (u / v).real, "im": (u / v).imag}
            for u, v in spinors]


def _doc_spinors(roots) -> np.ndarray:
    return oracle.spinors_from_values(
        [oracle.INF if r.get("inf") else complex(r["re"], r["im"]) for r in roots])


def _uniform_spinors(rng, dim):
    return oracle.spinors_from_points(pipeline.uniform_points(rng, dim - 1))


class CliWorkload:
    """Input files for a pool of rounds in ``workdir``, and the ops over them."""

    def __init__(self, rng: np.random.Generator, workdir, seed: int, env: dict):
        self.workdir = workdir
        self.env = env
        self.python = sys.executable
        self.ops: list[CliOp] = []
        for r in range(POOL_ROUNDS):
            self.ops.extend(self._round(rng, r, seed))

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def _state_file(self, name, spinors, dim):
        _write_json(self.path(name), {"dim": dim,
                                      "amplitudes": _pairs(oracle.dicke(spinors, dim))})
        return self.path(name)

    def _round(self, rng, r: int, seed: int) -> list[CliOp]:
        a, b = (3, 9) if r % 2 == 0 else (9, 3)
        psi = {d: _uniform_spinors(rng, d) for d in (a, b)}
        stars = {d: _uniform_spinors(rng, d) for d in (a, b)}
        big, big_doubled = pipeline.planted_spinors(rng, 101)
        source, matrix = pipeline.random_program(rng)
        source101, matrix101 = pipeline.random_program(rng)
        psi_file = {d: self._state_file(f"psi{r}_{d}.json", psi[d], d) for d in (a, b)}
        big_file = self._state_file(f"psi{r}_101.json", big, 101)
        stars_file = {}
        for d in (a, b):
            stars_file[d] = self.path(f"stars{r}_{d}.json")
            _write_json(stars_file[d], {"dim": d, "roots": _root_docs(stars[d])})
        out = [self.path(f"out{r}_{k}") for k in range(ROUND_OPS)]
        verify_seed = str(seed * 1000 + r)
        return [
            CliOp("roots", ["--state", psi_file[a], "--out", out[0]], a, out[0],
                  lambda p, s=psi[a], d=a: check_roots(p, s, None, d)),
            CliOp("reconstruct", ["--constellation", stars_file[b], "--out", out[1]], b, out[1],
                  lambda p, s=stars[b], d=b: check_state(p, oracle.dicke(s, d), "reconstruct")),
            CliOp("transform", ["--state", psi_file[a], "--program", source, "--out", out[2]],
                  a, out[2],
                  lambda p, s=psi[a], d=a: check_state(
                      p, oracle.dicke(oracle.moebius(matrix, s), d), "transform")),
            CliOp("lift", ["--program", source, "--dim", str(b), "--out", out[3]], b, out[3],
                  lambda p, s=stars[b], d=b: check_lift(p, matrix, s, d)),
            CliOp("rotation", ["--program", source, "--out", out[4]], 2, out[4],
                  lambda p: check_rotation(p, matrix)),
            CliOp("project", ["--constellation", stars_file[a], "--out", out[5],
                              "--format", "csv"], a, out[5],
                  lambda p, s=stars[a]: check_project(p, s)),
            CliOp("render", ["--state", psi_file[b], "--out", out[6]], b, out[6],
                  lambda p, s=psi[b]: check_render(p, s)),
            CliOp("verify", ["--dims", "2..4", "--trials", "2", "--seed", verify_seed,
                             "--out", out[7]], 4, out[7], check_verify),
            CliOp("roots", ["--state", big_file, "--out", out[8]], 101, out[8],
                  lambda p, s=big, m=big_doubled: check_roots(p, s, m, 101)),
            CliOp("lift", ["--program", source101, "--dim", "101", "--out", out[9]], 101,
                  out[9], lambda p, s=big: check_lift(p, matrix101, s, 101)),
        ]

    def run(self, op: CliOp) -> subprocess.CompletedProcess:
        """The op's subcommand, as ``python -m quditstars.cli`` in a fresh interpreter."""
        return subprocess.run([self.python, "-m", "quditstars.cli", op.sub, *op.args],
                              env=self.env, capture_output=True, timeout=OP_TIMEOUT_S,
                              check=False)

    def python_c(self, code: str, *flags: str) -> subprocess.CompletedProcess:
        return subprocess.run([self.python, *flags, "-c", code], env=self.env,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S,
                              check=True)


# -- checks ---------------------------------------------------------------

def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_roots(path, planted, doubled, dim):
    """Pass/fail and planted distance as in ``pipeline.check``."""
    found = _doc_spinors(_load(path)["roots"])
    error = max(0.0, oracle.fidelity_error(oracle.dicke(planted, dim),
                                           oracle.dicke(found, dim)))
    dist = oracle.matched_distances(oracle.sphere(found), oracle.sphere(planted))
    simple = dist if doubled is None else dist[~doubled]
    return [("cli.roots", error, oracle.FIDELITY_TOL, True),
            ("cli.roots", float(simple.max()), None, True)]


def _state_vector(doc) -> np.ndarray:
    return np.array([complex(re_, im) for re_, im in doc["amplitudes"]])


def check_state(path, expected, sub):
    got = _state_vector(_load(path))
    return [(f"cli.{sub}", max(0.0, oracle.fidelity_error(got, expected)),
             oracle.FIDELITY_TOL, True)]


def check_lift(path, matrix, spinors, dim):
    rows = _load(path)["rows"]
    mat = np.array([[complex(re_, im) for re_, im in row] for row in rows])
    defect = float(np.linalg.norm(mat.conj().T @ mat - np.eye(dim)))
    image = mat @ oracle.dicke(spinors, dim)
    target = oracle.dicke(oracle.moebius(matrix, spinors), dim)
    return [("cli.lift", defect, oracle.UNITARY_TOL, True),
            ("cli.lift", max(0.0, oracle.fidelity_error(image, target)),
             oracle.FIDELITY_TOL, True)]


def check_rotation(path, matrix):
    rot = np.array(_load(path)["rows"])
    got = oracle.sphere(pipeline.ROTATION_PROBES) @ rot.T
    want = oracle.sphere(oracle.moebius(matrix, pipeline.ROTATION_PROBES))
    return [("cli.rotation", float(np.max(np.linalg.norm(got - want, axis=1))),
             oracle.CHORDAL_TOL, True)]


def check_project(path, spinors):
    with open(path, encoding="utf-8") as fh:
        got = np.array([[float(v) for v in line.split(",")] for line in fh if line.strip()])
    want = oracle.sphere(spinors)
    err = float(np.max(np.linalg.norm(got - want, axis=1))) if got.shape == want.shape else 2.0
    return [("cli.project", err, oracle.CHORDAL_TOL, True)]


def check_render(path, spinors):
    """Star markers sit at the orthographic +z image of the roots, to the
    two decimals the SVG is written with; marker placement is not scored
    as numerical accuracy."""
    with open(path, encoding="utf-8") as fh:
        stars = [(float(x), float(y)) for x, y in _SVG_STAR.findall(fh.read())]
    points = oracle.sphere(spinors)
    want = np.stack([_SVG_CENTER + points[:, 0] * _SVG_RADIUS,
                     _SVG_CENTER - points[:, 1] * _SVG_RADIUS, np.zeros(len(points))], axis=1)
    if len(stars) != len(want):
        return [("cli.render", float("inf"), _SVG_PX_TOL, False)]
    got = np.array([(x, y, 0.0) for x, y in stars])
    return [("cli.render", float(oracle.matched_distances(got, want).max()), _SVG_PX_TOL, False)]


def check_verify(path):
    failing = sum(p["passes"] != p["trials"] for p in _load(path)["properties"])
    return [("cli.verify", float(failing), 0.0, False)]


# -- the in-process side of the traced run -------------------------------

def _median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def startup_split(work: CliWorkload, repeats: int) -> dict[str, float]:
    """Interpreter start, ``import quditstars``, and the share of numpy and
    scipy.optimize in the import, each a median over fresh interpreters."""
    interp, imports, numpy_us, optimize_us = [], [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        work.python_c("pass")
        interp.append(time.perf_counter() - t0)
        done = work.python_c(
            "import time; t = time.perf_counter(); import quditstars; "
            "print(time.perf_counter() - t)")
        imports.append(float(done.stdout.strip()))
        cumulative = {}
        for line in work.python_c("import quditstars", "-X", "importtime").stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        numpy_us.append(cumulative.get("numpy", 0))
        optimize_us.append(cumulative.get("scipy.optimize", 0))
    return {"cli.interp_ms": _median_ms(interp),
            "cli.import_ms": _median_ms(imports),
            "cli.import.numpy_ms": statistics.median(numpy_us) / 1e3,
            "cli.import.scipy_optimize_ms": statistics.median(optimize_us) / 1e3}


class _FormatsProxy:
    """``quditstars.formats`` with spans around file writes and reads."""

    def __init__(self, formats, stages):
        self._formats = formats
        self.save_doc = stages.wrap("formats.serialise", formats.save_doc)
        self.load_doc = stages.wrap("formats.parse", formats.load_doc)

    def __getattr__(self, name):
        return getattr(self._formats, name)


# (module, attribute, span name) of the library functions the in-process
# replay of a subcommand traces.
_TRACED = (
    ("cli", "compile_source", "gatescript.compile_source"),
    ("cli", "state_to_polynomial", "majorana.state_to_polynomial"),
    ("cli", "find_roots", "majorana.find_roots"),
    ("cli", "constellation_to_state", "majorana.constellation_to_state"),
    ("cli", "transform_constellation", "moebius.transform_constellation"),
    ("cli", "lift_to_unitary", "moebius.lift_to_unitary"),
    ("cli", "to_rotation", "moebius.to_rotation"),
    ("cli", "render_constellation_svg", "render.render_constellation_svg"),
    ("cli", "run_suite", "verify.run_suite"),
    ("majorana", "state_to_polynomial", "majorana.state_to_polynomial"),
    ("majorana", "find_roots", "majorana.find_roots"),
    ("sphere", "to_sphere", "sphere.to_sphere"),
    ("render", "to_sphere", "sphere.to_sphere"),
)


@contextlib.contextmanager
def traced_library(stages):
    """Patch the library's module attributes with traced wrappers; restore after."""
    import importlib

    modules = {name: importlib.import_module(f"quditstars.{name}")
               for name in ("cli", "majorana", "sphere", "render", "formats")}
    saved = [(modules[mod], attr, getattr(modules[mod], attr)) for mod, attr, _ in _TRACED]
    saved.append((modules["cli"], "formats", modules["cli"].formats))
    try:
        for (mod, attr, span), (_, _, fn) in zip(_TRACED, saved):
            setattr(modules[mod], attr, stages.wrap(span, fn))
        modules["cli"].formats = _FormatsProxy(modules["formats"], stages)
        yield modules["cli"].main
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def replay_in_process(main, op: CliOp) -> float:
    """Seconds for ``cli.main(argv)`` of the op in this process."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        main([op.sub, *(a + ".inproc" if a == op.out else a for a in op.args)])
        return time.perf_counter() - t0


# -- the measuring loop ---------------------------------------------------

class CliRun:
    """Input files, set-up and the measuring loop of cli-oneshot."""

    def __init__(self, root, seed: int, env: dict):
        self.seed = seed
        self.env = env
        self.workdir = root / ".bench_out" / f"cli-{os.getpid()}"
        self.inproc: dict[str, list[float]] = defaultdict(list)

    def setup(self) -> None:
        """Write the input files and run one subcommand, untimed, so the
        interpreter and library files are in the page cache."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.work = CliWorkload(np.random.default_rng([self.seed, 0]), self.workdir,
                                self.seed, self.env)
        self.work.run(self.work.ops[0])

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Tally:
        """Subprocess ops back to back until ``seconds`` of op time have
        passed, in whole rounds.  Checks run between ops, untimed; traced,
        each op is also replayed in this process."""
        tally = Tally()
        # A period of a second or two ops, not one op: with an even number
        # of CPUs a fixed op position in the round would keep to one CPU.
        cores = Cores(1.0)
        replay = Stages(tracer) if tracer is not None else None
        with contextlib.ExitStack() as stack:
            main = stack.enter_context(traced_library(replay)) if replay else None
            elapsed = 0.0
            k = 0
            while True:
                cores.step()
                op = self.work.ops[k % len(self.work.ops)]
                with contextlib.suppress(FileNotFoundError):
                    os.remove(op.out)
                if tracer is not None:
                    tracer.op_id = k
                    op_span = tracer.open(f"cli.{op.sub}")
                t0 = time.perf_counter()
                proc = self.work.run(op)
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.close(op_span)
                    replay_span = tracer.open(f"cli.{op.sub}.inproc")
                    self.inproc[op.sub].append(replay_in_process(main, op))
                    tracer.close(replay_span)
                raised, checks = [], []
                if proc.returncode != 0:
                    raised.append((f"cli.{op.sub}", f"exit {proc.returncode}"))
                else:
                    checks = self._check(op)
                tally.record(dt, op.sub, k % len(self.work.ops), raised, checks,
                             op.dim <= pipeline.GATED_MAX_DIM, f"op {k} ({op.sub}, d={op.dim})")
                elapsed += dt
                k += 1
                if elapsed >= seconds and k % ROUND_OPS == 0 and k >= len(self.work.ops):
                    break
            cores.release()
        if replay is not None:
            for name, _ in replay.raised:
                tally.raised[name] += 1
        return tally

    @staticmethod
    def _check(op: CliOp):
        try:
            return op.check(op.out)
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            # An unreadable or malformed output file is a wrong answer.
            return [(f"cli.{op.sub}", math.inf, 0.0, False)]

    def layer_extras(self, tally: Tally) -> dict[str, float]:
        """Start-up split, and each subcommand's wall and in-process time."""
        extras = startup_split(self.work, STARTUP_REPEATS)
        for sub in SUBCOMMANDS:
            walls = [t for t, kind in zip(tally.latencies, tally.kinds) if kind == sub]
            extras[f"cli.{sub}.wall_ms"] = _median_ms(walls)
            extras[f"cli.{sub}.inproc_ms"] = _median_ms(self.inproc[sub])
        return extras

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
