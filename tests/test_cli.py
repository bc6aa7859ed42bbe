import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quditstars import formats
from quditstars.cli import main
from quditstars.majorana import (Constellation, QuditState, constellation_distance,
                                 projective_fidelity)
from quditstars.moebius import lift_to_unitary, standard_gate
from quditstars.sphere import INFINITY, to_sphere
from test_majorana import dicke_state, phase_distance, ring_roots


def write_state(path, amplitudes):
    formats.save_doc(path, formats.state_to_doc(QuditState(tuple(amplitudes))))
    return str(path)


def test_roots_of_qutrit_level_one(tmp_path):
    state = write_state(tmp_path / "s.json", (0, 1, 0))
    out = tmp_path / "c.json"
    assert main(["roots", "--state", state, "--out", str(out)]) == 0
    doc = formats.load_doc(out)
    assert doc["dim"] == 3
    assert {"inf": True} in doc["roots"]
    assert {"re": 0.0, "im": 0.0} in doc["roots"] or {"re": 0, "im": 0} in doc["roots"]


def roots_then_reconstruct_fidelity(tmp_path, dim, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state = write_state(tmp_path / "s.json", amps / np.linalg.norm(amps))
    croots = tmp_path / "c.json"
    back = tmp_path / "back.json"
    assert main(["roots", "--state", state, "--out", str(croots)]) == 0
    assert main(["reconstruct", "--constellation", str(croots), "--out", str(back)]) == 0
    original = formats.state_from_doc(formats.load_doc(state))
    rebuilt = formats.state_from_doc(formats.load_doc(back))
    return projective_fidelity(original, rebuilt)


def test_roots_then_reconstruct_round_trip(tmp_path):
    assert roots_then_reconstruct_fidelity(tmp_path, 5, 55) >= 1 - 1e-10


def test_roots_then_reconstruct_dim101(tmp_path):
    assert roots_then_reconstruct_fidelity(tmp_path, 101, 101) >= 1 - 1e-10


def test_transform_not_gate(tmp_path):
    state = write_state(tmp_path / "s.json", (1, 0, 0))
    out = tmp_path / "t.json"
    assert main(["transform", "--state", state, "--program", "not",
                 "--out", str(out)]) == 0
    moved = formats.state_from_doc(formats.load_doc(out))
    assert projective_fidelity(moved, QuditState((0, 0, 1))) >= 1 - 1e-10


def test_transform_rejects_nonunitary(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", (1, 0))
    out = tmp_path / "t.json"
    code = main(["transform", "--state", state,
                 "--program", "raw(2,0,0,0,0,0,1,0)", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "special-unitary" in err
    assert "--allow-nonunitary" in err
    assert not out.exists()


def test_lift_rejects_nonunitary(tmp_path, capsys):
    out = tmp_path / "u.json"
    assert main(["lift", "--program", "raw(2,0,0,0,0,0,1,0)", "--dim", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "transform --allow-nonunitary" in err
    assert not out.exists()


def test_transform_su2_with_huge_parameters(tmp_path):
    state = write_state(tmp_path / "s.json", (1, 0, 0))
    huge, unit = tmp_path / "huge.json", tmp_path / "unit.json"
    assert main(["transform", "--state", state, "--program", "su2(1.7e308, 1.7e308, 0, 0)",
                 "--out", str(huge)]) == 0
    assert main(["transform", "--state", state, "--program", "su2(1, 1, 0, 0)",
                 "--out", str(unit)]) == 0
    assert huge.read_bytes() == unit.read_bytes()


def test_transform_allows_nonunitary_with_flag(tmp_path):
    state = write_state(tmp_path / "s.json", (1, 1))
    out = tmp_path / "t.json"
    assert main(["transform", "--state", state, "--program", "raw(2,0,0,0,0,0,1,0)",
                 "--out", str(out), "--allow-nonunitary"]) == 0
    assert out.exists()


@pytest.mark.parametrize("dim,radius", [(201, 0.05), (301, 0.09)])
def test_transform_not_moves_south_cap_to_north(tmp_path, dim, radius):
    # Monic factors (z - 1/alpha) of the moved stars would reach ~1e260 at
    # d = 201 and overflow (~1e313) at d = 301.  At d = 301 a cap of 0.05
    # underflows a quarter of the amplitudes, whose stars then sit at 0.
    psi = dicke_state(ring_roots(dim, radius, dim), dim)
    state = write_state(tmp_path / "s.json", psi)
    out = tmp_path / "t.json"
    assert main(["transform", "--state", state, "--program", "not", "--out", str(out)]) == 0
    moved = formats.state_from_doc(formats.load_doc(out)).as_vector()
    lifted = lift_to_unitary(standard_gate("not"), dim).apply(psi)
    assert phase_distance(moved, lifted) <= 1e-9


def test_reconstruct_northern_ring_dim301(tmp_path):
    # prod |z| ~ 1e600 at d = 301: monic factors (z - alpha) overflow, the
    # stars' spinor factors keep every coefficient below C(n, mu).
    roots = ring_roots(301, 100.0, 301)
    path = tmp_path / "c.json"
    formats.save_doc(path, {"dim": 301, "roots": [{"re": z.real, "im": z.imag} for z in roots]})
    out = tmp_path / "s.json"
    assert main(["reconstruct", "--constellation", str(path), "--out", str(out)]) == 0
    back = formats.state_from_doc(formats.load_doc(out)).as_vector()
    assert phase_distance(back, dicke_state(roots, 301)) <= 1e-12


@pytest.mark.parametrize("root", [{"re": None, "im": 0}, {"re": [1.0], "im": 0},
                                  {"re": True, "im": 0}, {"re": "1", "im": 0},
                                  {"re": 10 ** 400, "im": 0}, [0.5, 0]])
@pytest.mark.parametrize("command", ["reconstruct", "project", "render"])
def test_malformed_root_is_one_line_error(tmp_path, capsys, command, root):
    path = tmp_path / "c.json"
    formats.save_doc(path, {"dim": 3, "roots": [{"re": 0.5, "im": 0}, root]})
    out = tmp_path / "out"
    assert main([command, "--constellation", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_outputs_write_no_negative_zero(tmp_path):
    rot = tmp_path / "r.json"
    assert main(["rotation", "--program", "not", "--out", str(rot)]) == 0
    assert "-0" not in rot.read_text()
    croots = tmp_path / "c.json"
    formats.save_doc(croots, {"dim": 2, "roots": [{"inf": True}]})
    back = tmp_path / "s.json"
    assert main(["reconstruct", "--constellation", str(croots), "--out", str(back)]) == 0
    assert "-0" not in back.read_text()


def lifted_rows(path) -> np.ndarray:
    """The complex matrix a ``lift`` file holds as rows of [re, im] pairs."""
    rows = np.array(formats.load_doc(path)["rows"])
    return rows[..., 0] + 1j * rows[..., 1]


def test_lift_not_gate_dim3(tmp_path):
    out = tmp_path / "m.json"
    assert main(["lift", "--program", "not", "--dim", "3", "--out", str(out)]) == 0
    np.testing.assert_allclose(lifted_rows(out), np.eye(3)[::-1], atol=1e-10)


def test_lift_program_file(tmp_path):
    prog = tmp_path / "prog.txt"
    prog.write_text("h;\nh\n")
    out = tmp_path / "m.json"
    assert main(["lift", "--program-file", str(prog), "--dim", "2", "--out", str(out)]) == 0
    np.testing.assert_allclose(lifted_rows(out), np.eye(2), atol=1e-10)


def test_lift_dim101(tmp_path):
    out = tmp_path / "m.json"
    assert main(["lift", "--program", "h", "--dim", "101", "--out", str(out)]) == 0
    assert lifted_rows(out).shape == (101, 101)


def library_env() -> dict:
    """The environment for a fresh interpreter that imports this tree's library."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, quditstars; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=library_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_import_loads_no_numpy_and_no_submodule():
    code = ("import sys, quditstars; "
            "print('numpy' in sys.modules, sorted(m for m in sys.modules if 'quditstars' in m))")
    out = subprocess.run([sys.executable, "-c", code], env=library_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False ['quditstars']"


# The library modules each subcommand loads: only those it runs.
_CORE = {"errors", "formats", "majorana", "sphere"}
_GATES = _CORE | {"gatescript", "moebius"}
SUBCOMMAND_MODULES = {
    "roots": _CORE, "reconstruct": _CORE, "project": _CORE,
    "render": _CORE | {"render"},
    "transform": _GATES, "lift": _GATES, "rotation": _GATES,
    "verify": _GATES | {"verify"},
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_subcommand_imports_only_what_it_runs(tmp_path, command):
    state = write_state(tmp_path / "s.json", (1, 0.5j, 0.25))
    stars = tmp_path / "c.json"
    formats.save_doc(stars, formats.constellation_to_doc(Constellation(3, (1j, INFINITY))))
    out = str(tmp_path / "out")
    argv = {"roots": ["--state", state],
            "reconstruct": ["--constellation", str(stars)],
            "project": ["--constellation", str(stars)],
            "render": ["--state", state],
            "transform": ["--state", state, "--program", "h"],
            "lift": ["--program", "h", "--dim", "3"],
            "rotation": ["--program", "h"],
            "verify": ["--dims", "2..3", "--trials", "1", "--seed", "1"]}[command]
    code = ("import sys; from quditstars import cli; assert cli.main(sys.argv[1:]) == 0; "
            "print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules "
            "if m.startswith('quditstars.') and m != 'quditstars.cli')))")
    run = subprocess.run([sys.executable, "-c", code, command, *argv, "--out", out],
                         env=library_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert set(run.stdout.splitlines()[-1].split()) == SUBCOMMAND_MODULES[command]


def test_verify_runs_with_scipy_blocked(tmp_path):
    out = str(tmp_path / "report.json")
    code = f"""
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from quditstars import cli
from quditstars.majorana import basis_state, constellation_distance, state_to_constellation
code = cli.main(["verify", "--dims", "2..5", "--trials", "2", "--seed", "1", "--out", {out!r}])
c = state_to_constellation(basis_state(4, 1))
assert constellation_distance(c, c) == 0.0
assert [k for k in sys.modules if k.split(".")[0] == "scipy"] == ["scipy"]
assert sys.modules["scipy"] is None
sys.exit(code)
"""
    run = subprocess.run([sys.executable, "-c", code], env=library_env(), capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert "all properties passed" in run.stdout


# Both parts are finite, but |1.7e308 (1 + i)| overflows the double range.
HUGE = 1.7e308
HUGE_STATE = '{"dim": 2, "amplitudes": [[1.7e308, 1.7e308], [1, 0]]}'
HUGE_ROOT = '{"dim": 2, "roots": [{"re": 1.7e308, "im": 1.7e308}]}'
# The star z = HUGE (1 + i) on the sphere: (2 Re z, -2 Im z, |z|^2 - 1) / (|z|^2 + 1).
HUGE_POINT = np.array([1.0 / HUGE, -1.0 / HUGE, 1.0])


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert (code, capsys.readouterr().err) == (0, "")


def test_roots_of_huge_amplitude(tmp_path, capsys):
    state, out = tmp_path / "s.json", tmp_path / "c.json"
    state.write_text(HUGE_STATE)
    run_cli(capsys, "roots", "--state", str(state), "--out", str(out))
    (root,) = formats.constellation_from_doc(formats.load_doc(out)).roots
    assert np.linalg.norm(np.array(to_sphere(root).as_tuple()) - HUGE_POINT) <= 1e-12


def test_reconstruct_huge_root(tmp_path, capsys):
    roots, out = tmp_path / "c.json", tmp_path / "s.json"
    roots.write_text(HUGE_ROOT)
    run_cli(capsys, "reconstruct", "--constellation", str(roots), "--out", str(out))
    back = formats.state_from_doc(formats.load_doc(out)).as_vector()
    # (z, 1) / |z| with its first amplitude made real positive.
    assert phase_distance(back, [1.0, (1 - 1j) * (0.5 / HUGE)]) <= 1e-12


def test_project_huge_root(tmp_path, capsys):
    roots, out = tmp_path / "c.json", tmp_path / "p.csv"
    roots.write_text(HUGE_ROOT)
    run_cli(capsys, "project", "--constellation", str(roots), "--out", str(out))
    point = np.array([float(v) for v in out.read_text().split(",")])
    assert np.linalg.norm(point - HUGE_POINT) <= 1e-12


def test_render_huge_amplitude(tmp_path, capsys):
    state, out = tmp_path / "s.json", tmp_path / "s.svg"
    state.write_text(HUGE_STATE)
    run_cli(capsys, "render", "--state", str(state), "--out", str(out))
    # The star is at the north pole to 1e-308: the centre of the +z view.
    assert '<circle cx="256.00" cy="256.00" r="6.00" fill="black"' in out.read_text()


# At d = 3 the polynomial coefficient sqrt(2) 1.7e308 of the middle level
# overflows; the stars, near 1/(sqrt(2) 1.7e308) and past the double range,
# do not.
HUGE_MIDDLE_STATE = '{"dim": 3, "amplitudes": [[1, 0], [1.7e308, 0], [1, 0]]}'


def test_roots_of_huge_middle_amplitude(tmp_path, capsys):
    state, out = tmp_path / "s.json", tmp_path / "c.json"
    state.write_text(HUGE_MIDDLE_STATE)
    run_cli(capsys, "roots", "--state", str(state), "--out", str(out))
    found = formats.constellation_from_doc(formats.load_doc(out))
    exact = Constellation(3, (0.5 ** 0.5 / HUGE, INFINITY))
    assert constellation_distance(found, exact) <= 1e-12


def test_transform_huge_middle_amplitude(tmp_path, capsys):
    state, out = tmp_path / "s.json", tmp_path / "t.json"
    state.write_text(HUGE_MIDDLE_STATE)
    run_cli(capsys, "transform", "--state", str(state), "--program", "h", "--out", str(out))
    back = formats.state_from_doc(formats.load_doc(out)).as_vector()
    # h moves the stars to within 1e-308 of -1 and +1.
    assert phase_distance(back, dicke_state([-1.0, 1.0], 3)) <= 1e-12


def test_render_huge_middle_amplitude(tmp_path, capsys):
    state, poles, out, want = (tmp_path / n for n in ("s.json", "c.json", "s.svg", "c.svg"))
    state.write_text(HUGE_MIDDLE_STATE)
    poles.write_text('{"dim": 3, "roots": [{"re": 0, "im": 0}, {"inf": true}]}')
    run_cli(capsys, "render", "--state", str(state), "--out", str(out))
    run_cli(capsys, "render", "--constellation", str(poles), "--out", str(want))
    assert out.read_text() == want.read_text()


def test_rotation_output(tmp_path):
    out = tmp_path / "r.json"
    assert main(["rotation", "--program", "not", "--out", str(out)]) == 0
    rows = formats.load_doc(out)["rows"]
    np.testing.assert_allclose(rows, np.diag([1.0, -1.0, -1.0]), atol=1e-10)


def test_project_csv_and_json(tmp_path):
    state = write_state(tmp_path / "s.json", (0, 1, 0))
    croots = tmp_path / "c.json"
    main(["roots", "--state", state, "--out", str(croots)])
    csv_out = tmp_path / "p.csv"
    assert main(["project", "--constellation", str(croots), "--out", str(csv_out),
                 "--format", "csv"]) == 0
    lines = csv_out.read_text().strip().split("\n")
    assert len(lines) == 2 and all(len(l.split(",")) == 3 for l in lines)
    json_out = tmp_path / "p.json"
    assert main(["project", "--constellation", str(croots), "--out", str(json_out),
                 "--format", "json"]) == 0
    pts = formats.load_doc(json_out)["points"]
    assert sorted(p[2] for p in pts) == [-1.0, 1.0]


def test_render_deterministic(tmp_path):
    state = write_state(tmp_path / "s.json", (1, 0, 1))
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", "--state", state, "--out", str(out1)]) == 0
    assert main(["render", "--state", state, "--out", str(out2), "--size", "512"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("<?xml")


def test_render_size_below_64_is_one_line_error(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", (1, 0, 1))
    out = tmp_path / "s.svg"
    assert main(["render", "--state", state, "--out", str(out), "--size", "63"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "64" in err and err.count("\n") == 1
    assert not out.exists()


def test_render_constellation_input(tmp_path):
    state = write_state(tmp_path / "s.json", (1, 0, 1))
    croots = tmp_path / "c.json"
    main(["roots", "--state", state, "--out", str(croots)])
    out = tmp_path / "c.svg"
    assert main(["render", "--constellation", str(croots), "--out", str(out)]) == 0
    assert "<svg" in out.read_text()


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--dims", "2..3", "--trials", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    report = formats.load_doc(out)
    assert all(p["passes"] == p["trials"] == 2 for p in report["properties"])
    assert "all properties passed" in capsys.readouterr().out


def test_verify_exits_1_when_a_property_fails(tmp_path, monkeypatch, capsys):
    from quditstars import verify

    failing = verify._Property("always_fails", lambda rng, dim: (1.0, 0.0, {}))
    monkeypatch.setattr(verify, "_PROPERTIES", (failing,))
    out = tmp_path / "report.json"
    assert main(["verify", "--dims", "2", "--trials", "2", "--seed", "1",
                 "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "always_fails: 0/2 passed" in printed and "some properties FAILED" in printed
    [prop] = formats.load_doc(out)["properties"]
    assert (prop["name"], prop["passes"], prop["trials"]) == ("always_fails", 0, 2)


def test_verify_dims_forms(tmp_path):
    for dims in ("2", "2,4", "2..4"):
        out = tmp_path / f"r{dims.replace('.', '_').replace(',', '-')}.json"
        assert main(["verify", "--dims", dims, "--trials", "1", "--seed", "1",
                     "--out", str(out)]) == 0


@pytest.mark.parametrize("dims", ["a", "2..b", "2,x"])
def test_verify_bad_dims_names_the_option(tmp_path, capsys, dims):
    assert main(["verify", "--dims", dims, "--trials", "1", "--seed", "1",
                 "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--dims" in err and "A..B" in err and "comma list" in err


def test_domain_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["roots", "--state", missing, "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["roots", "--state", str(bad), "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    # Nesting past the parser's recursion limit is one line naming the file.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["roots", "--state", str(deep), "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(deep) in err and err.count("\n") == 1


NOT_UTF8 = b"\xff\xfe{}"


def test_non_utf8_document_names_the_file(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes(NOT_UTF8)
    assert main(["roots", "--state", str(latin), "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {latin}: ") and err.count("\n") == 1


def test_non_utf8_program_file_names_the_file(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", (1, 0))
    prog = tmp_path / "prog.bin"
    prog.write_bytes(NOT_UTF8)
    assert main(["transform", "--state", state, "--program-file", str(prog),
                 "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prog}: ") and err.count("\n") == 1


# Values a mutated document may hold where a number, pair or root belongs.
FUZZ_JUNK = [None, True, False, 0, -1, 1.5, 10 ** 400, "1", "x", [], {}, [[1, 0]],
             [1.0, 0.0], {"re": 1, "im": 0}, {"inf": True}]
FUZZ_TERMS = ["not", "h", "hadamard", "rx(0.3)", "rz(-pi/4)", "roty(1e-3)",
              "su2(1, 2, 3, 4)", "raw(1,0,0,0,0,0,1,0)", "raw(0,1,1,0,-1,0,0,1)"]


def fuzz_mutate(rng, doc):
    """``doc`` with one random edit: a key dropped, an item dropped or
    repeated, ``dim`` off by one, negated, 0 or 1, or a value replaced by
    junk or nested in a list."""
    if isinstance(doc, dict) and doc and rng.random() < 0.7:
        key = rng.choice(list(doc))
        op = rng.random()
        if op < 0.2:
            return {k: v for k, v in doc.items() if k != key}
        if key == "dim" and type(doc[key]) is int and op < 0.5:
            return {**doc, key: rng.choice([doc[key] + 1, doc[key] - 1, -doc[key], 0, 1])}
        return {**doc, key: fuzz_mutate(rng, doc[key])}
    if isinstance(doc, list) and doc and rng.random() < 0.7:
        i = rng.randrange(len(doc))
        op = rng.random()
        if op < 0.15:
            return doc[:i] + doc[i + 1:]
        if op < 0.3:
            return doc + [doc[i]]
        return doc[:i] + [fuzz_mutate(rng, doc[i])] + doc[i + 1:]
    return rng.choice(FUZZ_JUNK + [[doc]])


def fuzz_case(rng, path):
    """argv (without ``--out``) for one mutated document or gate script."""
    dim = rng.randint(2, 6)
    kind = rng.random()
    if kind < 0.2:
        text = "; ".join(rng.choice(FUZZ_TERMS) for _ in range(rng.randint(1, 4)))
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(text) + 1)
            edit = rng.choice(["", "(", ")", ";", ",", "1e999", "nan", "x", " ", "-", "."])
            text = text[:i] + edit + text[i + 1:]
        write_state(path, (1, 0.5j, -0.25))
        return ["transform", "--state", str(path), f"--program={text}"]
    if kind < 0.6:
        doc = {"dim": dim, "amplitudes": [[rng.gauss(0, 1), rng.gauss(0, 1)]
                                          for _ in range(dim)]}
        commands = [["roots"], ["transform", "--program", "h"], ["render"]]
        flag = "--state"
    else:
        doc = {"dim": dim, "roots": [{"inf": True} if rng.random() < 0.2
                                     else {"re": rng.gauss(0, 1), "im": rng.gauss(0, 1)}
                                     for _ in range(dim - 1)]}
        commands = [["reconstruct"], ["project"], ["render"]]
        flag = "--constellation"
    for _ in range(rng.randint(1, 2)):
        doc = fuzz_mutate(rng, doc)
    path.write_text(json.dumps(doc))
    return [*rng.choice(commands), flag, str(path)]


@pytest.mark.filterwarnings("error")
def test_fuzzed_inputs_fail_loudly(tmp_path, capsys):
    # Every input either succeeds silently or exits 1 with one "error: " line;
    # no exception or warning escapes ``main``.
    rng = random.Random(23)
    out = str(tmp_path / "out")
    for _ in range(400):
        argv = fuzz_case(rng, tmp_path / "in.json")
        code = main([*argv, "--out", out])
        err = capsys.readouterr().err
        assert (code, err) == (0, "") or (
            code == 1 and err.startswith("error: ") and err.count("\n") == 1), (argv, err)


def test_syntax_error_in_program(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", (1, 0))
    code = main(["transform", "--state", state, "--program", "not(",
                 "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "1:4" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["roots"])  # missing required arguments
    assert info.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_traced_benchmark_names_exist(monkeypatch):
    """``bench/cli_oneshot.py --trace 1`` patches these library attributes by name."""
    import importlib

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    cli_oneshot = importlib.import_module("cli_oneshot")
    for module, attr in [*((m, a) for m, a, _ in cli_oneshot._TRACED), ("cli", "formats")]:
        assert hasattr(importlib.import_module(f"quditstars.{module}"), attr), (module, attr)


def test_cli_reads_package_names_through_the_package(monkeypatch):
    """The names the traced benchmark patches on ``cli`` are the owners' functions."""
    import importlib

    from quditstars import cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    cli_oneshot = importlib.import_module("cli_oneshot")
    for module, attr, span in cli_oneshot._TRACED:
        if module == "cli":
            owner = importlib.import_module(f"quditstars.{span.split('.')[0]}")
            assert getattr(cli, attr) is getattr(owner, attr), attr
    assert not hasattr(cli, "__path__")
    assert not hasattr(cli, "nope")
    with pytest.raises(AttributeError, match="'quditstars.cli' has no attribute 'nope'"):
        cli.nope
