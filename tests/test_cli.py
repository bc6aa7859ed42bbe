import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quditstars import formats
from quditstars.cli import main
from quditstars.majorana import QuditState, projective_fidelity
from quditstars.moebius import lift_to_unitary, standard_gate
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
    assert not out.exists()


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
                                  {"re": 10 ** 400, "im": 0}])
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


def test_lift_not_gate_dim3(tmp_path):
    out = tmp_path / "m.json"
    assert main(["lift", "--program", "not", "--dim", "3", "--out", str(out)]) == 0
    u = formats.unitary_from_doc(formats.load_doc(out))
    np.testing.assert_allclose(u.matrix, np.eye(3)[::-1], atol=1e-10)


def test_lift_program_file(tmp_path):
    prog = tmp_path / "prog.txt"
    prog.write_text("h;\nh\n")
    out = tmp_path / "m.json"
    assert main(["lift", "--program-file", str(prog), "--dim", "2", "--out", str(out)]) == 0
    u = formats.unitary_from_doc(formats.load_doc(out))
    np.testing.assert_allclose(u.matrix, np.eye(2), atol=1e-10)


def test_lift_dim101(tmp_path):
    out = tmp_path / "m.json"
    assert main(["lift", "--program", "h", "--dim", "101", "--out", str(out)]) == 0
    assert formats.unitary_from_doc(formats.load_doc(out)).dim == 101


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = "import sys, quditstars; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


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


def test_verify_dims_forms(tmp_path):
    for dims in ("2", "2,4", "2..4"):
        out = tmp_path / f"r{dims.replace('.', '_').replace(',', '-')}.json"
        assert main(["verify", "--dims", dims, "--trials", "1", "--seed", "1",
                     "--out", str(out)]) == 0


def test_domain_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["roots", "--state", missing, "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["roots", "--state", str(bad), "--out", str(tmp_path / "o.json")]) == 1
    assert "error:" in capsys.readouterr().err


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
