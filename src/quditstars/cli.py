"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (one-line diagnostic on
stderr) and when a ``verify`` property fails, 2 on usage errors (argparse).

A process runs one subcommand and exits, so ``console_main`` (the
``quditstars`` script and ``python -m quditstars.cli``) turns the cyclic
garbage collector off before the subcommand imports numpy and freezes the
heap before the interpreter shuts down; otherwise the collector walks
numpy's long-lived objects during the imports and again in the final
collection at exit, just before the OS frees the whole heap.  This is safe
because every output file is written and closed before ``main`` returns, the
interpreter flushes stdout and stderr at exit, and nothing the CLI builds
relies on a ``__del__`` inside a cycle; one ``main`` call leaves argparse's
parser tree as its only cyclic garbage, whatever the subcommand's size.
``main`` itself leaves the collector alone, so in-process callers keep it.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

__all__ = ["main", "console_main"]

# Library names -- the package's public names (its ``__all__``) and the
# ``formats`` submodule -- resolve on first use, through the package, which
# imports only the submodule that owns each; so importing this module loads
# no library module, and a subcommand imports only what it runs.  Any other
# name, such as the package's ``__path__``, is not this module's.  A global
# lookup never reaches the module ``__getattr__``, so the subcommands read
# these names as ``_module.<name>``, which also sees a later rebinding of
# the attribute.
_package = sys.modules[__package__]
_module = sys.modules[__name__]


def __getattr__(name):
    if name != "formats" and name not in _package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_package, name)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditstars",
        description="Qudit states as root constellations on the Riemann sphere; "
                    "gates as Moebius maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="state file -> constellation file")
    p.set_defaults(run=_cmd_roots)
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="constellation file -> canonical state file")
    p.set_defaults(run=_cmd_reconstruct)
    p.add_argument("--constellation", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("transform", help="apply a gate program to a state")
    p.set_defaults(run=_cmd_transform)
    p.add_argument("--state", required=True)
    _add_program_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-nonunitary", action="store_true")

    p = sub.add_parser("lift", help="gate program -> d x d unitary matrix file")
    p.set_defaults(run=_cmd_lift)
    _add_program_args(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rotation", help="gate program -> 3x3 rotation matrix file")
    p.set_defaults(run=_cmd_rotation)
    _add_program_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("project", help="constellation file -> sphere coordinates")
    p.set_defaults(run=_cmd_project)
    p.add_argument("--constellation", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("render", help="state or constellation -> SVG")
    p.set_defaults(run=_cmd_render)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state")
    group.add_argument("--constellation")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=512)

    p = sub.add_parser("verify", help="run the randomized property suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--dims", required=True,
                   help="dimension range 'A..B', a comma list, or one integer")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


def _add_program_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--program", help="gate-script source text")
    group.add_argument("--program-file", help="file holding gate-script source")


def _program_source(args) -> str:
    if args.program is not None:
        return args.program
    return _module.formats.read_text(args.program_file)


def _read_state(path: str):
    return _module.formats.state_from_doc(_module.formats.load_doc(path))


def _read_constellation(path: str):
    return _module.formats.constellation_from_doc(_module.formats.load_doc(path))


def _parse_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--dims must be a range 'A..B' or a comma list of integers, "
                         f"got {text!r}") from None


def _cmd_roots(args) -> int:
    constellation = _module.state_to_constellation(_read_state(args.state))
    _module.formats.save_doc(args.out, _module.formats.constellation_to_doc(constellation))
    return 0


def _cmd_reconstruct(args) -> int:
    state = _module.constellation_to_state(_read_constellation(args.constellation))
    _module.formats.save_doc(args.out, _module.formats.state_to_doc(state))
    return 0


def _cmd_transform(args) -> int:
    state = _read_state(args.state)
    gate = _module.compile_source(_program_source(args), allow_nonunitary=args.allow_nonunitary)
    moved = _module.transform_constellation(gate, _module.state_to_constellation(state))
    _module.formats.save_doc(args.out,
                             _module.formats.state_to_doc(_module.constellation_to_state(moved)))
    return 0


def _cmd_lift(args) -> int:
    # Individual terms may be anything here; what must be special-unitary is
    # the compiled product, which lift_to_unitary checks itself.
    gate = _module.compile_source(_program_source(args), allow_nonunitary=True)
    unitary = _module.lift_to_unitary(gate, args.dim)
    _module.formats.save_doc(args.out, _module.formats.unitary_to_doc(unitary))
    return 0


def _cmd_rotation(args) -> int:
    gate = _module.compile_source(_program_source(args), allow_nonunitary=True)
    _module.formats.save_doc(args.out, _module.formats.rotation_to_doc(_module.to_rotation(gate)))
    return 0


def _cmd_project(args) -> int:
    points = [_module.to_sphere(r) for r in _read_constellation(args.constellation).roots]
    if args.format == "csv":
        Path(args.out).write_text(_module.formats.sphere_points_to_csv(points), encoding="utf-8")
    else:
        _module.formats.save_doc(args.out, _module.formats.sphere_points_to_doc(points))
    return 0


def _cmd_render(args) -> int:
    if args.state is not None:
        constellation = _module.state_to_constellation(_read_state(args.state))
    else:
        constellation = _read_constellation(args.constellation)
    svg = _module.render_constellation_svg(constellation, args.size)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


def _cmd_verify(args) -> int:
    config = _module.SuiteConfig(dims=_parse_dims(args.dims), trials=args.trials, seed=args.seed)
    report = _module.run_suite(config)
    _module.formats.save_doc(args.out, report.to_doc())
    for prop in report.properties:
        print(f"{prop.name}: {prop.passes}/{prop.trials} passed "
              f"(worst deviation {prop.worst_deviation:.3e})")
    print("all properties passed" if report.all_passed
          else "some properties FAILED; see the report")
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OverflowError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def console_main() -> None:
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
