"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (one-line diagnostic on
stderr), 2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import formats
from .errors import QuditStarsError
from .gatescript import compile_source
from .majorana import constellation_to_state, find_roots, state_to_constellation, state_to_polynomial
from .moebius import lift_to_unitary, to_rotation, transform_constellation
from .render import RenderSpec, render_constellation_svg
from .verify import SuiteConfig, run_suite

__all__ = ["main", "console_main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditstars",
        description="Qudit states as root constellations on the Riemann sphere; "
                    "gates as Moebius maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="state file -> constellation file")
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="constellation file -> canonical state file")
    p.add_argument("--constellation", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("transform", help="apply a gate program to a state")
    p.add_argument("--state", required=True)
    _add_program_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-nonunitary", action="store_true")

    p = sub.add_parser("lift", help="gate program -> d x d unitary matrix file")
    _add_program_args(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rotation", help="gate program -> 3x3 rotation matrix file")
    _add_program_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("project", help="constellation file -> sphere coordinates")
    p.add_argument("--constellation", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("render", help="state or constellation -> SVG")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state")
    group.add_argument("--constellation")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=512)

    p = sub.add_parser("verify", help="run the randomized property suite")
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
    return Path(args.program_file).read_text(encoding="utf-8")


def _parse_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    if "," in text:
        return tuple(int(v) for v in text.split(","))
    return (int(text),)


def _cmd_roots(args) -> int:
    state = formats.state_from_doc(formats.load_doc(args.state))
    constellation = find_roots(state_to_polynomial(state))
    formats.save_doc(args.out, formats.constellation_to_doc(constellation))
    return 0


def _cmd_reconstruct(args) -> int:
    constellation = formats.constellation_from_doc(formats.load_doc(args.constellation))
    formats.save_doc(args.out, formats.state_to_doc(constellation_to_state(constellation)))
    return 0


def _cmd_transform(args) -> int:
    state = formats.state_from_doc(formats.load_doc(args.state))
    gate = compile_source(_program_source(args), allow_nonunitary=args.allow_nonunitary)
    moved = transform_constellation(gate, state_to_constellation(state))
    formats.save_doc(args.out, formats.state_to_doc(constellation_to_state(moved)))
    return 0


def _cmd_lift(args) -> int:
    # Individual terms may be anything here; what must be special-unitary is
    # the compiled product, which lift_to_unitary checks itself.
    gate = compile_source(_program_source(args), allow_nonunitary=True)
    formats.save_doc(args.out, formats.unitary_to_doc(lift_to_unitary(gate, args.dim)))
    return 0


def _cmd_rotation(args) -> int:
    gate = compile_source(_program_source(args), allow_nonunitary=True)
    formats.save_doc(args.out, formats.rotation_to_doc(to_rotation(gate)))
    return 0


def _cmd_project(args) -> int:
    constellation = formats.constellation_from_doc(formats.load_doc(args.constellation))
    points = constellation.sphere_points()
    if args.format == "csv":
        Path(args.out).write_text(formats.sphere_points_to_csv(points), encoding="utf-8")
    else:
        formats.save_doc(args.out, formats.sphere_points_to_doc(points))
    return 0


def _cmd_render(args) -> int:
    if args.state is not None:
        constellation = state_to_constellation(
            formats.state_from_doc(formats.load_doc(args.state)))
    else:
        constellation = formats.constellation_from_doc(formats.load_doc(args.constellation))
    svg = render_constellation_svg(constellation, RenderSpec(size=args.size))
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


def _cmd_verify(args) -> int:
    config = SuiteConfig(dims=_parse_dims(args.dims), trials=args.trials, seed=args.seed)
    report = run_suite(config)
    formats.save_doc(args.out, report.to_doc())
    for prop in report.properties:
        print(f"{prop.name}: {prop.passes}/{prop.trials} passed "
              f"(worst deviation {prop.worst_deviation:.3e})")
    print("all properties passed" if report.all_passed
          else "some properties FAILED; see the report")
    return 0


_COMMANDS = {
    "roots": _cmd_roots,
    "reconstruct": _cmd_reconstruct,
    "transform": _cmd_transform,
    "lift": _cmd_lift,
    "rotation": _cmd_rotation,
    "project": _cmd_project,
    "render": _cmd_render,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (QuditStarsError, ValueError, OverflowError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
