"""Command-line interface on argparse: certify, batch, explain, invariants.

Exit codes: 0 on success (a cyclic or non-cyclic verdict is certified), 2 for an
inconclusive verdict, 1 on any error, usage errors included.  Flags are never abbreviated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .batch import batch_json, run_batch
from .braids import KNOT_TABLE, resolve_knot
from .enumeration import DEFAULT_MAX_COSETS
from .groups import format_word
from .report import DEFAULT_TIMEOUT, certify as certify_spec, invariant_block, render_text
from .surgery import ANNULUS, RIM, plotnick_matrix, spec_from_json, surgery_recipe

EXIT_CERTIFIED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")  # 1, never the inconclusive 2


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code."""
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help, or a usage error already printed
        return exc.code
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _certify(args) -> int:
    """Certify one surgery spec and print its report."""
    report = certify_spec(_spec(args), max_cosets=args.max_cosets,
                          timeout=args.timeout or None)
    _echo(json.dumps(report.to_json(), indent=2, sort_keys=True) if args.as_json
          else render_text(report))
    return EXIT_CERTIFIED if report.verdict.certified else EXIT_INCONCLUSIVE


def _batch(args) -> int:
    """Run every spec in a config file; output is byte-deterministic."""
    with open(args.config, encoding="utf-8") as f:
        config = json.load(f)
    text = batch_json(run_batch(config))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    return EXIT_CERTIFIED


def _explain(args) -> int:
    """Print the construction trace for a spec without enumerating."""
    _echo(explain_text(_spec(args)))
    return EXIT_CERTIFIED


def _invariants(args) -> int:
    """Print the companion-knot invariants the reports quote."""
    block = invariant_block(resolve_knot(args.knot))
    _echo(json.dumps(block, indent=2, sort_keys=True) if args.as_json else
          f"knot: {args.knot}\nalexander polynomial: {block['alexander_polynomial']}\n"
          f"determinant: {block['determinant']}\narf invariant: {block['arf']}\n"
          f"normal invariant: {block['normal_invariant']}")
    return EXIT_CERTIFIED


def _parser() -> _Parser:
    parser = _Parser(prog="rimcert", allow_abbrev=False, description=(
        "Certify whether surgered surface complements keep a cyclic group."))
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub = {}
    for run in (_certify, _batch, _explain, _invariants):
        name = run.__name__[1:]
        sub[name] = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                        allow_abbrev=False)
        sub[name].set_defaults(run=run)
    for name in ("certify", "explain", "invariants"):
        sub[name].add_argument("--knot", required=True, help=(
            f"Table name ({', '.join(KNOT_TABLE)}) or a braid literal like 'B3: 1 -2 1 -2'."))
    for name in ("certify", "explain"):
        add = sub[name].add_argument
        add("--d", type=int, required=True, help="Order of the meridian power killed.")
        add("--m", type=int, default=0, help="Twists along the surface meridian (default: 0).")
        add("--n", type=int, default=0, help="Rolls along the knot's longitude (default: 0).")
        add("--kind", choices=(RIM, ANNULUS), default=RIM, help="Surgery kind (default: rim).")
    add = sub["certify"].add_argument
    add("--max-cosets", type=int, default=DEFAULT_MAX_COSETS, help=(
        f"Coset table budget per enumeration (default: {DEFAULT_MAX_COSETS})."))
    add("--timeout", type=float, default=DEFAULT_TIMEOUT, help=(
        "Wall-clock deadline in seconds for the coset enumerations alone; building "
        "and collapsing the group, the Smith form and the invariants run outside it. "
        f"0 disables (default: {DEFAULT_TIMEOUT})."))
    for name in ("certify", "invariants"):
        sub[name].add_argument("--json", dest="as_json", action="store_true", help="Emit JSON.")
    add = sub["batch"].add_argument
    add("--config", required=True, help="JSON: specs, sweeps, max_cosets, timeout, parallelism")
    add("--out", default="-", help="Output file; '-' writes to stdout (default: -).")
    return parser


def _echo(text: str) -> None:
    """Write text and its newline in one call, so a pipe closed early gets whole lines."""
    sys.stdout.write(text + "\n")


def _spec(args):
    return spec_from_json({k: getattr(args, k) for k in ("knot", "d", "m", "n", "kind")})


def _matrix_lines(rows) -> list[str]:
    return ["  [" + "  ".join(f"{v:3d}" for v in row) + "]" for row in rows]


def explain_text(spec) -> str:
    """Derivation trace: gluing data, conjugator, relators by origin."""
    lines = [spec.label()]

    lines.append("regluing matrix (circle, meridian, torus-meridian basis):")
    lines.extend(_matrix_lines(((1, 0, 0), (spec.m, 1, 0), (spec.n, 0, 1))))
    if math.gcd(spec.d, spec.m) == 1:
        pm = plotnick_matrix(spec.d, spec.m)
        lines.append(
            "standard-ambient gluing exists: "
            f"{pm.order}*{pm.complement} + {pm.twists}*{pm.inverse_residue} = 1"
        )
        lines.extend(_matrix_lines(pm.rows))
    else:
        lines.append(
            f"gcd(d={spec.d}, m={spec.m}) > 1: no standard-ambient gluing; "
            "the cyclicity question is genuinely open here"
        )

    base, w, boundary = surgery_recipe(spec)
    names = base.names()
    if spec.kind == RIM:
        lines.append(f"companion group: {base.ngens} generators, "
                     f"{len(base.relators)} crossing relators")
        lines.append(f"surface meridian: {format_word(base.meridian, names)}")
        lines.append(f"companion longitude: {format_word(base.longitude, names)}")
        lines.append(f"surgery relator: meridian^{spec.d}")
    else:
        lines.append(f"tangle group: {base.ngens} generators, "
                     f"{len(base.relators)} crossing relators")
        lines.append("boundary relators:")
        lines.append(
            f"  surface meridian power: ({format_word(base.meridian, names)})^{spec.d}"
        )
        lines.append(f"  difference loop dies: {format_word(boundary[1], names)}")
        lines.append(f"  strand meridians agree: {format_word(boundary[2], names)}")

    if w.is_identity():
        lines.append("conjugator: trivial (m = n = 0), so no commutator relators")
    else:
        lines.append(f"conjugator: {format_word(w, names)}")
        lines.append("one commutator relator [generator, conjugator] per generator")
    if spec.d == 1:
        lines.append(
            "note: d=1 kills the meridian itself, every generator is a "
            "conjugate, and the surgered group is trivial"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
