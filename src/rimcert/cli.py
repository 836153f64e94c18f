"""Command-line interface: certify, batch, explain, invariants.

Exit codes for `certify`: 0 when the verdict is certified (cyclic or
non-cyclic), 2 when inconclusive, 1 on error.  Limits come from flags or
the RIMCERT_MAX_COSETS / RIMCERT_TIMEOUT environment variables.
"""

from __future__ import annotations

import json
import math
import sys

import click

from .batch import batch_json, run_batch
from .braids import resolve_knot
from .diagrams import braid_closure_diagram
from .enumeration import DEFAULT_MAX_COSETS
from .groups import format_word
from .report import DEFAULT_TIMEOUT, certify as certify_spec, invariant_block, render_text
from .surgery import (
    ANNULUS,
    RIM,
    plotnick_matrix,
    spec_from_json,
    surgery_recipe,
)

EXIT_CERTIFIED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _spec_options(f):
    f = click.option("--kind", type=click.Choice([RIM, ANNULUS]), default=RIM,
                     show_default=True, help="Surgery flavor.")(f)
    f = click.option("--n", type=int, default=0, show_default=True,
                     help="Roll count along the companion longitude.")(f)
    f = click.option("--m", type=int, default=0, show_default=True,
                     help="Twist count along the surface meridian.")(f)
    f = click.option("--d", "d", type=int, required=True,
                     help="Order of the meridian power killed by the surgery.")(f)
    f = click.option("--knot", required=True,
                     help="Table name (unknot, 3_1, 4_1, 5_1, 5_2) or a braid "
                          "literal like 'B3: 1 -2 1 -2'.")(f)
    return f


def _limit_options(f):
    f = click.option("--timeout", type=float, default=DEFAULT_TIMEOUT,
                     envvar="RIMCERT_TIMEOUT", show_default=True,
                     help="Wall-clock budget per spec in seconds; 0 disables.")(f)
    f = click.option("--max-cosets", type=int, default=DEFAULT_MAX_COSETS,
                     envvar="RIMCERT_MAX_COSETS", show_default=True,
                     help="Coset table budget per enumeration.")(f)
    return f


def _build_spec(knot: str, d: int, m: int, n: int, kind: str):
    return spec_from_json({"knot": knot, "d": d, "m": m, "n": n, "kind": kind})


@click.group()
def main() -> None:
    """Certify whether surgered surface complements keep a cyclic group."""


@main.command("certify")
@_spec_options
@_limit_options
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON report.")
def certify_cmd(knot, d, m, n, kind, max_cosets, timeout, as_json) -> None:
    """Certify one surgery spec and print its report."""
    try:
        spec = _build_spec(knot, d, m, n, kind)
        report = certify_spec(
            spec, max_cosets=max_cosets, timeout=timeout or None
        )
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)
    if as_json:
        click.echo(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        click.echo(render_text(report))
    sys.exit(EXIT_CERTIFIED if report.verdict.certified else EXIT_INCONCLUSIVE)


@main.command("batch")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON config: {specs, sweeps, max_cosets, timeout, parallelism}.")
@click.option("--out", "out_path", default="-", show_default=True,
              help="Output file; '-' writes to stdout.")
def batch_cmd(config_path, out_path) -> None:
    """Run every spec in a config file; output is byte-deterministic."""
    try:
        with open(config_path, encoding="utf-8") as f:
            config = json.load(f)
        text = batch_json(run_batch(config))
        if out_path == "-":
            click.echo(text, nl=False)
        else:
            with open(out_path, "w", encoding="utf-8") as f:
                f.write(text)
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)
    sys.exit(EXIT_CERTIFIED)


@main.command("explain")
@_spec_options
def explain_cmd(knot, d, m, n, kind) -> None:
    """Print the construction trace for a spec without enumerating."""
    try:
        spec = _build_spec(knot, d, m, n, kind)
        click.echo(explain_text(spec))
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)


@main.command("invariants")
@click.option("--knot", required=True,
              help="Table name or braid literal for a closed knot.")
@click.option("--json", "as_json", is_flag=True)
def invariants_cmd(knot, as_json) -> None:
    """Print the companion-knot invariants the reports quote."""
    try:
        diagram = braid_closure_diagram(resolve_knot(knot))
        block = invariant_block(diagram)
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)
    if as_json:
        click.echo(json.dumps(block, indent=2, sort_keys=True))
        return
    click.echo(f"knot: {knot}")
    click.echo(f"alexander polynomial: {block['alexander_polynomial']}")
    click.echo(f"determinant: {block['determinant']}")
    click.echo(f"arf invariant: {block['arf']}")
    click.echo(f"normal invariant: {block['normal_invariant']}")


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
    main()
