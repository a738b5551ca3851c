"""Command line surface: seed mutation, diagram completion, consistency
checks, the hyperplane-trading transform, theta functions, and the shipped
verification suites.

Exit codes: 0 success, 1 a requested check failed or an invariant was
violated, 2 bad input; ``_Group.invoke`` alone maps library exceptions to
them, so a command body holds only its computation and output.  Each input
comes from its flag alone (no environment variable is read), and ``verify``
runs fixed suites whose JSON report is the reference; all output is
deterministic byte for byte.
"""

import json
import os
from pathlib import Path

import click

from . import _verify, fixtures
from .cluster_core import InvariantViolation, pattern_walk, seed_from_json, seed_to_json
from .monoid_ring import series_to_str
from .scattering import (
    ScatteringDiagram,
    _tnames,
    build_initial,
    check_consistency,
    complete_rank2,
    diagram_to_json,
    render_svg,
    tk_invariance_check,
    wall_label,
)
from .theta import GenericityError, _theta_lines, theta as _theta


def _seed_path(ctx, param, value):
    """The --seed file; a name that is no file here names a shipped fixture."""
    if value is None or Path(value).exists():
        return value
    if value in fixtures.FILES:
        return str(Path(fixtures.__file__).with_name(value))
    raise click.BadParameter(f"File {value!r} does not exist, here or among the shipped fixtures.")


SEED_OPT = dict(
    required=True,
    type=click.Path(dir_okay=False),
    callback=_seed_path,
    help=f"Seed JSON file, or a shipped fixture ({', '.join(fixtures.FILES[:2])}).",
)


def _output_path(ctx, param, value):
    """An output path, checked before the command computes anything, so that
    one it cannot write exits 2 with nothing printed and no file written.
    ``click.Path(dir_okay=False)`` has already refused an existing directory."""
    if value is None:
        return None
    parent = Path(value).parent
    if not value:
        reason = "empty path"
    elif value.endswith(("/", os.sep)):
        reason = "the path ends in a separator, so it names a directory"
    elif not (parent.is_dir() and os.access(parent, os.W_OK)):
        reason = f"{parent} is not a writable directory"
    else:
        return value
    raise click.UsageError(f"cannot write {value}: {reason}")


OUT_OPT = dict(type=click.Path(dir_okay=False), callback=_output_path)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise click.UsageError(f"cannot write {path}: {err}")


def _load_seed(path: str, semifield: bool):
    try:
        data = json.loads(Path(path).read_text())
        return seed_from_json(data, semifield=semifield)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise click.UsageError(f"cannot load seed from {path}: {err}")


def _parse_word(word: str) -> tuple[int, ...]:
    cleaned = word.replace(",", " ")
    chunks = cleaned.split()
    out: list[int] = []
    for chunk in chunks:
        if not chunk.isdigit():
            raise click.UsageError(f"mutation word must be digits, got {word!r}")
        if len(chunks) == 1 and len(chunk) > 1:
            out.extend(int(c) for c in chunk)
        else:
            out.append(int(chunk))
    return tuple(out)


def _parse_vector(text: str, n: int) -> tuple[int, ...]:
    try:
        vec = tuple(int(x) for x in text.replace("(", "").replace(")", "").split(","))
    except ValueError:
        raise click.UsageError(f"exponent must be comma-separated integers, got {text!r}")
    if len(vec) != n:
        raise click.UsageError(f"exponent must have {n} entries, got {text!r}")
    return vec


def _completed(seed_path: str, order: int) -> ScatteringDiagram:
    return complete_rank2(build_initial(_load_seed(seed_path, semifield=False), order))


class _Group(click.Group):
    """The one exit-code policy: an ``InvariantViolation`` exits 1 with
    ``invariant violated: ...``, a ``GenericityError`` 1 with its message, and
    a ``ValueError``, ``IndexError`` or ``OverflowError`` 2 with ``Error: ...``
    under the command's usage, and a ``MemoryError`` 2 with one line naming
    the command and its ``--order``.  Any other exception keeps its
    traceback."""

    def resolve_command(self, ctx, args):
        name, cmd, rest = super().resolve_command(ctx, args)
        ctx.meta["command_args"] = list(rest)  # parsing consumes rest; the out-of-memory line rereads it
        return name, cmd, rest

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InvariantViolation as err:
            raise click.ClickException(f"invariant violated: {err}")
        except GenericityError as err:
            raise click.ClickException(str(err))
        except (ValueError, IndexError, OverflowError) as err:
            name = ctx.invoked_subcommand
            raise click.UsageError(str(err), click.Context(self.commands[name], parent=ctx, info_name=name))
        except MemoryError:
            pass  # reported below, once leaving the handler has freed what the traceback held
        name = ctx.invoked_subcommand
        sub = self.commands[name].make_context(name, ctx.meta["command_args"], parent=ctx, resilient_parsing=True)
        order = sub.params.get("order")
        err = click.ClickException(f"{name} ran out of memory" + (f" at --order {order}" if order else ""))
        err.exit_code = 2
        raise err


@click.group(cls=_Group)
def cli():
    """Exact rank-2 wall diagrams, theta functions, and seed mutation."""


@cli.command()
@click.option("--seed", "seed_path", **SEED_OPT)
@click.argument("word", default="")
def mutate(seed_path, word):
    """Mutate a seed along WORD and print the canonical seed JSON.

    WORD is digits, optionally comma separated: "121" and "1,2,1" agree.
    An empty word re-serializes the seed canonically.
    """
    s = _load_seed(seed_path, semifield=True)
    s2 = pattern_walk(s, _parse_word(word))
    click.echo(_dumps(seed_to_json(s2)), nl=False)


@cli.command()
@click.option("--seed", "seed_path", **SEED_OPT)
@click.option("--order", default=6, show_default=True)
@click.option("--json", "json_path", **OUT_OPT, help="Write the diagram as JSON here.")
@click.option("--svg", "svg_path", **OUT_OPT, help="Write a picture here.")
def scatter(seed_path, order, json_path, svg_path):
    """Complete the seed's diagram to --order and list its walls."""
    D = _completed(seed_path, order)
    for w in D.walls:
        kind = "incoming" if w.incoming else "outgoing"
        click.echo(f"ray ({w.ray[0]},{w.ray[1]}) {kind}: {wall_label(w, D.seed.coeff_orders)}")
    if json_path is not None:
        _write(json_path, _dumps(diagram_to_json(D)))
    if svg_path is not None:
        _write(svg_path, render_svg(D))


@cli.command("scatter-check")
@click.option("--seed", "seed_path", **SEED_OPT)
@click.option("--order", default=6, show_default=True)
@click.option(
    "--completed",
    is_flag=True,
    help="Check the completed diagram instead of the bare initial one.",
)
@click.pass_context
def scatter_check(ctx, seed_path, order, completed):
    """Report order-by-order consistency of a seed's diagram.

    The bare initial diagram is usually inconsistent, which is what
    completion repairs; an inconsistent diagram exits with code 1.
    """
    s = _load_seed(seed_path, semifield=False)
    D = build_initial(s, order)
    if completed:
        D = complete_rank2(D)
    rep = check_consistency(D)
    click.echo(
        _dumps(
            {
                "consistent": rep.consistent,
                "order": rep.order,
                "first_failure_degree": rep.first_failure_degree,
            }
        ),
        nl=False,
    )
    if not rep.consistent:
        ctx.exit(1)


@cli.command("scatter-mutate")
@click.option("--seed", "seed_path", **SEED_OPT)
@click.option("--k", required=True, type=int, help="Mutation direction.")
@click.option("--order", default=4, show_default=True)
@click.option("--json", "json_path", **OUT_OPT, help="Write the transformed diagram as JSON here.")
@click.pass_context
def scatter_mutate(ctx, seed_path, k, order, json_path):
    """Trade the direction-k hyperplane across the completed diagram and
    confirm the result matches the mutated seed's own completion."""
    s = _load_seed(seed_path, semifield=False)
    moved, _, ok = tk_invariance_check(s, k, order)
    click.echo(_dumps({"k": k, "order": order, "invariant": ok}), nl=False)
    if json_path is not None:
        _write(json_path, _dumps(diagram_to_json(moved)))
    if not ok:
        ctx.exit(1)


@cli.command()
@click.option("--seed", "seed_path", **SEED_OPT)
@click.option("--m", "m_text", required=True, help='Exponent, e.g. "-1,0".')
@click.option(
    "--order",
    default=6,
    show_default=True,
    help="Keep terms below this degree, counted in the seed's own coefficients.",
)
@click.option(
    "--q-seed",
    default=0,
    show_default=True,
    help="Deterministic endpoint draw.",
)
@click.option("--trace", "trace_path", **OUT_OPT, help="Write every broken line here as JSON.")
def theta(seed_path, m_text, order, q_seed, trace_path):
    """Theta function of an exponent over the completed diagram, presented
    at the all-positive chamber: the sum of the final terms of the broken
    lines that --trace writes."""
    D = _completed(seed_path, order)
    p0 = _parse_vector(m_text, 2)
    if trace_path is not None:
        series, lines, endpoint = _theta_lines(D, p0, order, q_seed=q_seed)
    else:
        series = _theta(D, p0, order, q_seed=q_seed)
    click.echo(series_to_str(series, ["A1", "A2"], _tnames(D.seed.coeff_orders)))
    if trace_path is not None:
        payload = {
            "p0": list(p0),
            "order": order,
            "endpoint": None if endpoint is None else [str(q) for q in endpoint],
            "lines": [
                {
                    "segments": [
                        {"c": c, "t": list(t), "m": list(m)} for c, t, m in bl.segments
                    ],
                    "bends": [
                        {"point": [str(q) for q in pt], "ray": list(ray)}
                        for pt, ray in bl.bends
                    ],
                }
                for bl in lines
            ],
        }
        _write(trace_path, _dumps(payload))


@cli.command()
@click.option("--suite", default="all", show_default=True)
@click.pass_context
def verify(ctx, suite):
    """Run a shipped verification suite and print a JSON report.

    The suites are fixed, so the report of a passing run is the reference.
    """
    checks = _verify.run_suite(suite)
    report = {
        "suite": suite,
        "checks": [
            {"name": name, "pass": ok, "counterexample": ce} for name, ok, ce in checks
        ],
        "pass": all(ok for _, ok, _ in checks),
    }
    click.echo(_dumps(report), nl=False)
    if not report["pass"]:
        ctx.exit(1)


def main():
    cli(prog_name="clusterscatter")


if __name__ == "__main__":
    main()
