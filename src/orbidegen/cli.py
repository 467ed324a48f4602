"""Command-line front end: the option table, parsing and dispatch.

Exit codes: 0 success, 1 validation error, 2 usage error, 3 resource/bound
error.  Every report is deterministic for a fixed input; --json switches a
report to machine form.

A child process runs one command, so startup (compiling and executing the
imported modules, building the parsers) is a large share of an exact
command's time, and a command pays only for what it runs.  `build_parser`
builds only the parsers of the command group named first on the command
line, and `run` imports only that group's handlers from
`orbidegen.commands`; io imports a module only for a document section that
needs it.  Besides cli, contact, errors, io and its own command module, a
command loads:

    partitions               nothing more
    sectors                  inertia
    dim virdim, dim ledger   dimension
    graphs *                 graph (and inertia for a class table built from a group)
    expand                   graph, expand
    glue demo                glue and numpy, which no exact command loads; it
                             reads no document, so its text report loads
                             neither io nor contact (--json loads both)
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from importlib import import_module
from typing import Sequence

from .errors import NonConvergenceError, ResourceLimitError, ValidationError


@contextmanager
def _command(sub, name: str, *, reads: bool = True, dot: bool = False, **kwargs):
    """Register a subcommand, handled by `cmd_<name>` of its group's command
    module: --in when it `reads` a document, then the options added inside
    the with-block, then --dot when it renders DOT, then --json; --dot and
    --json exclude each other."""
    parser = sub.add_parser(name, **kwargs)
    if reads:
        parser.add_argument("--in", dest="input", required=True)
    yield parser
    forms = parser.add_mutually_exclusive_group() if dot else parser
    if dot:
        forms.add_argument("--dot", action="store_true")
    forms.add_argument("--json", action="store_true")
    parser.set_defaults(handler=f"cmd_{name}")


def _add_sectors(sub) -> None:
    with _command(sub, "sectors", help="degree shifts, CR polynomial, pairing check") as p:
        p.add_argument("--profile")


def _add_graphs(sub) -> None:
    graphs = sub.add_parser("graphs", help="graph validation and contraction")
    gsub = graphs.add_subparsers(dest="graph_command", required=True)
    with _command(gsub, "validate") as p:
        p.add_argument("--graph")
    with _command(gsub, "genus") as p:
        p.add_argument("--graph")
    with _command(gsub, "contract", dot=True) as p:
        p.add_argument("--graph")
        p.add_argument("--edge", type=int)
        p.add_argument("--level", type=int)
    with _command(gsub, "poset", dot=True) as p:
        p.add_argument("--graph")
        p.add_argument("--max-vertices", type=int)
        p.add_argument("--max-levels", type=int)
        p.add_argument("--edge-monodromies")
        p.add_argument("--max-edge-contact", type=int)


def _add_dim(sub) -> None:
    dim = sub.add_parser("dim", help="virtual dimensions and the splitting ledger")
    dsub = dim.add_subparsers(dest="dim_command", required=True)
    with _command(dsub, "virdim", reads=False) as p:
        p.add_argument("--flavor", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--genus", type=int, required=True)
        p.add_argument("--c1a", required=True)
        p.add_argument("--shifts", default="")
        p.add_argument("--rel", default="", help="k/r[:shift[:monodromy]],...")
        p.add_argument("--za")
    with _command(dsub, "ledger"):
        pass


def _add_partitions(sub) -> None:
    with _command(sub, "partitions", reads=False, help="ordered contact-order partitions") as p:
        p.add_argument("--total", required=True)
        p.add_argument("--orders")


def _add_expand(sub) -> None:
    with _command(sub, "expand", help="degeneration-formula term expansion") as p:
        p.add_argument("--scenario")
        p.add_argument("--degree")


def _add_glue(sub) -> None:
    gl = sub.add_parser("glue", help="finite-dimensional gluing sandbox")
    glsub = gl.add_subparsers(dest="glue_command", required=True)
    with _command(glsub, "demo", reads=False) as p:
        p.add_argument("model", choices=["sphere", "node", "linear"])
        p.add_argument("--tau", type=float)
        p.add_argument("--scale", type=float)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--probes", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)


# command group -> the function adding its parsers; the group's handlers are
# the module orbidegen.commands.<group>
_GROUPS = {
    "sectors": _add_sectors,
    "graphs": _add_graphs,
    "dim": _add_dim,
    "partitions": _add_partitions,
    "expand": _add_expand,
    "glue": _add_glue,
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of `argv`: when argv[0] names a command group, the top level
    and that group's parsers only; otherwise (no command, --help, a typo)
    every command's."""
    parser = argparse.ArgumentParser(
        prog="orbidegen",
        description="exact bookkeeping for orbifold degeneration formulas",
    )
    group = argv[0] if argv and argv[0] in _GROUPS else None
    # with one group built, the metavar keeps the usage line listing all six;
    # the full tree leaves it unset, since argparse names the positional by
    # its metavar in "required" and "invalid choice" errors
    metavar = {"metavar": "{" + ",".join(_GROUPS) + "}"} if group else {}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)
    for name, add in _GROUPS.items():
        if group in (None, name):
            add(sub)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler = getattr(import_module(f".commands.{args.command}", __package__), args.handler)
    try:
        return handler(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValidationError, ValueError, NonConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
