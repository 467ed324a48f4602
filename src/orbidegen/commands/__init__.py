"""The command handlers, one module per command group.

`cli.run` imports the module of the group it runs, so a child process
compiles only its own command.  A handler named `cmd_<leaf>` serves the
command whose last word is <leaf> (`graphs poset` is `graphs.cmd_poset`).
No module here imports `orbidegen.cli`, so `python -m orbidegen.cli` loads
the front end once.

`emit` writes every command's report: its text lines, or under --json the
payload with the schema as io's deterministic JSON (`io.dump_json`).  io is
imported only then, so a command that reads no document and prints text
(`glue demo`) loads neither io nor contact.
"""

from __future__ import annotations

import sys


def emit(args, payload: dict, lines: list[str]) -> None:
    """Write a command's report: `payload` with the schema under --json, else the text lines."""
    if args.json:
        from ..io import SCHEMA, dump_json

        sys.stdout.write(dump_json({"schema": SCHEMA, **payload}))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
