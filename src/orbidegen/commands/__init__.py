"""The command handlers, one module per command group.

`cli.run` imports the module of the group it runs, so a child process
compiles only its own command.  A handler named `cmd_<leaf>` serves the
command whose last word is <leaf> (`graphs poset` is `graphs.cmd_poset`).
No module here imports `orbidegen.cli`, so `python -m orbidegen.cli` loads
the front end once.
"""
