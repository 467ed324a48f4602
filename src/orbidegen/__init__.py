"""Exact bookkeeping for orbifold degeneration formulas.

Submodules: inertia (groups, sectors, CR grading), contact (fractional contact
orders and partitions), graph (decorated relative dual graphs), dimension
(virtual dimensions), expand (degeneration-formula terms), glue (the
finite-dimensional correction sandbox), cli / commands / io (front end).

Each name has one import path, its submodule's, and importing the package
loads no submodule, so `import orbidegen.cli` does not pay for `graph` when
the command never builds a graph.
"""

__version__ = "0.1.0"
