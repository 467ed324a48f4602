"""Exact bookkeeping for orbifold degeneration formulas.

Submodules: inertia (groups, sectors, CR grading), contact (fractional contact
orders and partitions), graph (decorated relative dual graphs), dimension
(virtual dimensions), expand (degeneration-formula terms), glue (the
finite-dimensional correction sandbox), cli / io (front end).

Importing the package loads no submodule: each name of `__all__` imports its
module on first access (PEP 562), so `import orbidegen.cli` does not pay for
`graph` when the command never builds a graph.
"""

from importlib import import_module

# re-exported name -> the submodule that defines it
_EXPORTS = {
    "ContactOrder": "contact",
    "MonodromyTable": "contact",
    "RelInsertion": "contact",
    "HomologyModel": "graph",
    "RelGraph": "graph",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
