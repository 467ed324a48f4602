"""`partitions`: ordered contact-order partitions of a total."""

from __future__ import annotations

from ..contact import enumerate_partitions
from ..io import _integer, _rational, parse_list
from . import emit


def cmd_partitions(args) -> int:
    total = _rational(args.total, "--total")
    orders = parse_list(args.orders, "--orders", _integer) if args.orders is not None else (1,)
    tuples = [[str(o) for o in tup] for tup in enumerate_partitions(total, orders)]
    emit(args, {"total": str(total), "orders": orders, "count": len(tuples),
                "partitions": tuples},
         [f"{len(tuples)} tuple(s) of contact orders summing to {total}",
          *(f"  ({', '.join(tup)})" for tup in tuples)])
    return 0
