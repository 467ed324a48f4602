"""`dim virdim` and `dim ledger`: virtual dimensions and the splitting ledger."""

from __future__ import annotations

from ..dimension import ModuliSpec, splitting_ledger, virdim
from ..io import _rational, load_ledger, parse_list, parse_rel, read_text
from . import emit


def cmd_virdim(args) -> int:
    # an omitted --za is ModuliSpec's default, the contact sum
    za = {"zA": _rational(args.za, "--za")} if args.za is not None else {}
    value = virdim(ModuliSpec(flavor=args.flavor, n=args.n, genus=args.genus,
                              c1A=_rational(args.c1a, "--c1a"),
                              shifts=parse_list(args.shifts, "--shifts", _rational),
                              rel=parse_rel(args.rel), **za))
    emit(args, {"flavor": args.flavor, "virdim": str(value)}, [f"virdim = {value}"])
    return 0


def cmd_ledger(args) -> int:
    doc = load_ledger(read_text(args.input))
    ledger = splitting_ledger(doc.plus, doc.minus, doc.sector_dims, doc.total)
    constraints = [str(d) for d in ledger.constraint_dims]
    emit(args, {"d_total": str(ledger.d_total), "d_plus": str(ledger.d_plus),
                "d_minus": str(ledger.d_minus), "constraint_dims": constraints,
                "defect": str(ledger.defect)},
         [f"d_total={ledger.d_total} d_plus={ledger.d_plus} d_minus={ledger.d_minus} "
          f"constraints={constraints} defect={ledger.defect}"])
    return 0
