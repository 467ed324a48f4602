"""`expand`: the degeneration-formula terms of one splitting scenario."""

from __future__ import annotations

from ..errors import ValidationError
from ..expand import expand, term_record
from ..io import _rational, load_document, read_text
from . import emit


def cmd_expand(args) -> int:
    doc = load_document(read_text(args.input))
    name, scenario = doc.one("scenarios", args.scenario)
    hname, bname = doc.scenario_context[name]
    if not bname:
        raise ValidationError(f"scenario {name!r} has no basis reference")
    degree = _rational(args.degree, "--degree") if args.degree is not None else None
    terms = expand(scenario, doc.basis[bname], doc.homology[hname], total_degree=degree,
                   where=(f"scenarios[{name}]", f"basis[{bname}]"))
    rows = [(str(t.coefficient), list(t.labels), term_record(t)) for t in terms]
    width = max((len(c) for c, _, _ in rows), default=1)
    emit(args, {"scenario": name, "count": len(rows),
                "terms": [{"coefficient": c, "labels": labels, "record": record}
                          for c, labels, record in rows]},
         [f"scenario {name}: {len(rows)} term(s)",
          *(f"  {c:>{width}}  {record}" for c, _, record in rows)])
    return 0
