"""`sectors`: degree shifts, the CR Poincare polynomial and the pairing check."""

from __future__ import annotations

from ..errors import ValidationError
from ..inertia import cr_poincare_polynomial
from ..io import load_document, read_text
from . import emit


def cmd_sectors(args) -> int:
    doc = load_document(read_text(args.input))
    selected = ([doc.one("profiles", args.profile)] if args.profile is not None
                else sorted(doc.profiles.items()))
    if not selected:
        raise ValidationError("document has no profiles")
    profiles, lines = [], []
    for name, profile in selected:
        rows = [{"class": label, "shift": str(sector.shift),
                 "sector_dim": sector.sector_dim(profile.ambient_dim),
                 "rotations": [str(r) for r in sector.rotations]}
                for label, sector in profile.labeled_sectors()]
        # cr_poincare_polynomial refuses a profile that fails the pairing check
        poly = [{"degree": str(d), "multiplicity": m}
                for d, m in cr_poincare_polynomial(profile)]
        profiles.append({
            "name": name,
            "ambient_dim": profile.ambient_dim,
            "sectors": rows,
            "cr_poincare": poly,
            "pairing_ok": True,
            "pairing_violations": [],
        })
        lines.append(f"profile {name} (ambient dim {profile.ambient_dim})")
        lines.append("  class  shift  dim  rotations")
        for row in rows:
            rot = ",".join(row["rotations"])
            lines.append(f"  {row['class']:<6} {row['shift']:<6} {row['sector_dim']:<4} ({rot})")
        poly_text = " + ".join(f"{p['multiplicity']}*q^{p['degree']}" for p in poly)
        lines.append(f"  CR Poincare polynomial: {poly_text}")
        lines.append("  pairing check: ok")
    emit(args, {"profiles": profiles}, lines)
    return 0
