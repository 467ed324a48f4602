"""`glue demo`: the finite-dimensional gluing sandbox on one model.

The only command that loads numpy; its reports are floats, not exact values.
"""

from __future__ import annotations

import numpy as np

from .. import glue
from ..errors import NonConvergenceError, ResourceLimitError, ValidationError
from . import emit


# model -> (its builder, the one option the builder takes, if any)
_MODELS = {"sphere": (glue.sphere_model, "scale"), "node": (glue.node_model, "tau"),
           "linear": (glue.linear_model, None)}


def cmd_demo(args) -> int:
    build, option = _MODELS[args.model]
    for other in [name for _, name in _MODELS.values() if name not in (None, option)]:
        if getattr(args, other) is not None:
            raise ValidationError(f"glue demo {args.model} takes no --{other}")
    # the model's setting when given; the builder owns its default
    value = getattr(args, option) if option else None
    setting = {option: value} if value is not None else {}
    try:
        # overflow and 0/0 stay silent: the finite checks report them by model
        with np.errstate(all="ignore"):
            return _glue_demo(args, build, setting)
    except (FloatingPointError, OverflowError) as exc:
        flags = "".join(f" --{name} {value:g}" for name, value in setting.items())
        raise ValidationError(
            f"glue demo {args.model}{flags} leaves the floating-point range: {exc}"
        ) from None


def _glue_demo(args, build, setting) -> int:
    for option, value, low in (("--samples", args.samples, glue.MIN_SAMPLES),
                               ("--probes", args.probes, 0), ("--seed", args.seed, 0)):
        if value < low:
            raise ValidationError(f"{option} must be at least {low}, got {value}")
    for option, value in (("--samples", args.samples), ("--probes", args.probes)):
        if value > glue.MAX_SAMPLES:
            raise ResourceLimitError(f"{option} must be at most {glue.MAX_SAMPLES}, got {value}")
    system, chart = build(**setting)
    const = glue.estimate_constants(system, chart, sample_count=args.samples, seed=args.seed)

    def e(x: float) -> str:
        return f"{x:.12e}"

    payload = {
        "model": system.name, "chart": chart.name,
        "constants": {"C1": e(const.c1), "C2": e(const.c2), "eps1": e(const.eps1),
                      "delta1": e(const.delta1), "K1": e(const.k1)},
        "ordering_ok": const.ordering_ok,
        "conditions": [
            {"name": c.name, "estimate": e(c.estimate), "ok": c.ok, "note": c.note}
            for c in const.conditions
        ],
    }
    out = []
    out.append(f"model {system.name} / {chart.name}")
    out.append(f"  constants: C1={const.c1:.6e} C2={const.c2:.6e} eps1={const.eps1:.6e} "
               f"delta1={const.delta1:.6e} K1={const.k1:.6e}")
    out.append(f"  ordering eps1 << delta1 << C2 (factor 10): "
               f"{'ok' if const.ordering_ok else 'FLAGGED'}")
    for cond in const.conditions:
        status = "ok" if cond.ok else "FAIL"
        out.append(f"    {cond.name:<28} {cond.estimate:.6e}  [{status}]"
                   + (f"  {cond.note}" if cond.note else ""))
    rng = np.random.default_rng(args.seed)
    s0 = chart.sample(rng)
    try:
        result = glue.correct(system, chart, s0)
        out.append(f"  correction at s={np.array2string(s0, precision=4)}: "
                   f"residual {result.residual:.3e} in {result.iterations} iteration(s)")
        out.append("    n    |xi_n|        residual")
        for i, (xn, rn) in enumerate(zip(result.xi_history, result.residual_history)):
            out.append(f"    {i:<4} {xn:.6e}  {rn:.6e}")
        xi_norm = result.xi_history[-1]  # |xi| of the returned xi
        xi_ok = xi_norm <= 2 * const.eps1 + 1e-12
        out.append(f"  |xi| <= 2 eps1 contract: |xi|={xi_norm:.6e} vs "
                   f"2 eps1={2 * const.eps1:.6e}  [{'ok' if xi_ok else 'FLAGGED'}]")
        payload["correction"] = {
            "converged": True, "iterations": result.iterations,
            "residual": e(result.residual), "xi_norm": e(xi_norm), "xi_contract_ok": xi_ok,
            "residual_history": [e(r) for r in result.residual_history],
        }
    except NonConvergenceError as exc:
        out.append(f"  correction FAILED: {exc}")
        payload["correction"] = {
            "converged": False,
            "residual_history": [e(r) for r in exc.residuals],
        }
    probes = []
    for _ in range(args.probes):
        s = chart.sample(rng)
        eta = rng.uniform(-const.delta1, const.delta1, size=system.dim_f)
        probes.append(glue.chart_map(system, chart, s, eta))
    worst = max((p.derivative_norm for p in probes), default=0.0)
    within = all(p.within_bound for p in probes)
    out.append(f"  |DPhi| probe over {len(probes)} points: max {worst:.6e}  "
               f"[{'ok' if within else 'FLAGGED'}]")
    payload["derivative_probe"] = {"points": len(probes), "max_norm": e(worst),
                                   "within_bound": within}
    emit(args, payload, out)
    return 0
