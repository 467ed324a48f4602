"""Finite-dimensional gluing sandbox: approximation pairs and the correction
iteration.

A Fredholm system here is a smooth map t: R^N -> R^F on a bounded ball; an
approximate-solution chart supplies x(s) with a right-inverse field Q(s) of
the Jacobian.  The correction step solves t(x + Q xi) = 0 by the fixed-point
iteration xi <- -t(x) - N_x(Q xi) with N_x(v) = t(x+v) - t(x) - L_x v, and the
constant estimator samples the uniform-continuity and approximation bounds
that make the iteration contract.  This module is the only floating-point
part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonConvergenceError, ResourceLimitError

FD_SCALE = 1e-6
# estimate_constants keeps every sample in memory; 10,000 take a few seconds
MIN_SAMPLES = 10
MAX_SAMPLES = 10_000


def _as_vec(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def _finite(value: np.ndarray, owner: str, what: str, at: str, point) -> np.ndarray:
    """`value`, or FloatingPointError naming `what` and the point it was taken at."""
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"{owner}: {what} is non-finite at {at}={point}")
    return value


def fd_jacobian(func: Callable, x: np.ndarray, out_dim: int) -> np.ndarray:
    """Central finite differences with step 1e-6 * (1 + |x|)."""
    x = _as_vec(x)
    h = FD_SCALE * (1.0 + float(np.linalg.norm(x)))
    jac = np.zeros((out_dim, x.size))
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        jac[:, i] = (_as_vec(func(x + step)) - _as_vec(func(x - step))) / (2.0 * h)
    return jac


@dataclass
class FredholmSystem:
    """(W, W x F, s) data: the section as a map t with an optional Jacobian."""

    dim_b: int
    dim_f: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray] | None = None
    domain_bound: float = 10.0
    name: str = "system"

    def t(self, x) -> np.ndarray:
        return _finite(_as_vec(self.evaluate(_as_vec(x))), self.name, "t(x)", "x", x)

    def jacobian(self, x) -> np.ndarray:
        x = _as_vec(x)
        if self.derivative is not None:
            jac = np.asarray(self.derivative(x), dtype=float).reshape(self.dim_f, self.dim_b)
        else:
            jac = fd_jacobian(self.t, x, self.dim_f)
        return _finite(jac, self.name, "Jacobian", "x", x)

    def quadratic_remainder(self, x, v) -> np.ndarray:
        """N_x(v) = t(x+v) - t(x) - L_x v."""
        x, v = _as_vec(x), _as_vec(v)
        return self.t(x + v) - self.t(x) - self.jacobian(x) @ v


@dataclass
class ApproxChart:
    """Approximate solutions x(s) with a right-inverse field Q(s), L x(s) Q(s) = Id."""

    param: Callable[[np.ndarray], np.ndarray]
    right_inverse: Callable[[np.ndarray], np.ndarray]
    s_low: np.ndarray = field(default_factory=lambda: np.array([-1.0]))
    s_high: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    name: str = "chart"

    def x(self, s) -> np.ndarray:
        return _finite(_as_vec(self.param(_as_vec(s))), self.name, "x(s)", "s", s)

    def q(self, s) -> np.ndarray:
        value = np.asarray(self.right_inverse(_as_vec(s)), dtype=float)
        return _finite(value, self.name, "Q(s)", "s", s)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.s_low, self.s_high)

    def check_right_inverse(self, system: FredholmSystem, s) -> float:
        s = _as_vec(s)
        residual = system.jacobian(self.x(s)) @ self.q(s) - np.eye(system.dim_f)
        return float(np.linalg.norm(residual, 2))


@dataclass(frozen=True)
class ConditionReport:
    name: str
    estimate: float
    witness: tuple[float, ...]
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class GlueConstants:
    c1: float
    c2: float
    eps1: float
    delta1: float
    k1: float
    ordering_ok: bool
    conditions: tuple[ConditionReport, ...]


def _sup(scored) -> tuple[float, tuple[float, ...]]:
    """The largest positive (value, witness), the first sample to reach it
    winning ties; (0.0, (0.0,)) when no value is positive."""
    best, witness = 0.0, (0.0,)
    for value, point in scored:
        if value > best:
            best, witness = value, point
    return best, witness


def estimate_constants(
    system: FredholmSystem,
    chart: ApproxChart,
    sample_count: int = 200,
    seed: int = 0,
) -> GlueConstants:
    """Monte-Carlo estimates of the uniform-continuity constant C1, the chart
    approximation quality eps1, and the right-inverse bound C2, each reported
    with its witnessing sample.  delta1 is placed between eps1 and C2 and the
    ordering flag requires factor-10 separations eps1 << delta1 << C2.  Each
    model callback runs once per sample; t also twice per remainder probe.
    A non-finite constant raises FloatingPointError naming the system."""
    if sample_count < MIN_SAMPLES:
        raise ValueError(f"sample_count must be >= {MIN_SAMPLES}, got {sample_count}")
    if sample_count > MAX_SAMPLES:
        raise ResourceLimitError(f"sample_count must be <= {MAX_SAMPLES}, got {sample_count}")
    rng = np.random.default_rng(seed)
    ss = [chart.sample(rng) for _ in range(sample_count)]
    at = [tuple(float(v) for v in _as_vec(s)) for s in ss]
    xs = [chart.x(s) for s in ss]
    ts = [system.t(x) for x in xs]
    ls = [system.jacobian(x) for x in xs]
    qs = [chart.q(s) for s in ss]
    k1 = max(float(np.linalg.norm(x)) for x in xs)

    # cyclic consecutive pairs along the chart, their gaps |x_i - x_j| and
    # the pair witness (x_i[0], x_j[0])
    gaps = []
    for i in range(sample_count):
        j = (i + 1) % sample_count
        gap = float(np.linalg.norm(xs[i] - xs[j]))
        if gap >= 1e-12:
            gaps.append((i, j, gap, (float(xs[i][0]), float(xs[j][0]))))
    b1, w1 = _sup((float(np.linalg.norm(ts[i] - ts[j])) / gap, w) for i, j, gap, w in gaps)
    b2, w2 = _sup((float(np.linalg.norm(ls[i] - ls[j], 2)) / gap, w) for i, j, gap, w in gaps)

    # (B3) quadratic remainder quotient |N_x(v1)-N_x(v2)| / ((|v1|+|v2|)|v1-v2|),
    # N_x(v) = t(x+v) - t(x) - L_x v summed in quadratic_remainder's order
    scale = 0.1 * (1.0 + k1)

    def remainder_quotients():
        for i in range(min(sample_count, 100)):
            v1 = rng.normal(size=system.dim_b) * scale
            v2 = rng.normal(size=system.dim_b) * scale
            denom = (np.linalg.norm(v1) + np.linalg.norm(v2)) * np.linalg.norm(v1 - v2)
            if denom < 1e-12:
                continue
            n1, n2 = (system.t(xs[i] + v) - ts[i] - ls[i] @ v for v in (v1, v2))
            yield float(np.linalg.norm(n1 - n2)) / float(denom), (float(xs[i][0]),)

    b3, w3 = _sup(remainder_quotients())
    c1 = max(b1, b2, b3)

    # (C3) chart residual, (C4) tangential bound |L_x dx| / |dx| over the
    # columns of dx/ds, (C5) right-inverse norm, (C6) its Lipschitz bound
    def tangential_bounds():
        for i, s in enumerate(ss):
            for tangent in fd_jacobian(chart.x, s, system.dim_b).T:
                norm = float(np.linalg.norm(tangent))
                if norm >= 1e-12:
                    yield float(np.linalg.norm(ls[i] @ tangent)) / norm, at[i]

    eps_res, w_res = _sup((float(np.linalg.norm(t)), w) for t, w in zip(ts, at))
    eps_tan, w_tan = _sup(tangential_bounds())
    c2_norm, w_q = _sup((float(np.linalg.norm(q, 2)), w) for q, w in zip(qs, at))
    c6, w6 = _sup((float(np.linalg.norm(qs[i] - qs[j], 2)) / gap, at[i]) for i, j, gap, _ in gaps)

    eps1 = max(eps_res, eps_tan)
    c2 = max(c2_norm, c6)
    delta1 = np.sqrt(eps1 * c2) if eps1 > 1e-14 else c2 / 10.0
    for name, value in (("C1", c1), ("C2", c2), ("eps1", eps1), ("delta1", delta1), ("K1", k1)):
        if not np.isfinite(value):
            raise FloatingPointError(f"{system.name}: constant {name} is non-finite ({value})")
    ordering_ok = (10.0 * eps1 <= delta1) and (10.0 * delta1 <= c2)
    conditions = (
        ConditionReport("B1 t Lipschitz", b1, w1, True),
        ConditionReport("B2 L Lipschitz", b2, w2, True),
        ConditionReport("B3 quadratic remainder", b3, w3, True),
        ConditionReport("C1 domain bound", k1, (k1,), k1 <= system.domain_bound,
                        f"K1={system.domain_bound}"),
        ConditionReport("C3 chart residual", eps_res, w_res, True),
        ConditionReport("C4 tangential bound", eps_tan, w_tan, True),
        ConditionReport("C5 right-inverse norm", c2_norm, w_q, True),
        ConditionReport("C6 right-inverse Lipschitz", c6, w6, True),
    )
    return GlueConstants(c1=c1, c2=c2, eps1=eps1, delta1=float(delta1), k1=k1,
                         ordering_ok=bool(ordering_ok), conditions=conditions)


@dataclass(frozen=True)
class CorrectionResult:
    xi: np.ndarray
    residual: float
    iterations: int
    residual_history: tuple[float, ...]
    xi_history: tuple[float, ...]


def correct(
    system: FredholmSystem,
    chart: ApproxChart,
    s,
    tol: float = 1e-10,
    max_iter: int = 50,
    eps1: float | None = None,
) -> CorrectionResult:
    """Fixed-point correction xi <- -t(x) - N_x(Q xi) until |t(x + Q xi)| <= tol.

    Divergence (residual growth over 5 consecutive steps) raises
    NonConvergenceError with the residual history; on success, when eps1 is
    supplied the contract |xi| <= 2 eps1 is verified.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = chart.x(s)
    q = chart.q(s)
    t0 = system.t(x)
    lx = system.jacobian(x)
    xi = np.zeros(system.dim_f)
    residuals: list[float] = []
    norms: list[float] = []
    growth = 0
    for iteration in range(max_iter + 1):
        v = q @ xi
        tv = system.t(x + v)
        residual = float(np.linalg.norm(tv))
        residuals.append(residual)
        norms.append(float(np.linalg.norm(xi)))
        if residual <= tol:
            if eps1 is not None and np.linalg.norm(xi) > 2.0 * eps1 + 1e-12:
                raise NonConvergenceError(
                    f"converged but |xi|={np.linalg.norm(xi):.3e} exceeds "
                    f"2*eps1={2 * eps1:.3e}", residuals)
            return CorrectionResult(xi=xi, residual=residual, iterations=iteration,
                                    residual_history=tuple(residuals),
                                    xi_history=tuple(norms))
        if len(residuals) >= 2 and residuals[-1] > residuals[-2]:
            growth += 1
            if growth >= 5:
                raise NonConvergenceError(
                    f"{system.name}: residual grew for 5 consecutive steps", residuals)
        else:
            growth = 0
        # N_x(v) = t(x+v) - t(x) - L_x v, with t(x+v) from the residual check
        xi = -t0 - (tv - t0 - lx @ v)
    raise NonConvergenceError(
        f"{system.name}: no convergence to {tol:g} in {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})", residuals)


@dataclass(frozen=True)
class ChartMapResult:
    point: np.ndarray
    derivative_norm: float
    within_bound: bool


def _phi(chart: ApproxChart, s: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Phi(s, eta) = x(s) + Q(s) eta."""
    return chart.x(s) + chart.q(s) @ eta


def chart_map(system: FredholmSystem, chart: ApproxChart, s, eta) -> ChartMapResult:
    """Phi(s, eta) = x(s) + Q(s) eta with a finite-difference probe of |D Phi|.

    The derivative is taken with respect to arc length along the chart (the
    parameter block is measured through an orthonormal frame of dx/ds) and eta
    itself; the flag reports whether the operator norm stays within 2.
    """
    s, eta = _as_vec(s), _as_vec(eta)

    def phi(se: np.ndarray) -> np.ndarray:
        return _phi(chart, se[: s.size], se[s.size:])

    packed = np.concatenate([s, eta])
    point = phi(packed)
    jac = fd_jacobian(phi, packed, system.dim_b)
    dx = fd_jacobian(chart.x, s, system.dim_b)
    # reparameterize the s-block to unit speed: dx = T R with T orthonormal
    r_factor = np.linalg.qr(dx, mode="r")
    if abs(np.linalg.det(r_factor)) < 1e-12:
        norm = float(np.linalg.norm(jac, 2))
    else:
        jac_s = jac[:, : s.size] @ np.linalg.inv(r_factor)
        jac_full = np.hstack([jac_s, jac[:, s.size:]])
        norm = float(np.linalg.norm(jac_full, 2))
    return ChartMapResult(point=point, derivative_norm=norm, within_bound=norm <= 2.0)


@dataclass(frozen=True)
class InjectivityReport:
    pairs_checked: int
    collisions: tuple[tuple[float, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.collisions


def injectivity_probe(
    system: FredholmSystem,
    chart: ApproxChart,
    sample_pairs: int = 500,
    delta1: float = 0.1,
    seed: int = 0,
) -> InjectivityReport:
    """Search for distinct chart inputs mapping to nearly the same point.

    A collision is |Phi(a) - Phi(b)| <= 1e-9 while the inputs are more than
    1e-6 apart (inputs within the continuity bound are allowed to collide)."""
    rng = np.random.default_rng(seed)
    collisions: list[tuple[float, ...]] = []
    for _ in range(sample_pairs):
        s1, s2 = chart.sample(rng), chart.sample(rng)
        e1 = rng.uniform(-delta1, delta1, size=system.dim_f)
        e2 = rng.uniform(-delta1, delta1, size=system.dim_f)
        input_gap = float(np.linalg.norm(np.concatenate([s1 - s2, e1 - e2])))
        output_gap = float(np.linalg.norm(_phi(chart, s1, e1) - _phi(chart, s2, e2)))
        if output_gap <= 1e-9 and input_gap > 1e-6:
            collisions.append(tuple(float(v) for v in np.concatenate([s1, e1, s2, e2])))
    return InjectivityReport(pairs_checked=sample_pairs, collisions=tuple(collisions))


def sphere_model(scale: float = 1.0) -> tuple[FredholmSystem, ApproxChart]:
    """t(x) = |x|^2 - 1 on R^3 with a spherical chart of radius `scale`."""
    system = FredholmSystem(
        dim_b=3, dim_f=1,
        evaluate=lambda x: np.array([float(x @ x) - 1.0]),
        derivative=lambda x: 2.0 * x.reshape(1, 3),
        domain_bound=4.0,
        name="sphere",
    )

    def param(s: np.ndarray) -> np.ndarray:
        theta, phi = float(s[0]), float(s[1])
        return scale * np.array([
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ])

    def right_inverse(s: np.ndarray) -> np.ndarray:
        x = param(s)
        return (x / (2.0 * float(x @ x))).reshape(3, 1)

    chart = ApproxChart(
        param=param, right_inverse=right_inverse,
        s_low=np.array([0.4, -3.0]), s_high=np.array([np.pi - 0.4, 3.0]),
        name=f"sphere-chart(scale={scale:g})",
    )
    return system, chart


def node_model(tau: float = 0.25) -> tuple[FredholmSystem, ApproxChart]:
    """Node smoothing t(x, y) = x y - tau with the exact hyperbola chart."""
    system = FredholmSystem(
        dim_b=2, dim_f=1,
        evaluate=lambda x: np.array([x[0] * x[1] - tau]),
        derivative=lambda x: np.array([[x[1], x[0]]]),
        domain_bound=8.0,
        name=f"node(tau={tau:g})",
    )

    def param(s: np.ndarray) -> np.ndarray:
        if tau == 0.0:
            return np.array([np.exp(float(s[0])), 0.0])
        a = np.sqrt(abs(tau)) * np.exp(float(s[0]))
        return np.array([a, tau / a])

    def right_inverse(s: np.ndarray) -> np.ndarray:
        x = param(s)
        grad = np.array([x[1], x[0]])
        return (grad / float(grad @ grad)).reshape(2, 1)

    chart = ApproxChart(
        param=param, right_inverse=right_inverse,
        s_low=np.array([-1.0]), s_high=np.array([1.0]),
        name=f"node-chart(tau={tau:g})",
    )
    return system, chart


def linear_model() -> tuple[FredholmSystem, ApproxChart]:
    """A well-conditioned random affine system t(x) = A x - b on R^4 -> R^2 (seed 7)."""
    rng = np.random.default_rng(7)
    n, f = 4, 2
    a = rng.normal(size=(f, n)) + np.hstack([np.eye(f), np.zeros((f, n - f))])
    b = rng.normal(size=f)
    pseudo = a.T @ np.linalg.inv(a @ a.T)
    x0 = pseudo @ b
    _, _, vt = np.linalg.svd(a)
    null_basis = vt[f:].T  # n x (n-f), orthonormal columns

    system = FredholmSystem(
        dim_b=n, dim_f=f,
        evaluate=lambda x: a @ x - b,
        derivative=lambda x: a,
        domain_bound=16.0,
        name="linear",
    )
    chart = ApproxChart(
        param=lambda s: x0 + null_basis @ s,
        right_inverse=lambda s: pseudo,
        s_low=-np.ones(n - f), s_high=np.ones(n - f),
        name="linear-chart",
    )
    return system, chart


def builtin_models() -> list[tuple[FredholmSystem, ApproxChart]]:
    """The shipped sandbox models: sphere, node smoothing, and a linear system."""
    return [sphere_model(), node_model(0.25), linear_model()]
