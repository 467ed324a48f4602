import dataclasses

import numpy as np
import pytest

from orbidegen.glue import (
    ApproxChart,
    FredholmSystem,
    NonConvergenceError,
    builtin_models,
    chart_map,
    correct,
    estimate_constants,
    fd_jacobian,
    injectivity_probe,
    linear_model,
    node_model,
    sphere_model,
)


class TestEstimateConstants:
    def test_exact_sphere_chart_eps_zero(self):
        system, chart = sphere_model(1.0)
        const = estimate_constants(system, chart, 100)
        assert const.eps1 < 1e-8

    def test_scaled_chart_eps(self):
        system, chart = sphere_model(1.05)
        const = estimate_constants(system, chart, 200)
        assert abs(const.eps1 - 0.1025) < 1e-9

    def test_linear_system_zero_remainder(self):
        system, chart = linear_model()
        const = estimate_constants(system, chart, 100)
        b3 = next(c for c in const.conditions if c.name.startswith("B3"))
        assert b3.estimate < 1e-10

    def test_conditions_reported_with_witnesses(self):
        system, chart = sphere_model(1.05)
        const = estimate_constants(system, chart, 50)
        names = {c.name.split()[0] for c in const.conditions}
        assert {"B1", "B2", "B3", "C1", "C3", "C4", "C5", "C6"} <= names

    def test_sample_count_floor(self):
        system, chart = sphere_model()
        with pytest.raises(ValueError):
            estimate_constants(system, chart, 5)

    def test_b3_stable_across_sample_sizes(self):
        system, chart = sphere_model(1.0)
        small = estimate_constants(system, chart, 100, seed=1)
        large = estimate_constants(system, chart, 1000, seed=2)
        b3_small = next(c for c in small.conditions if c.name.startswith("B3")).estimate
        b3_large = next(c for c in large.conditions if c.name.startswith("B3")).estimate
        # the sphere remainder is exactly quadratic: quotient is constant 1
        assert b3_small > 0 and b3_large > 0
        assert max(b3_small, b3_large) / min(b3_small, b3_large) < 2.0


class TestCorrect:
    def test_exact_chart_zero_correction(self):
        system, chart = sphere_model(1.0)
        result = correct(system, chart, np.array([1.0, 0.5]))
        assert abs(result.residual) < 1e-12
        assert np.linalg.norm(result.xi) < 1e-10

    def test_scaled_sphere_closed_form(self):
        # radial solve: xi = 2 |x| (1 - |x|) = -0.105 at |x| = 1.05
        system, chart = sphere_model(1.05)
        const = estimate_constants(system, chart, 200)
        result = correct(system, chart, np.array([0.9, -0.4]), tol=1e-10,
                         max_iter=50, eps1=const.eps1)
        assert result.iterations <= 50
        assert result.residual <= 1e-10
        assert abs(np.linalg.norm(result.xi) - 0.105) <= 1e-9
        assert 0.105 <= 2 * const.eps1

    def test_node_point_on_hyperbola(self):
        system, chart = node_model(0.25)
        result = correct(system, chart, np.array([0.4]))
        assert result.residual < 1e-12 and np.linalg.norm(result.xi) < 1e-12

    def test_residuals_monotone_after_first_step(self):
        system, chart = sphere_model(1.05)
        result = correct(system, chart, np.array([1.2, 0.3]))
        history = result.residual_history
        assert all(history[i + 1] < history[i] for i in range(1, len(history) - 1))

    def test_divergence_raises_with_history(self):
        # chart far outside the contraction basin: radius 3 sphere chart
        system, chart = sphere_model(3.0)
        with pytest.raises(NonConvergenceError) as err:
            correct(system, chart, np.array([1.0, 0.5]), tol=1e-12, max_iter=50)
        assert len(err.value.residuals) >= 2

    def test_jacobian_once_per_call(self):
        system, chart = sphere_model(1.05)
        calls = []

        def derivative(x):
            calls.append(x)
            return system.derivative(x)

        counted = dataclasses.replace(system, derivative=derivative)
        result = correct(counted, chart, np.array([1.2, 0.3]))
        assert result.iterations > 1 and len(calls) == 1
        # the iterates are those of xi <- -t(x) - N_x(Q xi), bit for bit
        x, q = chart.x(np.array([1.2, 0.3])), chart.q(np.array([1.2, 0.3]))
        xi = np.zeros(system.dim_f)
        for residual in result.residual_history:
            assert float(np.linalg.norm(system.t(x + q @ xi))) == residual
            xi = -system.t(x) - system.quadratic_remainder(x, q @ xi)

    def test_bad_tol_rejected(self):
        system, chart = sphere_model()
        with pytest.raises(ValueError):
            correct(system, chart, np.array([1.0, 0.5]), tol=0.0)


class TestChartMap:
    def test_eta_zero_is_chart_point(self):
        system, chart = sphere_model(1.0)
        s = np.array([1.1, 0.2])
        result = chart_map(system, chart, s, np.array([0.0]))
        assert np.allclose(result.point, chart.x(s))

    def test_sphere_derivative_bound(self):
        system, chart = sphere_model(1.0)
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = chart.sample(rng)
            eta = rng.uniform(-0.1, 0.1, size=1)
            result = chart_map(system, chart, s, eta)
            assert result.derivative_norm <= 2.0 and result.within_bound

    def test_node_derivative_bound(self):
        system, chart = node_model(0.25)
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = chart.sample(rng)
            eta = rng.uniform(-0.1, 0.1, size=1)
            assert chart_map(system, chart, s, eta).derivative_norm <= 2.0

    def test_linear_constant_in_eta(self):
        system, chart = linear_model()
        s = np.array([0.3, -0.2])
        norms = [chart_map(system, chart, s, np.array([a, b])).derivative_norm
                 for a, b in [(0.0, 0.0), (0.05, -0.02), (-0.04, 0.01)]]
        assert max(norms) - min(norms) < 1e-6


class TestInjectivity:
    def test_exact_sphere_no_collisions(self):
        system, chart = sphere_model(1.0)
        report = injectivity_probe(system, chart, 500, delta1=0.1)
        assert report.ok and report.pairs_checked == 500

    def test_degenerate_chart_collides(self):
        # Q has a zero column: eta moves nothing, so distinct inputs collide
        def param(s):
            return np.array([s[0], 0.0])

        system = FredholmSystem(
            dim_b=2, dim_f=1,
            evaluate=lambda x: np.array([x[1]]),
            derivative=lambda x: np.array([[0.0, 1.0]]),
            name="degenerate")
        chart = ApproxChart(
            dim=1, param=param,
            right_inverse=lambda s: np.zeros((2, 1)),
            s_low=np.array([0.0]), s_high=np.array([0.0]),
            name="zero-q")
        report = injectivity_probe(system, chart, 400, delta1=0.5, seed=5)
        assert not report.ok

    def test_node_family_over_smoothing_values(self):
        for tau in (0.1, 0.01):
            system, chart = node_model(tau)
            report = injectivity_probe(system, chart, 300, delta1=0.02)
            assert report.ok


class TestJacobians:
    @pytest.mark.parametrize("factory", [sphere_model, lambda: node_model(0.25),
                                         linear_model])
    def test_fd_matches_analytic(self, factory):
        system, chart = factory()
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = chart.sample(rng)
            x = chart.x(s) + rng.normal(size=system.dim_b) * 0.1
            analytic = system.jacobian(x)
            numeric = fd_jacobian(system.t, x, system.dim_f)
            assert np.all(np.abs(numeric - analytic) <= 1e-5 * (1.0 + np.abs(analytic)))

    def test_builtin_models_all_have_analytic_jacobians(self):
        models = builtin_models()
        assert len(models) == 3
        for system, chart in models:
            assert system.derivative is not None
            assert chart.check_right_inverse(system, chart.sample(
                np.random.default_rng(0))) <= 1e-8

    def test_non_finite_evaluation_caught(self):
        system = FredholmSystem(dim_b=1, dim_f=1,
                                evaluate=lambda x: np.array([np.nan]),
                                name="nan")
        with pytest.raises(FloatingPointError, match="nan"):
            system.t(np.array([0.0]))


class TestBuiltinModels:
    def test_sphere_solution_set(self):
        system, chart = sphere_model(1.0)
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = chart.x(chart.sample(rng))
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12

    def test_node_tau_zero_axis_chart(self):
        system, chart = node_model(0.0)
        x = chart.x(np.array([0.3]))
        assert abs(system.t(x)[0]) < 1e-15 and x[1] == 0.0

    def test_node_smooth_hyperbola(self):
        system, chart = node_model(0.25)
        x = chart.x(np.array([0.7]))
        assert abs(x[0] * x[1] - 0.25) < 1e-12
