import dataclasses

import numpy as np
import pytest

from orbidegen.errors import ResourceLimitError
from orbidegen.glue import (
    MAX_SAMPLES,
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

MODELS = {"sphere": sphere_model, "node": node_model, "linear": linear_model}


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

    def test_sample_count_cap_before_any_work(self):
        system, chart = sphere_model()
        evaluated = []
        counted = dataclasses.replace(chart, param=lambda s: evaluated.append(s) or chart.param(s))
        with pytest.raises(ResourceLimitError, match=str(MAX_SAMPLES)):
            estimate_constants(system, counted, MAX_SAMPLES + 1)
        assert evaluated == []

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("samples", [10, 200])
    def test_callbacks_once_per_sample(self, model, samples):
        system, chart = MODELS[model]()
        calls = {"evaluate": 0, "derivative": 0, "right_inverse": 0}

        def counting(name, func):
            def wrapper(arg):
                calls[name] += 1
                return func(arg)
            return wrapper

        counted_system = dataclasses.replace(
            system, evaluate=counting("evaluate", system.evaluate),
            derivative=counting("derivative", system.derivative))
        counted_chart = dataclasses.replace(
            chart, right_inverse=counting("right_inverse", chart.right_inverse))
        estimate_constants(counted_system, counted_chart, samples)
        # t once per sample and twice per remainder probe (at most 100 probes)
        assert calls == {"evaluate": samples + 2 * min(samples, 100),
                         "derivative": samples, "right_inverse": samples}

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

    def test_correction_beyond_twice_eps1_raises(self):
        # the radial correction has |xi| = 0.105, far above 2 * 1e-6
        system, chart = sphere_model(1.05)
        with pytest.raises(NonConvergenceError,
                           match=r"^converged but \|xi\|=1\.050e-01 exceeds 2\*eps1=2\.000e-06$"):
            correct(system, chart, np.array([0.9, -0.4]), eps1=1e-6)

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

    def test_five_growing_steps_raise(self):
        # at scale 0.3 the residual grows from the first step: 0.91, 2.30, 3.07, ...
        system, chart = sphere_model(0.3)
        with pytest.raises(NonConvergenceError,
                           match="^sphere: residual grew for 5 consecutive steps$") as err:
            correct(system, chart, np.array([1.0, 0.5]))
        assert len(err.value.residuals) == 6

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

    def test_constant_chart_takes_the_plain_norm(self):
        # dx/ds = 0 has no orthonormal frame, so |D Phi| is the norm of (0 | Q)
        system = FredholmSystem(dim_b=2, dim_f=1, evaluate=lambda x: np.array([x[1]]),
                                derivative=lambda x: np.array([[0.0, 1.0]]), name="flat")
        chart = ApproxChart(param=lambda s: np.zeros(2),
                            right_inverse=lambda s: np.array([[0.0], [1.0]]), name="point")
        result = chart_map(system, chart, np.array([0.3]), np.array([0.2]))
        assert np.allclose(result.point, [0.0, 0.2])
        assert result.derivative_norm == pytest.approx(1.0) and result.within_bound


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
            param=param,
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

    def test_finite_difference_path_matches_the_analytic_jacobian(self):
        system, chart = sphere_model()
        numeric = dataclasses.replace(system, derivative=None)
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = chart.x(chart.sample(rng)) + rng.normal(size=system.dim_b) * 0.1
            assert np.max(np.abs(numeric.jacobian(x) - system.jacobian(x))) <= 1e-9

    def test_builtin_models_all_have_analytic_jacobians(self):
        models = builtin_models()
        assert len(models) == 3
        for system, chart in models:
            assert system.derivative is not None
            assert chart.check_right_inverse(system, chart.sample(
                np.random.default_rng(0))) <= 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_chart_caught(self):
        system, chart = sphere_model(0.0)
        s = np.array([1.0, 0.5])
        assert np.all(chart.x(s) == 0.0)
        with pytest.raises(FloatingPointError, match=r"sphere-chart\(scale=0\): Q\(s\)"):
            chart.q(s)
        broken = dataclasses.replace(chart, param=lambda s: np.array([np.inf, 0.0, 0.0]))
        with pytest.raises(FloatingPointError, match=r"x\(s\) is non-finite"):
            broken.x(s)

    def test_non_finite_evaluation_caught(self):
        system = FredholmSystem(dim_b=1, dim_f=1,
                                evaluate=lambda x: np.array([np.nan]),
                                name="nan")
        with pytest.raises(FloatingPointError, match="nan"):
            system.t(np.array([0.0]))

    def test_non_finite_jacobian_caught(self):
        system = FredholmSystem(dim_b=1, dim_f=1, evaluate=lambda x: x,
                                derivative=lambda x: np.array([[np.inf]]), name="steep")
        with pytest.raises(FloatingPointError, match=r"^steep: Jacobian is non-finite"):
            system.jacobian(np.array([0.0]))

    def test_non_finite_constant_caught(self):
        system, chart = node_model(tau=1e300)
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=r"node\(tau=1e\+300\): constant C1 is non-finite"):
            estimate_constants(system, chart, 10)


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


# Recorded with the estimator that ran one loop per condition; the one-pass
# estimator must reproduce them.
# (model, seed, samples): ((C1, C2, eps1), (delta1, K1), ordering_ok,
#                          (estimate, witness) of B1, B2, B3, C1, C3, C4, C5, C6)
REFERENCE = {
    ('sphere', 0, 10): (
        (2.0000000000000004, 0.5000000000000001, 3.24805402084093e-11),
        (4.029921848399129e-06, 1.0), True, (
            (1.3676360138022823e-15, (-0.7295334604474594, -0.6307334302857726)),
            (2.0000000000000004, (0.17877890808840485, -0.4621364360552643)),
            (0.5454560304929066, (0.17877890808840485,)),
            (1.0, (1.0,)),
            (2.220446049250313e-16, (2.304347617494572, 2.47653346366633)),
            (3.24805402084093e-11, (2.421213423308049, 0.24876732149455005)),
            (0.5000000000000001, (1.8915048076500764, -1.3812797174167781)),
            (0.5000000000000001, (1.8915048076500764, -1.3812797174167781)),
        )),
    ('sphere', 0, 200): (
        (2.0000000000000004, 0.5000000000000002, 6.526034973662975e-11),
        (5.712282807102156e-06, 1.0), True, (
            (1.3676360138022823e-15, (-0.7295334604474594, -0.6307334302857726)),
            (2.0000000000000004, (0.17877890808840485, -0.4621364360552643)),
            (0.9410817140498554, (0.5932880713284616,)),
            (1.0, (1.0,)),
            (3.3306690738754696e-16, (1.6301658220408028, -1.138548746646266)),
            (6.526034973662975e-11, (0.9208952378194704, 0.3464854957278387)),
            (0.5000000000000001, (1.8915048076500764, -1.3812797174167781)),
            (0.5000000000000002, (1.7382900529442264, -1.0687836535443471)),
        )),
    ('sphere', 1, 10): (
        (2.0, 0.5000000000000001, 4.5442243356405775e-11),
        (4.7666677751027385e-06, 1.0), True, (
            (7.302355749428571e-16, (0.8610424514423628, 0.5472112050576624)),
            (2.0, (-0.9049108784455198, -0.6056272702588188)),
            (0.9739147613371265, (-0.9468398725010344,)),
            (1.0, (1.0,)),
            (2.220446049250313e-16, (1.1301822371859909, -0.4600413061645461)),
            (4.5442243356405775e-11, (2.164420759656535, 0.2288598793156691)),
            (0.5000000000000001, (0.7138710535486682, -0.5813220813172246)),
            (0.5000000000000001, (0.7138710535486682, -0.5813220813172246)),
        )),
    ('sphere', 1, 200): (
        (2.0000000000000004, 0.5000000000000002, 8.230085171617673e-11),
        (6.414859769167864e-06, 1.0), True, (
            (9.354219938747768e-16, (0.99102839214874, 0.9685194429233803)),
            (2.0000000000000004, (0.22899291634045976, -0.6645451169468491)),
            (0.876217752544624, (0.5948236376038301,)),
            (1.0, (1.0,)),
            (3.3306690738754696e-16, (1.6084224086673884, -2.3048063251753783)),
            (8.230085171617673e-11, (1.4499615038578209, -0.7938025818599606)),
            (0.5000000000000001, (0.7138710535486682, -0.5813220813172246)),
            (0.5000000000000002, (1.9999795993913265, 1.7225816493288058)),
        )),
    ('node', 0, 10): (
        (1.0000000000000002, 1.6473648195794683, 9.891451234765923e-12),
        (4.036685370293216e-06, 1.328621807376762), True, (
            (4.373510992619558e-16, (0.19964786630899692, 0.19012150532544123)),
            (1.0000000000000002, (0.9355630839289738, 1.1415237286160091)),
            (0.43739419072246816, (0.3155072073544356,)),
            (1.328621807376762, (1.328621807376762,)),
            (2.7755575615628914e-17, (-0.9669447289429418,)),
            (9.891451234765923e-12, (0.2739233746429086,)),
            (1.4035424384690924, (0.08724998293084574,)),
            (1.6473648195794683, (0.4589931219679968,)),
        )),
    ('node', 0, 200): (
        (1.0000000000000002, 1.993100857446293, 3.1503044092325306e-11),
        (7.923934893257385e-06, 1.3643115444482086), True, (
            (6.148995003292226e-16, (0.49742932658769995, 0.5301884019810741)),
            (1.0000000000000002, (0.9355630839289738, 1.1415237286160091)),
            (0.49154046467740214, (0.9355630839289738,)),
            (1.3643115444482086, (1.3643115444482086,)),
            (2.7755575615628914e-17, (-0.9669447289429418,)),
            (3.1503044092325306e-11, (-0.00020837262470596585,)),
            (1.4142135009691463, (-0.00020837262470596585,)),
            (1.993100857446293, (-0.005154609024762058,)),
        )),
    ('node', 1, 10): (
        (1.0000000000000002, 1.917638098726575, 1.7322522464207456e-11),
        (5.7635344228529746e-06, 1.3008565669503986), True, (
            (0.0, (0.0,)),
            (1.0000000000000002, (0.24540927423011547, 1.2264842138178054)),
            (0.318709425430627, (0.4169667036132208,)),
            (1.3008565669503986, (1.3008565669503986,)),
            (0.0, (0.0,)),
            (1.7322522464207456e-11, (-0.18160172726167745,)),
            (1.4134235275986393, (0.023643249400513433,)),
            (1.917638098726575, (-0.18160172726167745,)),
        )),
    ('node', 1, 200): (
        (1.0000000000000002, 1.9983312531529147, 2.5052420447418085e-11),
        (7.075523637668288e-06, 1.3689580453341708), True, (
            (1.5904112300119984e-14, (0.34476943512348196, 0.34402138325347265)),
            (1.0000000000000002, (0.24540927423011547, 1.2264842138178054)),
            (0.4973972503332565, (1.1560743198458145,)),
            (1.3689580453341708, (1.3689580453341708,)),
            (2.7755575615628914e-17, (0.5768574068568086,)),
            (2.5052420447418085e-11, (-0.023101545828952297,)),
            (1.414212843710521, (0.0007128614737419436,)),
            (1.9983312531529147, (0.01899176304301875,)),
        )),
    ('linear', 0, 10): (
        (1.1399696325349177e-15, 1.766848464616362, 7.97643992954071e-11),
        (1.1871461848741985e-05, 1.926029002883321), True, (
            (1.0726908503884658e-15, (-1.2036267380436594, -1.1585541684279486)),
            (0.0, (0.0,)),
            (1.1399696325349177e-15, (-1.555371868156359,)),
            (1.926029002883321, (1.926029002883321,)),
            (6.206335383118183e-16, (-0.9180529521276106, -0.9669447289429418)),
            (7.97643992954071e-11, (-0.9180529521276106, -0.9669447289429418)),
            (1.766848464616362, (0.2739233746429086, -0.4604265724722594)),
            (0.0, (0.0,)),
        )),
    ('linear', 0, 200): (
        (6.7929613533755275e-15, 1.766848464616362, 1.208199106895203e-10),
        (1.4610628791974181e-05, 1.9609859156203067), True, (
            (2.8184742060715506e-15, (-1.0533189737845066, -1.0293346265195278)),
            (0.0, (0.0,)),
            (6.7929613533755275e-15, (-0.7617627404737333,)),
            (1.9609859156203067, (1.9609859156203067,)),
            (6.206335383118183e-16, (-0.9180529521276106, -0.9669447289429418)),
            (1.208199106895203e-10, (0.1886000603993936, -0.3241775489857335)),
            (1.766848464616362, (0.2739233746429086, -0.4604265724722594)),
            (0.0, (0.0,)),
        )),
    ('linear', 1, 10): (
        (1.5372817133116305e-15, 1.766848464616362, 8.549567011211805e-11),
        (1.2290561153541475e-05, 1.8009495325390277), True, (
            (1.0001850870166297e-15, (-1.190952513419473, -1.2752573027745777)),
            (0.0, (0.0,)),
            (1.5372817133116305e-15, (-0.8607819352068209,)),
            (1.8009495325390277, (1.8009495325390277,)),
            (5.79553433516819e-16, (-0.7116807745607325, 0.8972988942744877)),
            (8.549567011211805e-11, (-0.7319166055056705, -0.19377402710574154)),
            (1.766848464616362, (0.023643249400513433, 0.9009273926518706)),
            (0.0, (0.0,)),
        )),
    ('linear', 1, 200): (
        (6.507274612009085e-15, 1.766848464616362, 9.783165594211731e-11),
        (1.3147384192005883e-05, 1.9638945901864866), True, (
            (6.507274612009085e-15, (-0.923398713688995, -0.9147150931104003)),
            (0.0, (0.0,)),
            (1.3031803146017055e-15, (-0.9627492207029595,)),
            (1.9638945901864866, (1.9638945901864866,)),
            (6.77599954797753e-16, (-0.8495777763711911, 0.9257291568864556)),
            (9.783165594211731e-11, (-0.011988489342716013, 0.044440055901616926)),
            (1.766848464616362, (0.023643249400513433, 0.9009273926518706)),
            (0.0, (0.0,)),
        )),
}


def close(a: float, b: float) -> bool:
    """The tolerance the benchmark applies to glue output floats."""
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-12


class TestReferenceValues:
    @pytest.mark.parametrize("key", sorted(REFERENCE), ids=lambda k: "-".join(map(str, k)))
    def test_constants_and_witnesses(self, key):
        model, seed, samples = key
        system, chart = MODELS[model]()
        const = estimate_constants(system, chart, samples, seed=seed)
        head, tail, ordering_ok, conditions = REFERENCE[key]
        got = (const.c1, const.c2, const.eps1, const.delta1, const.k1)
        assert all(close(a, b) for a, b in zip(got, head + tail))
        assert const.ordering_ok is ordering_ok
        assert len(const.conditions) == len(conditions)
        for report, (estimate, witness) in zip(const.conditions, conditions):
            assert close(report.estimate, estimate), report.name
            # a round-off-level supremum may fall on another sample on
            # another LAPACK build; witnesses of real bounds must not move
            if estimate >= 1e-6:
                assert len(report.witness) == len(witness), report.name
                assert all(close(a, b) for a, b in zip(report.witness, witness)), report.name
