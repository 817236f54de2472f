import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencildae import (CircuitParams, PencilIndex, build_circuit_dae,
                       circuit_consistency_check, classify_index, get_preset,
                       projectors_algebraic)
from pencildae.model_library import (PRESET_IDS, UNIT_SCALE, neg_square, odd_power,
                                     polynomial, power_decay, sawtooth, sine, square,
                                     sinusoidal, triangular)

from conftest import constraint_residual, derivative_gap, exponential, gaussian


class TestNonlinearities:
    def test_odd_power_cubic(self):
        cubic = odd_power(1.0, 3)
        assert cubic.value(2.0) == 8.0
        assert cubic.derivative(2.0) == 12.0

    def test_odd_power_scaled_exponent(self):
        nl = odd_power(0.5, 5)
        assert nl.value(2.0) == pytest.approx(16.0)
        assert nl.derivative(2.0) == pytest.approx(40.0)

    def test_odd_power_rejects_even_or_nonpositive(self):
        with pytest.raises(ValueError):
            odd_power(1.0, 2)
        with pytest.raises(ValueError):
            odd_power(-1.0, 3)
        for alpha in (math.nan, math.inf, -math.inf, True, 0):
            with pytest.raises(ValueError, match="^alpha must be positive and finite$"):
                odd_power(alpha, 3)

    def test_odd_power_rejects_fractional_exponents(self):
        # 3.5 % 2 == 1.5 passed the odd test, and (-2.0) ** 3.5 is complex; a
        # float exponent, 3.0 too, is refused as every count refuses it
        for exponent in (3.5, 1.5, 2.0, 3.0, math.nan, math.inf, True, 2.5, 10**400, 0):
            with pytest.raises(ValueError, match="^exponent must be an integer in \\[1, "):
                odd_power(1.0, exponent)
        with pytest.raises(ValueError, match="^exponent must be odd$"):
            odd_power(1.0, 4)
        assert odd_power(1.0, 3).value(-2.0) == -8.0

    def test_sine_and_squares(self):
        assert sine(2.0).value(math.pi / 2) == pytest.approx(2.0)
        assert sine(2.0).derivative(0.0) == pytest.approx(2.0)
        assert neg_square().value(3.0) == -9.0
        assert neg_square().derivative(3.0) == -6.0
        assert square().value(-3.0) == 9.0
        assert square().derivative(-3.0) == -6.0

    # (nonlinearity, max |second derivative| on the probe box [-2, 2])
    @pytest.mark.parametrize("nl,curvature", [
        (odd_power(1.0, 3), 12.0), (odd_power(0.3, 5), 48.0), (sine(1.0), 1.0),
        (sine(0.25), 0.25), (neg_square(), 2.0), (square(), 2.0),
    ])
    def test_derivative_consistent_with_value(self, nl, curvature):
        rng = np.random.default_rng(17)
        probes = rng.uniform(-2.0, 2.0, size=100)
        step = 1e-7
        assert derivative_gap(nl, probes, step=step) <= max(10 * step * curvature, 1e-8)


class TestWaveforms:
    def test_triangular_peak_and_period(self):
        w = triangular()
        assert w.value(50.0) == 50.0
        assert w.value(0.0) == 0.0
        assert w.value(150.0) == 50.0
        assert not w.smooth

    def test_sawtooth_segments(self):
        w = sawtooth()
        assert w.value(4.0) == 4.0
        assert w.value(5.0) == 0.0   # 20*(k+1) - 4t at k=0, t=5
        assert w.value(4.5) == pytest.approx(2.0)
        assert not w.smooth

    def test_sinusoidal(self):
        w = sinusoidal(beta=2.0, omega=1.0, theta=0.0)
        assert w.value(math.pi / 2) == pytest.approx(2.0)

    def test_power_decay_matches_printed_form(self):
        # 0.25*(t + 5)^-2 is exactly (2t + 10)^-2
        w = power_decay(0.25, 5.0, 2)
        for t in (0.0, 0.37, 12.0, 99.0):
            assert w.value(t) == pytest.approx((2 * t + 10.0) ** -2, rel=1e-15)

    def test_polynomial_exponential_gaussian(self):
        assert polynomial(1.0, 0.0, 2).value(3.0) == 9.0
        assert exponential(2.0, 0.5).value(0.0) == 2.0
        assert gaussian(1.0, 2.0, 1.0).value(2.0) == 1.0

    def test_periodic_drives_extend_to_negative_time(self):
        assert triangular().value(-10.0) == 10.0
        assert sawtooth().value(-1.0) == 4.0
        # so a circuit driven by them sees the drive one period later
        dae = get_preset("sec6_triangular").dae
        x = np.array([0.1, -0.2, 0.3])
        np.testing.assert_array_equal(dae.f(-10.0, x), dae.f(90.0, x))

    def test_power_decay_validation(self):
        with pytest.raises(ValueError):
            power_decay(1.0, 0.0, 2)
        for alpha in (math.nan, math.inf, -math.inf, True, 0):
            with pytest.raises(ValueError, match="^alpha must be positive and finite$"):
                power_decay(1.0, alpha, 2)
        # every count's rule: an integer from 1, not a bool or a float (NaN
        # would make a NaN drive)
        for n in (0, -1, 1.5, math.nan, math.inf, True, 2.5, 2.0, 10**400):
            for build in (lambda: power_decay(1.0, 1.0, n), lambda: polynomial(n=n)):
                with pytest.raises(ValueError, match="^n must be an integer in \\[1, "):
                    build()
        assert power_decay(1.0, 1.0, 2).value(1.0) == 0.25
        assert polynomial(n=2).value(3.0) == 9.0

    @pytest.mark.parametrize("build, name", [
        (lambda v: sine(v), "alpha"),
        (lambda v: sinusoidal(beta=v), "beta"),
        (lambda v: sinusoidal(omega=v), "omega"),
        (lambda v: sinusoidal(theta=v), "theta"),
        (lambda v: power_decay(v, 1.0), "beta"),
        (lambda v: polynomial(beta=v), "beta"),
        (lambda v: polynomial(alpha=v), "alpha"),
    ])
    def test_non_finite_parameters_are_refused(self, build, name):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                build(value)
        build(-0.5)  # any finite value is accepted

    # dyadic times make t + period exact in binary floating point, so the
    # periodicity assertion can be exact equality, for t < 0 too
    @given(st.integers(min_value=-1024 * 1000, max_value=1024 * 1000))
    @settings(max_examples=300, deadline=None)
    def test_triangular_exact_periodicity(self, k):
        t = k / 1024.0
        w = triangular()
        assert w.value(t + 100.0) == w.value(t)

    @given(st.integers(min_value=-1024 * 1000, max_value=1024 * 1000))
    @settings(max_examples=300, deadline=None)
    def test_sawtooth_exact_periodicity(self, k):
        t = k / 1024.0
        w = sawtooth()
        assert w.value(t + 5.0) == w.value(t)

    def test_periodicity_on_thousand_points(self):
        rng = np.random.default_rng(31)
        tri, saw = triangular(), sawtooth()
        for _ in range(1000):
            t = float(rng.integers(0, 1 << 20)) / 1024.0
            assert tri.value(t + 100.0) == tri.value(t)
            assert saw.value(t + 5.0) == saw.value(t)


class TestCircuitModel:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            CircuitParams(0.0, 5e-7, 2.0, 0.2)
        with pytest.raises(ValueError):
            CircuitParams(5e-4, 5e-7, 2.0, -0.1)
        # NaN and inf pass a "<= 0" test; refused here, not later as a non-finite pencil
        for value in (math.nan, math.inf, -math.inf, True, 0):
            with pytest.raises(ValueError, match="^l_ind must be positive and finite$"):
                CircuitParams(value, 5e-7, 2.0, 0.2)
            with pytest.raises(ValueError, match="^g_cond must be positive and finite$"):
                CircuitParams(5e-4, 5e-7, 2.0, value)

    def test_unit_rescaling(self, sec5_preset):
        a = sec5_preset.dae.pencil.a
        np.testing.assert_allclose(np.diag(a), [5e-4 * UNIT_SCALE, 5e-7 * UNIT_SCALE, 0.0])

    def test_pencil_always_index1_with_closed_forms(self):
        rng = np.random.default_rng(9)
        cubic = odd_power(1.0, 3)
        for _ in range(5):
            params = CircuitParams(*rng.uniform(0.1, 10.0, size=4))
            dae = build_circuit_dae(params, cubic, cubic, cubic, cubic, sinusoidal())
            assert classify_index(dae.pencil) is PencilIndex.INDEX1
            decomp = projectors_algebraic(dae.pencil)
            r = params.r_res
            p2 = np.array([[0, 0, 0], [0, 0, 0], [0, 1 / r, 1.0]])
            q2 = np.array([[0, 0, 1.0], [0, 0, -1 / r], [0, 0, 1.0]])
            assert np.abs(decomp.p2 - p2).max() <= 1e-10
            assert np.abs(decomp.q2 - q2).max() <= 1e-10
            det_expected = (params.l_ind * UNIT_SCALE) * (params.c_cap * UNIT_SCALE) * r
            assert np.linalg.det(decomp.g) == pytest.approx(det_expected, rel=1e-10)

    def test_consistency_check_examples(self):
        cubic = odd_power(1.0, 3)
        params = CircuitParams(5e-4, 5e-7, 2.0, 0.2)
        ok, res = circuit_consistency_check(params, cubic, cubic, (0.0, 0.0, 0.0))
        assert ok and res == 0.0
        ok, res = circuit_consistency_check(params, sine(), sine(), (10.0, -10.0, 5.0))
        assert ok and abs(res) < 1e-14
        ok, res = circuit_consistency_check(params, cubic, cubic, (0.0, 1.0, 0.0))
        assert not ok and res == pytest.approx(1.0)

    def test_scalar_check_agrees_with_projector_residual(self, sec5_preset, sec5_decomp):
        cubic = odd_power(1.0, 3)
        params = CircuitParams(5e-4, 5e-7, 2.0, 0.2)
        rng = np.random.default_rng(123)
        tol = 1e-10
        for _ in range(1000):
            x0 = rng.uniform(-3.0, 3.0, size=3)
            ok_scalar, _ = circuit_consistency_check(params, cubic, cubic, x0)
            _, norm = constraint_residual(sec5_preset.dae, sec5_decomp, 0.0, x0)
            # both tests describe the same manifold: the residual norm is the
            # scalar residual times ||(1, -1/r, 1)||
            ok_projector = norm <= tol * math.sqrt(2.25) * (1 + abs(x0[1]) + 2 * abs(x0[2]))
            assert ok_scalar == ok_projector

    def test_jacobian_assembly(self, sec5_preset):
        jac = sec5_preset.dae.jac_f(0.0, np.array([1.0, 2.0, -1.0]))
        dpsi = 3 * (1.0 - (-1.0)) ** 2
        expected = np.array([[-3.0, 0.0, -3.0],
                             [0.0, -12.0, 0.0],
                             [dpsi, 0.0, -dpsi - 3.0]])
        np.testing.assert_allclose(jac, expected)


class TestPresets:
    @pytest.mark.parametrize("preset_id", PRESET_IDS)
    def test_all_presets_build_and_decompose(self, preset_id):
        preset = get_preset(preset_id)
        decomp = projectors_algebraic(preset.dae.pencil)
        assert decomp.index in (PencilIndex.INDEX0, PencilIndex.INDEX1)
        # the default initial state is consistent
        _, norm = constraint_residual(preset.dae, decomp, 0.0, preset.x0)
        assert norm <= 1e-10 * (1.0 + np.linalg.norm(preset.x0))

    # the errors each preset's math raises at the points below: a cube overflows near
    # 1e103, and math.sin of an infinite drive time or state entry is a domain error
    MATH_ERRORS = dict.fromkeys(("sec5_cubic", "sec5_r4_g01", "sec6_sine_powerdecay",
                                 "sec6_blowup"), {OverflowError, ValueError}) | dict.fromkeys(
        ("sec6_polynomial", "sec6_triangular", "sec6_sawtooth"), {OverflowError}) | dict.fromkeys(
        ("linear_index0", "toy_index1"), {ValueError})

    @pytest.mark.parametrize("preset_id", PRESET_IDS)
    def test_the_ndarray_model_is_its_float_model_bit_for_bit(self, preset_id):
        # f and jac_f are the ndarray form of the preset's math on floats: the same values,
        # or the same exception type and message where the math fails
        dae = get_preset(preset_id).dae
        n, rng = dae.n, np.random.default_rng(17)
        points = [*zip(rng.uniform(-10.0, 110.0, 64).tolist(), rng.uniform(-4.0, 4.0, (64, n))),
                  (0.5, np.full(n, 1e103)), (math.inf, np.full(n, 0.5)),
                  (0.5, np.array([0.5] * (n - 1) + [math.inf]))]
        raised = set()
        for t, x in points:
            for ndarray_form, float_form, shape in ((dae.f, dae.f._floats, (n,)),
                                                    (dae.jac_f, dae.jac_f._floats, (n, n))):
                seen = []
                for call in (lambda: ndarray_form(t, x),
                             lambda: np.array(float_form(t, *x.tolist())).reshape(shape)):
                    try:
                        value = call()
                        seen.append((value.shape, value.dtype, value.tobytes()))
                    except (ArithmeticError, ValueError) as exc:
                        seen.append((type(exc), str(exc)))
                        raised.add(type(exc))
                assert seen[0] == seen[1], (t, x)
                assert seen[0][:2] in ((shape, np.float64), (OverflowError, "(34, 'Numerical "
                                       "result out of range')"), (ValueError, "math domain error"))
        assert raised == self.MATH_ERRORS[preset_id]

    def test_preset_ids_keep_their_order(self):
        # the order of the unknown-preset message and of parametrized tests
        assert PRESET_IDS == ("sec5_cubic", "sec5_r4_g01", "sec6_sine_powerdecay",
                              "sec6_polynomial", "sec6_triangular", "sec6_sawtooth",
                              "sec6_blowup", "linear_index0", "toy_index1")

    def test_blow_up_alias(self):
        assert get_preset("lagrange_unstable").preset_id == "sec6_blowup"

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("no_such_model")

    def test_non_smooth_flags(self):
        assert not get_preset("sec6_triangular").smooth
        assert not get_preset("sec6_sawtooth").smooth
        assert get_preset("sec5_cubic").smooth
