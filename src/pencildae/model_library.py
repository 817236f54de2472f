"""The nonlinear two-pole circuit DAE and its named parameter sets.

The circuit couples an inductor current x1, a capacitor voltage x2 and a
resistor-branch current x3 through

    A = diag(L, C, 0),   B = [[0, 1, r], [0, g, -1], [0, 1, r]],
    f(t, x) = ( e(t) - phi0(x1) - phi(x3), -h(x2), psi(x1 - x3) - phi(x3) ),

with nonlinear resistances phi0, phi, psi, a nonlinear conductance h and an
input voltage e(t).  The pencil is always index 1 (the third diagonal entry of
A is structurally zero).

Units: parameter values are stored in SI (henries, farads) exactly as printed
in the source parameter sets, but the assembled DAE is rescaled to
microhenries/microfarads with time in microseconds (factor 1e6 on L and C).
This keeps the computed coefficients at O(1)-O(1000) instead of 1e-7 and is
the convention under which all step sizes and intervals here are quoted.

A couple of small synthetic problems (one index-0, one index-1) are shipped
alongside for testing and convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dae_model import SemilinearDAE
from .pencil import MatrixPencil, _count, _positive_finite, _Record

__all__ = [
    "UNIT_SCALE", "Nonlinearity", "odd_power", "sine", "neg_square", "square",
    "VoltageWaveform", "sinusoidal", "power_decay", "polynomial", "triangular", "sawtooth",
    "CircuitParams", "build_circuit_dae", "circuit_consistency_check", "ModelPreset",
    "PRESET_IDS", "get_preset",
]

#: henry -> microhenry (equivalently farad -> microfarad) for computation units
UNIT_SCALE = 1e6

TRIANGULAR_PERIOD = 100.0
SAWTOOTH_PERIOD = 5.0


class Nonlinearity(_Record):
    """A scalar characteristic y(x) with its derivative."""

    value: Callable[[float], float]
    derivative: Callable[[float], float]


def _finite(**params: float) -> None:
    """Refuse a NaN or infinite parameter, naming it."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def odd_power(alpha: float = 1.0, exponent: int = 3) -> Nonlinearity:
    """alpha * x**(2k-1) with alpha > 0 and an odd exponent."""
    _positive_finite("alpha", alpha)
    if _count("exponent", exponent) % 2 == 0:
        raise ValueError("exponent must be odd")
    return Nonlinearity(value=lambda x: alpha * x ** exponent,
                        derivative=lambda x: alpha * exponent * x ** (exponent - 1))


def sine(alpha: float = 1.0) -> Nonlinearity:
    _finite(alpha=alpha)
    return Nonlinearity(value=lambda x: alpha * math.sin(x),
                        derivative=lambda x: alpha * math.cos(x))


def neg_square() -> Nonlinearity:
    """-x**2, the destabilising resistance of the finite-time blow-up set."""
    return Nonlinearity(value=lambda x: -x * x, derivative=lambda x: -2.0 * x)


def square() -> Nonlinearity:
    return Nonlinearity(value=lambda x: x * x, derivative=lambda x: 2.0 * x)


class VoltageWaveform(_Record):
    """Input voltage e(t); ``smooth`` gates convergence-order assertions."""

    value: Callable[[float], float]
    smooth: bool = True


def sinusoidal(beta: float = 1.0, omega: float = 1.0, theta: float = 0.0) -> VoltageWaveform:
    _finite(beta=beta, omega=omega, theta=theta)
    return VoltageWaveform(value=lambda t: beta * math.sin(omega * t + theta))


def power_decay(beta: float = 1.0, alpha: float = 1.0, n: int = 1) -> VoltageWaveform:
    """beta * (t + alpha)**(-n); alpha > 0 keeps the pole left of t = 0."""
    _finite(beta=beta)
    _positive_finite("alpha", alpha)
    _count("n", n)
    return VoltageWaveform(value=lambda t: beta * (t + alpha) ** (-n))


def polynomial(beta: float = 1.0, alpha: float = 0.0, n: int = 1) -> VoltageWaveform:
    _finite(beta=beta, alpha=alpha)
    _count("n", n)
    return VoltageWaveform(value=lambda t: beta * (t + alpha) ** n)


def _triangular_value(t: float) -> float:
    # 50 - |t - 50 - 100k| on [100k, 100(k+1)] for every integer k (the
    # floor-mod phase extends the drive to t < 0); both segment formulas agree
    # at the boundaries, where the left-segment one is taken.
    tau = t % TRIANGULAR_PERIOD
    return 50.0 - abs(tau - 50.0)


def triangular() -> VoltageWaveform:
    """Periodic triangle: rises 0 -> 50 on [0, 50], falls back on [50, 100]."""
    return VoltageWaveform(value=_triangular_value, smooth=False)


def _sawtooth_value(t: float) -> float:
    tau = t % SAWTOOTH_PERIOD
    if tau <= 4.0:
        return tau
    return 20.0 - 4.0 * tau


def sawtooth() -> VoltageWaveform:
    """Periodic sawtooth: rises 0 -> 4 on [0, 4], drops back to 0 on [4, 5]."""
    return VoltageWaveform(value=_sawtooth_value, smooth=False)


class CircuitParams(_Record):
    """Linear circuit parameters, stored in SI units as printed."""

    l_ind: float
    c_cap: float
    r_res: float
    g_cond: float

    def __post_init__(self):
        for name in ("l_ind", "c_cap", "r_res", "g_cond"):
            _positive_finite(name, getattr(self, name))


def circuit_pencil(params: CircuitParams) -> MatrixPencil:
    """The (rescaled) circuit pencil; always singular A, index 1."""
    a = np.diag([params.l_ind * UNIT_SCALE, params.c_cap * UNIT_SCALE, 0.0])
    r = params.r_res
    b = np.array([[0.0, 1.0, r],
                  [0.0, params.g_cond, -1.0],
                  [0.0, 1.0, r]])
    return MatrixPencil(a=a, b=b)


def build_circuit_dae(params: CircuitParams, phi0: Nonlinearity, phi: Nonlinearity,
                      psi: Nonlinearity, h_cond: Nonlinearity,
                      e: VoltageWaveform) -> SemilinearDAE:
    """Assemble the circuit DAE with its analytic Jacobian.

    The right-hand side is
    (e(t) - phi0(x1) - phi(x3), -h(x2), psi(x1 - x3) - phi(x3)).
    """
    pencil = circuit_pencil(params)
    e_val = e.value
    p0v, p0d = phi0.value, phi0.derivative
    phv, phd = phi.value, phi.derivative
    psv, psd = psi.value, psi.derivative
    hcv, hcd = h_cond.value, h_cond.derivative

    # plain floats: numpy scalars would double the cost of each call
    def f(t, x):
        x1, x2, x3 = x.tolist()
        # phi(x3) once, called in the original order so the same error comes first
        return np.array((e_val(t) - p0v(x1) - (phi3 := phv(x3)),
                         -hcv(x2),
                         psv(x1 - x3) - phi3))

    # a flat tuple reshaped: numpy builds it faster than a nested one
    def jac(t, x):
        x1, x2, x3 = x.tolist()
        dpsi = psd(x1 - x3)
        dphi = phd(x3)
        return np.array((-p0d(x1), 0.0, -dphi,
                         0.0, -hcd(x2), 0.0,
                         dpsi, 0.0, -dpsi - dphi)).reshape(3, 3)

    return SemilinearDAE(pencil=pencil, f=f, jac_f=jac)


def circuit_consistency_check(params: CircuitParams, psi: Nonlinearity,
                              phi: Nonlinearity, x0) -> tuple[bool, float]:
    """Scalar consistency condition x2 + r*x3 = psi(x1 - x3) - phi(x3).

    Equivalent to the projector condition Q2[B x - f] = 0 of the assembled
    DAE (the constraint manifold has codimension one for this circuit).
    """
    x1, x2, x3 = np.asarray(x0, dtype=float)
    r = params.r_res
    residual = x2 + r * x3 - psi.value(x1 - x3) + phi.value(x3)
    ok = abs(residual) <= 1e-10 * (1.0 + abs(x2) + r * abs(x3))
    return ok, float(residual)


@dataclass(frozen=True)
class ModelPreset:
    """A ready-to-solve problem: DAE, default initial state, smoothness flag."""

    preset_id: str
    dae: SemilinearDAE
    x0: np.ndarray
    smooth: bool


def _linear_index0_preset() -> ModelPreset:
    a = np.array([[2.0, 0.3], [0.1, 1.0]])
    b = np.array([[0.5, -0.2], [0.1, 0.4]])

    def f(t, x):
        return np.array((math.sin(t) - 0.1 * x[1], math.cos(t) + 0.05 * x[0]))

    def jac(t, x):
        return np.array(((0.0, -0.1), (0.05, 0.0)))

    dae = SemilinearDAE(pencil=MatrixPencil(a=a, b=b), f=f, jac_f=jac)
    return ModelPreset(preset_id="linear_index0", dae=dae,
                       x0=np.array([1.0, -0.5]), smooth=True)


def _toy_index1_preset() -> ModelPreset:
    a = np.diag([1.0, 0.0])
    b = np.eye(2)

    def f(t, x):
        return np.array((-0.2 * x[0] + 0.5 * x[1] + math.sin(t),
                         0.5 * math.sin(t) + 0.25 * x[1] + 0.3 * x[0]))

    def jac(t, x):
        return np.array(((-0.2, 0.5), (0.3, 0.25)))

    dae = SemilinearDAE(pencil=MatrixPencil(a=a, b=b), f=f, jac_f=jac)
    # constraint: x2 = (0.5 sin t + 0.3 x1) / 0.75  =>  x2(0) = 0.4 for x1(0) = 1
    return ModelPreset(preset_id="toy_index1", dae=dae, x0=np.array([1.0, 0.4]), smooth=True)


_CUBIC = odd_power(1.0, 3)
_SEC5 = CircuitParams(5e-4, 5e-7, 2.0, 0.2)
_ORIGIN = (0.0, 0.0, 0.0)

#: circuit presets, one row each: (params, phi0, phi, psi, h, drive, x0); the README's
#: preset table describes each
_CIRCUIT_PRESETS = {
    "sec5_cubic": (_SEC5, _CUBIC, _CUBIC, _CUBIC, _CUBIC, sinusoidal(), _ORIGIN),
    "sec5_r4_g01": (CircuitParams(5e-4, 5e-7, 4.0, 0.1),
                    _CUBIC, _CUBIC, _CUBIC, _CUBIC, sinusoidal(), _ORIGIN),
    # e(t) = (2t + 10)^-2 = 0.25 * (t + 5)^-2
    "sec6_sine_powerdecay": (_SEC5, _CUBIC, sine(), sine(), sine(),
                             power_decay(0.25, 5.0, 2), (10.0, -10.0, 5.0)),
    "sec6_polynomial": (CircuitParams(1e-3, 5e-7, 2.0, 0.3),
                        _CUBIC, _CUBIC, _CUBIC, _CUBIC, polynomial(1.0, 0.0, 2), _ORIGIN),
    "sec6_triangular": (_SEC5, _CUBIC, _CUBIC, _CUBIC, _CUBIC, triangular(), _ORIGIN),
    "sec6_sawtooth": (CircuitParams(1e-5, 2e-7, 55.0, 0.015),
                      _CUBIC, _CUBIC, _CUBIC, _CUBIC, sawtooth(), _ORIGIN),
    "sec6_blowup": (CircuitParams(5e-6, 5e-7, 2.0, 0.2),
                    neg_square(), _CUBIC, _CUBIC, square(), sinusoidal(beta=2.0), (1.0, -6.5, 1.5)),
}

_SYNTHETIC_PRESETS = {"linear_index0": _linear_index0_preset,
                      "toy_index1": _toy_index1_preset}

_ALIASES = {"lagrange_unstable": "sec6_blowup"}

PRESET_IDS = (*_CIRCUIT_PRESETS, *_SYNTHETIC_PRESETS)


def get_preset(preset_id: str) -> ModelPreset:
    """Resolve a preset id (or alias) to a freshly built model."""
    canonical = _ALIASES.get(preset_id, preset_id)
    if canonical in _SYNTHETIC_PRESETS:
        return _SYNTHETIC_PRESETS[canonical]()
    if canonical not in _CIRCUIT_PRESETS:
        raise KeyError(f"unknown preset {preset_id!r}; known: {', '.join(PRESET_IDS)}")
    params, phi0, phi, psi, h_cond, e, x0 = _CIRCUIT_PRESETS[canonical]
    return ModelPreset(preset_id=canonical,
                       dae=build_circuit_dae(params, phi0, phi, psi, h_cond, e),
                       x0=np.asarray(x0, dtype=float), smooth=e.smooth)
