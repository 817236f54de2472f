"""The immutable records of the layers: frozen, built from positional or keyword
fields with their defaults, and refusing a bad field with their own message."""

import dataclasses
import inspect
import math
import re
import sys

import numpy as np
import pytest

import pencildae
from pencildae import (CircuitParams, ComponentOrder, MatrixPencil, Mesh, Method,
                       ModelPreset, Nonlinearity, OrderEstimate, PencilIndex, SemilinearDAE,
                       SolveOutcome, SolverConfig, SolveStatus, SpectralDecomposition,
                       StabilityReport, Trajectory, ValidationReport, VoltageWaveform)

_ORDER = ComponentOrder((1e-2, 5e-3), (1.0,), 1.0)
# class: (every field by name, in order; the default of each optional field)
RECORDS = {
    MatrixPencil: ({"a": np.eye(2), "b": np.zeros((2, 2))}, {}),
    SpectralDecomposition: ({"p1": np.eye(2), "p2": np.zeros((2, 2)), "q1": np.eye(2),
                             "q2": np.zeros((2, 2)), "g": 2 * np.eye(2),
                             "g_inv": 0.5 * np.eye(2), "index": PencilIndex.INDEX0,
                             "x2_basis": np.zeros((2, 0))}, {}),
    ValidationReport: ({"residuals": {"P1+P2=I": 1e-16}, "tol": 1e-10}, {}),
    Nonlinearity: ({"value": math.sin, "derivative": math.cos}, {}),
    VoltageWaveform: ({"value": math.sin, "smooth": False}, {"smooth": True}),
    CircuitParams: ({"l_ind": 5e-4, "c_cap": 5e-7, "r_res": 2.0, "g_cond": 0.2}, {}),
    Mesh: ({"t0": 0.0, "t_end": 1.0, "n_steps": 10}, {}),
    SolverConfig: ({"method": Method.METHOD2, "tol": 1e-9, "max_iter": 7,
                    "blow_up_threshold": 10.0},
                   {"method": Method.METHOD1, "tol": None, "max_iter": 50,
                    "blow_up_threshold": 1e6}),
    SolveStatus: ({"outcome": SolveOutcome.BLOW_UP, "blow_up_time": 0.5, "failed_step": 3},
                  {"blow_up_time": None, "failed_step": None}),
    ComponentOrder: ({"errors": (1e-2, 5e-3), "pairwise_orders": (1.0,),
                      "asymptotic_order": 1.0}, {}),
    OrderEstimate: ({"step_sizes": (0.1, 0.05), "z": _ORDER, "u": None}, {}),
    StabilityReport: ({"norm_ginv_b": 1.4, "m1_estimate": 0.01, "h": 1e-3,
                       "g_norm_part": 0.999}, {}),
}
classes = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def assert_fields(record, fields: dict) -> None:
    for name, value in fields.items():
        got = getattr(record, name)
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(got, value)
        else:
            assert got == value and type(got) is type(value), name


@classes
def test_assignment_and_deletion_raise(cls):
    fields, _ = RECORDS[cls]
    record = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert_fields(record, fields)


@classes
def test_positional_and_keyword_construction(cls):
    fields, _ = RECORDS[cls]
    assert_fields(cls(*fields.values()), fields)
    assert_fields(cls(**fields), fields)
    first, *rest = fields
    assert_fields(cls(fields[first], **{name: fields[name] for name in rest}), fields)


@classes
def test_defaults(cls):
    fields, defaults = RECORDS[cls]
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert_fields(cls(**required), {**required, **defaults})


@classes
def test_wrong_arguments_are_type_errors(cls):
    fields, defaults = RECORDS[cls]
    first = next(iter(fields))
    wrong = [((*fields.values(), 1.0), {}), ((), {**fields, "extra": 1.0}),
             ((fields[first],), fields)]  # one too many, an unknown one, one given twice
    if first not in defaults:  # a required field left out
        wrong.append(((), {name: v for name, v in fields.items() if name != first}))
    for args, kwargs in wrong:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls, changes, message", [
    (MatrixPencil, {"a": np.ones(2)}, "a must be a square matrix, got shape (2,)"),
    (MatrixPencil, {"b": np.array([[np.nan, 0], [0, 1]])}, "b contains non-finite entries"),
    (MatrixPencil, {"b": np.eye(3)}, "a and b must share a shape, got (2, 2) vs (3, 3)"),
    (MatrixPencil, {"a": np.zeros((0, 0)), "b": np.zeros((0, 0))},
     "pencil dimension must be at least 1"),
    (MatrixPencil, {"a": 1e308 * np.eye(2), "b": 1e308 * np.eye(2)},
     "1 + ||A||_2 + ||B||_2 overflows"),
    *[(CircuitParams, {name: value}, f"{name} must be positive and finite")
      for name in ("l_ind", "c_cap", "r_res", "g_cond") for value in (0.0, math.inf)],
    *[(Mesh, {"n_steps": value}, f"n_steps must be an integer in [1, {sys.maxsize})")
      for value in (0, 2.0, sys.maxsize)],
    (Mesh, {"t_end": 0.0}, "t_end must exceed t0"),
    (Mesh, {"t0": -1e308, "t_end": 1e308},
     "the step must be finite and at least 1e6 ulp(max(|t0|, |t_end|)) = 1.99584e+298"),
    # 1/4503599628 < 1e6 ulp(1) = 1e6 2**-52 < 1/4503599627, the largest mesh on [0, 1]
    (Mesh, {"n_steps": 4503599628},
     "the step must be finite and at least 1e6 ulp(max(|t0|, |t_end|)) = 2.22045e-10"),
    # ints beyond the float range have no ulp and no float step: refused by the rule alike
    *[(Mesh, {"t0": t0, "t_end": t_end, "n_steps": 1},
       "the step must be finite and at least 1e6 ulp(max(|t0|, |t_end|)) = inf")
      for t0, t_end in ((10**400, 10**400 + 1), (0, 10**400))],
    (SolverConfig, {"tol": 0.0}, "tol must be positive and finite"),
    (SolverConfig, {"tol": math.nan}, "tol must be positive and finite"),
    (SolverConfig, {"max_iter": 0}, f"max_iter must be an integer in [1, {sys.maxsize})"),
    *[(SolverConfig, {"blow_up_threshold": value}, "blow_up_threshold must be positive and finite")
      for value in (0.0, True, math.inf)],
])
def test_post_init_refusals_keep_their_messages(cls, changes, message):
    fields, _ = RECORDS[cls]
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**{**fields, **changes})


def test_post_init_makes_arrays_read_only():
    decomp = SpectralDecomposition(**RECORDS[SpectralDecomposition][0])
    pen = MatrixPencil(np.diag([3.0, 0.0]), np.eye(2))
    for array in (decomp.p1, decomp.g_inv, decomp.x2_basis, pen.a, pen.b):
        assert not array.flags.writeable
    assert (pen.a_norm, pen.b_norm) == (3.0, 1.0)


@pytest.mark.parametrize("cls", [MatrixPencil, SpectralDecomposition])
def test_the_callers_arrays_stay_writable(cls):
    # a record keeps read-only copies: editing the caller's arrays changes none of its own
    fields = {name: np.array(value) if isinstance(value, np.ndarray) else value
              for name, value in RECORDS[cls][0].items()}
    record = cls(**fields)
    for name, value in fields.items():
        if isinstance(value, np.ndarray) and value.size:
            kept = getattr(record, name).copy()
            value[0, 0] = 2.0
            np.testing.assert_array_equal(getattr(record, name), kept)


def test_no_record_compares_by_value():
    # every record is equal to itself only, and hashable
    assert SolveStatus in RECORDS
    for cls, (fields, _) in RECORDS.items():
        record = cls(**fields)
        assert record == record and record != cls(**fields), cls.__name__
        assert hash(record) == hash(record), cls.__name__


def test_only_three_exported_classes_are_dataclasses():
    # perfbench/traced_cli.py reads these with dataclasses.fields and replace
    exported = [getattr(pencildae, name) for name in pencildae.__all__]
    assert {cls for cls in exported if inspect.isclass(cls)
            and dataclasses.is_dataclass(cls)} == {Trajectory, SemilinearDAE, ModelPreset}
    assert all(not dataclasses.is_dataclass(cls) for cls in RECORDS)
