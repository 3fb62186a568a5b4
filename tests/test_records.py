"""The immutable value records: repr, value equality and hashing, no assignment, and
the messages of their validation."""

import math

import numpy as np
import pytest

from spinboost.checks import CheckReport, CheckResult
from spinboost.entanglement import DeltaEResult, Partition
from spinboost.extrema import ExtremaReport
from spinboost.states import SpinFamily, SpinParams, SubsystemLabel
from spinboost.grid import GridSpec
from spinboost.tensor import DensityMatrix, FactorOrder, PureState

PA, PB, SB = SubsystemLabel.PA, SubsystemLabel.PB, SubsystemLabel.SB
PA_ORDER, PB_ORDER = FactorOrder((PA,)), FactorOrder((PB,))
PA_REPR = "FactorOrder(labels=(<SubsystemLabel.PA: 'pA'>,))"

# (record, field values, its repr, the same values with one changed, [(bad values, message)])
RECORDS = [
    (GridSpec, dict(start=0.0, stop=1.0, count=3), "GridSpec(start=0.0, stop=1.0, count=3)",
     dict(count=4), [
         (dict(start=0.0, stop=1.0, count=1), "grid count must be at least 2"),
         (dict(start=0.0, stop=math.inf, count=3), "grid endpoints must be finite"),
         (dict(start=math.nan, stop=1.0, count=3), "grid endpoints must be finite"),
         (dict(start=-1e308, stop=1e308, count=3), "grid span stop - start must be finite"),
         (dict(start=1.0, stop=1.0, count=3), "grid endpoints must differ"),
     ]),
    (ExtremaReport, dict(maxima=((0.0, 1.0, 0.5),), minima=(), merge_radius=3.0),
     "ExtremaReport(maxima=((0.0, 1.0, 0.5),), minima=(), merge_radius=3.0, flat=False)",
     dict(flat=True), []),
    (SpinParams, dict(family=SpinFamily.S1, theta=0.5, phi=1.0),
     "SpinParams(family=<SpinFamily.S1: 's1'>, theta=0.5, phi=1.0)", dict(phi=2.0), [
         (dict(family=SpinFamily.S1, theta=math.nan, phi=1.0),
          "theta and phi must be finite, got nan and 1.0"),
         (dict(family=SpinFamily.S2, theta=0.5, phi=-math.inf),
          "theta and phi must be finite, got 0.5 and -inf"),
     ]),
    (Partition, dict(name="p", parts=(frozenset({PA}), frozenset({SB}))),
     "Partition(name='p', parts=(frozenset({<SubsystemLabel.PA: 'pA'>}),"
     " frozenset({<SubsystemLabel.SB: 'sB'>})))", dict(name="q"), [
         (dict(name="p", parts=(frozenset({PA, SB}), frozenset({SB}))),
          "partition parts must be pairwise disjoint"),
         (dict(name="p", parts=(frozenset(), frozenset({SB}))),
          "partition parts must be nonempty"),
     ]),
    (DeltaEResult, dict(e_before=0.25, e_after=0.5, delta=0.25),
     "DeltaEResult(e_before=0.25, e_after=0.5, delta=0.25)", dict(delta=0.0), []),
    (CheckResult, dict(name="c", passed=True, detail="ok"),
     "CheckResult(name='c', passed=True, detail='ok')", dict(passed=False), []),
    (CheckReport, dict(results=(CheckResult("c", True, "ok"),)),
     "CheckReport(results=(CheckResult(name='c', passed=True, detail='ok'),))",
     dict(results=()), []),
    (FactorOrder, dict(labels=(PA, SB)),
     "FactorOrder(labels=(<SubsystemLabel.PA: 'pA'>, <SubsystemLabel.SB: 'sB'>))",
     dict(labels=(SB, PA)), [
         (dict(labels=(PA, PA)), "factor labels must be unique"),
     ]),
    (PureState, dict(amplitudes=np.array([1.0, 0.0]), order=PA_ORDER),
     f"PureState(amplitudes=array([1.+0.j, 0.+0.j]), order={PA_REPR})",
     dict(order=PB_ORDER), [
         (dict(amplitudes=np.ones(3) / math.sqrt(3), order=PA_ORDER),
          "amplitude vector has length (3,), expected 2"),
         (dict(amplitudes=np.array([1.0, 1.0]), order=PA_ORDER), "state vector is not normalized"),
     ]),
    (DensityMatrix, dict(entries=np.diag([1.0, 0.0]), order=PA_ORDER),
     "DensityMatrix(entries=array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 0.+0.j]]),"
     f" order={PA_REPR})", dict(order=PB_ORDER), [
         (dict(entries=np.eye(3) / 3, order=PA_ORDER),
          "density matrix has shape (3, 3), expected (2, 2)"),
         (dict(entries=np.array([[0.5, 0.1], [0.0, 0.5]]), order=PA_ORDER),
          "density matrix is not Hermitian"),
         (dict(entries=np.diag([0.5, 0.4]), order=PA_ORDER), "density matrix trace is not 1"),
         (dict(entries=np.diag([1.5, -0.5]), order=PA_ORDER),
          "density matrix has a significantly negative eigenvalue"),
     ]),
]


@pytest.mark.parametrize("record, values, text, change, invalid", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record_is_an_immutable_value(record, values, text, change, invalid):
    made = record(**values)
    assert repr(made) == text
    # built again from the fields it holds, a record equals and hashes as the first
    held = {name: getattr(made, name) for name in values}
    again = record(**held)
    assert again is not made and again == made
    changed = record(**{**held, **change})
    assert changed != made
    if any(isinstance(value, np.ndarray) for value in values.values()):
        with pytest.raises(TypeError):
            hash(made)
    else:
        assert hash(again) == hash(made) and len({made, again, changed}) == 2
    for name in (*values, "other"):
        with pytest.raises(AttributeError):
            setattr(made, name, None)
    assert repr(made) == text
    for bad, message in invalid:
        with pytest.raises(ValueError) as info:
            record(**bad)
        assert str(info.value) == message
