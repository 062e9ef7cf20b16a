"""Tests of the tracer:  PYTHONPATH=src python3 -m pytest perfbench -q"""

import numpy as np
import pytest

import lhsseq.engine
import lhsseq.fplinalg
import lhsseq.oracle
from layer_trace import LayerTrace


@pytest.fixture
def tracer():
    tr = LayerTrace()
    tr.install()
    yield tr
    tr.uninstall()


def test_calls_through_by_name_imports_are_counted(tracer):
    m = np.array([[1, 2, 0], [0, 1, 1]])
    lhsseq.engine.kernel_basis(m, 3)  # engine's own binding
    lhsseq.oracle.kernel_basis(m, 3)  # oracle's own binding
    lhsseq.oracle.rank(m, 3)  # untraced, but calls rref inside fplinalg
    stats = tracer.stats()["metrics"]
    assert stats["fplinalg.kernel_basis.calls"] == 2
    assert stats["fplinalg.rref.calls"] == 3
    assert stats["fplinalg.rref.entries"] == 3 * 6


def test_methods_and_self_time(tracer):
    sq = lhsseq.fplinalg.subquotient_of(np.eye(3, dtype=np.int64), np.zeros((0, 3)), 3, 3)
    sq.reduce(np.array([1, 1, 1]))
    stats = tracer.stats()["metrics"]
    assert stats["fplinalg.subquotient_of.calls"] == 1
    assert stats["fplinalg.Subquotient.reduce.calls"] == 1
    assert stats["fplinalg.rref.calls"] >= 3
    assert all(v >= 0 for k, v in stats.items() if k.endswith(".s"))


def test_missing_targets_are_absent_not_fatal():
    tr = LayerTrace(targets=[("fplinalg", "no_such_function"), ("no_such_module", "f"),
                             ("fplinalg", "NoSuchClass.method"), ("fplinalg", "rref")])
    tr.install()
    try:
        lhsseq.fplinalg.rank(np.eye(2, dtype=np.int64), 5)
    finally:
        tr.uninstall()
    out = tr.stats()
    assert out["absent"] == ["fplinalg.no_such_function", "no_such_module.f",
                             "fplinalg.NoSuchClass.method"]
    assert out["metrics"]["fplinalg.no_such_function.calls"] == 0
    assert out["metrics"]["fplinalg.rref.calls"] == 1


def test_uninstall_restores_the_program():
    original = lhsseq.engine.kernel_basis
    tr = LayerTrace()
    tr.install()
    assert lhsseq.engine.kernel_basis is not original
    tr.uninstall()
    assert lhsseq.engine.kernel_basis is original
    assert lhsseq.fplinalg.kernel_basis is original
