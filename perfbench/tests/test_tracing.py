"""Tracer wrappers, self-time arithmetic and the layer metrics they give."""

import subprocess
import sys

import pytest

import tracing
import workloads


def _add(tr, name, parent, start, end, value=0):
    tr.name.append(tr.intern(name))
    tr.parent.append(parent)
    tr.start.append(start)
    tr.end.append(end)
    tr.value.append(value)
    return len(tr) - 1


def test_self_time_subtracts_direct_children_only(balg):
    tr = tracing.Tracer(balg)
    op = _add(tr, "places.canonicalize", -1, 0, 1000)
    fp = _add(tr, "free_product.joint_cells", op, 100, 600)
    _add(tr, "algebra.refine", fp, 150, 250, value=3)
    _add(tr, "algebra.refine", fp, 300, 400, value=4)
    _add(tr, "algebra.fincof_ops", fp, 450, 500)
    m = tracing.layer_metrics(tr, 0, len(tr))
    assert m["places.canonicalize.self_ms"] == pytest.approx(500 / 1e6)
    assert m["free_product.joint_cells.self_ms"] == pytest.approx(250 / 1e6)
    assert m["algebra.refine.self_ms"] == pytest.approx(200 / 1e6)
    assert m["algebra.refine.calls"] == 2
    assert m["algebra.refine.cells"] == 7
    assert m["algebra.fincof_ops.calls"] == 1
    assert m["free_product.grid_cells_max"] == 12


def test_combine_rounds_insists_on_repeating_counts():
    names = tracing.metric_names()
    a = dict.fromkeys(names, 1)
    b = dict(a, **{"algebra.refine.self_ms": 3})
    assert tracing.combine_rounds([a, b, b])["algebra.refine.self_ms"] == 3
    with pytest.raises(RuntimeError):
        tracing.combine_rounds([a, dict(a, **{"algebra.refine.calls": 2})])


def test_uninstall_restores_every_binding(balg):
    before = (balg.algebra.refine_partition, balg.free_product.refine_partition,
              balg.tensor.refine_partition, balg.algebra.Elem.__and__,
              balg.suites.SUITES["bands"], balg.validation.parse_element)
    tr = tracing.Tracer(balg)
    tr.install()
    assert balg.free_product.refine_partition is not before[1]
    assert balg.tensor.refine_partition.__wrapped__ is before[2]
    tr.uninstall()
    after = (balg.algebra.refine_partition, balg.free_product.refine_partition,
             balg.tensor.refine_partition, balg.algebra.Elem.__and__,
             balg.suites.SUITES["bands"], balg.validation.parse_element)
    assert after == before


def _traced_pass(balg, root, cls, count):
    w = cls(balg, root, 3)
    tr = tracing.Tracer(balg)
    tr.install()
    try:
        for k, item in enumerate(w.inputs[:count]):
            with tr.span("bench.op", k):
                out = w.run(item)
            w.check(item, out)
    finally:
        tr.uninstall()
    return tracing.layer_metrics(tr, 0, len(tr))


def test_evens_never_refines(balg, root):
    m = _traced_pass(balg, root, workloads.CertifyEvens, 4)
    assert m["algebra.refine.calls"] == 0
    assert m["algebra.fincof_ops.calls"] > 0
    assert m["certificates.refute_step.calls"] == m["validation.steps_checked"] > 0


def test_diagonal_counts_repeat_exactly(balg, root):
    first = _traced_pass(balg, root, workloads.CertifyDiagonal, 3)
    second = _traced_pass(balg, root, workloads.CertifyDiagonal, 3)
    assert first["algebra.refine.calls"] > 0
    assert first["free_product.grid_cells_max"] > 0
    for name in tracing.COUNT_METRICS:
        assert first[name] == second[name], name


def test_verify_reaches_every_layer(balg, root):
    m = _traced_pass(balg, root, workloads.VerifyDefault, 9)
    for name in ("algebra.refine.calls", "algebra.powerset_ops.calls",
                 "places.canonicalize.calls", "tensor.psi.calls",
                 "free_product.normalize.calls"):
        assert m[name] > 0, name
    for suite in tracing.SUITE_NAMES:
        assert m[f"suites.{suite}.ms"] > 0, suite
    assert m["tensor.T.self_ms"] > 0 and m["bands.compare.self_ms"] > 0


def test_refuses_to_run_without_the_program(tmp_path, root):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (root / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "certify_evens", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
