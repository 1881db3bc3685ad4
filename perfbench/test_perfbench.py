"""Self-tests of the benchmark's output checks, failure accounting and self times.

    python3 -m pytest -q perfbench
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest
from crbayes import CaptureHistory, summarize

import workloads
from metrics import compare_fingerprint, mean_batch, per_layer, run_batch
from tracing import Tracer, aggregate, self_times


@pytest.fixture(scope="module")
def m0_data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    return {ds.name: ds for ds in workloads.build_datasets("m0-large-support", 0, tmp, Tracer(False))}


def _run(op, tmp_path):
    out = op.run(workloads.Context(tracer=Tracer(False), out_dir=tmp_path))
    problems, _ = op.check(out)
    assert problems == []
    return out


def test_table_check_rejects_perturbed_table(m0_data, tmp_path):
    op = workloads._m0_ops(m0_data["m0-informative"], "uniform", 2_000)[0]
    out = _run(op, tmp_path)
    table = out.value
    for bad in (
        dataclasses.replace(table, mass=table.mass * (1 + 1e-9)),
        dataclasses.replace(table, ci=(table.ci[0], table.n_max + 1.0)),
        dataclasses.replace(table, warnings=("posterior likely improper; normalization unreliable",)),
    ):
        problems, _ = op.check(dataclasses.replace(out, value=bad))
        assert len(problems) == 1


def test_checks_reject_flipped_verdict(m0_data, tmp_path):
    analyze, verdict = workloads._m0_ops(m0_data["m0-norecap"], "uniform", 2_000)
    report = _run(verdict, tmp_path).value
    assert report.predicted == "improper"
    problems, _ = verdict.check(workloads.Outcome(value=dataclasses.replace(report, predicted="proper")))
    assert any("verdict" in p for p in problems)
    problems, _ = verdict.check(workloads.Outcome(value=dataclasses.replace(report, agreement=False)))
    assert any("disagrees" in p for p in problems)
    # an improper posterior whose table lost its warning
    table = _run(analyze, tmp_path).value
    problems, _ = analyze.check(workloads.Outcome(value=dataclasses.replace(table, warnings=())))
    assert any("improper warning" in p for p in problems)


def test_fingerprint_tolerance_is_relative():
    want = {"mean": 100.0, "ci": [90.0, 110.0], "predicted": "proper"}
    assert compare_fingerprint(want, {"mean": 100.0 + 1e-8, "ci": [90.0, 110.0], "predicted": "proper"}, 1e-9) == []
    assert len(compare_fingerprint(want, {"mean": 100.0 + 1e-6, "ci": [90.0, 110.0], "predicted": "proper"}, 1e-9)) == 1
    assert len(compare_fingerprint(want, {"mean": 100.0, "ci": [90.0, 111.0], "predicted": "proper"}, 1e-9)) == 1
    assert len(compare_fingerprint(want, {"mean": 100.0, "ci": [90.0, 110.0], "predicted": "improper"}, 1e-9)) == 1


def test_forced_convergence_error_is_one_failed_operation(tmp_path):
    stats = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))
    ds = workloads.Dataset("tiny", None, stats)
    analyze = workloads._mh_ops(ds)[0]
    tracer = Tracer(True)
    ctx = workloads.Context(tracer=tracer, out_dir=tmp_path, ladder=((4, 8),), rtol=1e-12)
    batch = run_batch([analyze], ctx, None, {})
    (record,) = batch["ops"]
    (problem,) = record["problems"]
    assert problem.startswith("QuadratureConvergenceError")
    kernel = aggregate(tracer.spans)["posterior.mh_kernel"]
    assert kernel["calls"] == 1 and kernel["failed"] == 1
    layer = per_layer(tracer.spans, 1)
    assert 0 < layer["posterior.mh_kernel.failed_s"] == kernel["s"] <= record["s"]
    assert layer["posterior.mh_kernel.converged_frac"] == 0.0


def test_operations_are_rescaled_by_the_reference_runs_around_them(monkeypatch):
    import reference

    # the host slows to half speed during the first operation and stays slow
    times = iter([0.1, 0.2, 0.2])
    monkeypatch.setattr(reference, "reference_s", lambda: next(times))
    speed = reference.HostSpeed()
    # the short second operation gets no reference run of its own
    places = [speed.after(1.0), speed.after(0.5), speed.after(1.0)]
    assert speed.samples == [0.1, 0.2, 0.2] and places == [1, 2, 2]
    assert [speed.around(p) for p in places] == pytest.approx([0.15, 0.2, 0.2])

    def batch(s):
        return {"ops": [{"kind": "sweep", "s": s, "norm_s": s / 2}, {"kind": "verdict", "s": 2 * s, "norm_s": s}]}

    batches = [batch(1.0), batch(2.5), batch(2.5)]
    assert mean_batch(batches) == pytest.approx({"sweep_s": 2.0, "verdict_s": 4.0, "batch_s": 6.0})
    assert mean_batch(batches, "norm_s") == pytest.approx({"sweep_s": 1.0, "verdict_s": 2.0, "batch_s": 3.0})


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": 0, "error": None, "attrs": {}}


def test_self_time_is_span_minus_children():
    spans = [
        _span("op", 0.0, 10.0),
        _span("table", 1.0, 6.0, parent=0),
        _span("kernel", 2.0, 5.0, parent=1),
        _span("write", 6.5, 8.0, parent=0),
        _span("kernel", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.5 - 1.0, 5.0 - 3.0, 3.0, 1.5, 1.0])
    agg = aggregate(spans)
    assert agg["kernel"]["calls"] == 2 and agg["kernel"]["self_s"] == pytest.approx(4.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    fn = lambda n: n
    assert tracer.wrap("kernel", fn) is fn
    with tracer.span("x") as attrs:
        attrs["bytes"] = 1
    assert tracer.spans == []
