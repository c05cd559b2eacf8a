"""Tests of the benchmark's own code (tracing, percentiles, metric names).

They run in the plain ``pytest`` suite and never start a workload.
"""

import fnmatch
import importlib
import os
import statistics
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
from layers import Span  # noqa: E402


class _Owner:
    def method(self, value):
        return value + 1

    @classmethod
    def build(cls, value):
        return (cls, value)

    @staticmethod
    def helper(value):
        return value * 2


def test_wrappers_restore_originals_exactly():
    module = types.ModuleType("fake_module")
    module.function = lambda value: -value
    targets = [(_Owner, "method"), (_Owner, "build"), (_Owner, "helper"),
               (module, "function")]
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in targets}
    tracer = layers.Tracer()
    for owner, attr in targets:
        tracer.wrap(owner, attr, "fake." + attr)
    assert _Owner().method(1) == 2
    assert _Owner.build(3) == (_Owner, 3)
    assert _Owner.helper(4) == 8
    assert module.function(5) == -5
    assert all(owner.__dict__[attr] is not before[(owner, attr)]
               for owner, attr in targets)
    assert layers.call_counts(tracer.spans) == {
        "fake.method": 1, "fake.build": 1, "fake.helper": 1, "fake.function": 1}
    tracer.restore()
    assert all(owner.__dict__[attr] is before[(owner, attr)]
               for owner, attr in targets)


def test_layer_install_is_undone_by_restore():
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        originals = list(tracer._patches)
        assert originals, "install wrapped nothing"
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in originals)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in originals)


def test_merge_adds_another_process_spans_and_counts(tmp_path):
    server = layers.Tracer()
    with server.span("outer.a"):
        with server.span("inner.b"):
            pass
    server.count("hits", 2)
    path = str(tmp_path / "spans.jsonl")
    server.write(path)

    client = layers.Tracer()
    with client.span("client.c"):
        pass
    client.count("hits", 1)
    client.merge(path)
    assert client.counts["hits"] == 3
    assert len({span.ident for span in client.spans}) == 3
    by_name = {span.name: span for span in client.spans}
    assert by_name["inner.b"].parent == by_name["outer.a"].ident
    assert by_name["outer.a"].parent is None
    assert layers.self_times(client.spans)["outer.a"] == pytest.approx(
        layers.self_times(server.spans)["outer.a"])


def test_self_time_on_synthetic_nested_spans():
    spans = [
        Span(0, None, "outer.a", 1, 0.0, 10.0),
        Span(1, 0, "inner.b", 1, 1.0, 4.0),
        Span(2, 0, "inner.c", 1, 5.0, 9.0),
        Span(3, 2, "inner.b", 1, 6.0, 7.0),
        Span(4, None, "_container", 2, 0.0, 8.0),
        Span(5, 4, "outer.a", 2, 2.0, 4.0),
    ]
    own = layers.self_times(spans)
    assert own["outer.a"] == pytest.approx(3.0 + 2.0)
    assert own["inner.b"] == pytest.approx(3.0 + 1.0)
    assert own["inner.c"] == pytest.approx(3.0)
    assert own["_container"] == pytest.approx(6.0)
    assert layers.total_times(spans)["inner.b"] == pytest.approx(4.0)
    shares = layers.layer_shares(spans, wall_s=20.0)
    assert shares["outer"] == pytest.approx(0.25)
    assert shares["inner"] == pytest.approx(0.35)
    assert "_container" not in shares


def test_nested_wrapped_calls_are_not_counted_twice():
    tracer = layers.Tracer()

    class Worker:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer.wrap(Worker, "outer", "a.outer")
    tracer.wrap(Worker, "inner", "b.inner")
    try:
        assert Worker().outer() == 2
    finally:
        tracer.restore()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["b.inner"].parent == by_name["a.outer"].ident
    own = layers.self_times(tracer.spans)
    outer = by_name["a.outer"]
    inner = by_name["b.inner"]
    assert own["a.outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))


def test_percentile_refuses_too_few_samples_beyond():
    with pytest.raises(harness.TooFewSamples):
        harness.percentile(list(range(19)), 50)
    with pytest.raises(harness.TooFewSamples):
        harness.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        harness.percentile(list(range(100)), 100)
    values = [float(value * value % 37) for value in range(100)]
    expected = statistics.quantiles(values, n=10, method="inclusive")
    assert harness.percentile(values, 90) == pytest.approx(expected[8])
    assert harness.percentile(values[:20], 50) == pytest.approx(
        statistics.median(values[:20]))


def test_emitted_names_are_declared_in_benchmark_json():
    for name in (list(harness.END_TO_END) + list(harness.PER_LAYER)
                 + list(harness.WORKLOADS)):
        assert harness.NAME_RE.match(name), name

    workloads = importlib.import_module("workloads")
    phase = workloads.Phase()
    phase.trials, phase.experiments, phase.wall_s = 10, 1, 2.0
    phase.trial_gaps_ms = [float(value) for value in range(100)]
    phase.job_s = phase.status_ms = phase.report_ms = [1.0] * 20
    phase.peak_rss_mb = 1.0
    assert set(workloads.end_to_end(phase)) | {"setup_s"} == set(harness.END_TO_END)

    tracer = layers.Tracer()
    emitted = layers.per_layer_metrics(tracer, trials=4, wall_s=1.0,
                                       useful_trials=3, overhead_ratio=0.9)
    assert set(emitted) == set(harness.PER_LAYER)
    harness.metrics_block(emitted, harness.PER_LAYER)
    with pytest.raises(KeyError):
        harness.metrics_block(dict(emitted, extra=1.0), harness.PER_LAYER)


def test_plain_pytest_collects_no_workload_script():
    patterns = ("test_*.py", "*_test.py")
    collected = [name for name in os.listdir(HERE)
                 if any(fnmatch.fnmatch(name, pattern) for pattern in patterns)]
    assert collected == [os.path.basename(__file__)]
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench")
    existed = os.path.exists(scratch)
    for module in ("run", "workloads"):
        imported = importlib.import_module(module)
        assert callable(imported.main)
    assert os.path.exists(scratch) == existed
