"""Out-of-program tracing of the layers the benchmark drives.

The traced run wraps public calls of each layer from outside the program
(no code under ``src/`` knows about it), keeps the spans in memory and
turns them into per-layer metrics when the run ends.  A span's *self time*
is its duration minus the time covered by wrapped calls nested inside it,
so a layer's share never counts a nested layer twice.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional)

#: span-name prefixes whose self time is not attributed to any layer: they
#: bracket work whose inner layers are wrapped separately.
CONTAINER_PREFIX = "_"

#: counter of the seconds :meth:`Tracer.wrap`'s *measure* reads took.
MEASURE_S = "_measure_s"

LAYERS = ("search", "config", "deeptune", "platform", "core", "analysis",
          "service")


class Span(NamedTuple):
    ident: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float


class Tracer:
    """In-memory span recorder plus the function patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> tuple:
        stack = self._stack()
        frame = (next(self._ids), stack[-1][0] if stack else None, name,
                 time.perf_counter())
        stack.append(frame)
        return frame

    def _exit(self, frame: tuple) -> None:
        end = time.perf_counter()
        self._stack().pop()
        ident, parent, name, start = frame
        span = Span(ident, parent, name, threading.get_ident(), start, end)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the benchmark's own calls."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack())

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[..., None]] = None,
             measure: Optional[Callable[[tuple], float]] = None) -> None:
        """Replace ``owner.attr`` by a traced version recording span *name*.

        *after(tracer, args, result)* runs after every call, outside the
        span.  *measure(args)* is read before and after the outermost call
        of *name* (also outside the span) and the difference accumulates in
        ``counts[name + ".measured"]``; the time those reads take
        accumulates in ``counts[MEASURE_S]``, for the caller to take out of
        its wall time.
        """
        original = owner.__dict__[attr]
        kind = type(original) if isinstance(original, (classmethod,
                                                       staticmethod)) else None
        function = original.__func__ if kind is not None else original
        tracer = self

        def measured(args) -> float:
            started = time.perf_counter()
            value = measure(args)
            tracer.count(MEASURE_S, time.perf_counter() - started)
            return value

        @functools.wraps(function)
        def traced(*args, **kwargs):
            outermost = measure is not None and not tracer.inside(name)
            before = measured(args) if outermost else 0.0
            frame = tracer._enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if outermost:
                tracer.count(name + ".measured", measured(args) - before)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Dump the spans (JSON lines), then the counters, once the run is over."""
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda item: item.start):
                handle.write(json.dumps(span._asdict()) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def merge(self, path: str) -> None:
        """Add the spans and counters another process :meth:`write`-s.

        ``perf_counter`` is the system-wide monotonic clock on Linux, so
        the other process's span times line up with this one's; span ids
        are renumbered to stay unique.
        """
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        spans = [Span(**line) for line in lines if "counts" not in line]
        ids = {span.ident: next(self._ids) for span in spans}
        with self._lock:
            self.spans.extend(span._replace(ident=ids[span.ident],
                                            parent=ids.get(span.parent))
                              for span in spans)
            for line in lines:
                self.counts.update(line.get("counts", {}))


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time (seconds) per span name."""
    spans = list(spans)
    nested: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            nested[span.parent] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += (span.end - span.start) - nested[span.ident]
    return dict(totals)


def total_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Total inclusive time (seconds) per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.end - span.start
    return dict(totals)


def call_counts(spans: Iterable[Span]) -> Dict[str, int]:
    return dict(Counter(span.name for span in spans))


def layer_shares(spans: Iterable[Span], wall_s: float) -> Dict[str, float]:
    """Each layer's self time as a share of the traced wall time."""
    shares = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_times(spans).items():
        if name.startswith(CONTAINER_PREFIX):
            continue
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + seconds / wall_s
    return shares


def directory_bytes(directory: str) -> int:
    total = 0
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.is_file(follow_symlinks=False):
                total += entry.stat(follow_symlinks=False).st_size
    return total


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer (see README.md, layer table)."""
    from repro.analysis import campaign_report
    from repro.config.encoding import ConfigEncoder
    from repro.core.wayfinder import Wayfinder
    from repro.deeptune import algorithm as deeptune_algorithm
    from repro.deeptune.model import DeepTuneModel
    from repro.platform.campaign_runner import CampaignRunner, load_manifest
    from repro.platform.history import ExplorationHistory
    from repro.platform.pipeline import BenchmarkingPipeline
    from repro.platform.results import ResultsStore, SessionCheckpointer
    from repro.search.base import ConfigurationSampler
    from repro.service.cache import ReportCache

    def drew(tracer, args, result):
        tracer.count("search.sampled")

    for attr in ("sample", "sample_pool", "sample_unique", "mutate"):
        tracer.wrap(ConfigurationSampler, attr, "search.generate",
                    after=drew if attr in ("sample", "mutate") else None)

    tracer.wrap(ConfigEncoder, "encode", "config.encode",
                after=lambda tracer, args, result: tracer.count("config.rows"))
    def encoded_batch(tracer, args, result):
        tracer.count("config.rows", len(result))
        tracer.count("config.candidate_rows", len(result))

    tracer.wrap(ConfigEncoder, "encode_batch", "config.encode",
                after=encoded_batch)

    tracer.wrap(DeepTuneModel, "predict", "deeptune.predict")
    tracer.wrap(DeepTuneModel, "fit_incremental", "deeptune.train")
    # the algorithm module binds score_candidates at import; patch it there.
    tracer.wrap(deeptune_algorithm, "score_candidates", "deeptune.score")

    tracer.wrap(BenchmarkingPipeline, "evaluate", "platform.evaluate")
    tracer.wrap(ExplorationHistory, "add_batch", "platform.ingest")
    tracer.wrap(SessionCheckpointer, "save", "platform.checkpoint",
                measure=lambda args: directory_bytes(args[0].store.directory))
    tracer.wrap(ResultsStore, "save_history", "platform.checkpoint",
                measure=lambda args: directory_bytes(args[0].directory))

    def campaign_done(tracer, args, result):
        tracer.count("platform.experiments", len(result.experiments))
        tracer.count("platform.claims", sum(int(entry.get("claims", 0))
                                            for entry in result.experiments))

    tracer.wrap(CampaignRunner, "run", "_campaign", after=campaign_done)
    tracer.wrap(Wayfinder, "specialize", "_specialize")
    tracer.wrap(Wayfinder, "from_spec", "core.build")

    def reported(tracer, args, result):
        manifest = load_manifest(args[0])
        tracer.count("analysis.trials", sum(
            int((entry.get("summary") or {}).get("trials", 0))
            for entry in manifest["experiments"]))

    tracer.wrap(campaign_report, "campaign_report_document", "analysis.report",
                after=reported)
    # the server's /report cache: a call either hits or builds (a miss)
    tracer.wrap(ReportCache, "get", "_report_cache",
                measure=lambda args: args[0].hits)


def per_layer_metrics(tracer: Tracer, trials: int, wall_s: float,
                      useful_trials: int,
                      overhead_ratio: float) -> Dict[str, float]:
    """The per-layer metric set of BENCHMARK.json from one traced phase."""
    spans = tracer.spans
    own = self_times(spans)
    inclusive = total_times(spans)
    calls = call_counts(spans)
    counts = tracer.counts

    def per_trial_ms(name: str) -> float:
        return 1000.0 * own.get(name, 0.0) / trials

    def per_call_ms(name: str) -> float:
        return 1000.0 * own.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    experiments = counts.get("platform.experiments", 0)
    checkpoints = calls.get("platform.checkpoint", 0)
    by_ident = {span.ident: span for span in spans}
    fabric_s = inclusive.get("_campaign", 0.0) - sum(
        span.end - span.start for span in spans
        if span.name == "_specialize" and _within(span, by_ident, "_campaign"))
    reports = calls.get("analysis.report", 0)
    cache_calls = calls.get("_report_cache", 0)
    metrics = {
        "search.generate_ms": per_trial_ms("search.generate"),
        "search.sample_calls": counts.get("search.sampled", 0) / trials,
        "config.encode_ms": per_trial_ms("config.encode"),
        "config.encoded_rows": counts.get("config.rows", 0) / trials,
        "deeptune.predict_ms": per_trial_ms("deeptune.predict"),
        "deeptune.score_ms": per_trial_ms("deeptune.score"),
        "deeptune.train_ms": per_trial_ms("deeptune.train"),
        "deeptune.candidate_yield": (counts.get("config.candidate_rows", 0)
                                     / counts["search.sampled"]
                                     if counts.get("search.sampled") else 0.0),
        "platform.evaluate_ms": per_trial_ms("platform.evaluate"),
        "platform.useful_trial_ratio": useful_trials / trials,
        "platform.ingest_ms": per_trial_ms("platform.ingest"),
        "platform.checkpoint_ms": per_trial_ms("platform.checkpoint"),
        "platform.checkpoint_calls": checkpoints / trials,
        "platform.checkpoint_kib": (counts.get("platform.checkpoint.measured", 0)
                                    / 1024.0 / checkpoints if checkpoints else 0.0),
        "platform.fabric_ms": 1000.0 * fabric_s / experiments if experiments else 0.0,
        "platform.claims_per_experiment": (counts.get("platform.claims", 0)
                                           / experiments if experiments else 0.0),
        "core.build_ms": per_call_ms("core.build"),
        "analysis.report_ms": per_call_ms("analysis.report"),
        "analysis.report_trials": (counts.get("analysis.trials", 0) / reports
                                   if reports else 0.0),
        "service.submit_ms": per_call_ms("service.submit"),
        "service.status_ms": per_call_ms("service.status"),
        "service.report_ms": per_call_ms("service.report"),
        "service.report_cache_hit_ratio": (
            counts.get("_report_cache.measured", 0) / cache_calls
            if cache_calls else 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer, share in layer_shares(spans, wall_s).items():
        metrics[layer + ".share"] = share
    return metrics


def _within(span: Span, by_ident: Dict[int, Span], container: str) -> bool:
    """Whether *span* runs nested inside a span named *container*."""
    parent = by_ident.get(span.parent)
    while parent is not None:
        if parent.name == container:
            return True
        parent = by_ident.get(parent.parent)
    return False


def phase_table(tracer: Tracer, wall_s: float) -> List[tuple]:
    """(span name, self seconds, share of wall) rows, largest first."""
    rows = [(name, seconds, seconds / wall_s)
            for name, seconds in self_times(tracer.spans).items()
            if not name.startswith(CONTAINER_PREFIX)]
    return sorted(rows, key=lambda row: row[1], reverse=True)
