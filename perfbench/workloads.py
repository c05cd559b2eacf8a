"""The two benchmark workloads; ``run.py`` starts this file as a child.

Each workload drives the program only through public APIs and runs in one
process (service-grid: one client process plus the ``repro serve`` child
that does the work).  A workload runs whole *rounds* — one search or one
service job — until the next round would end after
``--seconds``; every round's inputs derive from ``--seed`` and the round
number, so a round is the same work on every run with that seed.

With ``--trace 1`` the workload runs twice: untraced, then with the layer
wrappers of ``layers.py`` installed, over the same rounds.  Both passes
must produce the same record digest.

Usage (normally via ``run.py``)::

    PYTHONPATH=src python3 perfbench/workloads.py --workload deeptune-linux \\
        --seed 1 --seconds 30 --trace 0 --work .perfbench/scratch
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import harness
import layers

#: deeptune-linux: the paper's workload (ROADMAP's "real run").
DEEPTUNE_ITERATIONS = 120
DEEPTUNE_WARMUP = 10  # DeepTuneSearch's default random warm-up trials
DEEPTUNE_CHECKPOINT_EVERY = 10

#: service-grid: 3 apps x (random, grid) x 2 seeds of tiny experiments.
GRID_ITERATIONS = 16
REDUCED_SPACE = {"extra_compile": 20, "extra_runtime": 12, "extra_boot": 4}
POLL_S = 0.05
TENANT = "bench"
JOB_TIMEOUT_S = 120.0
#: every p50 needs 20 samples (harness.MIN_SAMPLES_BEYOND on each side).
MIN_JOBS = 20


class Phase:
    """What one pass over the rounds measured and checked."""

    def __init__(self) -> None:
        self.trials = 0
        self.useful_trials = 0
        self.experiments = 0
        self.wall_s = 0.0
        self.trial_gaps_ms: List[float] = []
        self.job_s: List[float] = []
        self.status_ms: List[float] = []
        self.report_ms: List[float] = []
        self.digests: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.peak_rss_mb: Optional[float] = None

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index * 10


def digest(record_dicts: List[Dict[str, Any]]) -> str:
    blob = json.dumps(record_dicts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class Clock:
    """``perf_counter`` minus the time spent in the benchmark's own probes.

    Progress reads taken during a run are timed here and excluded, so they
    neither lengthen a trial gap nor lower ``trials_per_s``.
    """

    def __init__(self) -> None:
        self.excluded = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    @contextlib.contextmanager
    def paused(self):
        """Take the time spent in the block out of the clock."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - started

    def probe(self, samples_ms: List[float], read: Callable[[], Any]) -> None:
        started = time.perf_counter()
        with self.paused():
            read()
        samples_ms.append(1000.0 * (time.perf_counter() - started))


#: cold starts per run; setup_s is their median.
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def setup_probe(workload: str, work: str) -> float:
    """Seconds from spawning a fresh interpreter until *workload* is ready."""
    os.makedirs(work)
    if workload == "service-grid":
        command = [sys.executable, "-m", "repro.cli", "serve", "--results", work,
                   "--port", "0", "--workers", "1"]
        marker = "listening on "
    else:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", "0", "--work", work,
                   "--setup-only"]
        marker = "ready"
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        if process.poll() is None and workload == "service-grid":
            # the server is only probed for readiness; stop it outright
            process.terminate()
        try:
            process.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()
    if not line.startswith(marker):
        raise RuntimeError("expected {!r} from set-up probe, got {!r}".format(
            marker, line))
    if process.returncode not in (0, -signal.SIGTERM):
        raise RuntimeError("set-up probe exited with {}".format(process.returncode))
    return elapsed


class SetupProbes:
    """:data:`SETUP_PROBES` cold starts spread evenly over a pass.

    Probe *k* is due once ``k / SETUP_PROBES`` of ``--seconds`` has passed;
    the workload offers a probe between trials or jobs, and the probe's time
    is taken out of the run's clock.  Spread like this, the probes start
    on whichever CPU the rotation has the workload on and fall in different
    host speed phases, instead of all landing in one phase back to back.
    """

    def __init__(self, workload: str, work: str, seconds: float) -> None:
        self.workload, self.work, self.seconds = workload, work, seconds
        self.samples_s: List[float] = []
        self.started = time.perf_counter()

    def _take(self) -> None:
        self.samples_s.append(setup_probe(self.workload, os.path.join(
            self.work, "setup-{}".format(len(self.samples_s)))))

    def offer(self, clock: Clock) -> None:
        due = len(self.samples_s) * self.seconds / SETUP_PROBES
        if (len(self.samples_s) < SETUP_PROBES
                and time.perf_counter() - self.started >= due):
            with clock.paused():
                self._take()

    def finish(self) -> float:
        """Take the probes a short pass left over; the median in seconds."""
        while len(self.samples_s) < SETUP_PROBES:
            self._take()
        return statistics.median(self.samples_s)


def make_recorder(clock: Clock, probes: List[tuple],
                  setup: Optional[SetupProbes]):
    """A session observer timing trials, checkpoints and submissions.

    After every trial, once a first checkpoint exists, it also times each
    ``(samples_ms, read)`` of *probes* — reads of the run's durable state —
    so those samples span the whole run; the reads grow with the
    checkpoint, so a p50 over them rests on the reads taken around the
    middle of the run, and reading after every trial puts many there.
    After every trial it offers *setup* a cold-start probe.
    """
    from repro.platform.lifecycle import SessionObserver

    class Recorder(SessionObserver):
        def __init__(self) -> None:
            self.submitted: List[float] = []
            self.finished: List[float] = []
            self.records: List[Any] = []
            self.durable_s: List[float] = []

        def on_batch_start(self, session, batch_index, planned):
            self.submitted.extend([clock.now()] * planned)

        def on_trial(self, session, record):
            self.finished.append(clock.now())
            self.records.append(record)
            if self.durable_s:
                for samples_ms, read in probes:
                    clock.probe(samples_ms, read)
            if setup is not None:
                setup.offer(clock)

        def on_checkpoint(self, session, path):
            now = clock.now()
            start = len(self.durable_s)
            self.durable_s.extend(now - self.submitted[index]
                                  for index in range(start, len(self.records)))

        def gaps_ms(self, first: int) -> List[float]:
            times = self.finished
            return [1000.0 * (times[index] - times[index - 1])
                    for index in range(max(first, 1), len(times))]

    return Recorder()


def _check_stored(phase: Phase, stored: List[Dict[str, Any]],
                  in_memory: List[Dict[str, Any]], expected: int,
                  name: str) -> None:
    phase.check(len(in_memory) == expected, "{}: {} records, budget {}".format(
        name, len(in_memory), expected))
    phase.check(stored == in_memory,
                "{}: stored history differs from the in-memory records".format(name))


# -- deeptune-linux -------------------------------------------------------------
def run_report(path: str) -> tuple:
    """One run's report figures, read the way campaign reports read them:
    straight off the stored columns, without materializing records."""
    from repro.platform.results import open_history_view

    view = open_history_view(path)
    useful = view.has_objective & ~view.crashed
    best = float(view.objective[useful].max()) if useful.any() else None
    return len(view), float(view.crashed.mean()), best, view.cost_by_iteration().sum()


def deeptune_round(phase: Phase, work: str, seed: int, index: int,
                   setup: Optional[SetupProbes]) -> None:
    from repro.core.spec import ExperimentSpec
    from repro.core.wayfinder import Wayfinder
    from repro.platform.results import (ResultsStore, load_checkpoint_file,
                                        load_history_document, record_to_dict)

    directory = os.path.join(work, "deeptune-{}".format(index))
    store = ResultsStore(directory)
    clock = Clock()
    started = clock.now()
    spec = ExperimentSpec(os_name="linux", os_version="v4.19",
                          application="nginx", algorithm="deeptune",
                          seed=round_seed(seed, index),
                          iterations=DEEPTUNE_ITERATIONS, workers=1,
                          batch_size=1, execution="batch",
                          name="deeptune-{}".format(index))
    wayfinder = Wayfinder.from_spec(spec)
    wayfinder.enable_checkpointing(store, name=spec.name,
                                   every=DEEPTUNE_CHECKPOINT_EVERY)
    checkpoint_path = store.checkpoint_path(spec.name)
    recorder = wayfinder.add_observer(make_recorder(clock, [
        (phase.status_ms, lambda: load_checkpoint_file(checkpoint_path)),
        (phase.report_ms, lambda: run_report(checkpoint_path))], setup))
    result = wayfinder.specialize()
    store.save_history(spec.name, result.history,
                       metadata={"experiment": spec.name, "seed": spec.seed})
    phase.wall_s += clock.now() - started

    # the guided trials only: gap i is the cost of proposing trial i
    phase.trial_gaps_ms.extend(recorder.gaps_ms(DEEPTUNE_WARMUP))
    phase.job_s.extend(recorder.durable_s)
    history_path = store.history_path(spec.name)

    records = [record_to_dict(record) for record in result.history]
    _check_stored(phase, load_history_document(history_path)["records"],
                  records, DEEPTUNE_ITERATIONS, spec.name)
    phase.check([record_to_dict(r) for r in recorder.records] == records,
                "{}: observed trials differ from the history".format(spec.name))
    phase.check(load_checkpoint_file(checkpoint_path)["records"] == records,
                "{}: final checkpoint differs from the history".format(spec.name))
    phase.trials += len(records)
    phase.useful_trials += sum(1 for record in result.history if not record.crashed)
    phase.experiments += 1
    phase.attempted += len(records) + 1
    phase.digests.append(digest(records))


# -- service-grid ---------------------------------------------------------------
def grid_campaign(seed: int, index: int) -> Dict[str, Any]:
    first = round_seed(seed, index)
    return {"name": "grid-{}".format(index),
            "applications": ["nginx", "redis", "sqlite"],
            "algorithms": ["random", "grid"], "seeds": [first, first + 1],
            "base": {"iterations": GRID_ITERATIONS,
                     "space_options": dict(REDUCED_SPACE)}}


class Client:
    """The closed-loop HTTP client: one short-lived connection per request,
    like a polling script, so no keep-alive timer pads the latencies."""

    def __init__(self, host: str, port: int, phase: Phase,
                 tracer: Optional[layers.Tracer]) -> None:
        self.host, self.port = host, port
        self.phase = phase
        self.tracer = tracer

    def call(self, method: str, path: str, span: str,
             body: Optional[Dict[str, Any]] = None):
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Connection": "close"}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        traced = (self.tracer.span(span) if self.tracer is not None
                  else contextlib.nullcontext())
        started = time.perf_counter()
        with traced:
            connection = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=60)
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
                data = response.read()
            finally:
                connection.close()
        elapsed_ms = 1000.0 * (time.perf_counter() - started)
        self.phase.attempted += 1
        if not 200 <= response.status < 300:
            self.phase.failed += 1
            self.phase.problems.append("{} {} -> {}".format(method, path,
                                                            response.status))
        return response.status, data, elapsed_ms


class EventFollower(threading.Thread):
    """Reads a job's NDJSON event stream, stamping each trial on arrival."""

    def __init__(self, host: str, port: int, job: str) -> None:
        super().__init__(daemon=True, name="events-" + job)
        self.host, self.port, self.job = host, port, job
        self.trials: Dict[str, List[float]] = {}
        self.ended_at: Optional[float] = None
        self.error: Optional[str] = None

    def run(self) -> None:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=JOB_TIMEOUT_S)
        try:
            connection.request("GET", "/v1/jobs/{}/events".format(self.job))
            response = connection.getresponse()
            if response.status != 200:
                self.error = "events -> {}".format(response.status)
                return
            for line in response:
                event = json.loads(line)
                if event.get("event") == "trial":
                    self.trials.setdefault(event["experiment"], []).append(
                        time.perf_counter())
            self.ended_at = time.perf_counter()
        except (OSError, ValueError) as error:
            self.error = "events: {!r}".format(error)
        finally:
            connection.close()


def run_job(client: Client, phase: Phase, seed: int, index: int,
            reports: Dict[str, bytes]) -> None:
    started = time.perf_counter()
    status, body, elapsed_ms = client.call(
        "POST", "/v1/campaigns", "service.submit",
        {"tenant": TENANT, "campaign": grid_campaign(seed, index)})
    if status != 201:
        return
    job = json.loads(body)["job"]
    follower = EventFollower(client.host, client.port, job)
    follower.start()
    tick = started
    while True:
        tick = max(tick + POLL_S, time.perf_counter())
        time.sleep(max(0.0, tick - time.perf_counter()))
        status, body, elapsed_ms = client.call(
            "GET", "/v1/jobs/{}".format(job), "service.status")
        if status != 200:
            break
        document = json.loads(body)
        if document["phase"] not in ("queued", "running"):
            phase.check(document["phase"] == "complete",
                        "{}: ended in phase {}".format(job, document["phase"]))
            statuses = [entry["status"] for entry in document["experiments"]]
            phase.check(statuses == ["complete"] * len(statuses),
                        "{}: experiment statuses {}".format(job, statuses))
            break
        phase.status_ms.append(elapsed_ms)
        if time.perf_counter() - started > JOB_TIMEOUT_S:
            phase.check(False, "{}: no terminal status in time".format(job))
            phase.failed += 1
            break
    follower.join(timeout=30)
    if follower.error is not None or follower.ended_at is None:
        phase.check(False, "{}: event stream {}".format(job, follower.error))
        phase.failed += 1
    else:
        phase.job_s.append(follower.ended_at - started)
        for times in follower.trials.values():
            phase.trial_gaps_ms.extend(1000.0 * (later - earlier)
                                       for earlier, later in zip(times, times[1:]))
    status, first, elapsed_ms = client.call(
        "GET", "/v1/jobs/{}/report".format(job), "service.report")
    phase.report_ms.append(elapsed_ms)
    status, second, _ = client.call(
        "GET", "/v1/jobs/{}/report".format(job), "service.report_cached")
    phase.check(first == second, "{}: cached report differs".format(job))
    reports[job] = first


def service_loop(phase: Phase, host: str, port: int, seed: int,
                 seconds: float, jobs: Optional[int],
                 tracer: Optional[layers.Tracer],
                 setup: Optional[SetupProbes]) -> Dict[str, bytes]:
    """Closed loop: the next job goes in once the previous one is terminal;
    between jobs, *setup* may take a cold-start probe."""
    client = Client(host, port, phase, tracer)
    reports: Dict[str, bytes] = {}
    clock = Clock()
    started = clock.now()
    index = 0
    while (index < jobs if jobs is not None
           else index < MIN_JOBS or clock.now() - started < seconds):
        run_job(client, phase, seed, index, reports)
        index += 1
        if setup is not None:
            setup.offer(clock)
    phase.wall_s = clock.now() - started
    return reports


def verify_jobs(phase: Phase, results_root: str,
                reports: Dict[str, bytes]) -> None:
    """Report bytes equal the canonical document; counts equal the budget."""
    from repro.analysis.campaign_report import campaign_report_document
    from repro.platform.campaign_runner import load_manifest
    from repro.platform.results import ResultsStore, load_history_document

    for job in sorted(reports):
        directory = os.path.join(results_root, TENANT, job.rsplit("-", 1)[1])
        canonical = (json.dumps(campaign_report_document(directory), indent=2,
                                sort_keys=True) + "\n").encode()
        phase.check(reports[job] == canonical,
                    "{}: /report differs from campaign_report_document".format(job))
        manifest = load_manifest(directory)
        store = ResultsStore(directory)
        job_records: List[Dict[str, Any]] = []
        for entry in manifest["experiments"]:
            phase.experiments += 1
            phase.attempted += 1
            if entry["status"] != "complete":
                phase.failed += 1
                phase.check(False, "{}: {}".format(entry["name"], entry["status"]))
                continue
            records = load_history_document(store.history_path(entry["name"]))["records"]
            phase.check(len(records) == GRID_ITERATIONS,
                        "{}: {} records, budget {}".format(
                            entry["name"], len(records), GRID_ITERATIONS))
            phase.trials += len(records)
            phase.useful_trials += sum(1 for record in records
                                       if not record["crashed"])
            job_records.extend(records)
        phase.digests.append(digest(job_records))


#: the measured processes move between the host's CPUs this often.
ROTATE_S = 0.5


def _pin_process(pid: int, cpu: int) -> None:
    """Pin every thread of *pid* to *cpu* (threads may come and go)."""
    for task in os.listdir("/proc/{}/task".format(pid)):
        try:
            os.sched_setaffinity(int(task), {cpu})
        except (ProcessLookupError, FileNotFoundError):
            pass


class CpuRotation(threading.Thread):
    """Moves whole processes across the host's CPUs every :data:`ROTATE_S`.

    The host's slow phases are per CPU and can outlast a run; a run that
    visits every CPU averages their phases instead of inheriting one.
    Process *k* of *pids* sits on CPU ``(turn + k) % n``, so with two CPUs
    the service's server and its client never share one.
    """

    def __init__(self, pids: List[int]) -> None:
        super().__init__(daemon=True, name="cpu-rotation")
        self.pids = pids
        self.cpus = sorted(os.sched_getaffinity(0))
        self.allowed = set(self.cpus)
        self.stopped = threading.Event()

    def _place(self, turn: int) -> None:
        for offset, pid in enumerate(self.pids):
            _pin_process(pid, self.cpus[(turn + offset) % len(self.cpus)])

    def run(self) -> None:
        turn = 0
        self._place(turn)
        while not self.stopped.wait(ROTATE_S):
            turn += 1
            self._place(turn)

    def stop(self) -> None:
        self.stopped.set()
        self.join()
        for task in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(task), self.allowed)
            except (ProcessLookupError, FileNotFoundError):
                pass


def start_server(results_root: str, spans_path: Optional[str]) -> tuple:
    """``repro serve`` as a child; returns (process, host, port).

    With *spans_path*, the server runs with the layer wrappers installed
    (``serve_traced.py``) and writes its spans there when it stops.
    """
    serve = ["serve", "--results", results_root, "--port", "0", "--workers", "1"]
    launcher = (["-m", "repro.cli"] if spans_path is None else
                [os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "serve_traced.py"), spans_path])
    process = subprocess.Popen([sys.executable] + launcher + serve,
                               stdout=subprocess.PIPE, text=True)
    line = process.stdout.readline()
    if not line.startswith("listening on "):
        stop_server(process)
        raise RuntimeError("server did not start: {!r}".format(line))
    address = line.split("listening on ", 1)[1].strip().rsplit("/", 1)[-1]
    host, port = address.rsplit(":", 1)
    return process, host, int(port)


def stop_server(process: subprocess.Popen) -> int:
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)
    if process.stdout is not None:
        process.stdout.close()
    return process.returncode


def service_phase(phase: Phase, work: str, seed: int, seconds: float,
                  jobs: Optional[int], tracer: Optional[layers.Tracer],
                  setup: Optional[SetupProbes]) -> int:
    name = "traced" if tracer is not None else "plain"
    results_root = os.path.join(work, "service-" + name)
    spans_path = (os.path.join(work, "server-spans.jsonl")
                  if tracer is not None else None)
    process, host, port = start_server(results_root, spans_path)
    phase.attempted += 1
    rotation = CpuRotation([process.pid, os.getpid()])
    rotation.start()
    try:
        reports = service_loop(phase, host, port, seed, seconds, jobs, tracer,
                               setup)
        phase.peak_rss_mb = harness.peak_rss_mb(process.pid)
    finally:
        rotation.stop()
        code = stop_server(process)
    if code != 0:
        phase.failed += 1
        phase.check(False, "server exited with {}".format(code))
    if tracer is not None:
        tracer.merge(spans_path)
    verify_jobs(phase, results_root, reports)
    return len(reports)


# -- driving --------------------------------------------------------------------
ROUNDS = {"deeptune-linux": deeptune_round}


def run_rounds(workload: str, work: str, seed: int, seconds: float,
               rounds: Optional[int], tracer: Optional[layers.Tracer],
               setup: Optional[SetupProbes]) -> tuple:
    """One pass; returns (phase, rounds run)."""
    phase = Phase()
    if workload == "service-grid":
        return phase, service_phase(phase, work, seed, seconds, rounds, tracer,
                                    setup)
    step = ROUNDS[workload]
    rotation = CpuRotation([os.getpid()])
    rotation.start()
    started = time.perf_counter()
    index = 0
    try:
        while True:
            round_started = time.perf_counter()
            step(phase, os.path.join(work, "traced" if tracer else "plain"),
                 seed, index, setup)
            index += 1
            if rounds is not None:
                if index >= rounds:
                    break
            elif (time.perf_counter() - started
                  + (time.perf_counter() - round_started) > seconds):
                break
    finally:
        rotation.stop()
    phase.peak_rss_mb = harness.peak_rss_mb()
    return phase, index


def end_to_end(phase: Phase) -> Dict[str, float]:
    return {
        "trials_per_s": phase.trials / phase.wall_s,
        "trial_ms_p50": harness.percentile(phase.trial_gaps_ms, 50),
        "trial_ms_p90": harness.percentile(phase.trial_gaps_ms, 90),
        "peak_rss_mb": phase.peak_rss_mb,
        "experiments_per_s": phase.experiments / phase.wall_s,
        "job_s_p50": harness.percentile(phase.job_s, 50),
        "status_ms_p50": harness.percentile(phase.status_ms, 50),
        "report_ms_p50": harness.percentile(phase.report_ms, 50),
    }


def measure(workload: str, work: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    setup = None if trace else SetupProbes(workload, os.path.join(work, "setup"),
                                           seconds)
    plain, rounds = run_rounds(workload, work, seed, seconds, None, None, setup)
    problems = list(plain.problems)
    attempted, failed = plain.attempted, plain.failed
    out: Dict[str, Any] = {"rounds": rounds,
                           "samples": {"trial_gaps": len(plain.trial_gaps_ms),
                                       "job": len(plain.job_s),
                                       "status": len(plain.status_ms),
                                       "report": len(plain.report_ms)}}
    if not trace:
        out["metrics"] = dict(end_to_end(plain), setup_s=setup.finish())
        out["setup_samples_s"] = setup.samples_s
    else:
        tracer = layers.Tracer()
        if workload != "service-grid":
            # (service-grid's server child installs the wrappers itself)
            layers.install(tracer)
        try:
            traced, _ = run_rounds(workload, work, seed, seconds, rounds, tracer,
                                   None)
        finally:
            tracer.restore()
        # the wrappers' own directory scans are no part of the workload
        traced.wall_s -= tracer.counts.get(layers.MEASURE_S, 0.0)
        problems.extend(traced.problems)
        attempted += traced.attempted
        failed += traced.failed
        if traced.digests != plain.digests:
            problems.append("traced records differ from the untraced run")
        overhead = (traced.trials / traced.wall_s) / (plain.trials / plain.wall_s)
        out["metrics"] = layers.per_layer_metrics(
            tracer, traced.trials, traced.wall_s, traced.useful_trials, overhead)
        out["phases"] = [[name, round(seconds_, 4), round(share, 4)]
                         for name, seconds_, share in
                         layers.phase_table(tracer, traced.wall_s)]
        spans_path = os.path.join(work, "spans.jsonl")
        tracer.write(spans_path)
        out["spans"] = len(tracer.spans)
    out.update(digests=plain.digests, attempted=attempted, failed=failed,
               problems=problems)
    return out


def setup(workload: str, work: str) -> None:
    """Cold start to ready, without running anything (``--setup-only``)."""
    if workload == "deeptune-linux":
        from repro.core.spec import ExperimentSpec
        from repro.core.wayfinder import Wayfinder

        Wayfinder.from_spec(ExperimentSpec(
            os_name="linux", application="nginx", algorithm="deeptune",
            iterations=DEEPTUNE_ITERATIONS)).build_session()
    else:
        raise ValueError("no in-process set-up for {}".format(workload))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True,
                        help="scratch directory for stores and results")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    if args.setup_only:
        setup(args.workload, args.work)
        print("ready", flush=True)
        return 0
    out = measure(args.workload, args.work, args.seed, args.seconds,
                  bool(args.trace))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
