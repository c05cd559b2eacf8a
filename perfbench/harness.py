"""Metric registry, percentiles and the environment stamp of the benchmark.

Everything here is stdlib-only so that the command (``run.py``) can import
it before it knows whether the program under test is even present.  The
metric names and units are read from ``BENCHMARK.json`` at the repository
root, the one place they are declared.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import time
from typing import Dict, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    _DECLARED = json.load(_handle)
#: the workloads, end-to-end metrics (``--trace 0``) and per-layer metrics
#: (``--trace 1``) of BENCHMARK.json; the metric maps go name -> unit.
WORKLOADS = tuple(item["name"] for item in _DECLARED["workloads"])
END_TO_END: Dict[str, str] = {item["name"]: item["unit"]
                              for item in _DECLARED["end_to_end"]}
PER_LAYER: Dict[str, str] = {item["name"]: item["unit"]
                             for item in _DECLARED["per_layer"]}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: a percentile needs at least this many samples beyond it to be reported.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """Raised when a percentile would rest on too few samples."""


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (linear interpolation between order statistics).

    Refuses (:class:`TooFewSamples`) unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it, so p50 needs 20
    samples and p90 needs 100.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("percentile must lie strictly between 0 and 100")
    count = len(values)
    if count * (100.0 - q) / 100.0 < MIN_SAMPLES_BEYOND:
        raise TooFewSamples("p{:g} of {} samples has fewer than {} beyond it".format(
            q, count, MIN_SAMPLES_BEYOND))
    ordered = sorted(values)
    position = (count - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def metrics_block(values: Dict[str, float],
                  registry: Dict[str, str]) -> Dict[str, Dict[str, object]]:
    """``{name: {"value", "unit"}}`` for exactly the names of *registry*."""
    missing = sorted(set(registry) - set(values))
    unknown = sorted(set(values) - set(registry))
    if missing or unknown:
        raise KeyError("metric set mismatch: missing {} unknown {}".format(
            missing, unknown))
    return {name: {"value": float(values[name]), "unit": registry[name]}
            for name in registry}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, object]]) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics},
                      sort_keys=False)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of *pid* (default: this process) in MiB."""
    path = "/proc/{}/status".format("self" if pid is None else pid)
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in {}".format(path))


def calibration_ms(rounds: int = 3) -> float:
    """Best-of-*rounds* time of a fixed pure-Python loop (host speed probe)."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        total = 0
        for index in range(300_000):
            total += index * index % 7
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def _git_sha(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment_stamp(root: str, env: Dict[str, str]) -> Dict[str, object]:
    """Where and on what a run was measured; recorded, never gated on.

    *env* is the environment the measured processes ran with.
    """
    stamp: Dict[str, object] = {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "threads": {name: env.get(name) for name in THREAD_VARIABLES},
        "calibration_ms": round(calibration_ms(), 3),
    }
    try:
        import numpy

        stamp["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        stamp["blas"] = "{} {}".format(blas.get("name"), blas.get("version"))
    except (ImportError, KeyError, TypeError):
        stamp.setdefault("numpy", None)
        stamp["blas"] = None
    return stamp


def child_environment(root: str) -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    source = os.path.join(root, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"]
                                  if env.get("PYTHONPATH") else "")
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env

