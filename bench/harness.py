"""One benchmark run: set up, measure fixed-size rounds, verify, report.

``run_workload`` is what ``python -m bench run --workload W --seed N
--seconds S --trace T`` executes.  The shape of a run is the same for every
workload:

1. **Set-up** runs at least :data:`SETUP_REPEATS` times (cheap set-ups up to
   :data:`SETUP_MAX_REPEATS`, until they add up to a second), each into a
   fresh directory; ``setup_s`` is the median, the last set-up's state is kept.
2. **Measured rounds.**  A round is a fixed amount of closed-loop work (one
   client, every call waits for its reply).  The number of rounds is sized
   from ``--seconds`` (``rounds_per_second`` of the workload, calibrated on
   the 2-core reference box) so that the same seed and seconds always do the
   same work and every count repeats exactly; ``--seconds`` is also a
   deadline -- on a box slower than the reference the loop stops at the first
   round boundary past ``DEADLINE_FACTOR x seconds`` and reports what it did.
   Times are reported per round (median), so a truncated run stays comparable.
3. **Verification** against the workload's oracle happens outside every timed
   region; a wrong answer counts as a failed operation.

With ``--trace 1`` the same rounds run twice on fresh state: a short untraced
reference pass, then the traced pass (:mod:`bench.trace` wrappers installed).
``trace.overhead_pct`` compares the two on the rounds both executed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import zlib
from pathlib import Path
from typing import Any, Protocol

from bench.trace import Tracer, format_table

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Child environment of every run.  Unpinned, the SSA forecaster's SVD
#: spreads over both cores (193 CPU-s for 99 wall-s in a scratch run) and the
#: scheduler becomes the measurement.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 9
DEADLINE_FACTOR = 2.0
DEFAULT_OUT_DIR = ".bench_out"

#: Layer metrics whose name is not ``<span>_calls``.
CALL_COUNT_NAMES = {
    "fileio.fsync": "fileio.fsyncs",
    "manifest.commit": "manifest.commits",
    "live.seal": "live.seals",
    "serving.predict_batch": "serving.batches",
}


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


class IoProbe:
    """Deltas of ``/proc/self/io``: bytes and calls of real ``read()``s."""

    FIELDS = ("rchar", "wchar", "syscr")

    def __init__(self) -> None:
        try:
            self._fd: int | None = os.open("/proc/self/io", os.O_RDONLY)
        except OSError:
            self._fd = None
        # Reading the counters is itself one read(); measure what it adds.
        first, second = self.sample(), self.sample()
        self._cost = tuple(b - a for a, b in zip(first, second))

    def sample(self) -> tuple[int, int, int]:
        if self._fd is None:
            return (0, 0, 0)
        fields = dict(
            line.split(b": ") for line in os.pread(self._fd, 512, 0).splitlines() if b": " in line
        )
        return tuple(int(fields.get(name.encode(), 0)) for name in self.FIELDS)  # type: ignore[return-value]

    def delta(self, before: tuple[int, int, int]) -> tuple[int, int, int]:
        after = self.sample()
        return tuple(  # type: ignore[return-value]
            max(0, b - a - cost) for a, b, cost in zip(before, after, self._cost)
        )

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def calibrate() -> dict[str, float]:
    """Machine fingerprint for reading trajectories across boxes.

    Never used to rescale a gated metric.
    """
    import numpy as np

    def spin() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        block = np.arange(200_000, dtype=np.float64)
        for _ in range(20):
            block = np.sqrt(block * block + 1.0)
        return time.perf_counter() - started

    def crc() -> float:
        buffer = bytes(8 << 20)
        started = time.perf_counter()
        zlib.crc32(buffer)
        return 8.0 / (time.perf_counter() - started)

    return {
        "calib.spin_s": min(spin() for _ in range(3)),
        "calib.crc32_mb_s": max(crc() for _ in range(3)),
    }


def _noop(_: int) -> int:
    return 0


def pool_startup_seconds() -> float:
    """Wall time of a 2-worker process pool mapping a no-op, start to join."""
    from repro.parallel import PartitionedExecutor

    started = time.perf_counter()
    with PartitionedExecutor("processes", n_workers=2) as executor:
        executor.map(_noop, [0, 1])
    return time.perf_counter() - started


class Context:
    """What a workload driver reports into during one run."""

    def __init__(self, seed: int, tracer: Tracer, traced: bool) -> None:
        self.seed = seed
        self.tracer = tracer
        self.traced = traced
        self.io = IoProbe() if traced else None
        self.reset_measurements()

    def reset_measurements(self) -> None:
        #: Latency samples in seconds, by operation kind.
        self.lat: dict[str, list[float]] = {}
        #: Counters summed over the measured rounds (reported per round).
        self.counts: dict[str, float] = {}
        #: Values reported as they are (ratios, sizes, percentiles).
        self.gauges: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def add_scan_stats(self, stats: Any) -> None:
        """Fold one query's ``ScanStats`` into the layer counters."""
        self.add("columnar.chunks_seen", stats.chunks_seen)
        self.add("columnar.chunks_pruned", stats.chunks_pruned)
        self.add("columnar.chunks_answered_from_stats", stats.chunks_answered_from_stats)
        self.add("columnar.payload_bytes_verified", stats.payload_bytes_verified)
        self.add("columnar.bytes_decoded_avoided", stats.bytes_decoded_avoided)
        self.add("live.tail_rows_scanned", stats.tail_rows_scanned)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)
            print(f"bench: FAILED {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        """An oracle comparison: a wrong answer is a failed operation."""
        if not ok:
            self.fail(f"oracle: {what}")

    def timed(self, kind: str, fn: Any, *args: Any, **kwargs: Any) -> Any:
        """Issue one operation, wait for its reply, record its latency.

        A raising operation is counted as failed and returns ``None``.
        """
        self.attempted += 1
        out = None
        with self.tracer.span("op." + kind, new_op=True):
            started = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:  # the failure is the measurement
                self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - started
        self.lat.setdefault(kind, []).append(elapsed)
        return out

    def p(self, kind: str, q: float, scale: float) -> float:
        return percentile(self.lat.get(kind, []), q) * scale


class Workload(Protocol):
    """A workload driver (see :mod:`bench.workloads`)."""

    name: str
    #: Measured rounds per second of ``--seconds`` on the reference box.
    rounds_per_second: float
    #: Operation kinds behind the gated ``read_p50_ms`` / ``batch_p50_ms``.
    read_op: str
    batch_op: str

    def setup(self, ctx: Context, directory: Path) -> None: ...
    def begin(self, ctx: Context, directory: Path) -> None: ...
    def round(self, ctx: Context, index: int) -> None: ...
    def after_round(self, ctx: Context, index: int) -> None: ...
    def finish(self, ctx: Context) -> None: ...


def _cpu_seconds() -> float:
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


def _measure_rounds(
    workload: Workload, ctx: Context, n_rounds: int, seconds: float
) -> tuple[list[float], list[float]]:
    """Run up to ``n_rounds`` rounds; returns per-round wall and CPU."""
    walls: list[float] = []
    cpus: list[float] = []
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    for index in range(n_rounds):
        cpu_started = _cpu_seconds()
        started = time.perf_counter()
        with ctx.tracer.span("round"):
            workload.round(ctx, index)
        walls.append(time.perf_counter() - started)
        cpus.append(_cpu_seconds() - cpu_started)
        paused, ctx.tracer.enabled = ctx.tracer.enabled, False
        workload.after_round(ctx, index)
        ctx.tracer.enabled = paused
        if time.perf_counter() > deadline and index + 1 < n_rounds:
            print(
                f"bench: {workload.name}: deadline passed after {index + 1}/{n_rounds} "
                f"rounds; reporting those",
                file=sys.stderr,
            )
            break
    return walls, cpus


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool = False,
    out_dir: Path | None = None,
) -> dict[str, Any]:
    """Run one workload once; returns ``{"result": ..., "detail": ...}``.

    ``result`` is the contract object (``correct`` / ``attempted`` /
    ``failed`` / ``metrics``); ``detail`` carries sample counts, the
    self-time table and the trace file for the run record.
    """
    from bench.workloads import make_workload

    spec = load_spec()
    workload = make_workload(name, smoke)
    n_rounds = max(1 if smoke else 2, round(workload.rounds_per_second * seconds))
    out_dir = Path(out_dir if out_dir is not None else DEFAULT_OUT_DIR)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=out_dir))
    tracer = Tracer()
    ctx = Context(seed, tracer, traced)
    detail: dict[str, Any] = {"workload": name, "seed": seed, "rounds_planned": n_rounds}
    try:
        # -- set-up ---------------------------------------------------- #
        # Traced or smoke: one set-up.  Otherwise at least three, and cheap
        # set-ups repeat further so their median rests on a second of work.
        setup_seconds: list[float] = []
        tracer.phase = "setup"
        if traced:
            tracer.install()
            tracer.enabled = True
        while True:
            directory = tmp / f"setup-{len(setup_seconds)}"
            directory.mkdir()
            started = time.perf_counter()
            with tracer.span("setup"):
                workload.setup(ctx, directory)
            setup_seconds.append(time.perf_counter() - started)
            enough = len(setup_seconds) >= SETUP_REPEATS and (
                sum(setup_seconds) >= SETUP_MIN_SECONDS or len(setup_seconds) >= SETUP_MAX_REPEATS
            )
            if traced or smoke or enough:
                break
            shutil.rmtree(directory, ignore_errors=True)
        tracer.uninstall()
        tracer.phase = "round"

        # -- measured rounds ------------------------------------------- #
        reference_walls: list[float] = []
        if traced:
            workload.begin(ctx, tmp / "reference")
            reference_walls, _ = _measure_rounds(
                workload, ctx, max(1, n_rounds // 2), seconds / 2
            )
            ctx.reset_measurements()
            tracer.install()
        workload.begin(ctx, tmp / "measured")
        io_before = ctx.io.sample() if ctx.io is not None else None
        tracer.enabled = traced
        walls, cpus = _measure_rounds(workload, ctx, n_rounds, seconds)
        tracer.uninstall()
        io_delta = ctx.io.delta(io_before) if ctx.io is not None and io_before else (0, 0, 0)
        peak_rss = _peak_rss_mib()
        rounds_done = len(walls)

        # -- verification and layer counters (untimed) ------------------ #
        workload.finish(ctx)
    finally:
        tracer.uninstall()
        if ctx.io is not None:
            ctx.io.close()
        shutil.rmtree(tmp, ignore_errors=True)

    wall_s = statistics.median(walls)
    detail.update(
        rounds_done=rounds_done,
        round_wall_s=walls,
        setup_s=setup_seconds,
        samples={kind: len(values) for kind, values in sorted(ctx.lat.items())},
        errors=ctx.errors,
    )
    if not traced:
        values = {
            "setup_s": statistics.median(setup_seconds),
            "wall_s": wall_s,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss,
            "read_p50_ms": ctx.p(workload.read_op, 0.5, 1e3),
            "batch_p50_ms": ctx.p(workload.batch_op, 0.5, 1e3),
        }
        declared = spec["end_to_end"]
        detail["sample_counts"] = {
            "setup_s": len(setup_seconds),
            "wall_s": rounds_done,
            "cpu_s": rounds_done,
            "peak_rss_mb": 1,
            "read_p50_ms": len(ctx.lat.get(workload.read_op, [])),
            "batch_p50_ms": len(ctx.lat.get(workload.batch_op, [])),
        }
    else:
        values = _layer_values(ctx, tracer, rounds_done, walls, reference_walls, io_delta)
        values.update(calibrate())
        declared = spec["per_layer"]
        table = tracer.table()
        traced_wall = sum(walls)
        trace_path = out_dir / f"trace-{name}.json"
        tracer.write_chrome_trace(
            trace_path, {"workload": name, "seed": seed, "rounds": rounds_done}
        )
        table_text = format_table(
            [row for row in table if row["phase"] == "round"], traced_wall
        )
        (out_dir / f"selftime-{name}.txt").write_text(table_text + "\n")
        targets = len(tracer.resolved) + len(tracer.missing)
        detail.update(
            trace_file=str(trace_path),
            self_time=table,
            traced_wall_s=traced_wall,
            span_coverage=1.0 - values.get("trace.unattributed_s", 0.0) / wall_s,
            missing_layers=tracer.missing,
            targets_resolved=len(tracer.resolved) / targets if targets else 1.0,
            dropped_events=tracer.dropped_events,
        )

    metrics = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in declared
    }
    result = {
        "correct": ctx.failed == 0,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "metrics": metrics,
    }
    return {"result": result, "detail": detail}


def _layer_values(
    ctx: Context,
    tracer: Tracer,
    rounds: int,
    walls: list[float],
    reference_walls: list[float],
    io_delta: tuple[int, int, int],
) -> dict[str, float]:
    """Every layer number of a traced run, keyed by metric name.

    A span-derived metric is the layer's self time (or call count) per
    measured round; a layer that only works during set-up (generation,
    extract writes, model fits of ``serve-mix``) reports its one traced
    set-up instead.
    """
    values: dict[str, float] = {}
    spans = {name for bucket in tracer.totals.values() for name in bucket}
    for span in spans:
        if span.startswith("op.") or span in ("round", "setup"):
            continue
        if tracer.calls(span, "round"):
            seconds = tracer.self_seconds(span, "round") / rounds
            calls = tracer.calls(span, "round") / rounds
        else:
            seconds = tracer.self_seconds(span, "setup")
            calls = float(tracer.calls(span, "setup"))
        values[span + "_s"] = seconds
        values[CALL_COUNT_NAMES.get(span, span + "_calls")] = calls
    for name, total in ctx.counts.items():
        values[name] = total / rounds
    values.update(ctx.gauges)

    driver_self = sum(
        row[0]
        for span, row in tracer.totals.get("round", {}).items()
        if span == "round" or span.startswith("op.")
    )
    values["trace.unattributed_s"] = driver_self / rounds
    # The orchestrator's run is the root of the fleet flow: reported whole
    # (inclusive); its own share -- unit and orchestrator glue that no layer
    # span covers -- is the pipeline's unattributed time.
    values["pipeline.unattributed_s"] = values.get("fleet_ops.run_s", 0.0)
    run_row = tracer.totals.get("round", {}).get("fleet_ops.run")
    values["fleet_ops.run_s"] = run_row[1] / rounds if run_row is not None else 0.0
    shared = min(len(walls), len(reference_walls))
    if shared:
        traced_median = statistics.median(walls[:shared])
        reference_median = statistics.median(reference_walls[:shared])
        values["trace.overhead_pct"] = 100.0 * (traced_median / reference_median - 1.0)
    read_bytes, write_bytes, read_calls = io_delta
    values["fileio.read_bytes"] = read_bytes / rounds
    values["fileio.write_bytes"] = write_bytes / rounds
    values["fileio.read_syscalls"] = read_calls / rounds
    return values


def environment() -> dict[str, Any]:
    """The facts a run record carries about the box and the interpreter."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "env": {name: os.environ.get(name) for name in PINNED_ENV},
    }
