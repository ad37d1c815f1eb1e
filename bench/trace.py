"""Outside-in layer tracing for the benchmark's traced run.

Spans come from the benchmark's own files: the drivers open a span around
each operation they issue, and :data:`TARGETS` names the public callables
at each layer boundary of ``repro``.  :meth:`Tracer.install` wraps those
callables with ``setattr`` for the traced run only and
:meth:`Tracer.uninstall` puts the originals back.  Nothing inside ``repro``
knows it is being traced, no private (``_name``) function is wrapped, and
no per-chunk stdlib call either -- the price of a span (about a
microsecond) must stay small against the work it brackets.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover; it is accumulated when each span closes,
so the table costs no memory however many spans a run makes.  Raw spans
(name, start, end, parent, op id) are kept in memory up to
:data:`MAX_EVENTS` and written out as a Chrome-trace file when the run
ends.

A target that no longer resolves is reported under ``missing`` and its
metrics are simply absent: a later refactor cannot break the gated run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import types
from pathlib import Path
from typing import Any

#: ``(span name, "module:attribute.path")``.  The span name is the stem of
#: the layer metrics it feeds: ``<span>_s`` (self time) and
#: ``<span>_calls``.  Two targets may share a span name (an override of a
#: base-class method is the same layer boundary).
TARGETS: tuple[tuple[str, str], ...] = (
    ("telemetry.generate", "repro.telemetry.generator:WorkloadGenerator.generate_server"),
    ("columnar.encode", "repro.storage.columnar:frame_to_sgx_bytes"),
    ("columnar.scan", "repro.storage.columnar:scan_sgx_bytes"),
    ("columnar.aggregate", "repro.storage.columnar:aggregate_sgx_bytes"),
    ("manifest.current", "repro.storage.manifest:LakeManifest.current"),
    ("manifest.commit", "repro.storage.manifest:ManifestTransaction.commit"),
    ("datalake.query", "repro.storage.datalake:DataLakeStore.query"),
    ("datalake.write_extract", "repro.storage.datalake:DataLakeStore.write_extract"),
    ("datalake.fingerprint", "repro.storage.datalake:DataLakeStore.extract_fingerprint"),
    ("fileio.fsync", "os:fsync"),
    ("live.ingest", "repro.storage.live:LiveIngestor.ingest"),
    ("live.seal", "repro.storage.live:LiveIngestor.seal"),
    ("live.tail", "repro.storage.live:LiveTailIndex.tail"),
    ("artifacts.open", "repro.storage.artifacts:ArtifactStore.at"),
    ("artifacts.put", "repro.storage.artifacts:ArtifactStore.put"),
    ("artifacts.get", "repro.storage.artifacts:ArtifactStore.get"),
    ("timeseries.content_hash", "repro.timeseries.frame:LoadFrame.content_hash"),
    ("validation.validate", "repro.validation.validator:DataValidationModule.validate"),
    ("features.extract", "repro.features.extractor:FeatureExtractionModule.extract_frame"),
    ("metrics.evaluate", "repro.metrics.evaluation:AccuracyEvaluationModule.evaluate"),
    ("pipeline.run", "repro.core.pipeline:SeagullPipeline.run"),
    ("models.fit", "repro.models.base:Forecaster.fit"),
    ("models.predict", "repro.models.base:Forecaster.predict"),
    ("models.predict", "repro.models.cached:PrecomputedForecaster.predict"),
    ("serving.predict", "repro.serving:PredictionService.predict"),
    ("serving.predict_batch", "repro.serving:PredictionService.predict_batch"),
    ("scheduling.schedule_fleet", "repro.scheduling:BackupScheduler.schedule_fleet"),
    ("bridge.on_sealed", "repro.serving:LiveServingBridge.on_sealed"),
    ("fleet_ops.run", "repro.fleet_ops:FleetOrchestrator.run"),
)

#: Raw spans kept for the Chrome-trace file; the self-time table is exact
#: beyond it, the file just stops growing.
MAX_EVENTS = 200_000


class _NullSpan:
    """What ``span()`` hands out when nothing is being traced."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_name", "_frame")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._frame = self._tracer._enter(self._name, True)

    def __exit__(self, *exc: object) -> None:
        self._tracer._exit(self._frame)


class Tracer:
    """In-memory span recorder with online self-time aggregation."""

    def __init__(self) -> None:
        self.enabled = False
        #: Bucket the self-time table is split by (``setup`` / ``round``).
        self.phase = "round"
        #: Identifier shared by every span of one driver operation.
        self.op_id = 0
        #: ``{phase: {span name: [self seconds, inclusive seconds, calls]}}``
        self.totals: dict[str, dict[str, list[float]]] = {}
        #: ``(name, start, end, parent event index, op id)``
        self.events: list[tuple[str, float, float, int, int]] = []
        self.dropped_events = 0
        self.resolved: list[str] = []
        self.missing: list[str] = []
        self._stack: list[list[Any]] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #

    def span(self, name: str, new_op: bool = False) -> "_Span | _NullSpan":
        """A driver-side span; ``new_op`` starts a new operation id."""
        if not self.enabled:
            return NULL_SPAN
        if new_op:
            self.op_id += 1
        return _Span(self, name)

    def _enter(self, name: str, count: bool) -> list[Any]:
        # frame: name, start, seconds covered by children, event slot, count
        if len(self.events) < MAX_EVENTS:
            slot = len(self.events)
            self.events.append((name, 0.0, 0.0, -1, 0))
        else:
            slot = -1
            self.dropped_events += 1
        frame = [name, 0.0, 0.0, slot, count]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, covered, slot, count = frame
        duration = end - start
        bucket = self.totals.setdefault(self.phase, {})
        row = bucket.get(name)
        if row is None:
            row = bucket[name] = [0.0, 0.0, 0]
        row[0] += duration - covered
        # Inclusive time only counts the outermost span of a name, so a
        # resumed generator or a recursive call is not counted twice.
        if not any(other[0] == name for other in stack):
            row[1] += duration
        if count:
            row[2] += 1
        parent_slot = -1
        if stack:
            stack[-1][2] += duration
            parent_slot = stack[-1][3]
        if slot >= 0:
            self.events[slot] = (name, start, end, parent_slot, self.op_id)

    # ------------------------------------------------------------------ #
    # Wrapping the layer boundaries
    # ------------------------------------------------------------------ #

    def _traced(self, name: str, fn: Any) -> Any:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, True)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if isinstance(out, types.GeneratorType):
                return tracer._traced_generator(name, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _traced_generator(self, name: str, generator: Any) -> Any:
        """Charge a lazy scan's work to its layer: one span per resume."""
        while True:
            frame = self._enter(name, False) if self.enabled else None
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                if frame is not None:
                    self._exit(frame)
            yield item

    def install(self) -> None:
        """Wrap every resolvable target (a no-op while installed)."""
        if self._originals:
            return
        self.resolved, self.missing = [], []
        for name, target in TARGETS:
            module_name, _, path = target.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._traced(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._traced(name, raw.__func__))
            else:
                wrapped = self._traced(name, raw)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            self.resolved.append(target)

    def uninstall(self) -> None:
        """Restore every wrapped callable."""
        self.enabled = False
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def self_seconds(self, name: str, phase: str) -> float:
        row = self.totals.get(phase, {}).get(name)
        return row[0] if row is not None else 0.0

    def calls(self, name: str, phase: str) -> int:
        row = self.totals.get(phase, {}).get(name)
        return int(row[2]) if row is not None else 0

    def table(self) -> list[dict[str, Any]]:
        """The self-time table, largest cost first."""
        rows = [
            {
                "phase": phase,
                "span": name,
                "self_s": row[0],
                "inclusive_s": row[1],
                "calls": int(row[2]),
            }
            for phase, bucket in self.totals.items()
            for name, row in bucket.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows

    def write_chrome_trace(self, path: Path, metadata: dict[str, Any]) -> None:
        """Write the kept spans as Chrome-trace ``X`` (complete) events."""
        origin = min((event[1] for event in self.events), default=0.0)
        trace_events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": index, "parent": parent, "op": op_id},
            }
            for index, (name, start, end, parent, op_id) in enumerate(self.events)
        ]
        payload = {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "dropped_events": self.dropped_events},
        }
        path.write_text(json.dumps(payload))


def format_table(rows: list[dict[str, Any]], wall_seconds: float, limit: int = 12) -> str:
    """Render the head of a self-time table as fixed-width text."""
    lines = [f"{'phase':<6} {'span':<28} {'self_s':>10} {'share':>7} {'calls':>9}"]
    for row in rows[:limit]:
        share = row["self_s"] / wall_seconds if wall_seconds > 0 else 0.0
        lines.append(
            f"{row['phase']:<6} {row['span']:<28} {row['self_s']:>10.4f} "
            f"{share:>6.1%} {row['calls']:>9d}"
        )
    return "\n".join(lines)
