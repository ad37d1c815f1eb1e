"""Synthetic per-server workload generation.

Each server gets a ground-truth workload class (Figure 3 mix) and a trace
generated by the corresponding shape model:

* ``stable``   -- roughly constant load with small noise, so its weekly
  average predicts it within the +10/-5 bound (Definition 4).
* ``daily``    -- a smooth diurnal shape repeated every day, so the previous
  day predicts it (Definition 5).
* ``weekly``   -- distinct weekday/weekend shapes repeated every week, so
  only the previous *equivalent* day predicts it (Definition 6).
* ``unstable`` -- regime switches, random-walk drift and spikes, so no
  persistent forecast variant predicts it reliably.
* ``short_lived`` -- any of the above truncated to less than three weeks of
  existence (Definition 3).

The generator also draws a per-server utilisation ceiling so that only a
small fraction of servers ever reach CPU capacity, reproducing the shape of
Figure 13(b), and assigns default backup windows chosen independently of
load, as the paper's automated workflow does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.fleet import FleetSpec, RegionSpec, ServerClass, extract_spec
from repro.timeseries.calendar import MINUTES_PER_DAY, MINUTES_PER_WEEK, points_per_day
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

#: Standard deviation of observation noise for predictable classes, in CPU %.
_PREDICTABLE_NOISE = 1.2

#: Default full-backup durations to draw from, in minutes.
_BACKUP_DURATIONS = (30, 45, 60, 90, 120)


@dataclass(frozen=True)
class GeneratedServer:
    """A generated server: metadata, series and its ground-truth class."""

    metadata: ServerMetadata
    series: LoadSeries
    server_class: ServerClass


def _smooth_daily_shape(rng: np.random.Generator, n_points: int) -> np.ndarray:
    """Return a smooth, non-negative daily shape in [0, 1] of length ``n_points``.

    The shape is a random low-order Fourier series, which yields realistic
    single- or double-peaked business-day curves.
    """
    hours = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    shape = np.zeros(n_points)
    n_harmonics = int(rng.integers(1, 4))
    for harmonic in range(1, n_harmonics + 1):
        amplitude = rng.uniform(0.3, 1.0) / harmonic
        phase = rng.uniform(0.0, 2.0 * np.pi)
        shape += amplitude * np.sin(harmonic * hours + phase)
    shape -= shape.min()
    peak = shape.max()
    if peak > 0:
        shape /= peak
    return shape


def stable_trace(
    rng: np.random.Generator,
    n_points: int,
    base_load: float,
) -> np.ndarray:
    """Roughly constant load around ``base_load`` with Gaussian noise."""
    return base_load + rng.normal(0.0, _PREDICTABLE_NOISE, n_points)


def daily_trace(
    rng: np.random.Generator,
    n_points: int,
    points_day: int,
    base_load: float,
    amplitude: float,
) -> np.ndarray:
    """A diurnal shape repeated every day plus small noise."""
    shape = _smooth_daily_shape(rng, points_day)
    n_days = -(-n_points // points_day)
    repeated = np.tile(shape, n_days)[:n_points]
    return base_load + amplitude * repeated + rng.normal(0.0, _PREDICTABLE_NOISE, n_points)


def weekly_trace(
    rng: np.random.Generator,
    n_points: int,
    points_day: int,
    base_load: float,
    amplitude: float,
) -> np.ndarray:
    """Weekday/weekend shapes repeated weekly.

    Weekdays share one diurnal shape at full amplitude; Saturday and Sunday
    each get their own shape and amplitude, so consecutive days differ but
    the same weekday one week apart matches (Definition 6).
    """
    weekday_shape = _smooth_daily_shape(rng, points_day)
    saturday_shape = _smooth_daily_shape(rng, points_day)
    sunday_shape = _smooth_daily_shape(rng, points_day)
    weekend_amplitude = amplitude * rng.uniform(0.2, 0.5)

    n_days = -(-n_points // points_day)
    days = []
    for day in range(n_days):
        weekday = day % 7
        if weekday == 5:
            days.append(weekend_amplitude * saturday_shape)
        elif weekday == 6:
            days.append(weekend_amplitude * sunday_shape)
        else:
            days.append(amplitude * weekday_shape)
    values = np.concatenate(days)[:n_points]
    return base_load + values + rng.normal(0.0, _PREDICTABLE_NOISE, n_points)


def unstable_trace(
    rng: np.random.Generator,
    n_points: int,
    points_day: int,
    base_load: float,
    amplitude: float,
) -> np.ndarray:
    """A pattern-free trace: regime switches, drift and random activity bursts."""
    values = np.full(n_points, base_load, dtype=np.float64)

    # Regime switches: the mean level jumps every 0.5--2 days.
    position = 0
    level = base_load
    while position < n_points:
        duration = int(rng.uniform(0.5, 2.0) * points_day)
        level = max(1.0, level + rng.normal(0.0, amplitude * 0.6))
        values[position : position + duration] = level
        position += duration

    # Random-walk drift on top of the regimes.
    values += np.cumsum(rng.normal(0.0, 0.35, n_points))

    # Activity bursts at random times of random widths.
    n_bursts = int(rng.integers(3, 12)) * max(1, n_points // (7 * points_day))
    for _ in range(n_bursts):
        start = int(rng.integers(0, n_points))
        width = int(rng.integers(points_day // 24, points_day // 3))
        height = rng.uniform(0.5, 1.5) * amplitude
        values[start : start + width] += height

    values += rng.normal(0.0, 2.5, n_points)
    return values


class WorkloadGenerator:
    """Generates whole fleets of synthetic telemetry from a :class:`FleetSpec`."""

    def __init__(self, spec: FleetSpec) -> None:
        self._spec = spec
        self._rng = np.random.default_rng(spec.seed)

    @property
    def spec(self) -> FleetSpec:
        return self._spec

    # ------------------------------------------------------------------ #
    # Fleet-level generation
    # ------------------------------------------------------------------ #

    def generate_fleet(self) -> LoadFrame:
        """Generate every region of the fleet into a single frame."""
        frame = LoadFrame(self._spec.interval_minutes)
        for region in self._spec.regions:
            region_frame = self.generate_region(region)
            frame = frame.merge(region_frame)
        return frame

    def generate_region(self, region: RegionSpec | str) -> LoadFrame:
        """Generate one region's servers."""
        if isinstance(region, str):
            region = self._spec.region(region)
        frame = LoadFrame(self._spec.interval_minutes)
        classes = self._draw_classes(region.n_servers)
        for index, server_class in enumerate(classes):
            server_id = f"{region.name}-srv-{index:05d}"
            generated = self.generate_server(server_id, region.name, server_class)
            frame.add_server(generated.metadata, generated.series)
        return frame

    def generate_weekly_extract(self, region: RegionSpec | str, week: int) -> LoadFrame:
        """Generate the ``(region, week)`` extract snapshot.

        Each weekly extract carries the full training horizon the pipeline
        needs (``spec.weeks`` weeks ending at that week's backup day), with
        content that is deterministic per ``(seed, region, week)`` --
        re-generating an unchanged extract produces byte-identical data,
        which the fleet orchestrator's artifact cache relies on.
        """
        name = region if isinstance(region, str) else region.name
        snapshot = WorkloadGenerator(extract_spec(self._spec, name, week))
        return snapshot.generate_region(name)

    def _draw_classes(self, n_servers: int) -> list[ServerClass]:
        classes = list(self._spec.class_mix)
        probabilities = np.array([self._spec.class_mix[cls] for cls in classes])
        probabilities = probabilities / probabilities.sum()
        drawn = self._rng.choice(len(classes), size=n_servers, p=probabilities)
        return [classes[i] for i in drawn]

    # ------------------------------------------------------------------ #
    # Server-level generation
    # ------------------------------------------------------------------ #

    def generate_server(
        self,
        server_id: str,
        region_name: str,
        server_class: ServerClass,
    ) -> GeneratedServer:
        """Generate a single server of the requested class."""
        rng = self._rng
        interval = self._spec.interval_minutes
        points_day = points_per_day(interval)
        total_minutes = self._spec.weeks * MINUTES_PER_WEEK
        n_points = total_minutes // interval

        base_load, amplitude, ceiling, reaches_capacity = self._draw_load_profile(rng)

        if server_class is ServerClass.SHORT_LIVED:
            underlying = rng.choice(
                [ServerClass.STABLE, ServerClass.DAILY, ServerClass.UNSTABLE]
            )
            values = self._trace_for_class(
                ServerClass(underlying), rng, n_points, points_day, base_load, amplitude
            )
        else:
            values = self._trace_for_class(
                server_class, rng, n_points, points_day, base_load, amplitude
            )

        values = np.clip(values, 0.0, ceiling)
        if reaches_capacity:
            # Capacity-reaching servers (Figure 13(b)) hit 100% CPU in a few
            # short saturation bursts per horizon, whatever their base shape.
            n_bursts = int(rng.integers(1, 4))
            for _ in range(n_bursts):
                start = int(rng.integers(0, max(1, n_points - 12)))
                width = int(rng.integers(3, 13))
                values[start : start + width] = 100.0
        timestamps = np.arange(n_points, dtype=np.int64) * interval
        series = LoadSeries(timestamps, values, interval, validate=False)

        if server_class is ServerClass.SHORT_LIVED:
            series = self._truncate_short_lived(series, rng)

        metadata = self._make_metadata(server_id, region_name, server_class, rng)
        return GeneratedServer(metadata=metadata, series=series, server_class=server_class)

    def _trace_for_class(
        self,
        server_class: ServerClass,
        rng: np.random.Generator,
        n_points: int,
        points_day: int,
        base_load: float,
        amplitude: float,
    ) -> np.ndarray:
        if server_class is ServerClass.STABLE:
            return stable_trace(rng, n_points, base_load)
        if server_class is ServerClass.DAILY:
            return daily_trace(rng, n_points, points_day, base_load, amplitude)
        if server_class is ServerClass.WEEKLY:
            return weekly_trace(rng, n_points, points_day, base_load, amplitude)
        if server_class is ServerClass.UNSTABLE:
            return unstable_trace(rng, n_points, points_day, base_load, amplitude)
        raise ValueError(f"unsupported class {server_class}")

    def _draw_load_profile(self, rng: np.random.Generator) -> tuple[float, float, float, bool]:
        """Draw (base load, amplitude, utilisation ceiling, reaches capacity).

        The ceiling distribution is calibrated so that roughly the
        ``capacity_reaching_fraction`` of servers reach 100% CPU within a
        week (Figure 13(b)) and ``busy_fraction`` exceed 60%.
        """
        roll = rng.uniform()
        if roll < self._spec.capacity_reaching_fraction:
            ceiling = 100.0
            base_load = rng.uniform(30.0, 60.0)
            amplitude = rng.uniform(30.0, 60.0)
            return base_load, amplitude, ceiling, True
        if roll < self._spec.busy_fraction:
            ceiling = rng.uniform(62.0, 95.0)
            base_load = rng.uniform(25.0, 45.0)
            amplitude = rng.uniform(15.0, 40.0)
        else:
            ceiling = rng.uniform(20.0, 60.0)
            base_load = rng.uniform(3.0, 25.0)
            amplitude = rng.uniform(5.0, 25.0)
        return base_load, amplitude, ceiling, False

    def _truncate_short_lived(
        self, series: LoadSeries, rng: np.random.Generator
    ) -> LoadSeries:
        """Cut a series down to a lifespan of less than three weeks."""
        lifespan_days = int(rng.integers(1, 20))
        max_start_day = max(0, self._spec.weeks * 7 - lifespan_days)
        start_day = int(rng.integers(0, max_start_day + 1))
        start = start_day * MINUTES_PER_DAY
        end = start + lifespan_days * MINUTES_PER_DAY
        return series.slice(start, end)

    def _make_metadata(
        self,
        server_id: str,
        region_name: str,
        server_class: ServerClass,
        rng: np.random.Generator,
    ) -> ServerMetadata:
        engines = list(self._spec.engine_mix)
        engine_probs = np.array([self._spec.engine_mix[e] for e in engines])
        engine_probs = engine_probs / engine_probs.sum()
        engine = engines[int(rng.choice(len(engines), p=engine_probs))]

        backup_duration = int(rng.choice(_BACKUP_DURATIONS))
        # Default backup windows are assigned by an automated workflow that is
        # oblivious to customer load (Section 1): pick a uniformly random
        # start minute on the last day of the horizon, aligned to the grid.
        last_day_start = (self._spec.weeks * 7 - 1) * MINUTES_PER_DAY
        latest_start = MINUTES_PER_DAY - backup_duration
        offset = int(rng.integers(0, latest_start // self._spec.interval_minutes + 1))
        backup_start = last_day_start + offset * self._spec.interval_minutes
        backup_end = backup_start + backup_duration

        return ServerMetadata(
            server_id=server_id,
            region=region_name,
            engine=engine,
            default_backup_start=backup_start,
            default_backup_end=backup_end,
            backup_duration_minutes=backup_duration,
            true_class=server_class.value,
        )
