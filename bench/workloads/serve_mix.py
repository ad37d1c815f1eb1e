"""``serve-mix``: the paper's online consumers against one serving plane.

Set-up runs the pipeline once per region (its predictability verdicts are
what the backup scheduler acts on), fits a ``persistent_previous_day`` v1 and
a ``seasonal_additive`` v2 per server on the week before the backup day and deploys
both into one ``PredictionService`` with the default 4096-entry cache.

A round is ``predicts_per_round`` single ``predict`` calls, skewed over
a seeded half of each region and uniform over ``N_HORIZONS`` horizons; one
call in ten pins version 1, so the key space (2 versions x 100 servers x 48
horizons) is larger than the cache and hits, misses and evictions all occur.
Then a "day": per region one ``RunnerService.run_day`` for the same servers
(``predict_batch``, then ``BackupScheduler.schedule_fleet``) at a horizon
nobody asked for before, as on a real new day.

This works the ``serving`` cache and routing, ``models.predict`` on misses
and ``scheduling``; storage does nothing.

Oracle: sampled responses equal the deployed forecaster's own ``predict``;
hit, miss and eviction counts equal a replay of the key sequence through a
reference LRU; every region-day schedules every server.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from pathlib import Path
from typing import Any

import numpy as np

from bench.harness import Context, percentile
from bench.workloads.common import synthesize_region
from repro import (
    BackupScheduler,
    PipelineConfig,
    PredictionRequest,
    PredictionService,
    SeagullPipeline,
    create_forecaster,
    default_fleet_spec,
)
from repro.scheduling import RunnerService

HORIZON_WEEKS = 4
DAY = 1440
#: The generator puts every default backup window on the horizon's last day;
#: models train on the week before it and predict it, as the pipeline does.
BACKUP_DAY_START = (7 * HORIZON_WEEKS - 1) * DAY
TRAINING_DAYS = 7
MODELS = ("persistent_previous_day", "seasonal_additive")
N_HORIZONS = 48
HORIZON_STEP = 6
DAY_POINTS = 288
PINNED_SHARE = 0.1
SKEW = 0.9
ORACLE_EVERY = 997


class ReferenceLru:
    """The oracle's cache: fed every lookup and store the service made, in
    order, it must count the same hits, misses and evictions."""

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._entries: OrderedDict[tuple, None] = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def get(self, key: tuple) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1

    def put(self, key: tuple) -> None:
        self._entries[key] = None
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1


class ServeMixWorkload:
    name = "serve-mix"
    read_op = "predict"
    batch_op = "run_day"

    def __init__(
        self, servers: tuple[int, ...], predicts_per_round: int, rounds_per_second: float
    ) -> None:
        self.rounds_per_second = rounds_per_second
        self._sizes = servers
        self._predicts = predicts_per_round

    # ------------------------------------------------------------------ #

    def setup(self, ctx: Context, directory: Path) -> None:
        spec = default_fleet_spec(self._sizes, weeks=HORIZON_WEEKS, seed=ctx.seed)
        #: Per region, the servers due for a backup: metadata of a seeded half
        #: of the region, all with both model versions deployed.  The same
        #: servers are the request population, so the key space (and with it
        #: the hit ratio) does not depend on how many short-lived servers a
        #: seed happens to leave with enough history for a model.
        self._due: dict[str, dict[str, Any]] = {}
        self._verdicts: dict[str, dict[str, Any]] = {}
        #: ``{region: [v1 forecasters, v2 forecasters]}``
        self._forecasters: dict[str, list[dict[str, Any]]] = {}
        for region in spec.region_names():
            frame = synthesize_region(spec, region, HORIZON_WEEKS - 1)
            with SeagullPipeline(PipelineConfig()) as pipeline:
                result = pipeline.run(frame, region=region, week=HORIZON_WEEKS - 1)
            self._verdicts[region] = dict(result.predictability)
            versions: list[dict[str, Any]] = []
            for model in MODELS:
                fitted = {}
                for server_id, _metadata, series in frame.items():
                    try:
                        fitted[server_id] = create_forecaster(model).fit(
                            series.slice(BACKUP_DAY_START - TRAINING_DAYS * DAY, BACKUP_DAY_START)
                        )
                    except RuntimeError:
                        continue  # too little history (a short-lived server)
                versions.append(fitted)
            self._forecasters[region] = versions
            servable = sorted(set(versions[0]) & set(versions[1]))
            rng = np.random.default_rng([ctx.seed, len(self._forecasters)])
            chosen = rng.permutation(len(servable))[: len(frame) // 2]
            self._due[region] = {
                servable[i]: frame.metadata(servable[i]) for i in sorted(chosen)
            }
        self._deploy()

    def _deploy(self) -> None:
        self._service = PredictionService()
        for region, versions in self._forecasters.items():
            for model, fitted in zip(MODELS, versions):
                self._service.deploy(region, model, trained_week=HORIZON_WEEKS - 1, forecasters=fitted)
        self._runners = {
            region: RunnerService(region, BackupScheduler(), serving=self._service)
            for region in self._forecasters
        }

    def begin(self, ctx: Context, directory: Path) -> None:
        self._deploy()
        self._rng = np.random.default_rng([ctx.seed, 0x5E4E])
        # The request population: (region, server, version pin) with a
        # Zipf-like popularity over a seeded permutation of the servers.
        active = [(region, sid, None) for region, due in self._due.items() for sid in due]
        pinned = [(region, sid, 1) for region, sid, _ in active]
        self._active = [active[i] for i in self._rng.permutation(len(active))]
        self._pinned = [pinned[i] for i in self._rng.permutation(len(pinned))]
        self._active_weights = self._zipf(len(self._active))
        self._pinned_weights = self._zipf(len(self._pinned))
        self._reference = ReferenceLru(self._service.cache.capacity)
        self._sampled: list[tuple[PredictionRequest, Any]] = []
        self._hit_lat: list[float] = []
        self._miss_lat: list[float] = []
        self._issued = 0
        self._day = 0
        self._next_requests = self._requests()

    @staticmethod
    def _zipf(n: int) -> np.ndarray:
        weights = 1.0 / np.arange(1, n + 1) ** SKEW
        return weights / weights.sum()

    def _requests(self) -> list[PredictionRequest]:
        rng = self._rng
        n = self._predicts
        pin = rng.random(n) < PINNED_SHARE
        active = rng.choice(len(self._active), size=n, p=self._active_weights)
        pinned = rng.choice(len(self._pinned), size=n, p=self._pinned_weights)
        horizons = (rng.integers(N_HORIZONS, size=n) + 1) * HORIZON_STEP
        requests = []
        for i in range(n):
            region, server_id, version = (
                self._pinned[pinned[i]] if pin[i] else self._active[active[i]]
            )
            requests.append(
                PredictionRequest(
                    region=region, server_id=server_id, n_points=int(horizons[i]), version=version
                )
            )
        return requests

    def round(self, ctx: Context, index: int) -> None:
        # Only the calls happen here; what they returned is examined between
        # rounds (``after_round``), so client bookkeeping stays out of wall_s.
        predict = self._service.predict
        clock = time.perf_counter
        latencies = ctx.lat.setdefault("predict", [])
        responses = self._responses = []
        for request in self._next_requests:
            started = clock()
            try:
                response = predict(request)
            except Exception as exc:  # the failure is the measurement
                ctx.fail(f"predict: {type(exc).__name__}: {exc}")
                response = None
            latencies.append(clock() - started)
            responses.append(response)
        ctx.attempted += len(responses)

        # A new day: every region's runner asks a horizon nobody cached.
        self._executions = [
            (
                region,
                ctx.timed(
                    "run_day",
                    runner.run_day,
                    "cluster-0",
                    self._day,
                    self._due[region],
                    self._verdicts[region],
                    horizon_points=DAY_POINTS + self._day,
                ),
            )
            for region, runner in self._runners.items()
        ]

    def after_round(self, ctx: Context, index: int) -> None:
        reference = self._reference
        latencies = ctx.lat["predict"][-len(self._responses) :]
        for request, response, elapsed in zip(self._next_requests, self._responses, latencies):
            if response is None:
                continue
            key = (request.region, request.server_id, response.served_by_version, request.n_points)
            reference.get(key)
            if response.cache_hit:
                self._hit_lat.append(elapsed)
            else:
                self._miss_lat.append(elapsed)
                reference.put(key)
            self._issued += 1
            if self._issued % ORACLE_EVERY == 0:
                self._sampled.append((request, response))

        horizon = DAY_POINTS + self._day
        for region, execution in self._executions:
            if execution is None:
                continue
            n_servers = len(self._due[region])
            ctx.add("scheduling.decisions", len(execution.decisions))
            ctx.check(
                len(execution.decisions) == n_servers and execution.serving is not None,
                f"{region} day {self._day}: {len(execution.decisions)}/{n_servers} decisions",
            )
            ctx.add(
                "scheduling.moved",
                sum(1 for decision in execution.decisions.values() if decision.moved),
            )
            batch = execution.serving
            if batch is not None:
                # predict_batch looks every server up, then stores the ones it
                # scored; servers without a deployed model are never stored.
                served = {response.server_id: response for response in batch.responses}
                scored = []
                for server_id in sorted(self._due[region]):
                    key = (region, server_id, batch.served_by_version, horizon)
                    reference.get(key)
                    response = served.get(server_id)
                    if response is not None and not response.cache_hit:
                        scored.append(key)
                for key in scored:
                    reference.put(key)
        self._day += 1
        # Generating the next round's requests is the client's work too.
        self._next_requests = self._requests()

    # ------------------------------------------------------------------ #

    def finish(self, ctx: Context) -> None:
        for request, response in self._sampled:
            version = response.served_by_version
            forecaster = self._forecasters[request.region][version - 1][request.server_id]
            expected = forecaster.predict(request.n_points)
            ctx.check(
                np.array_equal(expected.values, response.series.values)
                and np.array_equal(expected.timestamps, response.series.timestamps),
                f"served prediction differs from the model for {request}",
            )
        stats = self._service.cache.stats
        reference = self._reference
        ctx.check(
            (stats.hits, stats.misses, stats.evictions)
            == (reference.hits, reference.misses, reference.evictions),
            f"cache counters {(stats.hits, stats.misses, stats.evictions)} differ from the "
            f"reference LRU {(reference.hits, reference.misses, reference.evictions)}",
        )
        ctx.counts["serving.cache_evictions"] = float(stats.evictions)
        ctx.gauges["serving.cache_hit_ratio"] = stats.hit_rate
        ctx.gauges["serving.hit_p50_us"] = percentile(self._hit_lat, 0.5) * 1e6
        ctx.gauges["serving.miss_p50_us"] = percentile(self._miss_lat, 0.5) * 1e6
        ctx.gauges["serving.predict_p99_us"] = ctx.p("predict", 0.99, 1e6)
        ctx.gauges["serving.predict_samples"] = len(ctx.lat.get("predict", []))


def serve_mix(smoke: bool) -> ServeMixWorkload:
    if smoke:
        return ServeMixWorkload((14, 6), predicts_per_round=3000, rounds_per_second=2.0)
    return ServeMixWorkload((120, 60, 20), predicts_per_round=20_000, rounds_per_second=1.7)
