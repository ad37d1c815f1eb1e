"""Prediction serving: batched + cached serving vs a naive per-call loop.

The backup scheduler and the autoscale predictor ask the serving layer for
overlapping horizon windows day after day.  The naive consumer the serving
API replaces held raw forecasters and re-ran a model per call; the
:class:`~repro.serving.service.PredictionService` resolves the model
version once per batch and answers repeated horizon queries from its LRU
prediction cache.

Asserted (part of the CI bench smoke): serving ``ROUNDS`` of daily horizon
queries over a ``N_SERVERS``-server region with ``predict_batch`` + cache
runs the model at least 2x less often than the same queries as naive
per-call, cache-bypassing predictions: ``N_SERVERS`` forecasts against
``ROUNDS x N_SERVERS``, counted by the service's ``served`` and
``cache_hits`` counters.  Counted rather than timed, so a loaded host
cannot fail it; the wall-clock table is printed alongside.
"""

from __future__ import annotations

import time

import numpy as np

from bench_utils import print_table
from repro.models.ssa import SsaForecaster
from repro.serving import PredictionRequest, PredictionService
from repro.timeseries.calendar import MINUTES_PER_DAY, points_per_day
from repro.timeseries.series import LoadSeries

#: Fleet size the batch is fanned over (acceptance: >= 200 servers).
N_SERVERS = 200

#: Daily horizon-query rounds (scheduler + autoscale asking overlapping
#: windows); rounds after the first are pure cache territory.
ROUNDS = 4

#: 15-minute telemetry keeps the SSA fit cheap while its recurrent
#: forecast keeps per-call inference costly enough to be representative.
INTERVAL_MINUTES = 15
HISTORY_DAYS = 7


def _history(seed: int) -> LoadSeries:
    """A noisy diurnal week of telemetry for one server."""
    rng = np.random.default_rng(seed)
    points_day = MINUTES_PER_DAY // INTERVAL_MINUTES
    n = HISTORY_DAYS * points_day
    phase = 2 * np.pi * np.arange(n) / points_day
    values = 20.0 + 15.0 * (1 + np.sin(phase - np.pi / 2)) + rng.normal(0, 0.4, n)
    return LoadSeries.from_values(
        np.clip(values, 0.0, 100.0), interval_minutes=INTERVAL_MINUTES
    )


def _deploy_fleet(service: PredictionService, region: str) -> int:
    """Fit one SSA forecaster per server and deploy them as one version."""
    forecasters = {}
    for index in range(N_SERVERS):
        history = _history(1000 + index)
        forecaster = SsaForecaster(window_points=48, rank=4)
        forecaster.fit(history)
        forecasters[f"srv-{index:04d}"] = forecaster
    service.deploy(region, "ssa", trained_week=1, forecasters=forecasters)
    return points_per_day(INTERVAL_MINUTES)


def test_batched_cached_serving_beats_naive_per_call_loop(benchmark):
    service = PredictionService()
    n_points = _deploy_fleet(service, "bench-region")
    server_ids = service.servers("bench-region")
    assert len(server_ids) == N_SERVERS

    def forecasts_computed() -> int:
        """Requests served so far that ran a model: every one but a hit."""
        stats = service.health("bench-region")["stats"]
        return stats["served"] - stats["cache_hits"]

    # Naive baseline: one request per server per round, no batching, no
    # cache -- the model runs for every single call.
    naive_started = time.perf_counter()
    naive_served = 0
    for _ in range(ROUNDS):
        for server_id in server_ids:
            response = service.predict(
                PredictionRequest(
                    region="bench-region",
                    server_id=server_id,
                    n_points=n_points,
                    use_cache=False,
                )
            )
            naive_served += 1
            assert not response.cache_hit
    naive_seconds = time.perf_counter() - naive_started
    naive_forecasts = forecasts_computed()

    # Batched + cached: one predict_batch per round; rounds after the
    # first are answered from the prediction cache.
    def serve_rounds():
        return [
            service.predict_batch(region="bench-region", n_points=n_points)
            for _ in range(ROUNDS)
        ]

    batched_started = time.perf_counter()
    batches = benchmark.pedantic(serve_rounds, rounds=1, iterations=1)
    batched_seconds = time.perf_counter() - batched_started
    batched_forecasts = forecasts_computed() - naive_forecasts

    assert naive_served == ROUNDS * N_SERVERS
    for batch in batches:
        assert batch.n_served == N_SERVERS
        assert batch.skipped == () and batch.failed == ()
    # The cache-hit counters exposed on the responses prove the win: the
    # cold round computes everything, the warm rounds compute nothing.
    assert batches[0].cache_hits == 0
    for warm in batches[1:]:
        assert warm.cache_hits == N_SERVERS
        assert all(response.cache_hit for response in warm.responses)
        assert warm.predictions() == batches[0].predictions()

    speedup = naive_seconds / batched_seconds if batched_seconds else float("inf")
    cache_stats = service.cache.stats
    print_table(
        f"Serving {ROUNDS} daily horizon rounds over {N_SERVERS} servers",
        ["variant", "requests", "cache_hits", "forecasts", "wall_seconds", "speedup"],
        [
            ["naive per-call", naive_served, 0, naive_forecasts, naive_seconds, 1.0],
            [
                "batched+cached",
                ROUNDS * N_SERVERS,
                sum(batch.cache_hits for batch in batches),
                batched_forecasts,
                batched_seconds,
                speedup,
            ],
        ],
    )
    print(
        f"prediction cache: {cache_stats.hits} hits / {cache_stats.misses} misses "
        f"(hit rate {cache_stats.hit_rate:.0%}, size {cache_stats.size})"
    )

    # Acceptance: batched + cached serving runs the model once per server,
    # the naive loop once per call -- at least 2x less work.
    assert naive_forecasts == ROUNDS * N_SERVERS
    assert batched_forecasts == N_SERVERS
    assert batched_forecasts * 2 <= naive_forecasts
