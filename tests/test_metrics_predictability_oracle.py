"""Definition 9 as a fold over Definition 8, against a brute-force reference.

The reference below is the per-day loop Definition 9 was first written as:
for every distinct evaluation day it searches both lowest-load windows,
asks ``is_window_correctly_chosen`` (which searches them again) and
``is_accurate_prediction`` on the predicted window, and it names the last
day that lacks samples.  Production scores each day once
(``evaluate_server_day``) and folds the scores into the verdict
(``fold_predictability``), inside ``is_predictable_server`` and
``AccuracyEvaluationModule.predictability`` / ``summarize`` alike.

Generated series are gappy on purpose (``LoadSeries(validate=False)``):
missing blocks, thinned days and whole missing days, in the true series,
the predicted series or both, so some requested days cannot fit the
window.  Backup durations run from 30 to 240 minutes (not always a
multiple of the 5-minute grid) and ``required_days`` from 1 to 4.
Verdicts must be equal field for field, reason strings included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.bucket_ratio import (
    DEFAULT_ACCURACY_THRESHOLD,
    DEFAULT_ERROR_BOUND,
    ErrorBound,
    is_accurate_prediction,
)
from repro.metrics.evaluation import AccuracyEvaluationModule
from repro.metrics.ll_window import (
    WindowSearchError,
    is_window_correctly_chosen,
    lowest_load_window,
)
from repro.metrics.predictable import (
    PredictabilityVerdict,
    evaluate_server_day,
    fold_predictability,
    is_predictable_server,
)
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

DAY = 24 * 60
INTERVAL = 5
POINTS_PER_DAY = DAY // INTERVAL
ORACLE = settings(max_examples=120, deadline=None, derandomize=True, database=None)


# --------------------------------------------------------------------- #
# Reference
# --------------------------------------------------------------------- #


def ref_verdict(
    server_id,
    true_series,
    predicted_series,
    evaluation_days,
    duration,
    bound=DEFAULT_ERROR_BOUND,
    threshold=DEFAULT_ACCURACY_THRESHOLD,
    required_days=3,
):
    """Definition 9, one day at a time, every window searched afresh."""
    evaluated, window_correct, load_accurate = [], [], []
    reason = ""
    for day in sorted(set(evaluation_days)):
        try:
            predicted_window = lowest_load_window(predicted_series, day, duration)
            correct = is_window_correctly_chosen(
                predicted_series, true_series, day, duration, bound
            )
        except WindowSearchError:
            reason = f"day {day} lacks enough samples to evaluate"
            continue
        evaluated.append(day)
        if correct:
            window_correct.append(day)
        start, end = predicted_window.start, predicted_window.end
        if is_accurate_prediction(
            predicted_series.slice(start, end), true_series.slice(start, end), bound, threshold
        ):
            load_accurate.append(day)

    enough_history = len(evaluated) >= required_days
    predictable = bool(
        enough_history
        and evaluated
        and len(window_correct) == len(evaluated)
        and len(load_accurate) == len(evaluated)
    )
    if not enough_history and not reason:
        reason = (
            f"only {len(evaluated)} evaluable days, {required_days} required "
            "(server may be short-lived or have sparse telemetry)"
        )
    elif not predictable and not reason:
        reason = (
            f"{len(evaluated) - len(window_correct)} day(s) with an incorrectly chosen "
            f"window, {len(evaluated) - len(load_accurate)} day(s) with inaccurate load "
            "prediction"
        )
    return PredictabilityVerdict(
        server_id=server_id,
        evaluated_days=tuple(evaluated),
        window_correct_days=tuple(window_correct),
        load_accurate_days=tuple(load_accurate),
        required_days=required_days,
        predictable=predictable,
        reason=reason,
    )


# --------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------- #


def _gappy(rng, values, n_days):
    """Drop blocks, thin some days to a few samples, drop whole days."""
    keep = np.ones(values.shape[0], dtype=bool)
    for day in range(n_days):
        lo, hi = day * POINTS_PER_DAY, (day + 1) * POINTS_PER_DAY
        roll = rng.random()
        if roll < 0.15:
            keep[lo:hi] = False
        elif roll < 0.30:
            keep[lo:hi] = rng.random(POINTS_PER_DAY) < 0.08
        elif roll < 0.50:
            start = lo + int(rng.integers(0, POINTS_PER_DAY))
            keep[start : start + int(rng.integers(1, POINTS_PER_DAY // 2))] = False
    return keep


@st.composite
def gappy_pairs(draw):
    """``(true, predicted, n_days)``: diurnal truth plus one of several
    prediction shapes, each with its own gaps."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_days = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(["exact", "near", "offset", "rolled", "noisy"]))
    rng = np.random.default_rng(seed)
    minutes = np.arange(n_days * POINTS_PER_DAY, dtype=np.int64) * INTERVAL
    phase = rng.uniform(0, 2 * np.pi)
    truth = 40 + 30 * np.sin(2 * np.pi * minutes / DAY + phase)
    truth = np.clip(truth + rng.normal(0, rng.uniform(0.5, 6.0), truth.shape), 0, 100)
    if shape == "exact":
        predicted = truth.copy()
    elif shape == "near":
        predicted = truth + rng.uniform(-6.0, 11.0)
    elif shape == "offset":
        predicted = truth + rng.choice([-8.0, 12.0, 25.0])
    elif shape == "rolled":
        predicted = np.roll(truth, int(rng.integers(1, POINTS_PER_DAY)))
    else:
        predicted = truth + rng.normal(0, rng.uniform(1.0, 12.0), truth.shape)
    true_keep = _gappy(rng, truth, n_days) if draw(st.booleans()) else np.ones_like(truth, bool)
    pred_keep = _gappy(rng, predicted, n_days) if draw(st.booleans()) else np.ones_like(truth, bool)
    true_series = LoadSeries(minutes[true_keep], truth[true_keep], INTERVAL, validate=False)
    predicted_series = LoadSeries(
        minutes[pred_keep], predicted[pred_keep], INTERVAL, validate=False
    )
    return true_series, predicted_series, n_days


durations = st.integers(30, 240)
required = st.integers(1, 4)


def evaluation_days(n_days):
    """Requested days, with repeats and days past the series' end."""
    return st.lists(st.integers(0, n_days + 1), max_size=6)


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #


class TestDefinition9Fold:
    @given(st.data(), gappy_pairs(), durations, required)
    @ORACLE
    def test_is_predictable_server_matches_reference(self, data, pair, duration, required_days):
        true_series, predicted_series, n_days = pair
        days = data.draw(evaluation_days(n_days))
        expected = ref_verdict(
            "srv", true_series, predicted_series, days, duration, required_days=required_days
        )
        verdict = is_predictable_server(
            "srv", true_series, predicted_series, days, duration, required_days=required_days
        )
        assert verdict == expected

    @given(st.data(), st.lists(gappy_pairs(), min_size=1, max_size=4), durations, required)
    @ORACLE
    def test_module_fold_matches_reference(self, data, pairs, duration, required_days):
        """``evaluate`` then ``predictability`` / ``summarize`` over a fleet
        gives each server the reference verdict."""
        frame = LoadFrame(INTERVAL)
        predictions, days_by_server, expected = {}, {}, {}
        for index, (true_series, predicted_series, n_days) in enumerate(pairs):
            server_id = f"srv-{index}"
            frame.add_server(
                ServerMetadata(server_id=server_id, backup_duration_minutes=duration),
                true_series,
            )
            days = data.draw(evaluation_days(n_days).filter(bool))
            predictions[server_id] = predicted_series
            days_by_server[server_id] = days
            expected[server_id] = ref_verdict(
                server_id, true_series, predicted_series, days, duration,
                required_days=required_days,
            )
        module = AccuracyEvaluationModule()
        evaluations = module.evaluate(frame, predictions, days_by_server)
        verdicts = module.predictability(evaluations, required_days)
        assert verdicts == expected
        assert list(verdicts) == list(expected)
        summary = module.summarize(evaluations, required_days)
        assert summary.n_servers == len(expected)
        assert summary.n_predictable_servers == sum(v.predictable for v in expected.values())

    def test_fold_names_the_last_day_lacking_samples(self):
        truth = LoadSeries.from_values(np.linspace(0, 50, 2 * POINTS_PER_DAY))
        evaluations = [
            evaluate_server_day("srv", truth, truth, day, 60) for day in (9, 0, 5, 1)
        ]
        verdict = fold_predictability("srv", evaluations, required_days=2)
        assert verdict.evaluated_days == (0, 1)
        assert verdict.reason == "day 9 lacks enough samples to evaluate"
        assert verdict.predictable


class TestEvaluateServerDay:
    @given(
        st.data(),
        gappy_pairs(),
        durations,
        st.sampled_from([DEFAULT_ERROR_BOUND, ErrorBound(2.0, 1.0), ErrorBound(20.0, 15.0)]),
        st.sampled_from([0.5, DEFAULT_ACCURACY_THRESHOLD, 1.0]),
    )
    @ORACLE
    def test_matches_window_correctly_chosen(self, data, pair, duration, bound, threshold):
        """One window search per series gives what Definition 8's
        ``is_window_correctly_chosen`` (two searches each) gives."""
        true_series, predicted_series, n_days = pair
        day = data.draw(st.integers(0, n_days))
        evaluation = evaluate_server_day(
            "srv", true_series, predicted_series, day, duration, bound, threshold
        )
        try:
            predicted_window = lowest_load_window(predicted_series, day, duration)
            true_window = lowest_load_window(true_series, day, duration)
        except WindowSearchError:
            assert not evaluation.evaluable
            assert not evaluation.window_correct and not evaluation.load_accurate
            assert evaluation.failure_reason
            return
        assert evaluation.evaluable
        assert evaluation.window_correct == is_window_correctly_chosen(
            predicted_series, true_series, day, duration, bound
        )
        start, end = predicted_window.start, predicted_window.end
        assert evaluation.load_accurate == is_accurate_prediction(
            predicted_series.slice(start, end), true_series.slice(start, end), bound, threshold
        )
        assert evaluation.predicted_window_start == predicted_window.start
        assert evaluation.true_window_start == true_window.start
        assert evaluation.predicted_window_load == predicted_window.average_load
        assert evaluation.true_window_load == true_window.average_load
