"""Unit tests for live-window drift detection."""

import numpy as np
import pytest

from repro.timeseries.series import LoadSeries


# ---------------------------------------------------------------------- #
# Live-window drift (the streaming data plane's detector)
# ---------------------------------------------------------------------- #


def window_summary(mean, std=5.0, n_servers=4, n_rows=100, region="r0", start=0):
    from repro.core.drift import WindowSummary

    return WindowSummary(
        region=region,
        window_start=start,
        window_end=start + 1440,
        n_servers=n_servers,
        n_rows=n_rows,
        mean_load=mean,
        std_load=std,
    )


class TestLoadWindowDriftDetector:
    def test_first_window_is_the_baseline(self):
        from repro.core.drift import LoadWindowDriftDetector

        detector = LoadWindowDriftDetector()
        assert detector.observe(window_summary(50.0)) is None

    def test_stable_windows_do_not_drift(self):
        from repro.core.drift import LoadWindowDriftDetector

        detector = LoadWindowDriftDetector()
        detector.observe(window_summary(50.0))
        report = detector.observe(window_summary(52.0, start=1440))
        assert report is not None and not report.drifted

    def test_mean_shift_flags_drift(self):
        from repro.core.drift import LoadWindowDriftDetector

        detector = LoadWindowDriftDetector()
        detector.observe(window_summary(50.0))
        report = detector.observe(window_summary(150.0, start=1440))
        assert report.drifted and report.mean_shift_pct == pytest.approx(200.0)
        assert report.details[0].startswith("mean load shifted 200.0%")

    def test_dispersion_shift_flags_drift(self):
        from repro.core.drift import LoadWindowDriftDetector

        detector = LoadWindowDriftDetector()
        detector.observe(window_summary(50.0, std=5.0))
        report = detector.observe(window_summary(50.0, std=15.0, start=1440))
        assert report.drifted and report.std_shift_pct == pytest.approx(200.0)
        assert len(report.details) == 1
        assert report.details[0].startswith("load dispersion shifted")

    @pytest.mark.parametrize(
        "after",
        [
            {"mean": 62.5},  # +25% mean
            {"mean": 50.0, "std": 7.5},  # +50% dispersion
            {"mean": 50.0, "n_servers": 7},  # 30% of the population gone
        ],
        ids=["mean", "dispersion", "population"],
    )
    def test_a_shift_exactly_at_its_bound_is_not_drift(self, after):
        from repro.core.drift import LoadWindowDriftDetector

        detector = LoadWindowDriftDetector()
        detector.observe(window_summary(50.0, std=5.0, n_servers=10))
        report = detector.observe(window_summary(**{"std": 5.0, "n_servers": 10, **after}))
        assert report is not None and not report.drifted

    def test_population_shift_flags_drift(self):
        from repro.core.drift import LoadWindowDriftDetector

        detector = LoadWindowDriftDetector()
        detector.observe(window_summary(50.0, n_servers=10))
        report = detector.observe(window_summary(50.0, n_servers=4, start=1440))
        assert report.drifted
        assert report.population_shift_pct == pytest.approx(60.0)

    def test_empty_window_never_overwrites_the_baseline(self):
        from repro.core.drift import LoadWindowDriftDetector

        detector = LoadWindowDriftDetector()
        detector.observe(window_summary(50.0))
        assert detector.observe(window_summary(float("nan"), n_rows=0)) is None
        # The next populated window still compares against mean 50.
        report = detector.observe(window_summary(150.0, start=2880))
        assert report.drifted

    def test_summary_from_frame_concatenates_servers(self):
        from repro.core.drift import WindowSummary
        from repro.timeseries.frame import LoadFrame, ServerMetadata

        frame = LoadFrame(5)
        frame.add_server(
            ServerMetadata(server_id="a", region="r0"),
            LoadSeries.from_values(np.full(10, 10.0), start=0, interval_minutes=5),
        )
        frame.add_server(
            ServerMetadata(server_id="b", region="r0"),
            LoadSeries.from_values(np.full(10, 30.0), start=0, interval_minutes=5),
        )
        summary = WindowSummary.from_frame("r0", frame, 0, 50)
        assert summary.n_servers == 2 and summary.n_rows == 20
        assert summary.mean_load == pytest.approx(20.0)

    def test_report_as_dict(self):
        from repro.core.drift import LoadWindowDriftDetector

        detector = LoadWindowDriftDetector()
        detector.observe(window_summary(50.0))
        payload = detector.observe(window_summary(60.0, start=1440)).as_dict()
        assert payload["region"] == "r0"
        assert isinstance(payload["details"], list)
