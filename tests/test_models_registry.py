"""Unit tests for the model registry / plug-in point."""

import itertools

import numpy as np
import pytest

from repro.models.base import ForecastError, NotFittedError
from repro.models.persistent import PreviousDayForecaster
from repro.models import registry
from repro.models.registry import (
    MODEL_DISPLAY_NAMES,
    UnknownModelError,
    canonical_name,
    create_forecaster,
)
from repro.models.seasonal import SeasonalAdditiveForecaster
from repro.models.ssa import SsaForecaster
from repro.timeseries.calendar import points_per_day
from repro.timeseries.series import LoadSeries

from tests.helpers import diurnal_series


class TestLookup:
    def test_registry_contains_paper_lineup(self):
        for name in ("persistent_previous_day", "ssa", "feedforward", "seasonal_additive", "arima"):
            assert canonical_name(name) == name

    def test_canonical_name_resolves_aliases(self):
        assert canonical_name("Prophet") == "seasonal_additive"
        assert canonical_name("NimbusML") == "ssa"
        assert canonical_name("gluon") == "feedforward"
        assert canonical_name("pf") == "persistent_previous_day"

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownModelError):
            canonical_name("transformer-9000")

    def test_unknown_model_error_message_is_clean(self):
        with pytest.raises(UnknownModelError) as exc_info:
            canonical_name("transformer-9000")
        message = str(exc_info.value)
        # LookupError, not KeyError: str(err) must not carry repr-quoting
        # noise, and the message names the accepted aliases.
        assert message.startswith("unknown model 'transformer-9000'")
        assert "accepted aliases" in message
        assert "prophet" in message and "nimbus" in message
        assert isinstance(exc_info.value, LookupError)
        assert not isinstance(exc_info.value, KeyError)

    def test_create_forecaster_types(self):
        assert isinstance(create_forecaster("prophet"), SeasonalAdditiveForecaster)
        assert isinstance(create_forecaster("ssa"), SsaForecaster)
        assert isinstance(create_forecaster("persistent"), PreviousDayForecaster)

    def test_display_names_cover_all_models(self):
        assert set(MODEL_DISPLAY_NAMES) == set(registry._REGISTRY)


#: Every registered model, on the PostgreSQL/MySQL (5 min, Section 2.2)
#: and the SQL database (15 min, Appendix A) telemetry grid.
_NAMES = sorted(registry._REGISTRY)
_GRIDS = list(itertools.product(_NAMES, (5, 15)))


@pytest.fixture(scope="module", params=_GRIDS, ids=[f"{n}-{i}min" for n, i in _GRIDS])
def fitted(request):
    """A registered model fit on eight noisy diurnal days (fit once per module)."""
    name, interval = request.param
    history = diurnal_series(8, noise=2.0, interval=interval, seed=3)
    return create_forecaster(name).fit(history), history


class TestForecasterContract:
    """What the pipeline assumes of any model it plugs in by name."""

    @pytest.mark.parametrize("name", _NAMES)
    def test_predict_before_fit_raises_not_fitted(self, name):
        with pytest.raises(NotFittedError):
            create_forecaster(name).predict(12)

    @pytest.mark.parametrize("name", _NAMES)
    def test_fit_on_an_empty_history_raises(self, name):
        with pytest.raises(ForecastError):
            create_forecaster(name).fit(LoadSeries.empty(5))

    def test_next_day_forecast_continues_the_history_grid(self, fitted):
        forecaster, history = fitted
        n = points_per_day(history.interval_minutes)
        forecast = forecaster.predict(n)
        assert forecast.interval_minutes == history.interval_minutes
        assert forecast.start == history.end + history.interval_minutes
        assert len(forecast) == n
        assert np.isfinite(forecast.values).all()
        assert ((forecast.values >= 0.0) & (forecast.values <= 100.0)).all()
        assert forecaster.fit_result.model_name == forecaster.name
        assert canonical_name(forecaster.name) == forecaster.name
        assert forecaster.fit_result.n_training_points == len(history)

    def test_forecast_is_repeatable_and_a_shorter_horizon_is_its_prefix(self, fitted):
        # The serving cache keys on (version, horizon, history) and the
        # scheduler reads one day out of whatever horizon it was served:
        # a forecast must not depend on being asked before, or for more.
        forecaster, history = fitted
        n = points_per_day(history.interval_minutes)
        day = forecaster.predict(n)
        assert forecaster.predict(n) == day
        half = forecaster.predict(n // 2)
        assert half.timestamps.tolist() == day.timestamps[: n // 2].tolist()
        assert np.allclose(half.values, day.values[: n // 2])
