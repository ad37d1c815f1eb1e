"""Name-based model construction (the "any ML model can be plugged in" knob).

The pipeline configuration refers to models by name; this registry maps
those names to constructors and records the display names used in the
paper's figures (Persistent Forecast, Nimbus, Gluon, Prophet, ARIMA).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.models.arima import ArimaForecaster
from repro.models.base import Forecaster
from repro.models.feedforward import FeedForwardForecaster
from repro.models.persistent import (
    PreviousDayForecaster,
    PreviousEquivalentDayForecaster,
    PreviousWeekAverageForecaster,
)
from repro.models.seasonal import SeasonalAdditiveForecaster
from repro.models.ssa import SsaForecaster

_REGISTRY: dict[str, Callable[[], Forecaster]] = {
    "persistent_previous_day": PreviousDayForecaster,
    "persistent_previous_equivalent_day": PreviousEquivalentDayForecaster,
    "persistent_previous_week_average": PreviousWeekAverageForecaster,
    "ssa": SsaForecaster,
    "feedforward": FeedForwardForecaster,
    "seasonal_additive": SeasonalAdditiveForecaster,
    "arima": ArimaForecaster,
}

#: Shorthand aliases accepted by :func:`create_forecaster`.
_ALIASES: dict[str, str] = {
    "persistent": "persistent_previous_day",
    "pf": "persistent_previous_day",
    "previous_day": "persistent_previous_day",
    "previous_equivalent_day": "persistent_previous_equivalent_day",
    "previous_week_average": "persistent_previous_week_average",
    "nimbus": "ssa",
    "nimbusml": "ssa",
    "gluon": "feedforward",
    "gluonts": "feedforward",
    "prophet": "seasonal_additive",
}

#: Display names matching the legends of Figures 11, 16 and 17.
MODEL_DISPLAY_NAMES: dict[str, str] = {
    "persistent_previous_day": "Persistent Forecast (PF)",
    "persistent_previous_equivalent_day": "Persistent Forecast (prev. equivalent day)",
    "persistent_previous_week_average": "Persistent Forecast (prev. week average)",
    "ssa": "Nimbus (SSA)",
    "feedforward": "Gluon (feed-forward)",
    "seasonal_additive": "Prophet (additive seasonal)",
    "arima": "ARIMA",
}


class UnknownModelError(LookupError):
    """Raised when a model name is not present in the registry.

    Derives from :class:`LookupError` rather than :class:`KeyError`:
    ``KeyError.__str__`` renders its message through ``repr`` (wrapping it
    in quotes), which made ``str(err)`` unusable in user-facing output.
    """


def canonical_name(name: str) -> str:
    """Resolve aliases to the canonical registry name."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {sorted(_REGISTRY)}; "
            f"accepted aliases: {sorted(_ALIASES)}"
        )
    return key


def create_forecaster(name: str) -> Forecaster:
    """Construct a forecaster by (possibly aliased) name."""
    return _REGISTRY[canonical_name(name)]()
