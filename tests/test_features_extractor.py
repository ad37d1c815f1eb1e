"""Unit tests for the Feature Extraction Module."""

import numpy as np
import pytest

from repro.features.classification import ServerClassLabel
from repro.features.extractor import FeatureExtractionModule, ServerFeatures
from repro.timeseries.frame import ServerMetadata

from tests.helpers import POINTS_PER_DAY, diurnal_series, make_series


@pytest.fixture
def module() -> FeatureExtractionModule:
    return FeatureExtractionModule()


class TestExtractServer:
    def test_basic_features(self, module):
        metadata = ServerMetadata(server_id="srv", region="r0", engine="mysql",
                                  backup_duration_minutes=45)
        series = diurnal_series(28, base=20, amplitude=30, noise=0.5)
        features = module.extract_server(metadata, series)
        assert features.server_id == "srv"
        assert features.region == "r0"
        assert features.engine == "mysql"
        assert features.lifespan_days == pytest.approx(28.0)
        assert 20.0 <= features.mean_load <= 50.0
        assert features.backup_duration_minutes == 45
        assert features.label is ServerClassLabel.DAILY

    def test_busy_flag(self, module):
        metadata = ServerMetadata(server_id="busy")
        series = make_series(np.full(22 * POINTS_PER_DAY, 70.0))
        features = module.extract_server(metadata, series)
        assert features.is_busy
        assert not features.reaches_capacity

    def test_capacity_flag(self, module):
        metadata = ServerMetadata(server_id="full")
        values = np.full(22 * POINTS_PER_DAY, 50.0)
        values[100] = 100.0
        features = module.extract_server(metadata, make_series(values))
        assert features.reaches_capacity

    def test_empty_series_features(self, module):
        features = module.extract_server(ServerMetadata(server_id="empty"),
                                         make_series([]))
        assert features.lifespan_days == 0.0
        assert features.mean_load == 0.0
        assert features.label is ServerClassLabel.SHORT_LIVED

    def test_as_dict_round_trip(self, module):
        features = module.extract_server(ServerMetadata(server_id="srv"), diurnal_series(28))
        payload = features.as_dict()
        assert payload["server_id"] == "srv"
        assert payload["label"] == features.label.value


class TestExtractFrame:
    def test_extracts_every_server(self, module, small_fleet):
        features = module.extract_frame(small_fleet)
        assert sorted(features) == sorted(small_fleet.server_ids())
        assert all(isinstance(f, ServerFeatures) for f in features.values())
