"""Figure 12(a): runtime of the use-case-agnostic components per region size.

The paper measures Data Ingestion, Data Validation, Feature Extraction,
Model Deployment and Accuracy Evaluation per region (one week of data):
Model Deployment is roughly constant, everything else grows with input
size, and Accuracy Evaluation dominates for the largest regions.
"""

from bench_utils import print_table
from repro.core.config import PipelineConfig
from repro.core.pipeline import SeagullPipeline

REPORTED_COMPONENTS = (
    "data_ingestion",
    "data_validation",
    "feature_extraction",
    "model_deployment",
    "accuracy_evaluation",
)


def test_fig12a_component_runtime_per_region(benchmark, region_frames):
    pipeline = SeagullPipeline(PipelineConfig())
    rows = []
    results = {}

    def run_all():
        for region, frame in region_frames.items():
            results[region] = pipeline.run(frame, region=region, week=3)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    for region, frame in region_frames.items():
        result = results[region]
        assert result.succeeded
        rows.append(
            [region, len(frame), frame.total_points()]
            + [result.timing(component) for component in REPORTED_COMPONENTS]
        )
    print_table(
        "Figure 12(a): per-component pipeline runtime (seconds)",
        ["region", "servers", "points", *REPORTED_COMPONENTS],
        rows,
    )

    sizes = {row[0]: row[2] for row in rows}
    largest = max(sizes, key=sizes.get)
    smallest = min(sizes, key=sizes.get)
    largest_row = next(row for row in rows if row[0] == largest)
    smallest_row = next(row for row in rows if row[0] == smallest)

    # Feature extraction and accuracy evaluation grow with region size.
    assert largest_row[5] >= smallest_row[5]
    assert largest_row[7] >= smallest_row[7]
    # Model deployment stays roughly constant (within 50 ms across regions).
    deployment_times = [row[6] for row in rows]
    assert max(deployment_times) - min(deployment_times) < 0.05
