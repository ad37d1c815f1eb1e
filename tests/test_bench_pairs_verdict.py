"""The verdict rule of ``scripts/bench_pairs.py`` (its exit status)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def word(parent, change, better="lower", bound=0.25):
    return bench_pairs.verdict(parent, change, better, bound)[0]


def test_verdicts():
    steady = [1.00, 1.01, 1.00, 0.99, 1.00, 1.01, 0.99, 1.00, 1.00, 1.01]
    assert word(steady, [0.5] * 10) == "gain"
    assert word(steady, [2.0] * 10, better="higher") == "gain"
    # Nine wins of ten, but the medians are closer than the parent's quartiles.
    assert word(steady, [v - 0.001 for v in steady[:9]] + [1.5]) == "within bound"
    assert word(steady, [1.02] * 10) == "worse"  # inside the bound, but lost 10/10 beyond the spread
    assert word(steady, [1.02, 0.98] * 5) == "within bound"
    assert word(steady, [1.30, 0.90] * 5) == "within bound"  # noisy, median inside the bound
    assert word(steady, [1.30] * 6 + [0.90] * 4) == "worse"  # median beyond the bound
    assert word(steady, [0.5] * 10, better="higher") == "worse"
