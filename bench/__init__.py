"""The repo's benchmark: five end-to-end workloads over the Seagull flows.

``python -m bench run --workload W --seed N --seconds S --trace 0|1`` runs one
workload once and prints its result object as the last line of stdout;
``python -m bench run`` (no ``--workload``) runs the whole suite into a run
record; ``python -m bench compare A.json B.json`` judges two records against
the bounds in ``BENCHMARK.json``.  See ``bench/README.md``.
"""
