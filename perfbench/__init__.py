"""End-to-end benchmark of the reproduction: cold and warm paper figures
and an open-loop service mix, with a traced per-layer run.

Run it from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
reference-speed scaling every timing goes through.
"""
