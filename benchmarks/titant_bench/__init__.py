"""titant_bench — the repo's reference performance benchmark.

Four closed-loop workloads (three serving, one offline T+1) driven only
through the system's public entry points, timed as the best quiet round of a
run, with a separate traced run that decomposes each op into the repo's
layers.  See ``README.md`` in this directory for the metrics, the workloads,
the noise evidence and how to run it; ``BENCHMARK.json`` at the repo root
declares the contract the driver checks.
"""
