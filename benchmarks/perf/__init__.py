"""One perf harness for the query service and the embedded engine.

``python -m benchmarks.perf run --workload NAME --seed N`` generates a
named workload from the seed, drives the program in a child process as a
user would, verifies the answers against a twin graph and prints every
metric by name with its unit.  See ``README.md`` in this directory.
"""
