"""Fixture: mutations of frozen snapshot/oracle objects (all flagged)."""

from repro.graph.frozen import FrozenGraph


def corrupt_snapshot(graph):
    frozen = FrozenGraph.freeze(graph)
    frozen.labels = []  # assignment to a public buffer field
    frozen.out_offsets[0] = 9  # subscript store into a CSR buffer
    return frozen


def corrupt_patched(prior, graph, primitives):
    carried = prior.patched(graph, primitives)
    carried.in_targets[0] = 9  # a receiver bound to .patched(...) is tracked
    return carried


def poke_oracle(oracle):
    oracle.rows_filled = 3  # parameter named `oracle` is tracked
