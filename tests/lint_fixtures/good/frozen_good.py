"""Fixture: frozen objects constructed and only ever read (clean)."""

from repro.graph.frozen import FrozenGraph


def read_snapshot(graph):
    frozen = FrozenGraph.freeze(graph)
    first_row = frozen.out_targets[frozen.out_starts[0] : frozen.out_ends[0]]
    return frozen.labels, list(first_row)


def read_patched(prior, graph, primitives):
    carried = prior.patched(graph, primitives)
    return None if carried is None else carried.in_targets[0]


def read_oracle(oracle):
    return oracle.rows_filled
