"""Fixture: a real violation silenced by a justified suppression."""

from repro.graph.frozen import FrozenGraph


def relabel(graph):
    frozen = FrozenGraph.freeze(graph)
    frozen.labels = []  # repro-lint: disable=frozen-immutability -- fixture: trailing-directive form of a justified exception

    # repro-lint: disable=frozen-immutability -- fixture: standalone directive covering the next line
    frozen.out_starts[0] = 9
