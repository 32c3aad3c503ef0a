"""Fixture: a suppression without a justification is itself a finding,
and the directive it botched does not silence the original violation."""

from repro.graph.frozen import FrozenGraph


def relabel(graph):
    frozen = FrozenGraph.freeze(graph)
    frozen.labels = []  # repro-lint: disable=frozen-immutability
