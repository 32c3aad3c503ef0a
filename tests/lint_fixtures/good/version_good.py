"""Fixture: one logical write, one bump; writes via the blessed API."""


class MiniGraph:
    __slots__ = ("_attrs", "_version")

    def __init__(self):
        self._attrs = {}
        self._version = 0

    def set(self, node, attr, value):
        self._attrs[node][attr] = value
        self._version += 1

    def update_attrs(self, items):
        for node, attr, value in items:
            self._attrs[node][attr] = value
        self._version += 1  # one bump for the whole batch

    def _write(self, node):
        # copy-on-write: the same row swapped for an equal private copy
        self._attrs[node] = self._attrs[node].copy()


def blessed(graph):
    graph.set("bob", "field", "SA")
    value = graph.attrs("bob")["field"]  # reading the live dict is fine
    return value
