"""Fixture: version-counter discipline violations, all flagged."""


class MiniGraph:
    __slots__ = ("_attrs", "_version")

    def __init__(self):
        self._attrs = {}
        self._version = 0

    def set(self, node, attr, value):
        self._attrs[node][attr] = value  # mutates, never bumps

    def bulk(self, items):
        for node, attr, value in items:
            self._attrs[node][attr] = value
            self._version += 1  # bump per item inside the loop

    def _write(self, node, other):
        self._attrs[node] = self._attrs[other].copy()  # another row: a content write

    def attrs(self, node):
        return self._attrs[node]


def bypass(graph):
    graph.attrs("bob")["field"] = "SA"  # live-dict write, zero bumps
    graph.attrs("bob").update(field="BIO")  # in-place call, zero bumps
    graph._version = 7  # foreign counter poke
