"""Property-based test of the reply splice: ``wire.dumps`` is ``json.dumps``.

A reply carries encoded relations (:func:`repro.server.wire.encode_relation`)
whose JSON text was stored when each relation was first encoded;
``wire.dumps`` splices that text in instead of serialising the relation
again.  For ANY JSON-able tree holding encoded relations at any depth,
the spliced bytes must equal ``json.dumps`` of the same tree with every
encoded relation replaced by the relation's plain ``to_dict()``, and the
encoded value must itself serialise as that plain dict.
"""

import json
import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.matching.base import MatchRelation
from repro.server import wire

#: strings json must escape, and code points outside ASCII (ensure_ascii)
TRICKY = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "雪", "\U0001f600", "\ud800", "a\"b\\c", ""]
)
STRINGS = st.one_of(TRICKY, st.text(max_size=8))
BIG_INTS = st.sampled_from([2**63, 2**64, -(2**64) - 1, 10**40, -(10**60)])
INTS = st.one_of(st.integers(), BIG_INTS)
ODD_FLOATS = st.sampled_from([-0.0, 0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf, 0.1])
FLOATS = st.one_of(st.floats(), ODD_FLOATS)
#: json.dumps writes non-str keys as strings: floats by repr, bools and None by name
KEYS = st.one_of(STRINGS, INTS, FLOATS, st.booleans(), st.none())
SCALARS = st.one_of(STRINGS, INTS, FLOATS, st.booleans(), st.none())

NODE_SETS = st.one_of(
    st.frozensets(st.integers(min_value=-(2**70), max_value=2**70), max_size=8),
    st.frozensets(STRINGS, max_size=8),
)
RELATIONS = st.dictionaries(STRINGS, NODE_SETS, min_size=1, max_size=4).map(MatchRelation)

#: trees over scalars, relations and empty containers; relations land at random depths
TREES = st.recursive(
    st.one_of(SCALARS, RELATIONS, st.just([]), st.just({})),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=24,
)


def build(tree, relation_as):
    """``tree`` with each relation replaced by ``relation_as(relation)``."""
    if isinstance(tree, MatchRelation):
        return relation_as(tree)
    if isinstance(tree, dict):
        return {key: build(item, relation_as) for key, item in tree.items()}
    if isinstance(tree, list):
        return [build(item, relation_as) for item in tree]
    return tree


@given(TREES)
@settings(max_examples=400, deadline=None)
def test_spliced_bytes_equal_json_dumps_of_the_plain_tree(tree):
    plain = json.dumps(build(tree, MatchRelation.to_dict))
    first = build(tree, wire.encode_relation)  # a miss fills each relation's memo
    again = build(tree, wire.encode_relation)  # a hit splices the memo
    assert wire.dumps(first) == wire.dumps(again) == plain
    assert json.dumps(again) == plain


@given(RELATIONS, st.lists(st.tuples(KEYS, st.booleans()), max_size=6))
@settings(max_examples=200, deadline=None)
def test_a_relation_at_any_depth(relation, path):
    """One relation under a random path of dict keys and list positions."""
    def wrap(value):
        for key, in_a_list in path:
            value = [None, value] if in_a_list else {"before": 0, key: value}
        return value

    assert wire.dumps(wrap(wire.encode_relation(relation))) == json.dumps(
        wrap(relation.to_dict())
    )
