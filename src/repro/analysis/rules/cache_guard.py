"""cache-version-guard: every cache read validates against Graph.version.

The engine's caches (``QueryCache``, ``RankCache``) are version-validated:
``get`` takes the live ``Graph.version`` and drops stale entries instead of
serving them, so an out-of-band graph mutation can never resurface an old
answer (PR 3 introduced the pattern for ``RankCache``; PR 8 closed the last
gap by giving ``QueryCache`` the same contract).

What this rule matches: the file is scanned for names bound to one of the
two cache constructors (``self._cache = QueryCache(...)``, ``cache =
RankCache(...)``); on those receivers,

* a ``.get(...)`` call must carry a version argument — at least two
  positional arguments, or a ``graph_version=`` keyword;
* a ``.peek(...)`` call is flagged unconditionally: peek is the
  deliberately version-unchecked accessor, so every use must justify
  itself with a suppression.

Known miss: caches reached through another object (``engine._cache``)
are not tracked — the rule is per-file by construction.  Membership
tests (``key in cache``) are structural by design and stay unflagged;
version-aware planning paths should call ``QueryCache.fresh`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ModuleUnderLint, Rule, register
from repro.analysis.rules._util import receiver_matches, tracked_receivers

CACHE_CLASSES = frozenset({"QueryCache", "RankCache"})


@register
class CacheVersionGuardRule(Rule):
    id = "cache-version-guard"
    description = (
        "reads of the version-validated caches must pass the live "
        "Graph.version (get) or justify the unchecked accessor (peek)"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[tuple[int, str]]:
        local_names, self_attrs = tracked_receivers(module.tree, CACHE_CLASSES)
        if not local_names and not self_attrs:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if not receiver_matches(func.value, local_names, self_attrs):
                continue
            if func.attr == "get":
                has_version = len(node.args) >= 2 or any(
                    keyword.arg == "graph_version" for keyword in node.keywords
                )
                if not has_version:
                    yield (
                        node.lineno,
                        "cache read without a Graph.version argument — a "
                        "stale entry would be served after an out-of-band "
                        "mutation (pass graph.version to get())",
                    )
            elif func.attr == "peek":
                yield (
                    node.lineno,
                    "peek() bypasses version validation — use get(key, "
                    "graph.version), or justify the unchecked read",
                )
