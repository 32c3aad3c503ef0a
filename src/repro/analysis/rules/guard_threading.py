"""guard-threading: QueryGuards are charged/forwarded; partial never cached.

PR 6's runaway-query guards only bound work if every kernel on the path
actually observes the guard: a kernel that accepts a ``guard`` parameter
and silently ignores it (or calls a sibling kernel without forwarding it)
reopens the hole the budget was meant to close.  And a guard that trips
produces a *partial* relation — caching one would serve an
under-approximation to later, unbudgeted callers (the engine gates every
``put`` on ``stats["partial"]`` for exactly this reason).

What this rule matches:

* a function with a parameter named ``guard`` whose body never reads
  ``guard`` — the guard is accepted and dropped;
* inside a function with a ``guard`` parameter, a call to another
  function *in the same file* that also takes a ``guard`` parameter,
  without passing ``guard`` along (as ``guard=...`` or a positional
  ``guard`` name) — the guard chain is broken;
* a ``put(...)`` call on one of the engine's tracked caches inside a
  function that mentions the ``"partial"`` flag, unless the put is nested
  under an ``if`` whose condition tests ``partial`` — the cache write is
  not gated on completeness.

Known miss: cross-file call chains (the per-file registry cannot see
them); those are covered by the differential and query-bomb suites.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ModuleUnderLint, Rule, register
from repro.analysis.rules._util import (
    arg_names,
    contains_constant,
    receiver_matches,
    tracked_receivers,
)

#: The engine's result caches — the receivers whose ``put`` is tracked.
CACHE_CLASSES = frozenset({"QueryCache", "RankCache"})


def _terminal_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register
class GuardThreadingRule(Rule):
    id = "guard-threading"
    description = (
        "guards must be charged or forwarded to callee kernels, and "
        "partial results must never reach a cache put"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[tuple[int, str]]:
        guarded = {
            func.name: func
            for func in module.functions()
            if "guard" in arg_names(func)
        }

        # -- dropped or unforwarded guards ------------------------------
        for func in guarded.values():
            reads = any(
                isinstance(node, ast.Name)
                and node.id == "guard"
                and isinstance(node.ctx, ast.Load)
                for stmt in func.body
                for node in ast.walk(stmt)
            )
            if not reads:
                yield (
                    func.lineno,
                    f"{func.name}() accepts a guard and never charges or "
                    "forwards it — the budget is silently dropped",
                )
                continue
            for stmt in func.body:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = _terminal_name(node.func)
                    if callee is None or callee not in guarded or callee == func.name:
                        continue
                    forwards = any(
                        keyword.arg == "guard" for keyword in node.keywords
                    ) or any(
                        isinstance(arg, ast.Name) and arg.id == "guard"
                        for arg in node.args
                    )
                    if not forwards:
                        yield (
                            node.lineno,
                            f"call to guarded kernel {callee}() without "
                            "forwarding the guard — its work escapes the "
                            "budget",
                        )

        # -- partial results must not be cached --------------------------
        local_names, self_attrs = tracked_receivers(module.tree, CACHE_CLASSES)
        if not local_names and not self_attrs:
            return
        for func in module.functions():
            mentions_partial = any(
                contains_constant(stmt, "partial") for stmt in func.body
            )
            if not mentions_partial:
                continue
            for stmt in func.body:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "put"
                        and receiver_matches(
                            node.func.value, local_names, self_attrs
                        )
                    ):
                        gated = any(
                            isinstance(anc, ast.If)
                            and contains_constant(anc.test, "partial")
                            for anc in module.ancestors(node)
                        )
                        if not gated:
                            yield (
                                node.lineno,
                                "cache put in a function that handles "
                                'partial results is not gated on the '
                                '"partial" flag — a truncated result could '
                                "be cached",
                            )
