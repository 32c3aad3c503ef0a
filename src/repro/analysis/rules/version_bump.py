"""version-bump-discipline: graph mutations bump the version counter once.

Every cache in the engine keys its validity on ``Graph.version`` — the
counter *is* the consistency protocol.  Two ways to break it (both seen
in the wild before PR 4 closed them):

* a mutating method that forgets to bump — caches silently serve stale
  answers forever;
* bulk writes that bump per item (the ``update_attrs`` lesson: one
  logical write, one bump — per-item bumps are not wrong for safety but
  defeat in-place refresh paths that expect a predictable advance), or
  worse, external code writing through the live ``attrs()`` dict, which
  bumps *zero* times.

What this rule matches:

* inside any class that declares ``_version`` (in ``__slots__`` or
  ``__init__``): a method that directly mutates versioned state
  (``self._attrs``/``self._succ``/``self._pred`` stores, deletes or
  in-place method calls, or writes through ``self.attrs(...)``) without a
  ``self._version += 1`` in its body — and any ``self._version += 1``
  nested inside a loop.  ``self._T[k] = self._T[k].copy()`` (same table,
  same key: copy-on-write giving a node a private row) stores an equal
  value and is not a content write;
* outside such classes: subscript stores or in-place mutating calls on
  the result of ``<x>.attrs(...)`` — the live-dict bypass the
  ``Graph.version`` docstring warns about — and direct pokes at a
  foreign ``<x>._version``.

Known miss: mutation via an alias (``d = g._succ; d[v] = ...``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ModuleUnderLint, Rule, register
from repro.analysis.rules._util import (
    MUTATING_METHODS,
    assign_targets,
    is_self_attr,
    methods_of,
    subscript_root,
)

VERSIONED_STATE = frozenset({"_attrs", "_succ", "_pred"})


def _declares_version(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    if any(
                        isinstance(el, ast.Constant) and el.value == "_version"
                        for el in ast.walk(node.value)
                    ):
                        return True
    for method in methods_of(cls):
        if method.name != "__init__":
            continue
        for node in ast.walk(method):
            for target in assign_targets(node):
                if is_self_attr(target, "_version"):
                    return True
    return False


def _is_attrs_call_root(node: ast.AST) -> bool:
    """True for ``<recv>.attrs(...)`` — the live attribute dict accessor."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "attrs"
    )


def _is_private_copy(node: ast.AST) -> bool:
    """True for ``X = X.copy()``: the store swaps in an equal value."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return False
    value = node.value
    return (
        isinstance(value, ast.Call)
        and not value.args
        and not value.keywords
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "copy"
        and ast.unparse(value.func.value) == ast.unparse(node.targets[0])
    )


def _direct_mutations(method: ast.AST) -> Iterator[int]:
    """Lines in ``method`` that mutate versioned state directly."""
    for node in ast.walk(method):
        if _is_private_copy(node):
            continue
        for target in assign_targets(node):
            root = subscript_root(target)
            if is_self_attr(root) and root.attr in VERSIONED_STATE:  # type: ignore[union-attr]
                if isinstance(target, ast.Subscript):
                    yield node.lineno
            elif _is_attrs_call_root(root) and isinstance(target, ast.Subscript):
                yield node.lineno
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS:
                root = subscript_root(node.func.value)
                if is_self_attr(root) and root.attr in VERSIONED_STATE:  # type: ignore[union-attr]
                    yield node.lineno
                elif _is_attrs_call_root(root):
                    yield node.lineno


def _version_bumps(method: ast.AST) -> Iterator[ast.AugAssign]:
    for node in ast.walk(method):
        if isinstance(node, ast.AugAssign) and is_self_attr(
            node.target, "_version"
        ):
            yield node


@register
class VersionBumpRule(Rule):
    id = "version-bump-discipline"
    description = (
        "graph mutations must bump _version exactly once per logical "
        "write; external writes through attrs() bypass the counter"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[tuple[int, str]]:
        versioned_regions: set[ast.AST] = set()
        for cls in module.classes():
            if not _declares_version(cls):
                continue
            versioned_regions.add(cls)
            for method in methods_of(cls):
                mutation_lines = list(_direct_mutations(method))
                if not mutation_lines:
                    continue
                bumps = list(_version_bumps(method))
                if not bumps:
                    yield (
                        mutation_lines[0],
                        f"{method.name}() mutates versioned state but "
                        "never bumps self._version — every version-keyed "
                        "cache goes silently stale",
                    )
                for bump in bumps:
                    in_loop = any(
                        isinstance(anc, (ast.For, ast.While))
                        for anc in self._ancestors_within(module, bump, method)
                    )
                    if in_loop:
                        yield (
                            bump.lineno,
                            f"{method.name}() bumps self._version inside a "
                            "loop — one logical write must bump exactly "
                            "once (the update_attrs lesson)",
                        )

        # -- external bypasses -------------------------------------------
        def inside_versioned_class(node: ast.AST) -> bool:
            return any(anc in versioned_regions for anc in module.ancestors(node))

        for node in ast.walk(module.tree):
            for target in assign_targets(node):
                root = subscript_root(target)
                if (
                    _is_attrs_call_root(root)
                    and isinstance(target, ast.Subscript)
                    and not inside_versioned_class(node)
                ):
                    yield (
                        node.lineno,
                        "write through the live attrs() dict bypasses the "
                        "version counter — use set()/update_attrs() so "
                        "caches observe the change",
                    )
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "_version"
                    and not is_self_attr(target)
                ):
                    yield (
                        node.lineno,
                        "direct poke at a foreign _version counter — the "
                        "counter is owned by the graph's mutation API",
                    )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and _is_attrs_call_root(node.func.value)
                and not inside_versioned_class(node)
            ):
                yield (
                    node.lineno,
                    "in-place mutation of the live attrs() dict bypasses "
                    "the version counter — use update_attrs()",
                )

    @staticmethod
    def _ancestors_within(
        module: ModuleUnderLint, node: ast.AST, stop: ast.AST
    ) -> Iterator[ast.AST]:
        for anc in module.ancestors(node):
            if anc is stop:
                return
            yield anc
