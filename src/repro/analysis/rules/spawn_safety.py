"""spawn-safety: pool payloads are module-level callables.

The parallel executor runs under both ``fork`` and ``spawn`` start
methods.  Spawn pickles every callable handed to the pool by *qualified
name*: a lambda, a closure, a bound method or a ``functools.partial``
either fails outright or — worse — rebuilds different state in the
worker.  PR 7 extended the same discipline to data: mmap-backed objects
ship as file paths, never as pickled buffers.

What this rule matches (only in modules that import ``multiprocessing``
or ``concurrent.futures``):

* the callable argument of ``pool.map`` / ``imap`` / ``imap_unordered`` /
  ``apply`` / ``apply_async`` / ``starmap`` (and ``_async`` variants) and
  of the parallel executor's own fan-out (``executor._fan_out``), the
  ``initializer`` of ``Pool(...)`` and the ``target`` of ``Process(...)``
  must be a plain name bound to a module-level ``def`` or an explicit
  import — lambdas, nested functions, locals/parameters, bound attributes
  and ``functools.partial`` calls are flagged;
* a ``lambda`` anywhere among the pool-call arguments is flagged as well.

Known miss: a module-level *variable* holding a lambda; indirect payloads
(the mmap-paths-not-buffers half is exercised by the spawn-mode shipping
tests rather than checked statically).
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from repro.analysis.core import ModuleUnderLint, Rule, register

#: Builtins pickle by qualified name (``builtins.sorted``) and are safe.
BUILTIN_NAMES = frozenset(dir(builtins))

POOL_METHODS = frozenset(
    {
        "map",
        "imap",
        "imap_unordered",
        "apply",
        "apply_async",
        "starmap",
        "map_async",
        "starmap_async",
        "submit",
        "_fan_out",
    }
)

#: Constructor -> the keyword (or second positional argument) naming the
#: callable each of its worker processes runs first.
WORKER_ENTRIES = {
    "Pool": "initializer",
    "ProcessPoolExecutor": "initializer",
    "Process": "target",
}


def _imports_multiprocessing(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name.split(".")[0] in {"multiprocessing", "concurrent"}
                for alias in node.names
            ):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in {
                "multiprocessing",
                "concurrent",
            }:
                return True
    return False


def _module_level_callables(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@register
class SpawnSafetyRule(Rule):
    id = "spawn-safety"
    description = (
        "multiprocessing pool payloads and process targets must be "
        "module-level callables (picklable by qualified name under spawn)"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[tuple[int, str]]:
        if not _imports_multiprocessing(module.tree):
            return
        module_level = _module_level_callables(module.tree)

        def describe(arg: ast.expr) -> str | None:
            """Why ``arg`` is not spawn-safe, or None when it is."""
            if isinstance(arg, ast.Lambda):
                return "a lambda cannot be pickled by qualified name"
            if isinstance(arg, ast.Call):
                return (
                    "a call result (e.g. functools.partial) ships a "
                    "closure, not a module-level callable"
                )
            if isinstance(arg, ast.Attribute):
                return (
                    "a bound attribute drags its whole object through "
                    "the pickle; use a module-level function"
                )
            if (
                isinstance(arg, ast.Name)
                and arg.id not in module_level
                and arg.id not in BUILTIN_NAMES
            ):
                return (
                    f"{arg.id!r} is not a module-level def or import in "
                    "this file — under spawn the worker cannot locate it "
                    "by qualified name"
                )
            return None

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name) and func.id in WORKER_ENTRIES:
                name = func.id
            else:
                continue
            if name in POOL_METHODS:
                if node.args:
                    reason = describe(node.args[0])
                    if reason is not None:
                        yield (
                            node.lineno,
                            f"pool payload is not spawn-safe: {reason}",
                        )
                for arg in list(node.args[1:]) + [k.value for k in node.keywords]:
                    if isinstance(arg, ast.Lambda):
                        yield (
                            arg.lineno,
                            "lambda among pool-call arguments is not "
                            "spawn-safe",
                        )
            elif name in WORKER_ENTRIES:
                entry_keyword = WORKER_ENTRIES[name]
                entry: ast.expr | None = None
                if len(node.args) >= 2:
                    entry = node.args[1]
                for keyword in node.keywords:
                    if keyword.arg == entry_keyword:
                        entry = keyword.value
                if entry is not None and not (
                    isinstance(entry, ast.Constant) and entry.value is None
                ):
                    reason = describe(entry)
                    if reason is not None:
                        yield (
                            node.lineno,
                            f"{name} {entry_keyword} is not spawn-safe: {reason}",
                        )
