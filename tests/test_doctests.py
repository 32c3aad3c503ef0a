"""Execute the doctest examples embedded in module docstrings.

Docstring examples are part of the public documentation; this test keeps
them honest.  Modules are resolved through :func:`importlib.import_module`
because several package ``__init__`` files re-export functions whose names
shadow sibling submodules (e.g. ``repro.compression.compress``).
"""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro.compression.compress",
    "repro.compression.maintain",
    "repro.engine.cache",
    "repro.engine.engine",
    "repro.engine.parallel",
    "repro.engine.planner",
    "repro.engine.storage",
    "repro.expfinder",
    "repro.graph.digraph",
    "repro.graph.distance",
    "repro.graph.generators",
    "repro.graph.index",
    "repro.incremental.inc_simulation",
    "repro.matching.bounded",
    "repro.matching.isomorphism",
    "repro.matching.simulation",
    "repro.pattern.builder",
    "repro.pattern.pattern",
    "repro.pattern.predicates",
    "repro.ranking.social_impact",
]


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module_name} lost its doctest examples"
    assert result.failed == 0, f"{module_name}: {result.failed} doctest failure(s)"
