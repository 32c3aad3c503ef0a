"""The repro-lint rule pack: importing this package registers every rule.

Each module encodes one of the engine's load-bearing invariants; see
``docs/development.md`` for the invariant catalogue with the PR that
motivated each rule.
"""

from repro.analysis.rules import (  # noqa: F401  (import-for-effect)
    determinism,
    error_wrapping,
    fault_registry,
    frozen_immutability,
    guard_threading,
    spawn_safety,
    version_bump,
)
