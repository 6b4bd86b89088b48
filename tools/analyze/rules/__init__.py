"""Rule catalog: importing this package registers every rule.

Each module holds one rule.  To add a rule: create a module here with a
``Rule`` (or ``ProjectRule``) subclass decorated with
:func:`tools.analyze.core.register`, import it below, and document it in
``docs/static_analysis.md`` with the invariant it protects and fixture tests
proving one true positive and one clean negative (see
``tests/test_repro_lint.py``).
"""

from tools.analyze.rules import (
    buffer_escape,
    lock_discipline,
    metrics_hygiene,
    primitive_coverage,
    schema_drift,
    spawn_safety,
    swallowed_exception,
    undeclared_dependency,
)

__all__ = [
    "buffer_escape",
    "lock_discipline",
    "metrics_hygiene",
    "primitive_coverage",
    "schema_drift",
    "spawn_safety",
    "swallowed_exception",
    "undeclared_dependency",
]
