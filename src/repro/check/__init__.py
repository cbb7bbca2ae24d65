"""Correctness tooling: the simlint determinism linter, the simsan
shared-clock invariant sanitizer, and the pinned golden-cell checker
(``repro check lint`` / ``repro check goldens`` / ``--sanitize``)."""

from repro.check.goldens import (
    GOLDEN_SEED,
    GoldenOutcome,
    render_goldens_table,
    run_goldens,
)
from repro.check.lint import LintReport, lint_paths, lint_source
from repro.check.rules import ALL_RULES, RULES_BY_ID
from repro.check.rules.base import Finding
from repro.check.sanitizer import LEGAL_TRANSITIONS, RULES, Sanitizer, SanitizerError
