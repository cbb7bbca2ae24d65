"""Parallel cell execution and the content-addressed result cache.

``CellSpec`` describes one independent simulation as a picklable value;
``CellExecutor`` runs specs inline or fans them over worker processes,
with results merged in submission order (bit-identical either way); and
``ResultCache`` memoizes results on disk keyed by the spec's canonical
form plus a code-version salt. See each module's docstring for the
contracts.
"""

from repro.exec.cache import CacheStats, ResultCache, code_salt
from repro.exec.executor import CellExecutionError, CellExecutor, CellOutcome
from repro.exec.spec import ENGINE_KINDS, CellSpec

__all__ = [
    "ENGINE_KINDS",
    "CacheStats",
    "CellExecutionError",
    "CellExecutor",
    "CellOutcome",
    "CellSpec",
    "ResultCache",
    "code_salt",
]
