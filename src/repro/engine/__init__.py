"""Datalog + chase engines: matching, fixpoints, and the batch chase."""

from repro.engine.matching import (FactSource, IndexedSource, ScanSource,
                                   atom_pattern, body_holds, match_atoms,
                                   match_atoms_with_pinned)
from repro.engine.seminaive import naive_fixpoint, seminaive_fixpoint

__all__ = [
    "BatchUnsupported", "BatchedChase", "FactSource", "IndexedSource",
    "ScanSource", "atom_pattern", "body_holds",
    "match_atoms", "match_atoms_with_pinned", "naive_fixpoint",
    "seminaive_fixpoint",
]


def __getattr__(name: str):
    # repro.engine.batched builds on repro.core (chase, applicability),
    # which itself imports repro.engine.matching - importing it eagerly
    # here would close an import cycle, so the re-export is lazy.
    if name in ("BatchedChase", "BatchUnsupported"):
        from repro.engine import batched
        return getattr(batched, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
