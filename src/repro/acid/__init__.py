"""ACID storage layer: base/delta layout, MVCC readers, compaction."""

from .layout import AcidDirectoryState, DeltaDir, parse_acid_dirs, select_acid_state
from .reader import AcidReader
from .writer import AcidWriter
from .compactor import CompactionInitiator, CompactionWorker, CompactionCleaner

__all__ = [
    "AcidDirectoryState", "DeltaDir", "parse_acid_dirs", "select_acid_state",
    "AcidReader", "AcidWriter",
    "CompactionInitiator", "CompactionWorker", "CompactionCleaner",
]
