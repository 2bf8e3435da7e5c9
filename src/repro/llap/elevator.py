"""I/O elevator: reader factories used by the scan path (Section 5.1).

Two implementations of the same interface:

* :class:`DirectReaderFactory` — the container path: every open reads the
  file from the (simulated) disk; bytes are charged to ``disk_bytes``.
* :class:`LlapReaderFactory` — the LLAP path: file *metadata* (the parsed
  footer, including indexes) is cached per file id even for data that was
  never cached; row-column chunks are served from the
  :class:`~repro.llap.cache.LlapCache` when valid, and decoded + cached
  on miss.  Sargable predicates and Bloom filters are evaluated against
  the cached metadata *before* deciding which chunks to load, so chunks
  that a predicate excludes never trash the cache.

Both factories' ``open(path, io)`` take the ledger of the one directory
read that asked (``acid.reader.ReadMetrics``, duck-typed here): whoever
serves a chunk knows its source and charges ``io.disk_bytes`` or
``io.cache_bytes`` there, which the cost model converts into virtual IO
time.  Nothing is summed per factory: the LLAP factory is shared by
every session, and a server-wide counter cannot say whose bytes moved.
"""

from __future__ import annotations

from typing import Sequence

from ..common import sync
from ..common.vector import ColumnVector, VectorBatch
from ..formats.orc import OrcReader, SargPredicate
from ..fs import SimFileSystem
from .cache import ChunkKey, LlapCache
from .placement import node_of


class DirectReaderFactory:
    """Cold reads straight from the file system (Tez container mode)."""

    def __init__(self, fs: SimFileSystem):
        self.fs = fs

    def open(self, path: str, io):
        reader = OrcReader(self.fs.read(path, io))
        io.files_opened += 1
        io.metadata_bytes += reader.metadata_bytes
        return _DirectReader(reader, io)


class LlapReaderFactory:
    """Warm path through the metadata cache and the chunk cache.

    Shared by every session: one lock guards the two dicts, held for
    their updates only, never while the file system reads or a footer
    parses.
    """

    def __init__(self, fs: SimFileSystem, cache: LlapCache):
        self.fs = fs
        self.cache = cache
        self._lock = sync.new_lock("LlapReaderFactory._lock")
        #: metadata cache: (file_id, length) -> parsed OrcReader
        self._metadata: dict[tuple[int, int], OrcReader] = {}
        #: directory -> metadata keys opened under it, so ``forget``
        #: never has to list the file system
        self._by_dir: dict[str, list[tuple[int, int]]] = {}

    def open(self, path: str, io):
        status = self.fs.status(path)
        key = (status.file_id, status.length)
        with self._lock:
            reader = self._metadata.get(key)
        if reader is None:
            reader = OrcReader(self.fs.read(path, io))
            with self._lock:
                if key not in self._metadata:
                    self._metadata[key] = reader
                    self._by_dir.setdefault(
                        path.rsplit("/", 1)[0], []).append(key)
            # a fresh open pays for the footer read from disk
            io.metadata_bytes += reader.metadata_bytes
            io.disk_bytes += reader.metadata_bytes
        io.files_opened += 1
        return _CachedReader(reader, io, status.file_id, status.length,
                             self.cache)

    def forget(self, directories: Sequence[str]) -> int:
        """The compaction Cleaner removed ``directories``: drop their
        files' metadata (each entry pins the whole file's bytes) and, in
        one pass over the cache, their chunks.  Those files are never
        opened again, so no later read changes.  Returns chunks dropped.
        """
        with self._lock:
            keys = [key for directory in directories
                    for key in self._by_dir.pop(directory, ())]
            for key in keys:
                self._metadata.pop(key, None)
        return self.cache.invalidate_files({key[0] for key in keys})

    def invalidate_node(self, node: int, num_nodes: int) -> int:
        """Daemon death: drop the dead node's metadata and data chunks.

        Placement mirrors :meth:`LlapCache.invalidate_node` through the
        shared :func:`repro.llap.placement.node_of` rule.  Returns the
        number of chunks dropped.
        """
        with self._lock:
            self._metadata = {k: v for k, v in self._metadata.items()
                              if node_of(k[0], num_nodes) != node}
        return self.cache.invalidate_node(node, num_nodes)


class _CachedReader:
    """Serves row-column chunks through the LLAP cache, charging each
    to the ledger it was opened with."""

    def __init__(self, reader: OrcReader, io, file_id: int = 0,
                 length: int = 0, cache: LlapCache | None = None):
        # the defaults are _DirectReader's, which never keys a chunk
        self._reader = reader
        self._io = io
        self._file_id = file_id
        self._length = length
        self._cache = cache
        self.schema = reader.schema
        self.row_groups = reader.row_groups

    def select_row_groups(self, sargs: Sequence[SargPredicate] = ()):
        return self._reader.select_row_groups(sargs)

    def read_row_group(self, group: int,
                       columns: Sequence[str] | None = None) -> VectorBatch:
        names = (list(columns) if columns is not None
                 else self.schema.names())
        chunks = self.row_groups[group].columns
        vectors: list[ColumnVector] = []
        for name in names:
            chunk_bytes = chunks[self.schema.index_of(name)].length
            key = ChunkKey(self._file_id, self._length, group, name)
            cached = self._cache.get(key)
            if cached is not None:
                self._io.cache_bytes += chunk_bytes
                vectors.append(cached)
                continue
            vector = self._reader.read_column(group, name)
            self._io.disk_bytes += chunk_bytes
            self._cache.put(key, vector, chunk_bytes)
            vectors.append(vector)
        return VectorBatch(self.schema.select(names), vectors)

    def read_all(self, columns=None, sargs=()):
        names = (list(columns) if columns is not None
                 else self.schema.names())
        groups = self.select_row_groups(sargs)
        batches = [self.read_row_group(g, names) for g in groups]
        return VectorBatch.concat(self.schema.select(names), batches)


class _DirectReader(_CachedReader):
    """No cache: every chunk it decodes is charged as disk bytes.  (The
    cached reader is the base because the wall tracer patches
    ``read_row_group`` / ``read_all`` on ``_CachedReader`` itself.)"""

    def read_row_group(self, group: int,
                       columns: Sequence[str] | None = None) -> VectorBatch:
        names = (list(columns) if columns is not None
                 else self.schema.names())
        for name in names:
            self._io.disk_bytes += self._reader.column_chunk_bytes(
                group, name)
        return self._reader.read_row_group(group, names)
