"""In-memory simulation of an HDFS-like distributed file system.

The paper's warehouse stores table data as immutable files inside a
directory hierarchy (``warehouse/db/table/partition/base_or_delta/file``).
This module provides that substrate:

* immutable files (create once, no in-place update — the constraint that
  motivates the ACID base/delta design of Section 3.2),
* a **FileId**: a unique identifier assigned to every file, which, paired
  with the file length, lets the LLAP cache validate cached chunks the way
  HDFS file ids / S3 ETags do (Section 5.1),
* directory listing and recursive delete (used by compaction cleanup),
  both in the size of the directory they touch: every directory knows
  its children, so a partition listing never walks the whole namespace,
* an :class:`IOStats` counter so the cluster simulator can charge virtual
  IO time for every byte that crosses the "disk" boundary.

Paths are POSIX-style strings; directories are implicit but tracked so
that empty directories survive (partition directories can be empty).
"""

from __future__ import annotations

import posixpath
import threading

from ..common import sync
from dataclasses import dataclass, field

from ..errors import HiveError


class FileSystemError(HiveError):
    """Raised on missing paths, duplicate creates, etc."""


@dataclass
class IOStats:
    """Byte/IOPS counters; the runtime converts these to virtual seconds."""

    bytes_read: int = 0
    bytes_written: int = 0
    files_opened: int = 0
    files_created: int = 0
    files_deleted: int = 0
    #: failed read attempts injected by repro.faults; each one re-charged
    #: the full transfer, so they already show up in bytes_read too
    io_retries: int = 0
    #: bytes re-transferred by those failed attempts
    retry_bytes: int = 0

    def reset(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.files_opened = 0
        self.files_created = 0
        self.files_deleted = 0
        self.io_retries = 0
        self.retry_bytes = 0

    def snapshot(self) -> "IOStats":
        return IOStats(self.bytes_read, self.bytes_written,
                       self.files_opened, self.files_created,
                       self.files_deleted, self.io_retries,
                       self.retry_bytes)


@dataclass
class FileEntry:
    """An immutable stored file."""

    path: str
    data: bytes
    file_id: int
    mtime: int

    @property
    def length(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class FileStatus:
    """Metadata-only view returned by :meth:`SimFileSystem.status`."""

    path: str
    length: int
    file_id: int
    mtime: int


def _norm(path: str) -> str:
    normalized = posixpath.normpath("/" + path.strip("/"))
    return normalized


class SimFileSystem:
    """The simulated namespace.

    Thread-safe: the serving layer runs concurrent sessions, so reads
    (which also charge ``stats``) and namespace mutations synchronize
    on one reentrant lock, the way a NameNode serializes namespace
    edits.  File *contents* are immutable bytes — only the namespace
    and counters need the lock.
    """

    def __init__(self):
        self._lock = sync.new_rlock('SimFileSystem._lock')   # create() nests mkdirs()
        self._files: dict[str, FileEntry] = {}
        #: directory -> names of its immediate children, files and
        #: directories alike; the keys are exactly the directories
        self._children: dict[str, set[str]] = {"/": set()}
        self._next_file_id = 1
        self._clock = 0
        self.stats = IOStats()
        #: optional repro.faults.FaultRegistry; when attached, reads can
        #: fail and be transparently retried, re-charging the transfer
        self.fault_registry = None

    # -- directories ------------------------------------------------------- #
    def mkdirs(self, path: str) -> None:
        path = _norm(path)
        parts = path.strip("/").split("/") if path != "/" else []
        with self._lock:
            parent, current = "/", ""
            for part in parts:
                current += "/" + part
                if current not in self._children:
                    if current in self._files:
                        raise FileSystemError(
                            f"path is a file: {current}")
                    self._children[parent].add(part)
                    self._children[current] = set()
                parent = current

    def is_dir(self, path: str) -> bool:
        with self._lock:
            return _norm(path) in self._children

    def exists(self, path: str) -> bool:
        path = _norm(path)
        with self._lock:
            return path in self._files or path in self._children

    # -- files ------------------------------------------------------------ #
    def create(self, path: str, data: bytes) -> FileEntry:
        """Create an immutable file; parent directories are created."""
        path = _norm(path)
        with self._lock:
            if path in self._files:
                raise FileSystemError(f"file already exists: {path}")
            if path in self._children:
                raise FileSystemError(f"path is a directory: {path}")
            parent, name = posixpath.split(path)
            self.mkdirs(parent)
            self._children[parent].add(name)
            self._clock += 1
            entry = FileEntry(path=path, data=bytes(data),
                              file_id=self._next_file_id,
                              mtime=self._clock)
            self._next_file_id += 1
            self._files[path] = entry
            self.stats.files_created += 1
            self.stats.bytes_written += len(data)
            return entry

    def read(self, path: str, io=None) -> bytes:
        """``io`` is the caller's ledger: the injected re-reads of *this*
        read are charged there; ``stats`` keeps the server-wide totals."""
        with self._lock:
            entry = self._entry(path)
            self.stats.files_opened += 1
            self.stats.bytes_read += len(entry.data)
            failures = self._inject_read_faults(entry.path,
                                                len(entry.data))
        if io is not None and failures:
            io.io_retries += failures
            io.retry_bytes += failures * len(entry.data)
        return entry.data

    def read_range(self, path: str, offset: int, length: int) -> bytes:
        """Ranged read — the I/O elevator fetches individual stripes."""
        with self._lock:
            entry = self._entry(path)
            self.stats.files_opened += 1
            chunk = entry.data[offset:offset + length]
            self.stats.bytes_read += len(chunk)
            self._inject_read_faults(entry.path, len(chunk))
        return chunk

    def _inject_read_faults(self, path: str, nbytes: int) -> int:
        """Charge injected read errors: every failed attempt re-opens the
        file and re-transfers the bytes before the bounded final attempt
        succeeds, so faults change IO cost but never file contents.
        Returns the failed attempts."""
        registry = self.fault_registry
        if registry is None or registry.io_error_rate <= 0.0:
            return 0
        failures = registry.failed_attempts(
            "fs.read", path, registry.io_error_rate, registry.max_io_retries)
        if not failures:
            return 0
        with self._lock:   # reentrant: read paths already hold it
            self.stats.files_opened += failures
            self.stats.bytes_read += failures * nbytes
            self.stats.io_retries += failures
            self.stats.retry_bytes += failures * nbytes
        registry.record("fs.read", path, attempts=failures,
                        detail=f"reread {failures}x{nbytes}B")
        return failures

    def status(self, path: str) -> FileStatus:
        with self._lock:
            entry = self._entry(path)
        return FileStatus(entry.path, entry.length, entry.file_id,
                          entry.mtime)

    def file_id(self, path: str) -> int:
        with self._lock:
            return self._entry(path).file_id

    def delete(self, path: str, recursive: bool = False) -> int:
        """Delete a file, or a directory tree with ``recursive``.

        Returns the number of files removed.
        """
        path = _norm(path)
        with self._lock:
            if path in self._files:
                del self._files[path]
                self._children[posixpath.dirname(path)].discard(
                    posixpath.basename(path))
                self.stats.files_deleted += 1
                return 1
            if path in self._children and path != "/":
                if self._children[path] and not recursive:
                    raise FileSystemError(
                        f"directory not empty: {path}")
                dirs, files = self._subtree(path)
                for p in files:
                    del self._files[p]
                for d in dirs:
                    del self._children[d]
                self._children[posixpath.dirname(path)].discard(
                    posixpath.basename(path))
                self.stats.files_deleted += len(files)
                return len(files)
        raise FileSystemError(f"no such path: {path}")

    def rename(self, src: str, dst: str) -> None:
        """Atomic rename of a file or directory tree (commit primitive)."""
        src, dst = _norm(src), _norm(dst)
        with self._lock:
            if src not in self._files and (src not in self._children
                                           or src == "/"):
                raise FileSystemError(f"no such path: {src}")
            if dst in self._files or dst in self._children:
                raise FileSystemError(f"destination exists: {dst}")
            if dst.startswith(src + "/"):
                raise FileSystemError(
                    f"cannot move {src} into itself: {dst}")
            parent, name = posixpath.split(dst)
            self.mkdirs(parent)
            dirs, files = self._subtree(src)
            for p in files:
                entry = self._files.pop(p)
                new_path = dst + p[len(src):]
                self._files[new_path] = FileEntry(
                    new_path, entry.data, entry.file_id, entry.mtime)
            for d in dirs:
                self._children[dst + d[len(src):]] = self._children.pop(d)
            self._children[posixpath.dirname(src)].discard(
                posixpath.basename(src))
            self._children[parent].add(name)

    def _subtree(self, path: str) -> tuple[list[str], list[str]]:
        """``(directories, files)`` at or under ``path``, found through
        the children index; caller holds ``self._lock``."""
        if path in self._files:
            return [], [path]
        dirs, files, stack = [], [], [path]
        while stack:
            directory = stack.pop()
            dirs.append(directory)
            prefix = directory if directory != "/" else ""
            for name in self._children[directory]:
                child = prefix + "/" + name
                if child in self._children:
                    stack.append(child)
                else:
                    files.append(child)
        return dirs, files

    # -- listing ------------------------------------------------------------ #
    def list_files(self, path: str, recursive: bool = False) -> list[FileStatus]:
        """Files directly under ``path`` (or the whole subtree)."""
        path = _norm(path)
        with self._lock:
            return self._list_files_locked(path, recursive)

    def _list_files_locked(self, path: str,
                           recursive: bool) -> list[FileStatus]:
        # caller holds self._lock
        if path in self._files:
            return [self.status(path)]
        if path not in self._children:
            raise FileSystemError(f"no such directory: {path}")
        if recursive:
            paths = self._subtree(path)[1]
        else:
            prefix = path if path != "/" else ""
            paths = [prefix + "/" + name for name in self._children[path]
                     if prefix + "/" + name in self._files]
        out = []
        for p in sorted(paths):
            entry = self._files[p]
            out.append(FileStatus(p, entry.length, entry.file_id,
                                  entry.mtime))
        return out

    def list_dirs(self, path: str) -> list[str]:
        """Immediate child directories of ``path`` (partition listing)."""
        path = _norm(path)
        with self._lock:
            if path not in self._children:
                raise FileSystemError(f"no such directory: {path}")
            prefix = path if path != "/" else ""
            children = [prefix + "/" + name
                        for name in self._children[path]]
            return sorted(c for c in children if c in self._children)

    def total_bytes(self, path: str = "/") -> int:
        path = _norm(path)
        with self._lock:
            if path not in self._files and path not in self._children:
                return 0
            return sum(len(self._files[p].data)
                       for p in self._subtree(path)[1])

    def _entry(self, path: str) -> FileEntry:
        path = _norm(path)
        try:
            return self._files[path]
        except KeyError:
            raise FileSystemError(f"no such file: {path}") from None
