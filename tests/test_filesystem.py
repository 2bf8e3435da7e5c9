"""Simulated HDFS semantics: immutability, FileIds, rename, listing."""

import posixpath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import SimFileSystem
from repro.fs.filesystem import FileSystemError


@pytest.fixture
def fs():
    return SimFileSystem()


class TestFiles:
    def test_create_and_read(self, fs):
        fs.create("/a/b/file", b"hello")
        assert fs.read("/a/b/file") == b"hello"
        assert fs.exists("/a/b")          # parents implicitly created

    def test_files_are_immutable(self, fs):
        fs.create("/f", b"one")
        with pytest.raises(FileSystemError):
            fs.create("/f", b"two")

    def test_file_ids_unique_and_stable(self, fs):
        first = fs.create("/x", b"1")
        second = fs.create("/y", b"2")
        assert first.file_id != second.file_id
        assert fs.file_id("/x") == first.file_id

    def test_etag_changes_with_new_file(self, fs):
        fs.create("/t/f", b"aaaa")
        old = fs.status("/t/f")
        fs.delete("/t/f")
        fs.create("/t/f", b"bbbbbb")
        new = fs.status("/t/f")
        assert (old.file_id, old.length) != (new.file_id, new.length)

    def test_read_range(self, fs):
        fs.create("/f", b"0123456789")
        assert fs.read_range("/f", 2, 3) == b"234"

    def test_missing_file(self, fs):
        with pytest.raises(FileSystemError):
            fs.read("/nope")
        with pytest.raises(FileSystemError):
            fs.status("/nope")


class TestDirectories:
    def test_mkdirs_and_listing(self, fs):
        fs.mkdirs("/w/db/t/part=1")
        fs.mkdirs("/w/db/t/part=2")
        assert fs.list_dirs("/w/db/t") == ["/w/db/t/part=1",
                                           "/w/db/t/part=2"]

    def test_list_files_non_recursive(self, fs):
        fs.create("/d/one", b"1")
        fs.create("/d/sub/two", b"2")
        names = [s.path for s in fs.list_files("/d")]
        assert names == ["/d/one"]
        recursive = [s.path for s in fs.list_files("/d", recursive=True)]
        assert recursive == ["/d/one", "/d/sub/two"]

    def test_delete_requires_recursive(self, fs):
        fs.create("/d/x", b"1")
        with pytest.raises(FileSystemError):
            fs.delete("/d")
        assert fs.delete("/d", recursive=True) == 1
        assert not fs.exists("/d")

    def test_empty_partition_dirs_survive(self, fs):
        fs.mkdirs("/t/part=9")
        assert fs.list_files("/t/part=9") == []

    def test_rename_directory_tree(self, fs):
        fs.create("/src/a/f1", b"1")
        fs.create("/src/f2", b"2")
        fs.rename("/src", "/dst")
        assert fs.read("/dst/a/f1") == b"1"
        assert fs.read("/dst/f2") == b"2"
        assert not fs.exists("/src")

    def test_rename_file_keeps_file_id(self, fs):
        entry = fs.create("/old", b"data")
        fs.rename("/old", "/new")
        assert fs.file_id("/new") == entry.file_id

    def test_rename_refuses_overwrite(self, fs):
        fs.create("/a", b"1")
        fs.create("/b", b"2")
        with pytest.raises(FileSystemError):
            fs.rename("/a", "/b")


class TestAccounting:
    def test_stats_track_bytes(self, fs):
        fs.create("/f", b"x" * 100)
        fs.read("/f")
        fs.read_range("/f", 0, 10)
        assert fs.stats.bytes_written == 100
        assert fs.stats.bytes_read == 110
        assert fs.stats.files_created == 1
        assert fs.stats.files_opened == 2

    def test_total_bytes_subtree(self, fs):
        fs.create("/a/f1", b"12345")
        fs.create("/b/f2", b"123")
        assert fs.total_bytes("/a") == 5
        assert fs.total_bytes() == 8

    def test_stats_reset(self, fs):
        fs.create("/f", b"1")
        fs.stats.reset()
        assert fs.stats.bytes_written == 0


# --------------------------------------------------------------------------- #
# the children index against a brute-force scan of the namespace

_PATHS = st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("mkdirs"), _PATHS),
    st.tuples(st.just("create"), _PATHS),
    st.tuples(st.just("delete"), _PATHS),
    st.tuples(st.just("rename"), _PATHS, _PATHS)), max_size=25)


class _Namespace:
    """Flat sets of paths, listed by scanning all of them — what every
    listing of ``SimFileSystem`` did before directories knew their
    children.  It only replays operations the file system accepted."""

    def __init__(self):
        self.dirs = {"/"}
        self.files: dict[str, int] = {}

    def mkdirs(self, path):
        while path != "/":
            self.dirs.add(path)
            path = posixpath.dirname(path)

    def create(self, path):
        self.mkdirs(posixpath.dirname(path))
        self.files[path] = len(path)

    def _under(self, path, paths):
        return [p for p in paths if p == path or p.startswith(path + "/")]

    def delete(self, path):
        for p in self._under(path, list(self.files)):
            del self.files[p]
        self.dirs -= set(self._under(path, self.dirs))

    def rename(self, src, dst):
        self.mkdirs(posixpath.dirname(dst))
        for p in self._under(src, list(self.files)):
            self.files[dst + p[len(src):]] = self.files.pop(p)
        moved = self._under(src, self.dirs)
        self.dirs -= set(moved)
        self.dirs |= {dst + d[len(src):] for d in moved}

    def children(self, path, paths):
        return sorted(p for p in paths
                      if p != "/" and posixpath.dirname(p) == path)


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_listings_match_a_brute_force_scan(ops):
    fs, model = SimFileSystem(), _Namespace()
    for op, *paths in ops:
        try:
            if op == "create":
                fs.create(paths[0], paths[0].encode())
            elif op == "delete":
                fs.delete(paths[0], recursive=True)
            else:
                getattr(fs, op)(*paths)
        except FileSystemError:
            continue
        getattr(model, op)(*paths)
        for d in model.dirs:
            assert fs.list_dirs(d) == model.children(d, model.dirs)
            assert [s.path for s in fs.list_files(d)] == model.children(
                d, model.files)
            assert [s.path for s in fs.list_files(d, recursive=True)] == \
                sorted(p for p in model.files
                       if p.startswith(d.rstrip("/") + "/"))
            assert fs.total_bytes(d) == sum(
                n for p, n in model.files.items()
                if d == "/" or p.startswith(d + "/"))
        for path in ("/a", "/a/b", "/a/b/c", "/b/c", "/c"):
            assert fs.exists(path) == (path in model.dirs
                                       or path in model.files)


class TestChildrenIndexRefusals:
    def test_a_file_cannot_become_a_directory(self, fs):
        fs.create("/f", b"1")
        with pytest.raises(FileSystemError):
            fs.mkdirs("/f/g")
        with pytest.raises(FileSystemError):
            fs.create("/f/g", b"2")
        assert fs.list_dirs("/") == []

    def test_a_directory_cannot_move_into_itself(self, fs):
        fs.mkdirs("/d/e")
        with pytest.raises(FileSystemError):
            fs.rename("/d", "/d/e/f")
        assert fs.list_dirs("/d") == ["/d/e"]
