"""The wall benchmark's tracer patches entry points of ``src/`` by name.

``benchmarks/wall/tracer.py`` lives outside ``src/`` and is not edited by
PRs that change ``src/`` — so a renamed or moved entry point would only
show up in the ``wall-smoke`` CI job.  This test resolves every entry of
its ``POINTS`` table the way ``Tracer.install`` does (``cls.__dict__``
for methods, a module attribute for functions) and pins the signatures
its value hooks and the DML refactors rely on.  It reads the file; it
never edits it.
"""

import importlib
import importlib.util
import inspect
import pathlib

TRACER_PATH = (pathlib.Path(__file__).resolve().parent.parent
               / "benchmarks" / "wall" / "tracer.py")


def load_points() -> list:
    spec = importlib.util.spec_from_file_location("wall_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.POINTS


POINTS = load_points()

#: entry points whose parameter names callers and value hooks depend on
SIGNATURES = {
    ("repro.server.dml:TableWriter", "insert_rows"):
        ["self", "table", "rows", "partition_spec", "overwrite", "txn",
         "stats_sink"],
    ("repro.server.dml:TableWriter", "update_where"):
        ["self", "table", "predicate", "assignments", "txn", "valid"],
    ("repro.server.dml:TableWriter", "delete_where"):
        ["self", "table", "predicate", "txn", "valid"],
    ("repro.server.dml:TableWriter", "merge"):
        ["self", "table", "source_batch", "target_alias", "source_schema",
         "condition", "when_clauses"],
    ("repro.acid.reader:AcidReader", "read"):
        ["self", "location", "valid", "columns", "sargs",
         "include_row_ids"],
    ("repro.acid.reader:AcidReader", "read_plain"):
        ["self", "location", "schema", "columns", "sargs", "file_format"],
    ("repro.acid.writer:AcidWriter", "write_insert_delta"):
        ["self", "location", "write_id", "batch", "bloom_columns"],
    ("repro.acid.writer:AcidWriter", "write_delete_delta"):
        ["self", "location", "write_id", "ids"],
    ("repro.runtime.scan:ScanExecutor", "__call__"): ["self", "node"],
    ("repro.llap.elevator:LlapReaderFactory", "open"):
        ["self", "path", "io"],
    ("repro.fs.filesystem:SimFileSystem", "read"): ["self", "path", "io"],
    ("repro.exec.operators", "execute"): ["node", "ctx"],
    ("repro.acid.compactor:CompactionCleaner", "run"): ["self"],
    ("repro.server.driver:HiveServer2", "run_compaction"): ["self"],
    ("repro.common.vector:VectorBatch", "to_rows"): ["self"],
}


def resolve(target: str, attr: str):
    """The callable ``Tracer.install`` would wrap."""
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    if not class_name:
        return getattr(module, attr)
    original = getattr(module, class_name).__dict__[attr]
    return (original.__func__ if isinstance(original, classmethod)
            else original)


def test_every_point_resolves():
    broken = []
    for target, attr, _name, _value_of in POINTS:
        try:
            assert callable(resolve(target, attr))
        except (ImportError, AttributeError, KeyError,
                AssertionError) as error:
            broken.append(f"{target}.{attr}: {error!r}")
    assert not broken, "\n".join(broken)


def test_signatures_kept():
    traced = {(target, attr) for target, attr, _, _ in POINTS}
    for key, expected in SIGNATURES.items():
        assert key in traced, key
        assert list(inspect.signature(
            resolve(*key)).parameters) == expected, key
