"""concheck — static interprocedural lock-order / deadlock analysis.

reprolint's RL001 checks lock discipline one statement at a time: a
mutation of ``self.<attr>`` must sit inside ``with self._lock:``.  It
cannot see that method A of one class, holding its lock, calls into a
second class that takes *its* lock — while another path takes the same
two locks in the opposite order.  That shape (ABBA) is exactly the
deadlock class the HS2/LLAP concurrency story must exclude, and it
only exists *across* the call graph.  This module reasons at that
level:

1. **Model** — parse every file, collect classes, the lock attributes
   they declare (``self._lock = threading.Lock()`` /
   ``sync.new_lock(...)`` / condition fields on dataclasses), and per
   method the ordered events: lock acquisitions (``with self._lock:``,
   ``with gate.cond:``), calls made, and reads/writes of ``self``
   attributes — each tagged with the set of lock *tokens* held at that
   point.  A token is ``ClassName.attr`` — one node per lock site, the
   same identity the runtime sanitizer uses.
2. **Call graph** — calls are resolved by name: ``self.m()`` to the
   own class, ``Class.m(obj)`` to that method alone, ``obj.m()`` to
   every class defining ``m`` (container
   method names like ``append``/``get`` are never followed; highly
   ambiguous names are dropped).  A fixpoint computes, per method, the
   set of tokens it may transitively acquire.
3. **Lock-order graph** — an edge ``A -> B`` with a witness site for
   every acquisition of B (direct or via a call chain) while A is
   held.
4. **Findings** —

   ========  ==========================================================
   CC001     a cycle in the lock-order graph: two call paths acquire
             the same locks in opposite orders (potential deadlock)
   CC002     cross-call-graph unguarded *read*: an attribute whose
             every write is lock-guarded (RL001's invariant) is read
             without the lock in some method — a torn/stale read RL001
             cannot see because it only checks writes
   CC003     a non-reentrant ``threading.Lock`` token re-acquired on a
             path that already holds it (guaranteed self-deadlock)
   ========  ==========================================================

Helper methods whose *every* call site already holds the class lock
("caller holds self._lock" helpers) are recognized by a fixpoint over
the call graph and treated as executing under the lock — both for
guardedness of writes and for read checks — so the convention the
codebase documents in comments is finally machine-checked.

Suppression mirrors reprolint: ``# concheck: disable=CC002`` on the
line (with a justification comment), or ``# concheck:
disable-file=CC001`` in the first five lines.  The ``tools/concheck``
CLI renders text or deterministic JSON (byte-identical across runs on
an unchanged tree) and exits non-zero while findings remain.

Known blind spots (see DESIGN.md): locks passed as arguments or held
through callbacks invoked via variables (``fn()``), inheritance, and
dynamic dispatch beyond name matching.  The runtime sanitizer
(:mod:`repro.lint.sanitizer`) covers those at execution time.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .reprolint import Finding

RULES = {
    "CC001": "lock-order cycle across the call graph (potential "
             "ABBA deadlock)",
    "CC002": "unguarded read of a write-guarded attribute "
             "(cross-call-graph torn/stale read)",
    "CC003": "non-reentrant lock re-acquired on a path that already "
             "holds it (self-deadlock)",
}

#: attribute names treated as locks even without a visible declaration
LOCK_NAME_HINTS = frozenset({"_lock", "_cond", "_glock", "lock", "cond"})

#: method names never followed through the call graph: they are
#: overwhelmingly built-in container operations, and following them
#: to same-named repo methods would wire the graph to dict.get/etc.
CONTAINER_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "remove", "pop",
    "popleft", "clear", "add", "discard", "update", "setdefault",
    "sort", "reverse", "get", "keys", "values", "items", "copy",
    "count", "index", "join", "split", "strip", "startswith",
    "endswith", "format", "encode", "decode", "lower", "upper",
    "set", "inc", "observe", "wait", "notify", "notify_all",
    "acquire_lock", "put", "read", "write", "close", "flush",
})

#: a name resolving to more candidate methods than this is dropped
#: (deterministically) rather than spraying edges across the graph
MAX_CALL_CANDIDATES = 8

#: constructors: acquisition/mutation there is pre-publication
CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})

#: files whose raw-threading use is the sanitizer/seam machinery itself
EXCLUDED_FILES = ("repro/lint/sanitizer.py", "repro/common/sync.py")

_SUPPRESS_RE = re.compile(r"#\s*concheck:\s*disable=([A-Za-z0-9, ]+)")
_SUPPRESS_FILE_RE = re.compile(
    r"#\s*concheck:\s*disable-file=([A-Za-z0-9, ]+)")


# --------------------------------------------------------------------------- #
# model

@dataclass
class MethodModel:
    """Everything concheck knows about one function body."""

    qualname: str                      # "Class.method" or "module fn"
    cls: Optional[str]
    name: str
    path: str
    lineno: int
    #: (token, held tokens, line, col) — direct lock acquisitions
    acquires: list = field(default_factory=list)
    #: (callee name, receiver if a bare name, held tokens, line, col)
    calls: list = field(default_factory=list)
    #: (attr, own_lock_held, line, col) — Loads of self.<attr>
    reads: list = field(default_factory=list)
    #: (attr, own_lock_held, line, col) — mutations of self.<attr>
    writes: list = field(default_factory=list)


@dataclass
class ClassModel:
    name: str
    path: str
    #: lock attribute -> kind ("lock" | "rlock" | "cond")
    lock_attrs: dict = field(default_factory=dict)
    methods: dict = field(default_factory=dict)   # name -> MethodModel

    def own_tokens(self) -> set[str]:
        return {f"{self.name}.{attr}" for attr in self.lock_attrs}


@dataclass
class ConcurrencyReport:
    """Analysis result: findings + the lock-order graph."""

    findings: list[Finding]
    #: (held, acquired) -> witness "path:line (method)"
    edges: dict
    #: token -> lock kind
    tokens: dict
    files: int = 0

    def edge_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.edges)

    def to_json(self, indent: int = 2) -> str:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        payload = {
            "tool": "concheck", "version": 1,
            "rules": RULES,
            "files": self.files,
            "counts": counts,
            "total": len(self.findings),
            "findings": [vars(f) for f in self.findings],
            "lock_tokens": {t: self.tokens[t]
                            for t in sorted(self.tokens)},
            "lock_order_edges": [
                {"held": a, "acquired": b, "witness": self.edges[(a, b)]}
                for a, b in sorted(self.edges)],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


# --------------------------------------------------------------------------- #
# lock-construction recognition

def _lock_kind_of_call(node: ast.expr) -> Optional[str]:
    """Kind if ``node`` constructs a lock, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = None
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    kinds = {"Lock": "lock", "new_lock": "lock",
             "RLock": "rlock", "new_rlock": "rlock",
             "Condition": "cond", "new_condition": "cond"}
    kind = kinds.get(name or "")
    if kind is not None:
        return kind
    if name == "field":
        for keyword in node.keywords:
            if keyword.arg == "default_factory":
                value = keyword.value
                if isinstance(value, ast.Lambda):
                    return _lock_kind_of_call(value.body)
                if isinstance(value, (ast.Attribute, ast.Name)):
                    attr = (value.attr if isinstance(value, ast.Attribute)
                            else value.id)
                    return kinds.get(attr)
    return None


def _self_attr(node: ast.expr) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


# --------------------------------------------------------------------------- #
# pass 1: classes and their lock attributes

def _collect_classes(tree: ast.AST, path: str,
                     classes: dict) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        model = classes.get(node.name)
        if model is None:
            model = classes[node.name] = ClassModel(node.name, path)
        for child in ast.walk(node):
            # self.X = threading.Lock() / sync.new_lock(...)
            if isinstance(child, ast.Assign):
                kind = _lock_kind_of_call(child.value)
                if kind is None:
                    continue
                for target in child.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        model.lock_attrs[attr] = kind
            # dataclass field: cond: threading.Condition = field(...)
            elif isinstance(child, ast.AnnAssign) and child.value:
                kind = _lock_kind_of_call(child.value)
                if kind is not None and isinstance(child.target, ast.Name):
                    model.lock_attrs[child.target.id] = kind


# --------------------------------------------------------------------------- #
# pass 2: per-method event extraction

class _MethodWalker:
    """Walks one method body tracking the held-token set."""

    def __init__(self, model: MethodModel, cls: Optional[ClassModel],
                 attr_owners: dict):
        self.model = model
        self.cls = cls
        self.attr_owners = attr_owners   # lock attr name -> [classes]

    # token resolution ---------------------------------------------------- #
    def _token(self, expr: ast.expr) -> Optional[str]:
        """Lock token for a with-context / acquire receiver."""
        if isinstance(expr, ast.Call):        # e.g. lock.acquire_timeout()
            expr = expr.func
        if not isinstance(expr, ast.Attribute):
            return None
        attr = expr.attr
        root = expr.value
        if isinstance(root, ast.Name) and root.id == "self":
            if self.cls is not None and attr in self.cls.lock_attrs:
                return f"{self.cls.name}.{attr}"
            if attr in LOCK_NAME_HINTS:
                name = self.cls.name if self.cls else "?"
                return f"{name}.{attr}"
            return None
        # gate.cond / session.lock: resolve by unique owning class
        owners = self.attr_owners.get(attr, [])
        if len(owners) == 1:
            return f"{owners[0]}.{attr}"
        if owners:
            # `self.journal._lock` with several classes owning `_lock`:
            # the receiver attribute name itself usually names the class
            # (journal -> Journal, session_manager -> SessionManager)
            receiver = self._receiver_name(root)
            if receiver is not None:
                folded = receiver.replace("_", "").lower()
                named = [c for c in owners if c.lower() == folded]
                if len(named) == 1:
                    return f"{named[0]}.{attr}"
            return f"?.{attr}"          # ambiguous but deterministic
        if attr in LOCK_NAME_HINTS:
            return f"?.{attr}"
        return None

    @staticmethod
    def _receiver_name(root: ast.expr) -> Optional[str]:
        """`self.journal` -> "journal", bare `gate` -> "gate"."""
        if isinstance(root, ast.Attribute) \
                and isinstance(root.value, ast.Name) \
                and root.value.id == "self":
            return root.attr
        if isinstance(root, ast.Name):
            return root.id
        return None

    # the walk ------------------------------------------------------------- #
    def walk(self, body: list, held: tuple) -> None:
        for statement in body:
            self._visit(statement, held)

    def _visit(self, node: ast.AST, held: tuple) -> None:
        if isinstance(node, ast.With):
            inner = held
            for item in node.items:
                token = self._token(item.context_expr)
                if token is not None:
                    self.model.acquires.append(
                        (token, held, node.lineno, node.col_offset))
                    if token not in inner:
                        inner = inner + (token,)
                self._visit(item.context_expr, held)
            self.walk(node.body, inner)
            return
        if isinstance(node, ast.Call):
            self._record_call(node, held)
            for child in ast.iter_child_nodes(node):
                self._visit(child, held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # nested bodies inherit the held set: the dominant case is
            # a wait_for predicate evaluated under the condition
            body = (node.body if isinstance(node.body, list)
                    else [node.body])
            self.walk(body, held)
            return
        self._record_attr_access(node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _record_call(self, node: ast.Call, held: tuple) -> None:
        func = node.func
        # explicit lock method calls: x._lock.acquire() counts as an
        # acquisition at this site (RL010 polices the pairing)
        if isinstance(func, ast.Attribute) and func.attr in (
                "acquire", "wait", "wait_for"):
            token = self._token(func.value)
            if token is not None:
                self.model.acquires.append(
                    (token, held, node.lineno, node.col_offset))
                return
        if isinstance(func, ast.Attribute):
            if func.attr in CONTAINER_METHODS:
                return
            receiver = (func.value.id
                        if isinstance(func.value, ast.Name) else None)
            self.model.calls.append(
                (func.attr, receiver, held, node.lineno,
                 node.col_offset))
        elif isinstance(func, ast.Name):
            self.model.calls.append(
                (func.id, None, held, node.lineno, node.col_offset))

    def _record_attr_access(self, node: ast.AST, held: tuple) -> None:
        cls = self.cls
        if cls is None:
            return
        own = cls.own_tokens()
        locked = bool(own & set(held))
        mutated = _mutated_attr(node)
        if mutated is not None and mutated not in cls.lock_attrs:
            self.model.writes.append(
                (mutated, locked, node.lineno, node.col_offset))
            return
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            attr = _self_attr(node)
            if attr is not None and attr not in cls.lock_attrs:
                self.model.reads.append(
                    (attr, locked, node.lineno, node.col_offset))


def _mutated_attr(node: ast.AST) -> Optional[str]:
    """Attribute name if this statement mutates ``self.<attr>``."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Tuple):
                for element in target.elts:
                    attr = _attr_root(element)
                    if attr is not None:
                        return attr
            attr = _attr_root(target)
            if attr is not None:
                return attr
    if isinstance(node, ast.Delete):
        for target in node.targets:
            attr = _attr_root(target)
            if attr is not None:
                return attr
    if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in (
                "append", "appendleft", "extend", "insert", "remove",
                "pop", "popleft", "clear", "add", "discard", "update",
                "setdefault", "sort", "reverse")):
        return _attr_root(node.value.func.value)
    return None


def _attr_root(node: ast.expr) -> Optional[str]:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        node = node.value
    return None


# --------------------------------------------------------------------------- #
# the analysis

class ConcurrencyAnalyzer:
    def __init__(self):
        self.classes: dict[str, ClassModel] = {}
        self.methods: dict[str, MethodModel] = {}
        self.method_index: dict[str, list[str]] = {}  # name -> quals
        self.sources: dict[str, list[str]] = {}       # path -> lines
        self.files = 0

    # -- building ---------------------------------------------------------- #
    def add_file(self, source: str, path: str) -> Optional[Finding]:
        norm = path.replace(os.sep, "/")
        if any(norm.endswith(p) for p in EXCLUDED_FILES):
            return None
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return Finding("CC000", path, error.lineno or 0, 0,
                           f"syntax error: {error.msg}")
        self.files += 1
        self.sources[path] = source.splitlines()
        _collect_classes(tree, path, self.classes)
        self._trees = getattr(self, "_trees", [])
        self._trees.append((tree, path))
        return None

    def run(self, rules: Optional[Iterable[str]] = None
            ) -> ConcurrencyReport:
        enabled = set(rules) if rules is not None else set(RULES)
        attr_owners: dict[str, list[str]] = {}
        for cls in self.classes.values():
            for attr in cls.lock_attrs:
                attr_owners.setdefault(attr, []).append(cls.name)
        for owners in attr_owners.values():
            owners.sort()
        for tree, path in getattr(self, "_trees", []):
            self._extract_methods(tree, path, attr_owners)
        may_acquire = self._fixpoint_may_acquire()
        eff_locked = self._fixpoint_effectively_locked()
        edges, cc003 = self._build_edges(may_acquire, eff_locked)
        findings: list[Finding] = []
        if "CC003" in enabled:
            findings.extend(cc003)
        if "CC001" in enabled:
            findings.extend(self._find_cycles(edges))
        if "CC002" in enabled:
            findings.extend(self._find_unguarded_reads(eff_locked))
        findings = self._attach_snippets(findings)
        findings = self._apply_suppressions(findings)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        tokens = {f"{c.name}.{a}": k for c in self.classes.values()
                  for a, k in c.lock_attrs.items()}
        return ConcurrencyReport(findings, edges, tokens,
                                 files=self.files)

    def _extract_methods(self, tree, path, attr_owners) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                cls = self.classes.get(node.name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._add_method(item, cls, path, attr_owners)
        for item in ast.iter_child_nodes(tree):
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_method(item, None, path, attr_owners)

    def _add_method(self, node, cls, path, attr_owners) -> None:
        qual = (f"{cls.name}.{node.name}" if cls is not None
                else node.name)
        model = MethodModel(qual, cls.name if cls else None,
                            node.name, path, node.lineno)
        _MethodWalker(model, cls, attr_owners).walk(node.body, ())
        self.methods[qual] = model
        self.method_index.setdefault(node.name, []).append(qual)
        if cls is not None:
            cls.methods[node.name] = model

    # -- call resolution ---------------------------------------------------- #
    def _resolve(self, callee: str, receiver: Optional[str],
                 caller: MethodModel) -> list[str]:
        if callee in CONTAINER_METHODS:
            return []
        if receiver == "self" and caller.cls is not None:
            own = f"{caller.cls}.{callee}"
            if own in self.methods:
                return [own]
        named = f"{receiver}.{callee}"
        if named in self.methods:   # ``Class.method(obj, ...)``
            return [named]
        candidates = sorted(self.method_index.get(callee, []))
        # drop the caller itself on non-self calls to the same name
        if len(candidates) > MAX_CALL_CANDIDATES:
            return []
        return candidates

    # -- fixpoints ---------------------------------------------------------- #
    def _fixpoint_may_acquire(self) -> dict[str, set[str]]:
        may: dict[str, set[str]] = {
            qual: {tok for tok, _h, _l, _c in m.acquires}
            for qual, m in self.methods.items()}
        call_targets: dict[str, set[str]] = {}
        for qual, m in self.methods.items():
            targets = set()
            for callee, receiver, _held, _l, _c in m.calls:
                targets.update(self._resolve(callee, receiver, m))
            call_targets[qual] = targets
        changed = True
        while changed:
            changed = False
            for qual, targets in call_targets.items():
                bucket = may[qual]
                before = len(bucket)
                for target in targets:
                    bucket |= may.get(target, set())
                if len(bucket) != before:
                    changed = True
        return may

    def _fixpoint_effectively_locked(self) -> set[str]:
        """Private methods whose every call site holds the class lock."""
        # candidate: private method of a lock-owning class that has at
        # least one call site in the model
        sites: dict[str, list[tuple[str, tuple]]] = {}
        for qual, m in self.methods.items():
            for callee, receiver, held, _l, _c in m.calls:
                for target in self._resolve(callee, receiver, m):
                    sites.setdefault(target, []).append((qual, held))
        eff: set[str] = set()
        changed = True
        while changed:
            changed = False
            for qual, m in self.methods.items():
                if qual in eff or m.cls is None:
                    continue
                if not m.name.startswith("_") or m.name.startswith("__"):
                    continue
                cls = self.classes.get(m.cls)
                if cls is None or not cls.lock_attrs:
                    continue
                own = cls.own_tokens()
                call_sites = sites.get(qual, [])
                if not call_sites:
                    continue
                def covered(caller_qual, held):
                    if own & set(held):
                        return True
                    caller = self.methods.get(caller_qual)
                    return (caller_qual in eff and caller is not None
                            and caller.cls == m.cls)
                if all(covered(c, h) for c, h in call_sites):
                    eff.add(qual)
                    changed = True
        return eff

    # -- lock-order graph --------------------------------------------------- #
    def _token_kind(self, token: str) -> str:
        cls_name, _, attr = token.partition(".")
        cls = self.classes.get(cls_name)
        if cls is not None:
            return cls.lock_attrs.get(attr, "lock")
        return "lock"

    def _build_edges(self, may_acquire, eff_locked):
        edges: dict[tuple[str, str], str] = {}
        cc003: list[Finding] = []

        def witness(m: MethodModel, line: int) -> str:
            return f"{m.path}:{line} ({m.qualname})"

        def effective_held(m: MethodModel, held: tuple) -> tuple:
            if m.qualname in eff_locked and m.cls is not None:
                own = sorted(self.classes[m.cls].own_tokens())
                extra = tuple(t for t in own if t not in held)
                return held + extra
            return held

        for qual in sorted(self.methods):
            m = self.methods[qual]
            if m.name in CONSTRUCTORS:
                continue
            for token, held, line, col in m.acquires:
                held = effective_held(m, held)
                for h in held:
                    if h == token:
                        if self._token_kind(token) == "lock":
                            cc003.append(Finding(
                                "CC003", m.path, line, col,
                                f"{m.qualname} re-acquires non-"
                                f"reentrant {token} already held on "
                                "this path"))
                    else:
                        edges.setdefault((h, token), witness(m, line))
            for callee, receiver, held, line, col in m.calls:
                held = effective_held(m, held)
                if not held:
                    continue
                for target in self._resolve(callee, receiver, m):
                    for token in sorted(may_acquire.get(target, ())):
                        for h in held:
                            if h == token:
                                if (self._token_kind(token) == "lock"
                                        and target.startswith(
                                            f"{m.cls}.")):
                                    cc003.append(Finding(
                                        "CC003", m.path, line, col,
                                        f"{m.qualname} holds {token} "
                                        f"and calls {target} which "
                                        "re-acquires it "
                                        "(self-deadlock)"))
                            else:
                                edges.setdefault(
                                    (h, token),
                                    witness(m, line) + f" via {target}")
        return edges, cc003

    def _find_cycles(self, edges) -> list[Finding]:
        graph: dict[str, set[str]] = {}
        for a, b in edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        sccs = _tarjan(graph)
        findings = []
        for scc in sccs:
            if len(scc) < 2:
                continue
            nodes = sorted(scc)
            cycle_edges = sorted(
                (a, b) for a, b in edges
                if a in scc and b in scc)
            detail = "; ".join(
                f"{a}->{b} at {edges[(a, b)]}" for a, b in cycle_edges)
            # anchor the finding at the first witness site
            first = edges[cycle_edges[0]]
            path, line = _split_witness(first)
            findings.append(Finding(
                "CC001", path, line, 0,
                f"lock-order cycle between {{{', '.join(nodes)}}}: "
                f"{detail}"))
        return findings

    # -- unguarded reads ---------------------------------------------------- #
    def _find_unguarded_reads(self, eff_locked) -> list[Finding]:
        findings = []
        for cls_name in sorted(self.classes):
            cls = self.classes[cls_name]
            if not cls.lock_attrs:
                continue
            guarded = self._guarded_attrs(cls, eff_locked)
            if not guarded:
                continue
            for name in sorted(cls.methods):
                m = cls.methods[name]
                if name in CONSTRUCTORS:
                    continue
                under_lock = m.qualname in eff_locked
                for attr, locked, line, col in m.reads:
                    if attr not in guarded or locked or under_lock:
                        continue
                    findings.append(Finding(
                        "CC002", m.path, line, col,
                        f"{m.qualname} reads 'self.{attr}' without "
                        f"the lock, but every write to it is "
                        "lock-guarded (torn/stale read)"))
        return findings

    def _guarded_attrs(self, cls: ClassModel, eff_locked) -> set[str]:
        """Attrs with >= 1 non-constructor write, all of them locked."""
        locked_writes: set[str] = set()
        unlocked_writes: set[str] = set()
        for name, m in cls.methods.items():
            in_ctor = name in CONSTRUCTORS
            under_lock = m.qualname in eff_locked
            for attr, locked, _line, _col in m.writes:
                if in_ctor:
                    continue
                if locked or under_lock:
                    locked_writes.add(attr)
                else:
                    unlocked_writes.add(attr)
        return locked_writes - unlocked_writes

    # -- output ------------------------------------------------------------- #
    def _attach_snippets(self, findings) -> list[Finding]:
        for finding in findings:
            lines = self.sources.get(finding.path, [])
            if 0 < finding.line <= len(lines):
                finding.snippet = lines[finding.line - 1].strip()
        return findings

    def _apply_suppressions(self, findings) -> list[Finding]:
        out = []
        for finding in findings:
            lines = self.sources.get(finding.path, [])
            if finding.rule in _file_suppressions(lines):
                continue
            if _line_suppressed(lines, finding.line, finding.rule):
                continue
            out.append(finding)
        return out


def _split_witness(witness: str) -> tuple[str, int]:
    head = witness.split(" ")[0]
    path, _, line = head.rpartition(":")
    try:
        return path, int(line)
    except ValueError:
        return head, 0


def _tarjan(graph: dict[str, set[str]]) -> list[set[str]]:
    """Iterative Tarjan SCC (deterministic over sorted nodes)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    # self-loops count as cycles only via explicit self-edges, which
    # CC003 reports separately; filter singletons without self-edge
    return [s for s in sccs
            if len(s) > 1]


# --------------------------------------------------------------------------- #
# suppressions (concheck flavor of the reprolint convention)

def _file_suppressions(lines: list[str]) -> set[str]:
    suppressed: set[str] = set()
    for line in lines[:5]:
        match = _SUPPRESS_FILE_RE.search(line)
        if match:
            suppressed |= {r.strip().upper()
                           for r in match.group(1).split(",")}
    if "ALL" in suppressed:
        return set(RULES)
    return suppressed


def _line_suppressed(lines: list[str], lineno: int, rule: str) -> bool:
    if not 0 < lineno <= len(lines):
        return False
    match = _SUPPRESS_RE.search(lines[lineno - 1])
    if not match:
        return False
    ids = {r.strip().upper() for r in match.group(1).split(",")}
    return rule in ids or "ALL" in ids


# --------------------------------------------------------------------------- #
# public API

def analyze_paths(paths: Iterable[str],
                  rules: Optional[Iterable[str]] = None
                  ) -> ConcurrencyReport:
    """Analyze every ``.py`` file under the given files/directories."""
    analyzer = ConcurrencyAnalyzer()
    parse_errors: list[Finding] = []
    for filename in sorted(_python_files(paths)):
        with open(filename, encoding="utf-8") as handle:
            source = handle.read()
        error = analyzer.add_file(source, filename)
        if error is not None:
            parse_errors.append(error)
    report = analyzer.run(rules)
    report.findings = parse_errors + report.findings
    return report


def analyze_source(source: str, path: str = "<string>",
                   rules: Optional[Iterable[str]] = None
                   ) -> ConcurrencyReport:
    """Analyze one in-memory module (fixtures and tests)."""
    analyzer = ConcurrencyAnalyzer()
    error = analyzer.add_file(source, path)
    report = analyzer.run(rules)
    if error is not None:
        report.findings.insert(0, error)
    return report


def analyze_package() -> ConcurrencyReport:
    """Analyze the installed ``repro`` package (sanitizer merge)."""
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))
    return analyze_paths([package_root])


def _python_files(paths: Iterable[str]) -> list[str]:
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                out.extend(os.path.join(root, f) for f in files
                           if f.endswith(".py"))
        else:
            out.append(path)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="concheck",
        description="static interprocedural lock-order / deadlock "
                    "analysis (CC001-CC003)")
    parser.add_argument("paths", nargs="+",
                        help="files or directories to analyze")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--rules",
                        help="comma-separated rule ids (default: all)")
    parser.add_argument("--graph", action="store_true",
                        help="also print the lock-order graph edges")
    args = parser.parse_args(argv)
    rules = (None if not args.rules
             else [r.strip().upper() for r in args.rules.split(",")])
    report = analyze_paths(args.paths, rules)
    if args.format == "json":
        print(report.to_json())
    else:
        for finding in report.findings:
            print(finding.render())
        if args.graph:
            for (a, b) in sorted(report.edges):
                print(f"edge: {a} -> {b}  [{report.edges[(a, b)]}]")
        print(f"concheck: {len(report.findings)} finding(s), "
              f"{len(report.edges)} lock-order edge(s), "
              f"{report.files} file(s)")
    return 1 if report.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
