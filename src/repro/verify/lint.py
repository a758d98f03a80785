"""AST-based repo invariant linter (``repro.verify.lint``).

The repo has performance/correctness invariants that unit tests cannot
see — they are properties of the *source*, not of any run:

``per-nnz-loop``
    Hot sparse/kernel modules must stay vectorized: a Python-level loop
    over nonzeros (``for .. in range(.. indptr ..)``, iterating
    ``.indices``/``.data`` directly) silently turns an O(nnz) NumPy pass
    into an O(nnz) interpreter loop.  Applies to the hot-module set
    (:data:`HOT_NNZ_MODULES`); the deliberately loopy reference kernels
    (``kernels/dense.py``, ``kernels/reference_lu.py``,
    ``kernels/tilekernels.py``) are correctness oracles and exempt.

``unpicklable-recipe``
    Sweep work items cross process boundaries; a ``lambda`` inside a
    recipe constructor (``SweepItem``/``SuiteEntrySpec``/…) or submitted
    to a pool dies in ``pickle`` only *at run time* on a worker.

``cache-mutation``
    Objects returned by the pattern-keyed analysis cache
    (``fill_for``/``block_analysis_for``/``get_or_compute``) are shared
    across engines; mutating one corrupts every later cache hit.

``tasktype-dispatch``
    Dispatch tables keyed by ``TaskType.X`` literals must cover every
    kernel type, so adding a member can never silently fall through.

``event-kind-dispatch``
    An ``if``/``elif`` chain comparing against the event-kind constants
    of ``cluster/eventarena.py`` (``K_READY`` … ``K_DEATH``) must either
    mention every kind or end in a plain ``else`` — a new event kind
    must never silently fall through an engine dispatch chain.

``arena-mutation``
    The event arena's flat buffers are shared by every rank's scheduler;
    mutating them (directly or through an alias like
    ``spill = arena._spill``) is only legal inside the arena's own
    methods or inside a function that *declares* the effect with
    ``# verify: effects(arena)`` on its ``def`` line — the engine entry
    points.  Anything else is an undeclared cross-rank side effect.

A finding is waived by putting ``# verify: waive(<rule>)`` on the
offending line or the line directly above it — waivers are explicit and
grep-able, never implicit.
"""

from __future__ import annotations

import ast
import pathlib
import re

from repro.core.task import TaskType
from repro.verify import report as rep
from repro.verify.report import VerificationReport, Violation

#: rule name -> violation code
RULES = {
    "per-nnz-loop": rep.LINT_NNZ_LOOP,
    "unpicklable-recipe": rep.LINT_UNPICKLABLE_RECIPE,
    "cache-mutation": rep.LINT_CACHE_MUTATION,
    "tasktype-dispatch": rep.LINT_TASKTYPE_DISPATCH,
    "event-kind-dispatch": rep.LINT_EVENT_DISPATCH,
    "arena-mutation": rep.LINT_ARENA_MUTATION,
}

#: Module path fragments the per-nnz-loop rule binds to (hot paths the
#: scheduler/kernel layer promises to keep vectorized).
HOT_NNZ_MODULES = (
    "sparse/",
    "core/dag.py",
    "core/fusion.py",
    "kernels/batched.py",
    "kernels/flops.py",
    "cluster/engine.py",
    "cluster/eventarena.py",
    "parallel/",
)

#: Constructors whose arguments must stay picklable (sweep recipes).
RECIPE_CTORS = frozenset({
    "SweepItem", "SweepRow", "SuiteEntrySpec", "SuiteEntry",
})

#: AnalysisCache accessors whose return values are shared and immutable.
CACHE_ACCESSORS = frozenset({
    "fill_for", "block_analysis_for", "get_or_compute",
})

#: Method names that mutate their receiver in place.
MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse", "fill",
})

_WAIVE_RE = re.compile(r"#\s*verify:\s*waive\(\s*([a-z0-9\-_,\s]+?)\s*\)")

_EFFECTS_RE = re.compile(r"#\s*verify:\s*effects\(\s*arena\s*\)")

_TASKTYPE_MEMBERS = frozenset(t.name for t in TaskType)

#: The event kinds of ``cluster/eventarena.py``; a unit test asserts
#: this set matches the real ``K_*`` constants, so adding a kind there
#: without extending the rule fails the build.
EVENT_KIND_MEMBERS = frozenset({
    "K_READY", "K_DONE", "K_WAKE", "K_XMIT", "K_DELIVER", "K_DEATH",
})


def _waivers(source: str) -> dict:
    """Map line number -> set of waived rule names (line or line above)."""
    out: dict = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _WAIVE_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            out.setdefault(lineno, set()).update(rules)
            out.setdefault(lineno + 1, set()).update(rules)
    return out


def _effect_decls(source: str) -> frozenset:
    """Line numbers covered by an ``# verify: effects(arena)`` marker
    (the marker's line and the line below, so it can sit above a
    ``def``)."""
    lines = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if _EFFECTS_RE.search(line):
            lines.add(lineno)
            lines.add(lineno + 1)
    return frozenset(lines)


def _names_in(node: ast.AST):
    """Identifier strings appearing anywhere under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _root_name(node: ast.AST) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _call_name(node: ast.Call) -> str | None:
    """The called function/method's terminal name."""
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


class _FileLinter(ast.NodeVisitor):
    """Single-file rule engine; collects violations with waivers applied."""

    def __init__(self, path: str, source: str, rules, hot: bool):
        self.path = path
        self.rules = rules
        self.hot = hot
        self.waivers = _waivers(source)
        self.found: list[Violation] = []
        # names bound from cache accessors, per enclosing function scope
        self._tainted_stack: list[set] = [set()]
        # names aliasing arena internals, per enclosing function scope
        self._arena_stack: list[set] = [set()]
        # whether the current scope may mutate arenas: inside an
        # ``*Arena`` class body, or inside a function (or closure of
        # one) marked ``# verify: effects(arena)``
        self._effect_lines = _effect_decls(source)
        self._effects_ok: list[bool] = [False]
        # elif nodes already folded into an outer dispatch chain
        self._chained: set = set()

    # -- plumbing ------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if rule not in self.rules:
            return
        if rule in self.waivers.get(node.lineno, ()):
            return
        self.found.append(Violation(
            code=RULES[rule], message=message,
            file=self.path, line=node.lineno,
        ))

    # -- scope handling for cache-mutation / arena-mutation ------------
    def _visit_scope(self, node) -> None:
        self._tainted_stack.append(set())
        self._arena_stack.append(set())
        self._effects_ok.append(
            self._effects_ok[-1]
            or node.lineno in self._effect_lines)
        self.generic_visit(node)
        self._effects_ok.pop()
        self._arena_stack.pop()
        self._tainted_stack.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._effects_ok.append(
            self._effects_ok[-1] or "Arena" in node.name)
        self.generic_visit(node)
        self._effects_ok.pop()

    @property
    def _tainted(self) -> set:
        return self._tainted_stack[-1]

    def _is_arena_root(self, name: str | None) -> bool:
        if name is None:
            return False
        return name == "arena" or name.endswith("_arena") \
            or name in self._arena_stack[-1]

    # -- rule: per-nnz-loop --------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self.hot:
            self._check_nnz_loop(node)
        self.generic_visit(node)

    def _check_nnz_loop(self, node: ast.For) -> None:
        it = node.iter
        suspicious = False
        if isinstance(it, ast.Call) and _call_name(it) == "range":
            names = set()
            for arg in it.args:
                names.update(_names_in(arg))
            if "indptr" in names or any("nnz" in n for n in names):
                suspicious = True
        elif isinstance(it, ast.Attribute) and it.attr in ("indices", "data"):
            suspicious = True
        elif isinstance(it, ast.Call) and _call_name(it) == "zip":
            for arg in it.args:
                if isinstance(arg, ast.Attribute) and \
                        arg.attr in ("indices", "data"):
                    suspicious = True
        if suspicious:
            self._emit(
                "per-nnz-loop", node,
                "Python-level per-nnz loop in a hot module — vectorize "
                "with array ops, or waive with "
                "'# verify: waive(per-nnz-loop)'",
            )

    # -- rule: event-kind-dispatch -------------------------------------
    def visit_If(self, node: ast.If) -> None:
        if id(node) not in self._chained:
            self._check_event_dispatch(node)
        self.generic_visit(node)

    def _check_event_dispatch(self, node: ast.If) -> None:
        """Walk one whole ``if``/``elif`` chain starting at ``node``."""
        mentioned: set = set()
        cur: ast.If | None = node
        has_else = False
        while cur is not None:
            mentioned.update(n for n in _names_in(cur.test)
                             if n in EVENT_KIND_MEMBERS)
            nxt = cur.orelse
            if len(nxt) == 1 and isinstance(nxt[0], ast.If):
                cur = nxt[0]
                self._chained.add(id(cur))
            else:
                has_else = bool(nxt)
                cur = None
        if mentioned and not has_else \
                and mentioned != EVENT_KIND_MEMBERS:
            missing = sorted(EVENT_KIND_MEMBERS - mentioned)
            self._emit(
                "event-kind-dispatch", node,
                "event-kind dispatch chain is not exhaustive — missing "
                f"{', '.join(missing)} and no trailing else; a new "
                "event kind would silently fall through",
            )

    # -- rule: unpicklable-recipe + mutation rules (calls) -------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in RECIPE_CTORS or name == "submit":
            what = (f"recipe constructor {name}()" if name in RECIPE_CTORS
                    else "executor submit()")
            for sub in ast.walk(node):
                if isinstance(sub, ast.Lambda):
                    self._emit(
                        "unpicklable-recipe", sub,
                        f"lambda inside {what} cannot cross a process "
                        "boundary (pickle fails in the worker)",
                    )
                    break
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS:
            root = _root_name(node.func.value)
            if root in self._tainted:
                self._emit(
                    "cache-mutation", node,
                    f"'{root}.{node.func.attr}(...)' mutates an object "
                    "returned by the shared analysis cache",
                )
            if not self._effects_ok[-1] and self._is_arena_root(root):
                self._emit(
                    "arena-mutation", node,
                    f"'{root}.{node.func.attr}(...)' mutates shared "
                    "arena state outside a declared "
                    "'# verify: effects(arena)' entry point",
                )
        if name in ("heappush", "heappop", "heapify", "heapreplace") \
                and node.args and not self._effects_ok[-1]:
            root = _root_name(node.args[0])
            if self._is_arena_root(root):
                self._emit(
                    "arena-mutation", node,
                    f"{name}() on arena-backed heap '{root}' outside a "
                    "declared '# verify: effects(arena)' entry point",
                )
        self.generic_visit(node)

    # -- rules: cache-mutation + arena-mutation (assignments) ----------
    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call) \
                and _call_name(node.value) in CACHE_ACCESSORS:
            for target in node.targets:
                elts = target.elts if isinstance(target,
                                                 (ast.Tuple, ast.List)) \
                    else [target]
                for e in elts:
                    if isinstance(e, ast.Name):
                        self._tainted.add(e.id)
            self.generic_visit(node)
            return
        # ``spill = arena._spill`` aliases arena internals: writes
        # through ``spill`` are arena mutations from here on
        if isinstance(node.value, (ast.Attribute, ast.Subscript)) \
                and self._is_arena_root(_root_name(node.value)):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._arena_stack[-1].add(target.id)
        self._check_mutating_target(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutating_target(node, [node.target])
        self.generic_visit(node)

    def _check_mutating_target(self, node, targets) -> None:
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                root = _root_name(target)
                if root in self._tainted:
                    self._emit(
                        "cache-mutation", node,
                        f"assignment into '{root}' mutates an object "
                        "returned by the shared analysis cache",
                    )
                if not self._effects_ok[-1] \
                        and self._is_arena_root(root):
                    self._emit(
                        "arena-mutation", node,
                        f"assignment into '{root}' mutates shared arena "
                        "state outside a declared "
                        "'# verify: effects(arena)' entry point",
                    )

    # -- rule: tasktype-dispatch ---------------------------------------
    def visit_Dict(self, node: ast.Dict) -> None:
        members = set()
        for key in node.keys:
            if isinstance(key, ast.Attribute) \
                    and isinstance(key.value, ast.Name) \
                    and key.value.id == "TaskType":
                members.add(key.attr)
        if members and members != _TASKTYPE_MEMBERS:
            missing = sorted(_TASKTYPE_MEMBERS - members)
            self._emit(
                "tasktype-dispatch", node,
                "TaskType dispatch table is not exhaustive — missing "
                f"{', '.join(missing)}",
            )
        self.generic_visit(node)


def _is_hot(rel_path: str) -> bool:
    rel = rel_path.replace("\\", "/")
    return any(frag in rel for frag in HOT_NNZ_MODULES)


def lint_source(source: str, path: str = "<string>", rules=None,
                hot: bool | None = None) -> list:
    """Lint one source string; returns the violation list."""
    rules = set(RULES) if rules is None else set(rules)
    unknown = rules - set(RULES)
    if unknown:
        raise ValueError(f"unknown lint rules: {sorted(unknown)}")
    if hot is None:
        hot = _is_hot(path)
    tree = ast.parse(source, filename=path)
    linter = _FileLinter(path, source, rules, hot)
    linter.visit(tree)
    return linter.found


def lint_file(path, rules=None) -> list:
    """Lint one file; returns the violation list."""
    p = pathlib.Path(path)
    return lint_source(p.read_text(encoding="utf-8"), path=str(p),
                       rules=rules)


def lint_paths(paths, rules=None, subject: str = "lint"
               ) -> VerificationReport:
    """Lint files and/or directory trees into one report.

    Directories are walked recursively for ``*.py`` files; the per-file
    hot-module classification keys off each file's path.
    """
    out = VerificationReport(
        subject=subject,
        checks=tuple(sorted(set(RULES) if rules is None else set(rules))),
    )
    files: list[pathlib.Path] = []
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    for f in files:
        for v in lint_file(f, rules=rules):
            out.add(v)
    return out
