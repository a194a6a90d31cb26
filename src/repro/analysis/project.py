"""Whole-program project model for ``python -m repro.analysis analyze``.

The per-file lint pass (:mod:`repro.analysis.lint`) sees one module at a
time, so anything that crosses a module boundary — a wall-clock value
laundered through a helper function, an ``emit()`` whose event type only
exists in another module's ``EVENT_SCHEMAS``, a lambda assigned onto a
class that some *other* module pickles — is invisible to it.  This
module parses the package once into a **project model**:

* one :class:`ModuleSummary` per file — a plain-JSON fact sheet (symbol
  table, import edges, emit sites, a taint-dataflow skeleton, hook-use
  guardedness, callable-onto-attribute stores, suppression table) that
  the incremental cache (:mod:`repro.analysis.cache`) can persist and
  reload without re-parsing the file;
* an **import graph** over the analyzed modules (module-level imports
  only — a function-local import is the sanctioned idiom for keeping a
  dependency *out* of a pickle closure, so it deliberately does not
  create an edge), with forward reachability (for the snapshot-safety
  picklable set) and reverse closure (for cache invalidation);
* a conservative **call graph** over ``repro.*``: bare names resolved
  through each module's import table, ``self.method`` resolved within
  the defining class, ``module.function`` through module aliases.
  Anything ambiguous resolves to *nothing* — the checkers only ever act
  on edges that are certain.

The checkers themselves live in :mod:`repro.analysis.checkers`.
"""

from __future__ import annotations

import ast
import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .suppress import Suppressions, parse_suppressions

#: Bump when summary *shape* or the hook list (HOOK_ATTRS) changes: stale
#: caches are discarded wholesale.
SUMMARY_VERSION = 3

# --- taint sources (mirrors the per-file RL002/RL003 vocabulary) ----------
WALL_CLOCK_TIME_ATTRS = {
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
}
WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: Attribute names treated as optional zero-cost-off hooks when a class
#: can leave them ``None`` (RL103).
HOOK_ATTRS = frozenset({
    "obs", "trace", "flight", "sanitizer", "recorder", "bus", "int_tel",
})

#: Callees whose callable arguments land in the engine's (picklable) heap.
DEFAULT_SCHEDULE_CALLEES = ("schedule", "schedule_at", "Timer")


@dataclass(frozen=True)
class ProjectConfig:
    """Knobs that shape what the summaries record.

    Changing any of these invalidates cached summaries (they are part of
    the cache's config hash).
    """

    #: Path suffixes exempt from RNG-source detection (the sanctioned
    #: stream registry constructs its own seeded Randoms).
    rng_registry_suffixes: Tuple[str, ...] = ("sim/rng.py",)
    schedule_callees: Tuple[str, ...] = DEFAULT_SCHEDULE_CALLEES

    def digest(self) -> str:
        payload = repr((SUMMARY_VERSION, self.rng_registry_suffixes,
                        self.schedule_callees))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class ModuleSummary:
    """Everything the checkers need to know about one module."""

    module: str
    path: str
    sha256: str
    facts: dict

    def to_json(self) -> dict:
        return {"module": self.module, "path": self.path,
                "sha256": self.sha256, "facts": self.facts}

    @classmethod
    def from_json(cls, data: dict) -> "ModuleSummary":
        return cls(module=data["module"], path=data["path"],
                   sha256=data["sha256"], facts=data["facts"])

    @property
    def suppressions(self) -> Suppressions:
        return Suppressions.from_json(self.facts.get("suppressions", {}))


# ---------------------------------------------------------------------------
# Module naming
# ---------------------------------------------------------------------------
def module_name_for(path: str) -> Tuple[str, bool]:
    """Dotted module name for ``path`` and whether it is a package.

    Walks up the directory tree as long as ``__init__.py`` files are
    found, so ``src/repro/core/acdc.py`` maps to ``repro.core.acdc``
    regardless of the invocation directory.
    """
    path = os.path.abspath(path)
    parts: List[str] = []
    directory = os.path.dirname(path)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.insert(0, os.path.basename(directory))
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    stem = os.path.splitext(os.path.basename(path))[0]
    is_pkg = stem == "__init__"
    if not is_pkg:
        parts.append(stem)
    return ".".join(parts) if parts else stem, is_pkg


def _dotted(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c``; None when it is not
    a pure chain (calls, subscripts... break it)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_optional_annotation(node: Optional[ast.AST]) -> bool:
    """``Optional[X]`` or ``X | None`` annotations."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript) and _terminal(node.value) == "Optional":
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _is_none(node.left) or _is_none(node.right) \
            or _is_optional_annotation(node.left) \
            or _is_optional_annotation(node.right)
    return False


#: RL006-style mutable-registry values (module-level run state).
_MUTABLE_CALLEES = {"list", "dict", "set", "bytearray", "deque",
                    "defaultdict", "OrderedDict", "Counter",
                    "count", "cycle", "chain", "repeat"}


def _is_registry_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _terminal(node.func) in _MUTABLE_CALLEES
    return False


# ---------------------------------------------------------------------------
# Summary construction
# ---------------------------------------------------------------------------
class _Summarizer:
    """One pass over a parsed module, producing the JSONable fact sheet."""

    def __init__(self, module: str, path: str, is_pkg: bool,
                 tree: ast.Module, source: str, config: ProjectConfig):
        self.module = module
        self.path = path
        self.is_pkg = is_pkg
        self.tree = tree
        self.source = source
        self.config = config
        norm = path.replace(os.sep, "/")
        self.rng_exempt = any(norm.endswith(sfx)
                              for sfx in config.rng_registry_suffixes)
        # import state
        self.module_aliases: Dict[str, str] = {}   # alias -> dotted module
        self.from_bindings: Dict[str, Tuple[str, str]] = {}  # name -> (mod, orig)
        self.import_targets: Set[str] = set()
        # module symbol table
        self.module_defs: Set[str] = set()         # top-level function names
        self.registries: Set[str] = set()          # mutable module-level state
        # facts under construction
        self.functions: Dict[str, dict] = {}
        self.classes: Dict[str, dict] = {}
        self.emits: List[dict] = []
        self.literals: Set[str] = set()
        self.schemas: Dict[str, List[str]] = {}
        self.schema_lines: Dict[str, int] = {}
        self.picklable_stores: List[dict] = []

    # ------------------------------------------------------------------
    def run(self) -> dict:
        self._collect_imports_and_toplevel()
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize_function(node, qual=node.name, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._summarize_class(node)
        self._collect_emits_and_literals()
        sup = parse_suppressions(self.source, self.path)
        return {
            "imports": sorted(self.import_targets),
            "functions": self.functions,
            "classes": self.classes,
            "emits": self.emits,
            "string_literals": sorted(self.literals),
            "event_schemas": self.schemas,
            "event_schema_lines": self.schema_lines,
            "picklable_stores": self.picklable_stores,
            "registries": sorted(self.registries),
            "suppressions": sup.to_json(),
        }

    # ------------------------------------------------------------------
    def _collect_imports_and_toplevel(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.asname or "." not in alias.name:
                        self.module_aliases[bound] = alias.name
                    # `import a.b` binds `a` but makes a.b importable too.
                    if node.col_offset == 0:
                        self.import_targets.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.from_bindings[bound] = (base, alias.name)
                    if node.col_offset == 0:
                        # Edge to the longest plausible module path; the
                        # project trims it to an analyzed module later.
                        self.import_targets.add(f"{base}.{alias.name}")
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_defs.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._note_module_binding(target, node.value, node)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._note_module_binding(node.target, node.value, node)

    def _resolve_from_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = self.module.split(".")
        pkg = parts if self.is_pkg else parts[:-1]
        if node.level - 1 > len(pkg):
            return None
        base = pkg[: len(pkg) - (node.level - 1)]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None

    def _note_module_binding(self, target: ast.AST, value: ast.AST,
                             node: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if name == "EVENT_SCHEMAS" and isinstance(value, ast.Dict):
            for key, val in zip(value.keys, value.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    continue
                fields: List[str] = []
                if isinstance(val, (ast.Tuple, ast.List)):
                    fields = [e.value for e in val.elts
                              if isinstance(e, ast.Constant)
                              and isinstance(e.value, str)]
                self.schemas[key.value] = fields
                self.schema_lines[key.value] = key.lineno
        elif (not name.isupper() and not name.startswith("__")
              and _is_registry_value(value)):
            self.registries.add(name)

    # ------------------------------------------------------------------
    def _collect_emits_and_literals(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if len(node.value) <= 120:
                    self.literals.add(node.value)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("emit", "channel")):
                first = node.args[0] if node.args else None
                type_ = (first.value
                         if isinstance(first, ast.Constant)
                         and isinstance(first.value, str) else None)
                if node.func.attr == "emit":
                    fields = [kw.arg for kw in node.keywords if kw.arg]
                    dynamic = len(fields) < len(node.keywords)  # **splat
                else:  # channel(type, names): literal names, or dynamic
                    elts = getattr(node.args[1] if len(node.args) > 1
                                   else None, "elts", None)
                    fields = [elt.value for elt in elts or ()
                              if isinstance(getattr(elt, "value", 0), str)]
                    dynamic = elts is None or len(fields) != len(elts)
                self.emits.append({
                    "line": node.lineno, "col": node.col_offset,
                    "site": node.func.attr,
                    "type": type_,
                    "fields": sorted(fields),
                    "has_star": dynamic,
                    "recv": _dotted(node.func.value) or "<expr>",
                })

    # ------------------------------------------------------------------
    # Call / source resolution
    # ------------------------------------------------------------------
    def _resolve_call(self, func: ast.AST,
                      cls: Optional[str]) -> Optional[str]:
        """Conservative callee id ``module:qualname``; None if unsure."""
        if isinstance(func, ast.Name):
            bound = self.from_bindings.get(func.id)
            if bound is not None:
                return f"{bound[0]}:{bound[1]}"
            if func.id in self.module_defs:
                return f"{self.module}:{func.id}"
            return None
        if isinstance(func, ast.Attribute):
            if (cls is not None and isinstance(func.value, ast.Name)
                    and func.value.id == "self"):
                return f"{self.module}:{cls}.{func.attr}"
            if isinstance(func.value, ast.Name):
                mod = self.module_aliases.get(func.value.id)
                if mod is not None:
                    return f"{mod}:{func.attr}"
        return None

    def _source_kind(self, call: ast.Call) -> Optional[str]:
        """'wall-clock' / 'rng' when ``call`` is a nondeterminism source."""
        func = call.func
        if isinstance(func, ast.Name):
            bound = self.from_bindings.get(func.id)
            if bound is None:
                return None
            mod, orig = bound
            if mod == "time" and orig in WALL_CLOCK_TIME_ATTRS:
                return "wall-clock"
            if mod == "datetime" and orig == "datetime":
                return None  # class alias; calls are constructions
            if mod == "random" and not self.rng_exempt:
                if orig == "Random":
                    return None if (call.args or call.keywords) else "rng"
                if orig == "SystemRandom":
                    return "rng"
                return "rng"
            return None
        chain = _dotted(func)
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        mod = self.module_aliases.get(head)
        if mod == "time" and rest in WALL_CLOCK_TIME_ATTRS:
            return "wall-clock"
        if mod == "datetime" and (
                rest in WALL_CLOCK_DATETIME_ATTRS
                or (rest.startswith("datetime.")
                    and rest.split(".", 1)[1] in WALL_CLOCK_DATETIME_ATTRS)):
            return "wall-clock"
        bound = self.from_bindings.get(head)
        if bound == ("datetime", "datetime") \
                and rest in WALL_CLOCK_DATETIME_ATTRS:
            return "wall-clock"
        if mod == "random" and not self.rng_exempt:
            if rest == "Random":
                return None if (call.args or call.keywords) else "rng"
            if "." not in rest:
                return "rng"
        return None

    # ------------------------------------------------------------------
    # Expression facts (taint skeleton)
    # ------------------------------------------------------------------
    def _expr_facts(self, node: ast.AST, cls: Optional[str],
                    local_defs: Set[str]) -> dict:
        deps: Set[str] = set()
        calls: Set[str] = set()
        kinds: Set[str] = set()
        sched: List[dict] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                deps.add(sub.id)
            elif isinstance(sub, ast.Call):
                kind = self._source_kind(sub)
                if kind is not None:
                    kinds.add(kind)
                ref = self._resolve_call(sub.func, cls)
                if ref is not None:
                    calls.add(ref)
                callee = _terminal(sub.func)
                if callee in self.config.schedule_callees and any(
                        isinstance(a, ast.Lambda) or (
                            isinstance(a, ast.Name) and a.id in local_defs)
                        for a in sub.args):
                    sched.append({"callee": callee, "line": sub.lineno,
                                  "col": sub.col_offset})
        return {"deps": sorted(deps), "calls": sorted(calls),
                "kinds": sorted(kinds), "sched": sched}

    # ------------------------------------------------------------------
    # Functions: taint dataflow skeleton + call sites
    # ------------------------------------------------------------------
    def _summarize_function(self, node, qual: str,
                            cls: Optional[str]) -> None:
        assigns: List[dict] = []
        attr_stores: List[dict] = []
        returns: List[dict] = []
        call_sites: List[dict] = []
        # Prescan locally-bound names: params and assignment targets
        # shadow module-level bindings, so `self.x = name` only counts as
        # a registry/import reference when `name` is NOT bound locally.
        local_defs: Set[str] = set()
        local_names: Set[str] = set()
        args = node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            local_names.add(arg.arg)
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None:
                local_names.add(vararg.arg)
        for sub in ast.walk(node):
            if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and sub is not node):
                local_defs.add(sub.name)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                local_names.add(sub.id)
        local_names |= local_defs

        def facts_for(value: ast.AST) -> dict:
            f = self._expr_facts(value, cls, local_defs)
            for s in f.pop("sched"):
                self.picklable_stores.append({
                    "kind": "scheduled-callable", "attr": s["callee"],
                    "name": qual, "line": s["line"], "col": s["col"]})
            return f

        def handle_store(target: ast.AST, value: ast.AST,
                         extra_dep: Optional[str] = None) -> None:
            f = facts_for(value)
            if extra_dep is not None:
                f = dict(f, deps=sorted(set(f["deps"]) | {extra_dep}))
            entry = dict(f, line=target.lineno, col=target.col_offset)
            if isinstance(target, ast.Name):
                assigns.append(dict(entry, target=target.id))
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                base = target.value if isinstance(target, ast.Subscript) \
                    else target
                attr = _dotted(base)
                if attr is None:
                    return
                if isinstance(target, ast.Subscript):
                    attr += "[...]"
                attr_stores.append(dict(entry, attr=attr))
                self._note_picklable_store(target, value,
                                           local_defs, local_names)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    handle_store(elt, value)

        def walk(body: Sequence[ast.stmt]) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested scopes stay out of this dataflow
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        handle_store(target, stmt.value)
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    handle_store(stmt.target, stmt.value)
                elif isinstance(stmt, ast.AugAssign):
                    extra = stmt.target.id \
                        if isinstance(stmt.target, ast.Name) else None
                    handle_store(stmt.target, stmt.value, extra_dep=extra)
                elif isinstance(stmt, ast.Return) and stmt.value is not None:
                    returns.append(dict(facts_for(stmt.value),
                                        line=stmt.lineno))
                else:
                    for value in ast.iter_child_nodes(stmt):
                        if isinstance(value, ast.expr):
                            facts_for(value)  # side effect: sched stores
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call):
                        ref = self._resolve_call(sub.func, cls)
                        if ref is not None:
                            call_sites.append({
                                "ref": ref,
                                "name": _dotted(sub.func) or "<call>",
                                "line": sub.lineno, "col": sub.col_offset})
                # recurse into compound statements
                for sub_body in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, sub_body, None)
                    if inner and not isinstance(stmt, (ast.FunctionDef,
                                                       ast.AsyncFunctionDef)):
                        walk(inner)
                for handler in getattr(stmt, "handlers", ()):
                    walk(handler.body)

        walk(node.body)
        self.functions[qual] = {
            "assigns": assigns, "attr_stores": attr_stores,
            "returns": returns, "calls": call_sites,
            "line": node.lineno,
        }

    def _note_picklable_store(self, target: ast.AST, value: ast.AST,
                              local_defs: Set[str],
                              local_names: Set[str]) -> None:
        """RL104 raw material: callables/registries stored on instances."""
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return
        attr = target.attr
        entry = {"attr": attr, "line": target.lineno,
                 "col": target.col_offset}
        if isinstance(value, ast.Lambda):
            self.picklable_stores.append(dict(entry, kind="lambda", name=""))
        elif isinstance(value, ast.GeneratorExp):
            self.picklable_stores.append(
                dict(entry, kind="generator-expression", name=""))
        elif isinstance(value, ast.Name):
            if value.id in local_defs:
                self.picklable_stores.append(
                    dict(entry, kind="local-function", name=value.id))
            elif value.id in local_names:
                pass  # a local/param shadows any module-level binding
            elif value.id in self.registries:
                self.picklable_stores.append(dict(
                    entry, kind="registry-ref", name=value.id,
                    ref=f"{self.module}:{value.id}"))
            elif value.id in self.from_bindings:
                mod, orig = self.from_bindings[value.id]
                self.picklable_stores.append(dict(
                    entry, kind="registry-ref", name=value.id,
                    ref=f"{mod}:{orig}"))

    # ------------------------------------------------------------------
    # Classes: optional hooks + guarded uses (RL103), methods (taint)
    # ------------------------------------------------------------------
    def _summarize_class(self, node: ast.ClassDef) -> None:
        optional_hooks: Dict[str, int] = {}
        hook_uses: List[dict] = []
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize_function(item, qual=f"{node.name}.{item.name}",
                                         cls=node.name)
                _HookWalker(self, item, optional_hooks, hook_uses).run()
        self.classes[node.name] = {
            "optional_hooks": optional_hooks,
            "hook_uses": hook_uses,
            "line": node.lineno,
        }


class _HookWalker:
    """Per-method guardedness analysis for zero-cost-off hooks.

    Tracks, statement by statement, which hook expressions
    (``self.<hook>`` and local aliases of them) are *narrowed* — proven
    non-``None`` on the current path — and records every dereference
    (attribute access, call, subscript) with its guardedness.  Also
    infers which hook attributes the class can leave as ``None``.
    """

    def __init__(self, owner: _Summarizer, fn, optional_hooks: Dict[str, int],
                 hook_uses: List[dict]):
        self.owner = owner
        self.fn = fn
        self.optional_hooks = optional_hooks
        self.hook_uses = hook_uses
        self.aliases: Dict[str, str] = {}   # local name -> hook attr
        self.maybe_none: Set[str] = set()   # locals that may hold None
        args = fn.args
        pos = list(args.posonlyargs) + list(args.args)
        defaults = list(args.defaults)
        for arg, default in zip(reversed(pos), reversed(defaults)):
            if _is_none(default):
                self.maybe_none.add(arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if _is_none(default):
                self.maybe_none.add(arg.arg)
        for arg in pos + list(args.kwonlyargs):
            if _is_optional_annotation(arg.annotation):
                self.maybe_none.add(arg.arg)

    # -- expression classification -------------------------------------
    def _key_of(self, node: ast.AST) -> Optional[str]:
        """Canonical tracking key: ``self.X`` or an alias local name."""
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self" and node.attr in HOOK_ATTRS):
            return f"self.{node.attr}"
        if isinstance(node, ast.Name) and node.id in self.aliases:
            return node.id
        return None

    def _attr_of(self, key: str) -> str:
        return key[5:] if key.startswith("self.") else self.aliases[key]

    @staticmethod
    def _name_narrowing(test: ast.AST) -> Tuple[Set[str], Set[str]]:
        """Local names proven non-None when ``test`` is (true, false)."""
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.left, ast.Name) \
                and _is_none(test.comparators[0]):
            if isinstance(test.ops[0], ast.IsNot):
                return {test.left.id}, set()
            if isinstance(test.ops[0], ast.Is):
                return set(), {test.left.id}
        if isinstance(test, ast.Name):
            return {test.id}, set()
        return set(), set()

    def _possibly_none(self, value: ast.AST,
                       nonnull: Set[str] = frozenset()) -> bool:
        if _is_none(value):
            return True
        if isinstance(value, ast.Name):
            return value.id in self.maybe_none and value.id not in nonnull
        if isinstance(value, ast.IfExp):
            # `x if x is not None else y` narrows x inside its branch.
            pos, neg = self._name_narrowing(value.test)
            return self._possibly_none(value.body, nonnull | pos) \
                or self._possibly_none(value.orelse, nonnull | neg)
        if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
            return self._possibly_none(value.values[-1], nonnull)
        if (isinstance(value, ast.Call) and _terminal(value.func) == "getattr"
                and len(value.args) == 3):
            return self._possibly_none(value.args[2], nonnull)
        return False

    # -- narrowing -------------------------------------------------------
    def _test_narrowing(self, test: ast.AST) -> Tuple[Set[str], Set[str]]:
        """(keys non-None when test is true, keys non-None when false)."""
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            key = self._key_of(test.left)
            if key is not None and _is_none(test.comparators[0]):
                if isinstance(test.ops[0], ast.IsNot):
                    return {key}, set()
                if isinstance(test.ops[0], ast.Is):
                    return set(), {key}
        key = self._key_of(test)
        if key is not None:  # truthiness: `if self.trace:`
            return {key}, set()
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            pos, neg = self._test_narrowing(test.operand)
            return neg, pos
        if isinstance(test, ast.BoolOp):
            pos: Set[str] = set()
            neg: Set[str] = set()
            for value in test.values:
                p, n = self._test_narrowing(value)
                pos |= p
                neg |= n
            # `A and B` true proves every conjunct's positive facts;
            # `A or B` false proves every disjunct's negative facts
            # (the `if x is None or x.sim is None: return` idiom).
            if isinstance(test.op, ast.And):
                return pos, set()
            return set(), neg
        return set(), set()

    @staticmethod
    def _terminates(body: Sequence[ast.stmt]) -> bool:
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))

    # -- expression scanning ---------------------------------------------
    def _scan(self, node: ast.AST, narrowed: Set[str]) -> None:
        if node is None:
            return
        if isinstance(node, ast.BoolOp):
            acc = set(narrowed)
            for value in node.values:
                self._scan(value, acc)
                pos, neg = self._test_narrowing(value)
                acc |= pos if isinstance(node.op, ast.And) else neg
            return
        if isinstance(node, ast.IfExp):
            self._scan(node.test, narrowed)
            pos, neg = self._test_narrowing(node.test)
            self._scan(node.body, narrowed | pos)
            self._scan(node.orelse, narrowed | neg)
            return
        if isinstance(node, ast.Lambda):
            self._scan(node.body, set())  # deferred execution: no guards
            return
        base = None
        if isinstance(node, ast.Attribute):
            base = node.value
        elif isinstance(node, ast.Call):
            base = node.func
            # `self.window_cb(...)`: the call dereferences the hook even
            # though the Attribute node *is* the key, not its parent.
            key = self._key_of(node.func)
            if key is not None:
                self._record_use(key, node, narrowed)
                base = None
        elif isinstance(node, ast.Subscript):
            base = node.value
        if base is not None:
            key = self._key_of(base)
            if key is not None:
                self._record_use(key, node, narrowed)
        for child in ast.iter_child_nodes(node):
            self._scan(child, narrowed)

    def _record_use(self, key: str, node: ast.AST,
                    narrowed: Set[str]) -> None:
        self.hook_uses.append({
            "attr": self._attr_of(key), "key": key,
            "line": node.lineno, "col": node.col_offset,
            "guarded": key in narrowed,
        })

    # -- statement walking -----------------------------------------------
    def run(self) -> None:
        self._walk(self.fn.body, set())

    def _walk(self, body: Sequence[ast.stmt], narrowed: Set[str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.If):
                self._scan(stmt.test, narrowed)
                pos, neg = self._test_narrowing(stmt.test)
                self._walk(stmt.body, narrowed | pos)
                self._walk(stmt.orelse, narrowed | neg)
                if self._terminates(stmt.body):
                    narrowed |= neg
                if stmt.orelse and self._terminates(stmt.orelse):
                    narrowed |= pos
                self._narrow_locals(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = stmt.value
                if value is not None:
                    self._scan(value, narrowed)
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    self._scan_store_target(target, narrowed)
                    self._apply_assign(target, value, narrowed)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan(stmt.iter, narrowed)
                self._walk(stmt.body, set(narrowed))
                self._walk(stmt.orelse, set(narrowed))
            elif isinstance(stmt, ast.While):
                self._scan(stmt.test, narrowed)
                pos, _ = self._test_narrowing(stmt.test)
                self._walk(stmt.body, set(narrowed) | pos)
                self._walk(stmt.orelse, set(narrowed))
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan(item.context_expr, narrowed)
                self._walk(stmt.body, narrowed)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, set(narrowed))
                for handler in stmt.handlers:
                    self._walk(handler.body, set(narrowed))
                self._walk(stmt.orelse, set(narrowed))
                self._walk(stmt.finalbody, narrowed)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(stmt.body, set())  # deferred: no outer guards
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._scan(child, narrowed)

    def _scan_store_target(self, target: ast.AST,
                           narrowed: Set[str]) -> None:
        # Stores *through* a hook (`self.obs.x = 1`) dereference it too.
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            key = self._key_of(target.value)
            if key is not None:
                self._record_use(key, target, narrowed)
            else:
                self._scan(target.value, narrowed)

    def _apply_assign(self, target: ast.AST, value: Optional[ast.AST],
                      narrowed: Set[str]) -> None:
        if value is None:
            return
        if isinstance(target, ast.Name):
            name = target.id
            narrowed.discard(name)
            key = self._key_of(value)
            if key is not None and key.startswith("self."):
                self.aliases[name] = key[5:]
            else:
                self.aliases.pop(name, None)
            if self._possibly_none(value):
                self.maybe_none.add(name)
            else:
                self.maybe_none.discard(name)
        elif (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in HOOK_ATTRS):
            narrowed.discard(f"self.{target.attr}")
            if self._possibly_none(value):
                self.optional_hooks.setdefault(target.attr, target.lineno)

    def _narrow_locals(self, stmt: ast.If) -> None:
        """``if name is None: name = <non-None>`` (or return/raise) is the
        sanctioned narrowing idiom — afterwards the local is non-None."""
        test = stmt.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and _is_none(test.comparators[0])
                and isinstance(test.left, ast.Name)):
            return
        name = test.left.id
        rebinds = any(
            isinstance(inner, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                and not self._possibly_none(inner.value)
                for t in inner.targets)
            for inner in stmt.body)
        if rebinds or self._terminates(stmt.body):
            self.maybe_none.discard(name)


# ---------------------------------------------------------------------------
# Project assembly
# ---------------------------------------------------------------------------
def summarize_source(source: str, path: str,
                     config: Optional[ProjectConfig] = None) -> ModuleSummary:
    """Parse and summarize one module (raises SyntaxError on bad input)."""
    config = config if config is not None else ProjectConfig()
    module, is_pkg = module_name_for(path)
    tree = ast.parse(source, filename=path)
    facts = _Summarizer(module, path, is_pkg, tree, source, config).run()
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return ModuleSummary(module=module, path=path, sha256=digest, facts=facts)


@dataclass
class BuildStats:
    """What one project build actually did (for the cache contract)."""

    parsed: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    errors: List[Tuple[str, str]] = field(default_factory=list)


class Project:
    """The assembled whole-program model."""

    def __init__(self, summaries: Dict[str, ModuleSummary]):
        self.modules = summaries
        self._names = set(summaries)
        # import graph, trimmed to analyzed modules
        self.imports: Dict[str, Set[str]] = {}
        for name, summary in summaries.items():
            edges: Set[str] = set()
            for target in summary.facts.get("imports", ()):
                trimmed = self._trim(target)
                if trimmed is not None and trimmed != name:
                    edges.add(trimmed)
            self.imports[name] = edges
        self.reverse: Dict[str, Set[str]] = {name: set() for name in summaries}
        for name, edges in self.imports.items():
            for target in edges:
                self.reverse[target].add(name)

    def _trim(self, target: str) -> Optional[str]:
        parts = target.split(".")
        while parts:
            candidate = ".".join(parts)
            if candidate in self._names:
                return candidate
            parts.pop()
        return None

    # ------------------------------------------------------------------
    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        """Forward import reachability (the picklable-module set)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self._names]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.imports.get(name, ()))
        return seen

    def reverse_closure(self, seeds: Sequence[str]) -> Set[str]:
        """Seeds plus every module that (transitively) imports them."""
        seen: Set[str] = set()
        stack = [s for s in seeds if s in self._names]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.reverse.get(name, ()))
        return seen

    # ------------------------------------------------------------------
    def functions(self) -> Dict[str, dict]:
        """Merged ``module:qualname`` -> function facts table."""
        table: Dict[str, dict] = {}
        for name, summary in self.modules.items():
            for qual, facts in summary.facts.get("functions", {}).items():
                table[f"{name}:{qual}"] = facts
        return table

    def event_schemas(self) -> Tuple[Dict[str, List[str]], Optional[str]]:
        """(merged EVENT_SCHEMAS, module that defines them)."""
        merged: Dict[str, List[str]] = {}
        owner: Optional[str] = None
        for name in sorted(self.modules):
            schemas = self.modules[name].facts.get("event_schemas", {})
            if schemas:
                merged.update(schemas)
                owner = name if owner is None else owner
        return merged, owner


def build_project(paths: Sequence[str],
                  config: Optional[ProjectConfig] = None,
                  cached: Optional[Dict[str, dict]] = None,
                  ) -> Tuple[Project, BuildStats]:
    """Parse ``paths`` into a :class:`Project`.

    ``cached`` maps path -> summary JSON from a previous run; entries
    whose content hash still matches are reused without parsing.
    """
    from .lint import iter_python_files  # shared walker, no cycle

    config = config if config is not None else ProjectConfig()
    stats = BuildStats()
    summaries: Dict[str, ModuleSummary] = {}
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            stats.errors.append((path, str(exc)))
            continue
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        entry = (cached or {}).get(os.path.abspath(path))
        if entry is not None and entry.get("sha256") == digest:
            summary = ModuleSummary.from_json(entry)
            stats.reused.append(summary.module)
        else:
            try:
                summary = summarize_source(source, path, config)
            except SyntaxError as exc:
                stats.errors.append((path, f"parse error: {exc.msg}"))
                continue
            stats.parsed.append(summary.module)
        summaries[summary.module] = summary
    return Project(summaries), stats
