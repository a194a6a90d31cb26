"""Project model: one parse and one walk per module, for every code.

Each file is parsed once and walked once.  The walk places the per-file
rule findings (RL001–RL006, :mod:`repro.analysis.rules`) and collects the
facts the cross-file checkers (:mod:`repro.analysis.checkers`) read:

* one :class:`ModuleSummary` per file — the raw findings, the
  suppression table, and a fact sheet (import edges, emit sites, string
  literals, a taint-dataflow skeleton per function, callable-onto-attribute
  stores);
* an **import graph** over the analyzed modules (module-level imports
  only — a function-local import is the sanctioned idiom for keeping a
  dependency *out* of a pickle closure, so it deliberately does not
  create an edge), with forward reachability for the picklable set;
* a conservative **call graph** over ``repro.*``: bare names resolved
  through each module's import table, ``self.method`` resolved within
  the defining class, ``module.function`` through module aliases.
  Anything ambiguous resolves to *nothing* — the checkers only ever act
  on edges that are certain.

A module may import, define or bind a name after its first use, so the
walk keeps the raw call and store nodes and resolves them once it has
seen the whole module.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import rules
from .rules import TAINT_KINDS, Violation, dotted, terminal
from .suppress import Suppressions, parse_suppressions

#: Callees whose callable arguments land in the engine's (picklable) heap.
DEFAULT_SCHEDULE_CALLEES = ("schedule", "schedule_at", "arm_at", "Timer")


@dataclass(frozen=True)
class ProjectConfig:
    """Knobs that shape what the walk records."""

    #: Path suffixes exempt from RL001 (the serial-arithmetic helpers).
    serial_helper_suffixes: Tuple[str, ...] = ("net/packet.py",)
    #: Path suffixes exempt from RL002/RL006 and RNG taint: the stream
    #: registry seeds its own Randoms and is the sanctioned site for them.
    rng_registry_suffixes: Tuple[str, ...] = ("sim/rng.py",)
    schedule_callees: Tuple[str, ...] = DEFAULT_SCHEDULE_CALLEES


@dataclass
class ModuleSummary:
    """Everything the checkers need to know about one module."""

    module: str
    path: str
    facts: dict
    suppressions: Suppressions
    #: Per-file rule findings, before select and suppression.
    findings: List[Violation]


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


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------
class _Expr:
    """Names read and calls made by one value expression (taint input)."""

    __slots__ = ("deps", "calls")

    def __init__(self) -> None:
        self.deps: Set[str] = set()
        self.calls: List[ast.Call] = []


class _Frame:
    """Raw material of one summarized function (module-level, or a
    method of a module-level class)."""

    def __init__(self, node, qual: str, cls: Optional[str]):
        self.node = node
        self.qual = qual
        self.cls = cls
        args = node.args
        #: Params and every name the body binds: they shadow module-level
        #: bindings, so `self.x = name` only counts as a registry
        #: reference when `name` is NOT bound locally.
        self.local_names: Set[str] = {
            a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg]) if a is not None}
        self.local_defs: Set[str] = set()
        self.stores: List[tuple] = []      # (target, value, _Expr, extra dep)
        self.returns: List[Tuple[_Expr, int]] = []
        self.scheduled: List[ast.Call] = []


def _node_classes(cls: type = ast.AST):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


#: Child fields worth visiting: ``ctx``/``op``/``ops`` hold leaf markers.
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f for f in cls._fields if f not in ("ctx", "op", "ops"))
    for cls in _node_classes()}


class _Summarizer:
    """The one walk over a parsed module.

    Dataflow facts (assignments, returns, scheduled callables) are kept
    for a function's own scope; a nested ``def`` only contributes its
    name and the names it binds.
    """

    def __init__(self, module: str, path: str, is_pkg: bool,
                 config: ProjectConfig):
        self.module = module
        self.path = path
        self.is_pkg = is_pkg
        self.config = config
        norm = path.replace(os.sep, "/")
        self.exempt: Set[str] = set()
        if norm.endswith(config.serial_helper_suffixes):
            self.exempt.add("RL001")
        if norm.endswith(config.rng_registry_suffixes):
            self.exempt |= {"RL002", "RL006"}
        self.findings: List[Violation] = []
        # import and module symbol tables
        self.module_aliases: Dict[str, str] = {}   # alias -> dotted module
        self.from_bindings: Dict[str, Tuple[str, str]] = {}  # name -> (mod, orig)
        self.import_targets: Set[str] = set()
        self.module_defs: Set[str] = set()
        self.registries: Set[str] = set()
        # facts
        self.emits: List[dict] = []
        self.literals: Set[str] = set()
        self.schemas: Dict[str, List[str]] = {}
        self.schema_lines: Dict[str, int] = {}
        #: id()s of the EVENT_SCHEMAS keys: registering is not emitting.
        self.schema_keys: Set[int] = set()
        # walk state
        self.calls: List[ast.Call] = []
        self.masked: Set[int] = set()       # id()s of `(...) & SEQ_MASK` terms
        self.frames: List[_Frame] = []
        self.frame: Optional[_Frame] = None
        self.nested = 0                     # nested defs inside self.frame
        self.expr: Optional[_Expr] = None   # value expression being read

    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        if code not in self.exempt:
            self.findings.append(Violation(
                path=self.path, line=node.lineno, col=node.col_offset,
                code=code, message=message))

    # ------------------------------------------------------------------
    def run(self, tree: ast.Module) -> dict:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_defs.add(node.name)
                self._summarize(node, node.name, None)
                continue
            if isinstance(node, ast.ClassDef):
                self._class(node)
                continue
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._module_binding(node, target, node.value)
            elif isinstance(node, ast.AnnAssign):
                self._module_binding(node, node.target, node.value)
            self._visit(node)
        return self._resolve()

    def _module_binding(self, node: ast.AST, target: ast.AST,
                        value: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name) and target.id == "EVENT_SCHEMAS" \
                and isinstance(value, ast.Dict):
            for key, val in zip(value.keys, value.values):
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    self.schemas[key.value] = [
                        e.value for e in getattr(val, "elts", ())
                        if isinstance(e, ast.Constant)
                        and isinstance(e.value, str)]
                    self.schema_lines[key.value] = key.lineno
                    self.schema_keys.add(id(key))
        name = rules.registry_name(target, value)
        if name is not None:
            self.registries.add(name)
            self._emit("RL006", node,
                       f"module-level mutable registry '{name}' lives "
                       "outside every snapshot (restored runs silently "
                       "reset it); hold it on an object the run owns")

    def _class(self, node: ast.ClassDef) -> None:
        for child in node.decorator_list + node.bases + node.keywords:
            self._visit(child)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize(item, f"{node.name}.{item.name}", node.name)
            else:
                self._visit(item)

    def _summarize(self, node, qual: str, cls: Optional[str]) -> None:
        self._signature(node)
        self.frame = frame = _Frame(node, qual, cls)
        for stmt in node.body:
            self._visit(stmt)
        self.frame = None
        self.frames.append(frame)

    def _defaults(self, args: ast.arguments) -> None:
        for default in rules.check_defaults(args):
            self._emit("RL005", default,
                       "mutable default argument is shared across calls "
                       "(default to None and construct inside)")

    def _signature(self, node) -> None:
        """RL005 and the expressions a def evaluates where it stands."""
        self._defaults(node.args)
        for child in node.decorator_list:
            self._visit(child)
        self._visit(node.args)
        if node.returns is not None:
            self._visit(node.returns)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _visit(self, node: ast.AST) -> None:
        handler = _HANDLERS.get(node.__class__)
        if handler is None:
            self._children(node)
        else:
            handler(self, node)

    def _children(self, node: ast.AST) -> None:
        for name in _CHILD_FIELDS[node.__class__]:
            value = getattr(node, name, None)
            if value.__class__ is list:
                for item in value:
                    if isinstance(item, ast.AST):
                        self._visit(item)
            elif isinstance(value, ast.AST):
                self._visit(value)

    def _read(self, value: ast.AST) -> _Expr:
        """Visit a stored or returned value, noting what it reads."""
        self.expr = expr = _Expr()
        self._visit(value)
        self.expr = None
        return expr

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _function(self, node) -> None:
        if self.frame is not None:
            self.frame.local_defs.add(node.name)
        self.nested += 1
        self._signature(node)
        for stmt in node.body:
            self._visit(stmt)
        self.nested -= 1

    def _assign(self, node) -> None:
        frame = self.frame
        if frame is None or self.nested or node.value is None:
            self._children(node)
            return
        expr = self._read(node.value)
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]
            if isinstance(node, ast.AnnAssign):
                self._visit(node.annotation)
        extra = node.target.id if isinstance(node, ast.AugAssign) \
            and isinstance(node.target, ast.Name) else None
        for target in targets:
            self._visit(target)
            frame.stores.append((target, node.value, expr, extra))

    def _return(self, node: ast.Return) -> None:
        if self.frame is None or self.nested or node.value is None:
            self._children(node)
        else:
            self.frame.returns.append((self._read(node.value), node.lineno))

    def _global(self, node: ast.Global) -> None:
        # The tell-tale of a module-level counter written from inside a
        # function: immutable values dodge the registry check, so catch
        # them at the mutation site.
        self._emit("RL006", node,
                   "global statement mutates module-level state "
                   f"({', '.join(node.names)}); snapshots cannot capture "
                   "it — hold it on an object the run owns")

    def _import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.asname or "." not in alias.name:
                self.module_aliases[bound] = alias.name
            # `import a.b` binds `a` but makes a.b importable too.
            if node.col_offset == 0:
                self.import_targets.add(alias.name)

    def _import_from(self, node: ast.ImportFrom) -> None:
        if node.level == 0:
            base = node.module
        else:
            parts = self.module.split(".")
            pkg = parts if self.is_pkg else parts[:-1]
            if node.level - 1 > len(pkg):
                return
            names = pkg[: len(pkg) - (node.level - 1)]
            if node.module:
                names = names + node.module.split(".")
            base = ".".join(names)
        if not base:
            return
        for alias in node.names:
            self.from_bindings[alias.asname or alias.name] = (base, alias.name)
            if node.col_offset == 0:
                # Edge to the longest plausible module path; the project
                # trims it to an analyzed module later.
                self.import_targets.add(f"{base}.{alias.name}")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _name(self, node: ast.Name) -> None:
        ctx = node.ctx.__class__
        if ctx is ast.Load:
            if self.expr is not None:
                self.expr.deps.add(node.id)
        elif ctx is ast.Store and self.frame is not None:
            self.frame.local_names.add(node.id)

    def _constant(self, node: ast.Constant) -> None:
        value = node.value
        if value.__class__ is str and len(value) <= 120 \
                and id(node) not in self.schema_keys:
            self.literals.add(value)

    def _call(self, node: ast.Call) -> None:
        self.calls.append(node)
        if self.expr is not None:
            self.expr.calls.append(node)
        func = node.func
        if self.frame is not None and not self.nested \
                and terminal(func) in self.config.schedule_callees:
            self.frame.scheduled.append(node)
        if func.__class__ is ast.Attribute \
                and func.attr in ("emit", "channel"):
            self._emit_site(node, func.attr)
        self._children(node)

    def _emit_site(self, node: ast.Call, site: str) -> None:
        first = node.args[0] if node.args else None
        type_ = (first.value if isinstance(first, ast.Constant)
                 and isinstance(first.value, str) else None)
        if site == "emit":
            fields = [kw.arg for kw in node.keywords if kw.arg]
            dynamic = len(fields) < len(node.keywords)  # **splat
        else:  # channel(type, names): literal names, or dynamic
            elts = getattr(node.args[1] if len(node.args) > 1 else None,
                           "elts", None)
            fields = [elt.value for elt in elts or ()
                      if isinstance(getattr(elt, "value", 0), str)]
            dynamic = elts is None or len(fields) != len(elts)
        self.emits.append({"line": node.lineno, "col": node.col_offset,
                           "site": site, "type": type_,
                           "fields": sorted(fields), "has_star": dynamic})

    def _compare(self, node: ast.Compare) -> None:
        for code, message in rules.check_compare(node):
            self._emit(code, node, message)
        self._children(node)

    def _binop(self, node: ast.BinOp) -> None:
        op = node.op.__class__
        if op is ast.Sub:
            if id(node) not in self.masked:
                message = rules.check_subtraction(node)
                if message is not None:
                    self._emit("RL001", node, message)
        elif op is ast.BitAnd:
            self.masked.update(map(id, rules.masked_terms(node)))
        self._visit(node.left)
        self._visit(node.right)

    def _lambda(self, node: ast.Lambda) -> None:
        self._defaults(node.args)
        self._children(node)

    # ------------------------------------------------------------------
    # Resolution, once the whole module is known
    # ------------------------------------------------------------------
    def _resolve(self) -> dict:
        kinds: Dict[int, str] = {}
        for call in self.calls:
            found = rules.check_call(call, self.module_aliases,
                                     self.from_bindings)
            if found is not None and found[0] not in self.exempt:
                self._emit(found[0], call, found[1])
                if found[0] in TAINT_KINDS:
                    kinds[id(call)] = TAINT_KINDS[found[0]]
        picklable: List[dict] = []
        functions = {frame.qual: self._function_facts(frame, kinds, picklable)
                     for frame in self.frames}
        return {
            "imports": sorted(self.import_targets),
            "functions": functions,
            "emits": self.emits,
            "string_literals": self.literals,
            "event_schemas": self.schemas,
            "event_schema_lines": self.schema_lines,
            "picklable_stores": picklable,
            "registries": self.registries,
        }

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
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            if cls is not None and func.value.id == "self":
                return f"{self.module}:{cls}.{func.attr}"
            mod = self.module_aliases.get(func.value.id)
            if mod is not None:
                return f"{mod}:{func.attr}"
        return None

    def _function_facts(self, frame: _Frame, kinds: Dict[int, str],
                        picklable: List[dict]) -> dict:
        def facts(expr: _Expr, extra: Optional[str] = None) -> dict:
            calls = {self._resolve_call(c.func, frame.cls)
                     for c in expr.calls}
            calls.discard(None)
            return {"deps": sorted(expr.deps | {extra} if extra
                                   else expr.deps),
                    "calls": sorted(calls),
                    "kinds": sorted({kinds[id(c)] for c in expr.calls
                                     if id(c) in kinds})}

        assigns: List[dict] = []
        attr_stores: List[dict] = []

        def store(target: ast.AST, value: ast.AST, entry: dict) -> None:
            entry = dict(entry, line=target.lineno, col=target.col_offset)
            if isinstance(target, ast.Name):
                assigns.append(dict(entry, target=target.id))
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                subscript = isinstance(target, ast.Subscript)
                attr = dotted(target.value if subscript else target)
                if attr is None:
                    return
                attr_stores.append(dict(
                    entry, attr=attr + "[...]" if subscript else attr))
                self._picklable_store(target, value, frame, picklable)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    store(elt, value, entry)

        for target, value, expr, extra in frame.stores:
            store(target, value, facts(expr, extra))
        for call in frame.scheduled:
            if any(isinstance(a, ast.Lambda) or (
                    isinstance(a, ast.Name) and a.id in frame.local_defs)
                    for a in call.args):
                picklable.append({
                    "kind": "scheduled-callable", "attr": terminal(call.func),
                    "name": frame.qual, "line": call.lineno,
                    "col": call.col_offset})
        return {"assigns": assigns, "attr_stores": attr_stores,
                "returns": [dict(facts(expr), line=line)
                            for expr, line in frame.returns],
                "line": frame.node.lineno}

    def _picklable_store(self, target: ast.AST, value: ast.AST,
                         frame: _Frame, out: List[dict]) -> None:
        """RL104 raw material: callables/registries stored on instances."""
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return
        entry = {"attr": target.attr, "line": target.lineno,
                 "col": target.col_offset, "name": ""}
        if isinstance(value, ast.Lambda):
            out.append(dict(entry, kind="lambda"))
        elif isinstance(value, ast.GeneratorExp):
            out.append(dict(entry, kind="generator-expression"))
        elif isinstance(value, ast.Name):
            name = value.id
            if name in frame.local_defs:
                out.append(dict(entry, kind="local-function", name=name))
            elif name in frame.local_names:
                pass  # a local/param shadows any module-level binding
            elif name in self.registries:
                out.append(dict(entry, kind="registry-ref", name=name,
                                ref=f"{self.module}:{name}"))
            elif name in self.from_bindings:
                mod, orig = self.from_bindings[name]
                out.append(dict(entry, kind="registry-ref", name=name,
                                ref=f"{mod}:{orig}"))


_HANDLERS = {
    ast.FunctionDef: _Summarizer._function,
    ast.AsyncFunctionDef: _Summarizer._function,
    ast.Assign: _Summarizer._assign,
    ast.AnnAssign: _Summarizer._assign,
    ast.AugAssign: _Summarizer._assign,
    ast.Return: _Summarizer._return,
    ast.Global: _Summarizer._global,
    ast.Import: _Summarizer._import,
    ast.ImportFrom: _Summarizer._import_from,
    ast.Name: _Summarizer._name,
    ast.Constant: _Summarizer._constant,
    ast.Call: _Summarizer._call,
    ast.Compare: _Summarizer._compare,
    ast.BinOp: _Summarizer._binop,
    ast.Lambda: _Summarizer._lambda,
}


# ---------------------------------------------------------------------------
# Project assembly
# ---------------------------------------------------------------------------
def summarize_source(source: str, path: str,
                     config: Optional[ProjectConfig] = None) -> ModuleSummary:
    """Parse and walk one module (raises SyntaxError on bad input)."""
    config = config if config is not None else ProjectConfig()
    module, is_pkg = module_name_for(path)
    walker = _Summarizer(module, path, is_pkg, config)
    facts = walker.run(ast.parse(source, filename=path))
    return ModuleSummary(module=module, path=path, facts=facts,
                         suppressions=parse_suppressions(source, path),
                         findings=walker.findings)


@dataclass
class BuildStats:
    """What one project build saw."""

    modules: int = 0
    #: (path, message, line) per file that could not be read or parsed.
    errors: List[Tuple[str, str, int]] = field(default_factory=list)


class Project:
    """The assembled whole-program model."""

    def __init__(self, summaries: Dict[str, ModuleSummary]):
        self.modules = summaries
        # import graph, trimmed to analyzed modules
        self.imports: Dict[str, Set[str]] = {}
        for name, summary in summaries.items():
            edges = {self._trim(target)
                     for target in summary.facts["imports"]}
            self.imports[name] = edges - {None, name}

    def _trim(self, target: str) -> Optional[str]:
        parts = target.split(".")
        while parts:
            candidate = ".".join(parts)
            if candidate in self.modules:
                return candidate
            parts.pop()
        return None

    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        """Forward import reachability (the picklable-module set)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.modules]
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack.extend(self.imports[name])
        return seen

    def functions(self) -> Dict[str, dict]:
        """Merged ``module:qualname`` -> function facts table."""
        return {f"{name}:{qual}": facts
                for name, summary in self.modules.items()
                for qual, facts in summary.facts["functions"].items()}

    def event_schemas(self) -> Tuple[Dict[str, List[str]], Optional[str]]:
        """(merged EVENT_SCHEMAS, module that defines them)."""
        merged: Dict[str, List[str]] = {}
        owner: Optional[str] = None
        for name in sorted(self.modules):
            schemas = self.modules[name].facts["event_schemas"]
            if schemas:
                merged.update(schemas)
                owner = name if owner is None else owner
        return merged, owner


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a deterministic list of .py files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                out.extend(os.path.join(root, f)
                           for f in sorted(files) if f.endswith(".py"))
        else:
            out.append(path)
    return out


def build_project(paths: Sequence[str],
                  config: Optional[ProjectConfig] = None,
                  ) -> Tuple[Project, BuildStats]:
    """Parse and walk every ``.py`` file under ``paths`` once."""
    config = config if config is not None else ProjectConfig()
    stats = BuildStats()
    summaries: Dict[str, ModuleSummary] = {}
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                summary = summarize_source(fh.read(), path, config)
        except OSError as exc:
            stats.errors.append((path, str(exc), 1))
            continue
        except SyntaxError as exc:
            stats.errors.append((path, f"parse error: {exc.msg}",
                                 exc.lineno or 1))
            continue
        # Non-package files from different roots can share a name
        # (`a/helper.py`, `b/helper.py`): key the later one by its path.
        key = path if summary.module in summaries else summary.module
        summaries[key] = summary
    stats.modules = len(summaries)
    return Project(summaries), stats
