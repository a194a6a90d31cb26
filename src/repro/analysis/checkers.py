"""Cross-file checkers RL101–RL104 over the project model.

These are the whole-program counterparts of the per-file ``repro-lint``
rules: each one enforces a platform contract that only holds (or breaks)
across module boundaries.

RL101 **determinism-taint** — wall-clock reads and unseeded RNG draws
    are *sources*; the checker propagates their taint through local
    assignments, function returns, and the conservative call graph, and
    flags any store of a tainted value into long-lived state
    (``self.x = ...``, ``obj.attr = ...``, ``d[k] = ...``).  This
    catches the helper-function laundering RL002/RL003 cannot see:
    ``def now_s(): return time.time()`` in one module, ``self.t0 =
    now_s()`` in another.

RL102 **trace-contract** — every ``emit("type", ...)`` and
    ``channel("type", ("a", ...))`` with a literal type is checked against
    the merged ``EVENT_SCHEMAS``: registered type, every required field
    present (unless a ``**splat`` or computed names make the site
    dynamic), no field colliding with the envelope's reserved ones.  The
    global pass then reports *dead schemas*: registered types that no
    emit site (and no other module's string literal — dispatch tables
    count as liveness) ever references.

RL103 **unguarded-hook** — a zero-cost-off hook attribute the class can
    leave as ``None`` must only ever be dereferenced behind the
    ``is None`` guard idiom (directly, via a local alias, a BoolOp
    short-circuit, or an early return).  The ≤2 % tracing-off overhead
    bound in CI depends on this shape.

RL104 **snapshot-reachability** — modules import-reachable from the
    pickle roots (``repro.control.service`` by default) form the
    *picklable set*; inside it, lambdas / local functions / generator
    objects stored on instances, callables handed to scheduler calls,
    and aliases of module-global mutable registries are all things
    ``pickle`` either rejects outright or silently shares across runs.

Per-module findings are pure functions of (module summary, epoch
context), which is what makes the incremental cache in
:mod:`repro.analysis.cache` sound: call edges only exist along import
edges, so the reverse-import closure of a change covers every module
whose findings could move, and everything epoch-global (schemas, the
picklable set, checker config) is hashed into the cache epoch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .project import (BuildStats, ModuleSummary, Project, ProjectConfig,
                      build_project)
from .rules import Violation

#: Bump when checker semantics change: invalidates cached findings.
ANALYSIS_VERSION = 2

CHECKER_CATALOG = {
    "RL101": "determinism-taint: wall-clock/unseeded-RNG value reaches "
             "long-lived state through assignments, returns, or calls",
    "RL102": "trace-contract: emit() site or EVENT_SCHEMAS entry breaks "
             "the registered event schema (or the schema is dead)",
    "RL103": "unguarded-hook: optional zero-cost-off hook dereferenced "
             "without an `is None` guard",
    "RL104": "snapshot-reachability: unpicklable callable or shared "
             "module state stored on objects reached by checkpoints",
}

#: Keywords that collide with the trace envelope `emit` writes itself.
_RESERVED_EMIT_KWARGS = ("t", "type", "sev")
#: `emit` signature parameters, not payload fields.
_EMIT_SIGNATURE_KWARGS = ("flow", "component", "severity")


@dataclass(frozen=True)
class AnalyzeConfig:
    """Configuration for one whole-program analysis run."""

    #: Restrict to these checkers (empty = all of RL101–RL104).
    select: Tuple[str, ...] = ()
    #: Modules whose import closure forms the picklable set (RL104).
    pickle_roots: Tuple[str, ...] = ("repro.control.service",)
    project: ProjectConfig = field(default_factory=ProjectConfig)

    def enabled(self, code: str) -> bool:
        return not self.select or code in self.select

    def epoch(self, project: Project) -> str:
        """Cache epoch: hash of everything global a module's findings
        can depend on besides its own content."""
        schemas, owner = project.event_schemas()
        payload = repr((
            ANALYSIS_VERSION, self.select, self.pickle_roots,
            self.project.digest(), sorted(schemas.items()), owner,
            sorted(project.reachable_from(self.pickle_roots)),
        ))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class _Context:
    """Global facts shared by every per-module check."""

    project: Project
    config: AnalyzeConfig
    schemas: Dict[str, List[str]]
    schema_owner: Optional[str]
    returns_taint: Dict[str, Set[str]]
    picklable: Set[str]


# ---------------------------------------------------------------------------
# RL101: interprocedural taint fixpoint
# ---------------------------------------------------------------------------
def _local_taint(facts: dict,
                 returns_taint: Dict[str, Set[str]]) -> Dict[str, Set[str]]:
    """Fixpoint over one function's assignments: local name -> kinds."""
    tainted: Dict[str, Set[str]] = {}
    changed = True
    while changed:
        changed = False
        for entry in facts.get("assigns", ()):
            kinds = _entry_taint(entry, tainted, returns_taint)
            current = tainted.get(entry["target"], set())
            if not kinds <= current:
                tainted[entry["target"]] = current | kinds
                changed = True
    return tainted


def _entry_taint(entry: dict, tainted: Dict[str, Set[str]],
                 returns_taint: Dict[str, Set[str]]) -> Set[str]:
    kinds = set(entry.get("kinds", ()))
    for dep in entry.get("deps", ()):
        kinds |= tainted.get(dep, set())
    for callee in entry.get("calls", ()):
        kinds |= returns_taint.get(callee, set())
    return kinds


def _taint_fixpoint(project: Project) -> Dict[str, Set[str]]:
    """Which functions return tainted values, and of which kinds."""
    table = project.functions()
    returns_taint: Dict[str, Set[str]] = {fq: set() for fq in table}
    changed = True
    while changed:
        changed = False
        for fq, facts in table.items():
            tainted = _local_taint(facts, returns_taint)
            kinds: Set[str] = set()
            for entry in facts.get("returns", ()):
                kinds |= _entry_taint(entry, tainted, returns_taint)
            if not kinds <= returns_taint[fq]:
                returns_taint[fq] |= kinds
                changed = True
    return returns_taint


def _taint_provenance(entry: dict, tainted: Dict[str, Set[str]],
                      returns_taint: Dict[str, Set[str]]) -> str:
    if entry.get("kinds"):
        return "direct source call"
    for callee in entry.get("calls", ()):
        if returns_taint.get(callee):
            return f"via {callee.split(':', 1)[1]}()"
    for dep in entry.get("deps", ()):
        if tainted.get(dep):
            return f"via local '{dep}'"
    return "via dataflow"


def _check_rl101(summary: ModuleSummary, ctx: _Context) -> List[Violation]:
    out: List[Violation] = []
    for qual, facts in summary.facts.get("functions", {}).items():
        tainted = _local_taint(facts, ctx.returns_taint)
        for store in facts.get("attr_stores", ()):
            kinds = _entry_taint(store, tainted, ctx.returns_taint)
            if not kinds:
                continue
            src = _taint_provenance(store, tainted, ctx.returns_taint)
            out.append(Violation(
                path=summary.path, line=store["line"], col=store["col"],
                code="RL101",
                message=f"'{store['attr']}' is assigned a "
                        f"{'/'.join(sorted(kinds))}-tainted value ({src}); "
                        "sim-visible state must come from sim.now() or "
                        "seeded streams"))
    return out


# ---------------------------------------------------------------------------
# RL102: emit sites vs EVENT_SCHEMAS
# ---------------------------------------------------------------------------
def _check_rl102(summary: ModuleSummary, ctx: _Context) -> List[Violation]:
    if not ctx.schemas:
        return []
    out: List[Violation] = []
    for emit in summary.facts.get("emits", ()):
        type_ = emit.get("type")
        if type_ is None:
            continue  # dynamic event type; runtime validation covers it
        site = emit.get("site", "emit")
        reserved = sorted(set(emit.get("fields", ()))
                          & set(_RESERVED_EMIT_KWARGS))
        if reserved:
            out.append(Violation(
                path=summary.path, line=emit["line"], col=emit["col"],
                code="RL102",
                message=f"{site}('{type_}') passes reserved envelope "
                        f"field(s) {', '.join(reserved)}; the bus writes "
                        "those itself"))
        if type_ not in ctx.schemas:
            out.append(Violation(
                path=summary.path, line=emit["line"], col=emit["col"],
                code="RL102",
                message=f"{site}('{type_}') is not registered in "
                        "EVENT_SCHEMAS; register the event type or fix "
                        "the spelling"))
            continue
        if emit.get("has_star"):
            continue  # **splat or computed names: a dynamic field set
        provided = set(emit.get("fields", ())) - set(_EMIT_SIGNATURE_KWARGS)
        missing = sorted(set(ctx.schemas[type_]) - provided)
        if missing:
            out.append(Violation(
                path=summary.path, line=emit["line"], col=emit["col"],
                code="RL102",
                message=f"{site}('{type_}') is missing required "
                        f"field(s): {', '.join(missing)}"))
    return out


def _check_dead_schemas(ctx: _Context) -> List[Violation]:
    """Global pass: registered event types nothing ever emits."""
    if ctx.schema_owner is None or not ctx.config.enabled("RL102"):
        return []
    owner = ctx.project.modules[ctx.schema_owner]
    live: Set[str] = set()
    for name, summary in ctx.project.modules.items():
        for emit in summary.facts.get("emits", ()):
            if emit.get("type") is not None:
                live.add(emit["type"])
        if name != ctx.schema_owner:
            # A literal anywhere else (dispatch tables, adapters mapping
            # kinds to types) counts as liveness for that type.
            live |= set(summary.facts.get("string_literals", ())) \
                & set(ctx.schemas)
    out: List[Violation] = []
    lines = owner.facts.get("event_schema_lines", {})
    for type_ in sorted(set(ctx.schemas) - live):
        out.append(Violation(
            path=owner.path, line=lines.get(type_, 1), col=0,
            code="RL102",
            message=f"event type '{type_}' is registered in EVENT_SCHEMAS "
                    "but never emitted (dead schema); emit it or retire "
                    "the registration"))
    return owner.suppressions.apply(out)


# ---------------------------------------------------------------------------
# RL103: optional hooks must be dereferenced behind `is None` guards
# ---------------------------------------------------------------------------
def _check_rl103(summary: ModuleSummary, ctx: _Context) -> List[Violation]:
    out: List[Violation] = []
    for cls_name, cls in summary.facts.get("classes", {}).items():
        optional = cls.get("optional_hooks", {})
        if not optional:
            continue
        for use in cls.get("hook_uses", ()):
            attr = use["attr"]
            if attr not in optional or use["guarded"]:
                continue
            out.append(Violation(
                path=summary.path, line=use["line"], col=use["col"],
                code="RL103",
                message=f"'{cls_name}.{attr}' may be None (assigned at "
                        f"line {optional[attr]}) but is dereferenced "
                        "without an 'is None' guard; zero-cost-off hooks "
                        "must stay behind the guard idiom"))
    return out


# ---------------------------------------------------------------------------
# RL104: picklable-set snapshot safety
# ---------------------------------------------------------------------------
def _check_rl104(summary: ModuleSummary, ctx: _Context) -> List[Violation]:
    if summary.module not in ctx.picklable:
        return []
    out: List[Violation] = []
    for store in summary.facts.get("picklable_stores", ()):
        kind = store["kind"]
        attr = store["attr"]
        if kind == "lambda":
            msg = (f"lambda stored on 'self.{attr}' reaches pickled "
                   "checkpoint state; use functools.partial or a bound "
                   "method")
        elif kind == "local-function":
            msg = (f"locally-defined function '{store['name']}' stored on "
                   f"'self.{attr}' cannot be pickled; hoist it to module "
                   "level")
        elif kind == "generator-expression":
            msg = (f"generator object stored on 'self.{attr}' cannot be "
                   "pickled; materialise it or rebuild it on restore")
        elif kind == "scheduled-callable":
            msg = (f"lambda/local function passed to {attr}() lands in "
                   "the engine heap, which is pickled at checkpoints; "
                   "use functools.partial or a bound method")
        elif kind == "registry-ref":
            ref_mod, _, ref_name = store.get("ref", "::").partition(":")
            target = ctx.project.modules.get(ref_mod)
            if target is None or \
                    ref_name not in target.facts.get("registries", ()):
                continue
            msg = (f"'self.{attr}' aliases module-global mutable state "
                   f"'{ref_name}' ({ref_mod}); pickling would capture "
                   "shared run state in the snapshot")
        else:  # pragma: no cover - future kinds
            continue
        out.append(Violation(path=summary.path, line=store["line"],
                             col=store["col"], code="RL104", message=msg))
    return out


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------
_PER_MODULE_CHECKS = (
    ("RL101", _check_rl101),
    ("RL102", _check_rl102),
    ("RL103", _check_rl103),
    ("RL104", _check_rl104),
)


def build_context(project: Project, config: AnalyzeConfig) -> _Context:
    schemas, owner = project.event_schemas()
    return _Context(
        project=project, config=config, schemas=schemas, schema_owner=owner,
        returns_taint=(_taint_fixpoint(project)
                       if config.enabled("RL101") else {}),
        picklable=(project.reachable_from(config.pickle_roots)
                   if config.enabled("RL104") else set()),
    )


def check_module(ctx: _Context, module: str) -> List[Violation]:
    """All per-module findings for ``module``, suppressions applied."""
    summary = ctx.project.modules[module]
    found: List[Violation] = []
    for code, check in _PER_MODULE_CHECKS:
        if ctx.config.enabled(code):
            found.extend(check(summary, ctx))
    return sorted(summary.suppressions.apply(found))


@dataclass
class AnalyzeStats:
    """What one analyze run actually did (drives the CI cache assert)."""

    modules: int = 0
    parsed: int = 0
    reused: int = 0
    checked: int = 0
    from_cache: int = 0

    def to_json(self) -> dict:
        return {"modules": self.modules, "parsed": self.parsed,
                "reused": self.reused, "checked": self.checked,
                "from_cache": self.from_cache}


def analyze_project(project: Project, config: Optional[AnalyzeConfig] = None,
                    ) -> List[Violation]:
    """Run every enabled checker over an assembled project (no cache)."""
    config = config if config is not None else AnalyzeConfig()
    ctx = build_context(project, config)
    findings: List[Violation] = []
    for module in sorted(project.modules):
        findings.extend(check_module(ctx, module))
    findings.extend(_check_dead_schemas(ctx))
    return sorted(findings)


def analyze_paths(paths: Sequence[str],
                  config: Optional[AnalyzeConfig] = None,
                  cache=None) -> Tuple[List[Violation], AnalyzeStats]:
    """Analyze ``paths`` with optional incremental caching.

    ``cache`` is an :class:`repro.analysis.cache.AnalysisCache` (or
    None).  Only modules whose content changed — plus their
    reverse-import closure — are re-checked; everything else reuses the
    cached summaries and findings.  Parse failures surface as RL999.
    """
    config = config if config is not None else AnalyzeConfig()
    cached_summaries = cache.summaries() if cache is not None else None
    project, build_stats = build_project(paths, config.project,
                                         cached_summaries)
    ctx = build_context(project, config)
    epoch = config.epoch(project)
    prior = cache.findings(epoch) if cache is not None else {}

    dirty = project.reverse_closure(build_stats.parsed)
    dirty |= {m for m in project.modules if m not in prior}
    stats = AnalyzeStats(modules=len(project.modules),
                         parsed=len(build_stats.parsed),
                         reused=len(build_stats.reused))
    findings: List[Violation] = []
    by_module: Dict[str, List[Violation]] = {}
    for module in sorted(project.modules):
        if module in dirty:
            by_module[module] = check_module(ctx, module)
            stats.checked += 1
        else:
            by_module[module] = prior[module]
            stats.from_cache += 1
        findings.extend(by_module[module])
    findings.extend(_check_dead_schemas(ctx))  # global: recomputed always
    for path, msg in build_stats.errors:
        findings.append(Violation(path=path, line=1, col=0, code="RL999",
                                  message=msg))
    if cache is not None:
        cache.store(project, epoch, by_module)
    return sorted(findings), stats
