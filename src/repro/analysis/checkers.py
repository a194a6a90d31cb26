"""Every analyzer code over the project model.

The per-file rules RL000–RL006 (:mod:`repro.analysis.rules`) are placed
by the project walk; this module adds the cross-file checkers, each of
which enforces a platform contract that only holds (or breaks) across
module boundaries:

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
    emit site and no string literal (dispatch tables count as liveness)
    references, the schema dict's own keys excepted.

RL104 **snapshot-reachability** — modules import-reachable from the
    pickle roots (``repro.control.service`` by default) form the
    *picklable set*; inside it, lambdas / local functions / generator
    objects stored on instances, callables handed to scheduler calls,
    and aliases of module-global mutable registries are all things
    ``pickle`` either rejects outright or silently shares across runs.

:func:`analyze_paths` runs every selected code in one pass and applies
each module's suppressions to all of them; :func:`lint_source` and
:func:`lint_paths` are its per-file subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .project import (BuildStats, ModuleSummary, Project, ProjectConfig,
                      build_project, summarize_source)
from .rules import RULE_CATALOG, Violation

#: Tool errors rather than rules: reported whatever the selection.
_ALWAYS = ("RL000", "RL999")

#: Keywords that collide with the trace envelope `emit` writes itself.
_RESERVED_EMIT_KWARGS = ("t", "type", "sev")
#: `emit` signature parameters, not payload fields.
_EMIT_SIGNATURE_KWARGS = ("flow", "component", "severity")


@dataclass(frozen=True)
class AnalyzeConfig:
    """Configuration for one analysis run."""

    #: Restrict to these codes (empty = every code).
    select: Tuple[str, ...] = ()
    #: Modules whose import closure forms the picklable set (RL104).
    pickle_roots: Tuple[str, ...] = ("repro.control.service",)
    project: ProjectConfig = field(default_factory=ProjectConfig)

    def enabled(self, code: str) -> bool:
        return code in _ALWAYS or not self.select or code in self.select


class LintConfig(AnalyzeConfig):
    """:class:`AnalyzeConfig` limited to the per-file rules."""

    def enabled(self, code: str) -> bool:
        return code in RULE_CATALOG and super().enabled(code)


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
        for entry in facts["assigns"]:
            kinds = _entry_taint(entry, tainted, returns_taint)
            current = tainted.get(entry["target"], set())
            if not kinds <= current:
                tainted[entry["target"]] = current | kinds
                changed = True
    return tainted


def _entry_taint(entry: dict, tainted: Dict[str, Set[str]],
                 returns_taint: Dict[str, Set[str]]) -> Set[str]:
    kinds = set(entry["kinds"])
    for dep in entry["deps"]:
        kinds |= tainted.get(dep, set())
    for callee in entry["calls"]:
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
            for entry in facts["returns"]:
                kinds |= _entry_taint(entry, tainted, returns_taint)
            if not kinds <= returns_taint[fq]:
                returns_taint[fq] |= kinds
                changed = True
    return returns_taint


def _taint_provenance(entry: dict, tainted: Dict[str, Set[str]],
                      returns_taint: Dict[str, Set[str]]) -> str:
    if entry["kinds"]:
        return "direct source call"
    for callee in entry["calls"]:
        if returns_taint.get(callee):
            return f"via {callee.split(':', 1)[1]}()"
    for dep in entry["deps"]:
        if tainted.get(dep):
            return f"via local '{dep}'"
    return "via dataflow"


def _check_rl101(name: str, summary: ModuleSummary,
                 ctx: _Context) -> List[Violation]:
    out: List[Violation] = []
    for facts in summary.facts["functions"].values():
        tainted = _local_taint(facts, ctx.returns_taint)
        for store in facts["attr_stores"]:
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
def _check_rl102(name: str, summary: ModuleSummary,
                 ctx: _Context) -> List[Violation]:
    if not ctx.schemas:
        return []
    out: List[Violation] = []
    for emit in summary.facts["emits"]:
        type_ = emit["type"]
        if type_ is None:
            continue  # dynamic event type; runtime validation covers it
        site = emit["site"]
        reserved = sorted(set(emit["fields"])
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
        if emit["has_star"]:
            continue  # **splat or computed names: a dynamic field set
        provided = set(emit["fields"]) - set(_EMIT_SIGNATURE_KWARGS)
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
    for summary in ctx.project.modules.values():
        live.update(emit["type"] for emit in summary.facts["emits"])
        # A literal (dispatch tables, adapters mapping kinds to types)
        # counts as liveness; the walk leaves out the schema keys.
        live |= summary.facts["string_literals"]
    out: List[Violation] = []
    lines = owner.facts["event_schema_lines"]
    for type_ in sorted(set(ctx.schemas) - live):
        out.append(Violation(
            path=owner.path, line=lines.get(type_, 1), col=0,
            code="RL102",
            message=f"event type '{type_}' is registered in EVENT_SCHEMAS "
                    "but never emitted (dead schema); emit it or retire "
                    "the registration"))
    return owner.suppressions.apply(out)


# ---------------------------------------------------------------------------
# RL104: picklable-set snapshot safety
# ---------------------------------------------------------------------------
def _check_rl104(name: str, summary: ModuleSummary,
                 ctx: _Context) -> List[Violation]:
    if name not in ctx.picklable:
        return []
    out: List[Violation] = []
    for store in summary.facts["picklable_stores"]:
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
            ref_mod, _, ref_name = store["ref"].partition(":")
            target = ctx.project.modules.get(ref_mod)
            if target is None or \
                    ref_name not in target.facts["registries"]:
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
_CROSS_FILE_CHECKS = (
    ("RL101", _check_rl101),
    ("RL102", _check_rl102),
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


def check_module(ctx: _Context, name: str) -> List[Violation]:
    """Every enabled finding for module ``name``, suppressions applied."""
    summary = ctx.project.modules[name]
    found = [v for v in summary.findings if ctx.config.enabled(v.code)]
    for code, check in _CROSS_FILE_CHECKS:
        if ctx.config.enabled(code):
            found.extend(check(name, summary, ctx))
    sup = summary.suppressions
    return sup.apply(found) + sup.malformed


def analyze_project(project: Project, config: Optional[AnalyzeConfig] = None,
                    ) -> List[Violation]:
    """Run every enabled code over an assembled project."""
    config = config if config is not None else AnalyzeConfig()
    ctx = build_context(project, config)
    findings = [v for name in project.modules
                for v in check_module(ctx, name)]
    return sorted(findings + _check_dead_schemas(ctx))


def analyze_paths(paths: Sequence[str],
                  config: Optional[AnalyzeConfig] = None,
                  ) -> Tuple[List[Violation], BuildStats]:
    """Analyze every ``.py`` file under ``paths``, each parsed once.

    Files that cannot be read or parsed surface as RL999.
    """
    config = config if config is not None else AnalyzeConfig()
    project, stats = build_project(paths, config.project)
    findings = analyze_project(project, config)
    findings += [Violation(path=path, line=line, col=0, code="RL999",
                           message=message)
                 for path, message, line in stats.errors]
    return sorted(findings), stats


def lint_source(source: str, path: str = "<string>",
                config: AnalyzeConfig = LintConfig()) -> List[Violation]:
    """The per-file rules over one unit of source text."""
    try:
        summary = summarize_source(source, path, config.project)
    except SyntaxError as exc:
        return [Violation(path=path, line=exc.lineno or 1,
                          col=(exc.offset or 1) - 1, code="RL999",
                          message=f"parse error: {exc.msg}")]
    return analyze_project(Project({summary.module: summary}), config)


def lint_paths(paths: Sequence[str],
               config: AnalyzeConfig = LintConfig()) -> List[Violation]:
    """The per-file rules over every ``.py`` file under ``paths``."""
    return analyze_paths(paths, config)[0]
