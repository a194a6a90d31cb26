"""The per-file rule catalog (RL000–RL006) and the node tests behind it.

The rules are applied by the one walk in :mod:`repro.analysis.project`;
this module holds what each rule looks for.  Each targets a bug class
that has already cost a PR to fix by hand (see DESIGN.md §9):

* **RL001 raw-seq-compare** — ordered comparison (``<``/``<=``/``>``/
  ``>=``) or bare subtraction on identifiers that name TCP sequence
  state (``seq``/``ack_seq``/``snd_una``/``snd_nxt``/``edge``...).
  Sequence numbers live in a 32-bit circular space; ordered comparisons
  must go through the RFC 1982 serial helpers (``seq_lt`` & friends in
  ``repro.net.packet``) and distances through ``seq_delta`` or the
  ``(a - b) & SEQ_MASK`` idiom, which the rule recognises as safe.
* **RL002 unseeded-rng** — ``random.Random()`` with no seed, module-level
  ``random.*`` calls (the process-global RNG), or ``random.SystemRandom``:
  all nondeterministic across runs.  Sanctioned path:
  :class:`repro.sim.rng.RngFactory` named streams.
* **RL003 wall-clock** — ``time.time()``/``monotonic()``/``perf_counter``/
  ``datetime.now()`` and friends: simulation code must use the engine
  clock (``sim.now``), never the host's.
* **RL004 float-time-equality** — ``==``/``!=`` between two simulation
  timestamps.  Virtual time is a float; exact equality between computed
  timestamps is a rounding bug waiting to happen.
* **RL005 mutable-default-arg** — a list/dict/set (literal, comprehension
  or constructor) as a parameter default: shared across calls, a classic
  source of cross-flow state bleed.
* **RL006 non-snapshot-safe-state** — state that checkpoint/restore
  (DESIGN.md §13) cannot capture: a module-level mutable registry
  (lowercase module-level name bound to a dict/list/set/deque/
  ``itertools.count``...), a ``global`` statement, or a
  ``random.Random(...)`` constructed directly instead of drawn from the
  :class:`repro.sim.rng.RngFactory` registry.  ALL_CAPS module constants
  are exempt by convention (configuration, not run state).

RL002/RL003 calls are also the taint sources of the cross-file RL101.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

RULE_CATALOG: Dict[str, str] = {
    "RL000": "suppression-missing-reason: a `# repro-lint: disable=` "
             "comment must carry a (reason)",
    "RL001": "raw-seq-compare: ordered comparison or bare subtraction on "
             "sequence-space identifiers; use the serial helpers "
             "(seq_lt/seq_delta) or the `(a - b) & SEQ_MASK` idiom",
    "RL002": "unseeded-rng: module-level random.* call, unseeded "
             "random.Random(), or SystemRandom; draw from a named "
             "RngFactory stream instead",
    "RL003": "wall-clock: host clock call (time.time/monotonic/"
             "perf_counter, datetime.now/utcnow/today); simulation code "
             "must use the engine clock",
    "RL004": "float-time-equality: ==/!= between two simulation "
             "timestamps; compare with ordering or an epsilon",
    "RL005": "mutable-default-arg: mutable default parameter value is "
             "shared across calls",
    "RL006": "non-snapshot-safe-state: module-level mutable registry, "
             "global-statement counter, or direct random.Random "
             "construction outside sim.rng; invisible to "
             "checkpoint/restore",
    "RL999": "parse-error: file could not be parsed",
}

#: The cross-file checkers (:mod:`repro.analysis.checkers`).
CHECKER_CATALOG: Dict[str, str] = {
    "RL101": "determinism-taint: wall-clock/unseeded-RNG value reaches "
             "long-lived state through assignments, returns, or calls",
    "RL102": "trace-contract: emit() site or EVENT_SCHEMAS entry breaks "
             "the registered event schema (or the schema is dead)",
    "RL104": "snapshot-reachability: unpicklable callable or shared "
             "module state stored on objects reached by checkpoints",
}

CATALOG: Dict[str, str] = {**RULE_CATALOG, **CHECKER_CATALOG}

#: The taint kind RL101 propagates from each source rule.
TAINT_KINDS = {"RL002": "rng", "RL003": "wall-clock"}


@dataclass(frozen=True, order=True)
class Violation:
    """One finding, ordered for the stable report format."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


#: An identifier is "sequence-like" when one of its snake_case tokens is a
#: sequence-space word.  `newly_acked`, `dupacks`, `ack_count` (byte/event
#: counts) deliberately do not match; `ack_seq`, `snd_una`, `cut_seq`,
#: `advertised_edge` do.
_SEQ_TOKENS = {"seq", "una", "nxt", "edge", "iss", "irs"}
_SNAKE_SPLIT = re.compile(r"[^a-zA-Z0-9]+")

#: Time-like identifiers for RL004: the engine clock and derived stamps.
_TIME_EXACT = {"now", "deadline"}
_TIME_SUFFIXES = ("_at", "_time", "_deadline", "_timestamp")

WALL_CLOCK_TIME_ATTRS = {
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
}
WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: Containers, and the stateful iterators (a module-level
#: ``itertools.count()`` is a registry of one mutable cursor).
_MUTABLE_CALLEES = {"list", "dict", "set", "bytearray", "deque",
                    "defaultdict", "OrderedDict", "Counter"}
_STATEFUL_ITER_CALLEES = {"count", "cycle", "chain", "repeat"}
_MUTABLE_NODES = (ast.List, ast.Dict, ast.Set,
                  ast.ListComp, ast.DictComp, ast.SetComp)


def terminal(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c``; None when it is not
    a pure chain (calls, subscripts... break it)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_seq_name(node: ast.AST) -> bool:
    name = terminal(node)
    if name is None or name.isupper():
        # ALL_CAPS names are the sequence-space *constants* (SEQ_MASK,
        # SEQ_HALF...) the wrap-safe idioms are built from.
        return False
    return any(tok in _SEQ_TOKENS
               for tok in _SNAKE_SPLIT.split(name.lower()))


def _is_time_name(node: ast.AST) -> bool:
    name = terminal(node)
    if name is None:
        return False
    lowered = name.lower()
    return lowered in _TIME_EXACT or lowered.endswith(_TIME_SUFFIXES)


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_NODES):
        return True
    return isinstance(node, ast.Call) \
        and terminal(node.func) in _MUTABLE_CALLEES


def registry_name(target: ast.AST, value: Optional[ast.AST]) -> Optional[str]:
    """The name a module-level ``name = <mutable>`` binds (RL006), or
    None.  ALL_CAPS constants and dunders (``__all__``...) are exempt."""
    if value is None or not isinstance(target, ast.Name):
        return None
    name = target.id
    if name.isupper() or name.startswith("__"):
        return None
    if _is_mutable_literal(value) or (
            isinstance(value, ast.Call)
            and terminal(value.func) in _STATEFUL_ITER_CALLEES):
        return name
    return None


# ---------------------------------------------------------------------------
# Per-node checks: each yields (code, message) for the walker to place
# ---------------------------------------------------------------------------
def check_compare(node: ast.Compare) -> Iterator[Tuple[str, str]]:
    operands = [node.left] + node.comparators
    for op, left, right in zip(node.ops, operands, operands[1:]):
        if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
            seq = left if _is_seq_name(left) else right
            if _is_seq_name(seq):
                yield ("RL001", "ordered comparison on sequence-space "
                       f"identifier '{terminal(seq)}' "
                       "(use seq_lt/seq_leq/seq_gt/seq_geq)")
        elif isinstance(op, (ast.Eq, ast.NotEq)) \
                and _is_time_name(left) and _is_time_name(right):
            yield ("RL004", "exact float equality between sim timestamps "
                   f"'{terminal(left)}' and '{terminal(right)}'")


def check_subtraction(node: ast.BinOp) -> Optional[str]:
    """RL001 message for a bare ``a - b`` on sequence identifiers."""
    seq = node.left if _is_seq_name(node.left) else node.right
    if not _is_seq_name(seq):
        return None
    return (f"bare subtraction on sequence-space identifier "
            f"'{terminal(seq)}' (use seq_delta, or mask with `& SEQ_MASK`)")


def masked_terms(node: ast.BinOp) -> Iterator[ast.BinOp]:
    """The +/- terms under ``(...) & SEQ_MASK``: the wrap-safe idiom, so
    RL001 leaves subtractions among them alone."""
    for side, other in ((node.left, node.right), (node.right, node.left)):
        if terminal(other) != "SEQ_MASK":
            continue
        stack = [side]
        while stack:
            term = stack.pop()
            if isinstance(term, ast.BinOp) \
                    and isinstance(term.op, (ast.Add, ast.Sub)):
                yield term
                stack += (term.left, term.right)


def check_defaults(args: ast.arguments) -> Iterator[ast.AST]:
    """RL005: the mutable default values among ``args``."""
    for default in args.defaults + args.kw_defaults:
        if default is not None and _is_mutable_literal(default):
            yield default


def check_call(call: ast.Call, module_aliases: Dict[str, str],
               from_bindings: Dict[str, Tuple[str, str]],
               ) -> Optional[Tuple[str, str]]:
    """RL002/RL003/RL006 for one call, given the module's import tables."""
    func = call.func
    if isinstance(func, ast.Name):
        mod, rest = from_bindings.get(func.id, (None, ""))
        shown = func.id
    else:
        shown = dotted(func)
        if shown is None:
            return None
        head, _, rest = shown.partition(".")
        mod = module_aliases.get(head)
        if mod is None and from_bindings.get(head) == ("datetime",
                                                       "datetime"):
            mod, rest = "datetime", f"datetime.{rest}"
    if mod == "time" and rest in WALL_CLOCK_TIME_ATTRS \
            or mod == "datetime" and (
                rest in WALL_CLOCK_DATETIME_ATTRS
                or rest.startswith("datetime.")
                and rest[9:] in WALL_CLOCK_DATETIME_ATTRS):
        return ("RL003", f"wall-clock call {shown}() "
                "(use the engine clock, sim.now)")
    if mod != "random" or "." in rest:
        return None
    if rest == "Random":
        if call.args or call.keywords:
            return ("RL006", f"direct {shown}(...) construction bypasses "
                    "the RngFactory stream registry; its position is "
                    "invisible to snapshots")
        return ("RL002", f"unseeded {shown}() is nondeterministic "
                "(seed it, or use an RngFactory stream)")
    if rest == "SystemRandom":
        return ("RL002", f"{shown} is nondeterministic by design")
    return ("RL002", f"module-level random.{rest}() uses the shared "
            "global RNG (use an RngFactory stream)")
