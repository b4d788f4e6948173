"""Interprocedural guard-and-taint dataflow on the program graph.

Three whole-program analyses run on a :class:`~repro.check.graph.ProgramGraph`:

* **Taint flows (D101/D102).**  A function whose return value derives
  from a wall-clock read or an unseeded RNG is *tainted* — even when the
  read itself carries a ``# simlint: disable`` comment, because the
  suppression justifies the host-side read, not feeding its value into
  the simulation.  Summaries propagate transitively through the call
  graph (a helper returning a tainted helper's result is tainted), and a
  violation is reported where a tainted value reaches a **sim-visible
  sink**: a ``schedule_at``/``timeout``/``hold``/``post`` argument, or a
  method call that draws from a tainted RNG object.  The per-file pass
  only sees direct calls; this pass catches the laundered ones.

* **Guard inference (O301).**  A helper whose body calls a tracer/
  telemetry/recorder hook without the local guard is fine when *every*
  call site in the program already sits under a guard on the same
  receiver kind (see ``simlint.HOOKS``) — the
  hook can never execute unguarded.  Such per-file violations are
  dropped; a single unguarded call site keeps them.

* **Sort-key hazards (S503).**  ``sort(key=f)``/``sorted(x, key=f)``
  where ``f`` is a *named* function (possibly in another module) that
  keys shard messages on ``.when`` alone: resolved through the graph
  and checked for the full ``(when, src_shard, src_seq)`` triple — the
  case a per-file pass provably cannot see when ``f`` lives elsewhere.

Everything here is conservative: unresolvable calls contribute nothing,
so a finding is always anchored to a concrete static path.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from .graph import FunctionInfo, ModuleInfo, ProgramGraph

__all__ = [
    "compute_return_taints",
    "find_taint_flows",
    "drop_guarded_hook_violations",
    "find_sort_key_hazards",
]

TAINT_WALLCLOCK = "wallclock"
TAINT_RNG = "unseeded-rng"

# Sim-visible sinks: scheduling a value onto a calendar (or across a
# shard boundary) makes it part of the simulated timeline.
_SINK_METHODS = frozenset({
    "schedule_at", "timeout", "hold", "post", "schedule",
    "_schedule_call1", "run_window",
})

# Value-preserving wrappers: a cast does not launder a taint away.
_PASSTHROUGH_CALLS = frozenset({
    "int", "float", "abs", "round", "min", "max",
})

# Local import to avoid a cycle at module load (simlint imports us for
# the program pass; we only need its rule tables).
def _tables():
    from . import simlint

    return simlint._WALLCLOCK_CALLS, simlint._GLOBAL_RNG_FNS


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _linear_stmts(node: ast.AST) -> Iterator[ast.stmt]:
    """Statements of one function body in source order, own scope only."""
    for field in ("body", "orelse", "finalbody"):
        for stmt in getattr(node, field, ()):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes are their own functions
            yield stmt
            yield from _linear_stmts(stmt)
    for handler in getattr(node, "handlers", ()):
        for stmt in handler.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield stmt
            yield from _linear_stmts(stmt)


Taints = Dict[str, str]          # taint kind -> human-readable origin
Env = Dict[str, Taints]          # local name -> taints


class _FunctionScan:
    """One linear pass over a function: env tracking + optional sinks."""

    def __init__(self, info: FunctionInfo, module: ModuleInfo,
                 graph: ProgramGraph,
                 summaries: Dict[Tuple[str, str], Taints]):
        self.info = info
        self.module = module
        self.graph = graph
        self.summaries = summaries
        self.env: Env = {}
        self.returns: Taints = {}
        self.sinks: List[Tuple[ast.Call, str, str, str]] = []

    # -- expression taint ------------------------------------------------------

    def expr_taint(self, expr: Optional[ast.AST]) -> Taints:
        if expr is None:
            return {}
        if isinstance(expr, ast.Name):
            return dict(self.env.get(expr.id, {}))
        if isinstance(expr, ast.Attribute):
            # An attribute of a tainted object carries the taint.
            return self.expr_taint(expr.value)
        if isinstance(expr, ast.Call):
            return self.call_taint(expr)
        if isinstance(expr, ast.BinOp):
            out = self.expr_taint(expr.left)
            out.update(self.expr_taint(expr.right))
            return out
        if isinstance(expr, ast.UnaryOp):
            return self.expr_taint(expr.operand)
        if isinstance(expr, ast.IfExp):
            out = self.expr_taint(expr.body)
            out.update(self.expr_taint(expr.orelse))
            return out
        if isinstance(expr, (ast.Tuple, ast.List)):
            out: Taints = {}
            for element in expr.elts:
                out.update(self.expr_taint(element))
            return out
        if isinstance(expr, (ast.Await, ast.Starred, ast.NamedExpr)):
            return self.expr_taint(expr.value)
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            return {}
        return {}

    def call_taint(self, call: ast.Call) -> Taints:
        wallclock_calls, global_rng = _tables()
        dotted = _dotted(call.func)
        if dotted is not None:
            if dotted in wallclock_calls:
                return {TAINT_WALLCLOCK: "%s()" % dotted}
            parts = dotted.split(".")
            if (len(parts) == 2 and parts[0] == "random"
                    and parts[1] in global_rng):
                return {TAINT_RNG: "%s()" % dotted}
            if (dotted in ("random.Random", "Random")
                    and not call.args and not call.keywords):
                return {TAINT_RNG: "unseeded %s()" % dotted}
            if (isinstance(call.func, ast.Name)
                    and call.func.id in _PASSTHROUGH_CALLS):
                out: Taints = {}
                for arg in call.args:
                    out.update(self.expr_taint(arg))
                return out
        target = self.graph.resolve(self.module, call.func, self.info.cls)
        if target is not None:
            summary = self.summaries.get(target.key)
            if summary:
                return {kind: "%s:%s()" % (target.module, target.qualname)
                        for kind in summary}
        return {}

    # -- the pass --------------------------------------------------------------

    def run(self, collect_sinks: bool) -> None:
        for stmt in _linear_stmts(self.info.node):
            if collect_sinks:
                self._scan_sinks(stmt)
            self._apply(stmt)

    def _own_expressions(self, stmt: ast.stmt) -> Iterator[ast.AST]:
        """Expression subtrees attached to this statement itself.

        Nested statements (loop bodies, branches) are yielded separately
        by :func:`_linear_stmts`, so descending into them here would
        double-report their sinks.
        """
        for _field, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                yield from ast.walk(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        yield from ast.walk(item)
                    elif isinstance(item, ast.withitem):
                        yield from ast.walk(item.context_expr)

    def _scan_sinks(self, stmt: ast.stmt) -> None:
        for node in self._own_expressions(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in _SINK_METHODS:
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    taints = self.expr_taint(arg)
                    for kind, origin in sorted(taints.items()):
                        self.sinks.append((node, kind, origin, func.attr))
            elif isinstance(func.value, ast.Name):
                # A method call on a tainted RNG object is a draw from
                # an unseeded stream no matter where it happens.
                taints = self.env.get(func.value.id, {})
                if TAINT_RNG in taints:
                    self.sinks.append(
                        (node, TAINT_RNG, taints[TAINT_RNG], func.attr))

    def _apply(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self.expr_taint(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if taints:
                        self.env[target.id] = dict(taints)
                    else:
                        self.env.pop(target.id, None)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                taints = self.expr_taint(stmt.value)
                if taints:
                    self.env[stmt.target.id] = dict(taints)
                else:
                    self.env.pop(stmt.target.id, None)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                taints = self.expr_taint(stmt.value)
                if taints:
                    merged = dict(self.env.get(stmt.target.id, {}))
                    merged.update(taints)
                    self.env[stmt.target.id] = merged
        elif isinstance(stmt, ast.Return):
            self.returns.update(self.expr_taint(stmt.value))


# -- public passes -------------------------------------------------------------


def compute_return_taints(graph: ProgramGraph) -> Dict[Tuple[str, str],
                                                       Taints]:
    """Fixpoint summaries: which functions return tainted values."""
    summaries: Dict[Tuple[str, str], Taints] = {}
    for _pass in range(len(graph.modules) + 2):
        changed = False
        for name in graph.order:
            module = graph.modules[name]
            for info in module.functions.values():
                scan = _FunctionScan(info, module, graph, summaries)
                scan.run(collect_sinks=False)
                if scan.returns and scan.returns != summaries.get(info.key):
                    summaries[info.key] = dict(scan.returns)
                    changed = True
        if not changed:
            break
    return summaries


def find_taint_flows(graph: ProgramGraph,
                     summaries: Dict[Tuple[str, str], Taints]):
    """Interprocedural D101/D102 violations at sim-visible sinks.

    Only *indirect* flows are reported (origin is a helper function):
    a direct ``sim.hold(time.time())`` is already a per-file D101 at the
    same line, and double-reporting would force double suppressions.
    """
    from .simlint import Violation

    out: List[Violation] = []
    for name in graph.order:
        module = graph.modules[name]
        for info in module.functions.values():
            scan = _FunctionScan(info, module, graph, summaries)
            scan.run(collect_sinks=True)
            for node, kind, origin, sink in scan.sinks:
                if ":" not in origin:
                    # Direct source in this same function: the per-file
                    # D101/D102 already flags the read itself.
                    continue
                code = "D101" if kind == TAINT_WALLCLOCK else "D102"
                what = ("wall-clock" if kind == TAINT_WALLCLOCK
                        else "unseeded-RNG")
                out.append(Violation(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=code,
                    message="%s value from %s flows into sim-visible "
                            ".%s() via helper dataflow"
                            % (what, origin, sink),
                ))
    return out


def drop_guarded_hook_violations(graph: ProgramGraph, violations):
    """Guard inference: drop O301 findings in always-guarded helpers."""
    from .simlint import hook_receiver

    out = []
    by_path = {module.path: module for module in graph.modules.values()}
    for violation in violations:
        module = by_path.get(violation.path)
        info = (module.function_at(violation.line)
                if violation.code == "O301" and module is not None
                else None)
        if info is None:
            out.append(violation)
            continue
        needed = next((hook_receiver(node.func)
                       for node in ast.walk(info.node)
                       if isinstance(node, ast.Call)
                       and node.lineno == violation.line
                       and node.col_offset == violation.col), None)
        sites = graph.call_sites(info)
        if (needed is not None and sites
                and all(needed in site.guards for site in sites)):
            continue  # every caller guards the hook: provably dead path
        out.append(violation)
    return out


def _key_fields(func_node: ast.AST) -> Optional[frozenset]:
    """Attribute names a key function reads off its first parameter."""
    args = getattr(func_node, "args", None)
    if args is None or not args.args:
        return None
    param = args.args[0].arg
    fields = set()
    for node in ast.walk(func_node):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == param):
            fields.add(node.attr)
    return frozenset(fields)


def find_sort_key_hazards(graph: ProgramGraph):
    """S503 via the graph: named sort keys that drop the tie-breakers.

    A per-file pass can check an inline ``lambda m: m.when``; only the
    program graph can check ``key=by_when`` where ``by_when`` is defined
    in another module.
    """
    out = []
    for name in graph.order:
        module = graph.modules[name]
        _scan_sort_keys(graph, module, module.tree, None, out)
    return out


def _scan_sort_keys(graph: ProgramGraph, module: ModuleInfo, node: ast.AST,
                    cls: Optional[str], out: list) -> None:
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, ast.Call):
        _check_sort_key(graph, module, node, cls, out)
    for child in ast.iter_child_nodes(node):
        _scan_sort_keys(graph, module, child, cls, out)


def _check_sort_key(graph: ProgramGraph, module: ModuleInfo, call: ast.Call,
                    cls: Optional[str], out: list) -> None:
    from .simlint import Violation

    is_sort = (isinstance(call.func, ast.Attribute)
               and call.func.attr == "sort")
    is_sorted = (isinstance(call.func, ast.Name)
                 and call.func.id == "sorted")
    if not (is_sort or is_sorted):
        return
    for keyword in call.keywords:
        if keyword.arg != "key":
            continue
        key = keyword.value
        if isinstance(key, ast.Lambda):
            continue  # the per-file pass handles inline lambdas
        target = graph.resolve(module, key, cls)
        if target is None:
            continue
        fields = _key_fields(target.node)
        if fields is None:
            continue
        if "when" in fields and not any("seq" in field for field in fields):
            out.append(Violation(
                path=module.path,
                line=call.lineno,
                col=call.col_offset,
                code="S503",
                message="sort key %s:%s() orders shard messages by .when "
                        "without the (src_shard, src_seq) tie-breakers; "
                        "equal-time merges become executor-dependent"
                        % (target.module, target.qualname),
            ))
