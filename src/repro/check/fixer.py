"""Autofix for the mechanical simlint rules (``repro lint --fix``).

Three rewrite classes are safe enough to automate, because each has a
single canonical fix whose effect on a correct program is at most a
reordering into the deterministic order:

* **D103** — wrap the unordered iterable in ``sorted(...)`` at the
  iteration site (``for x in s:`` → ``for x in sorted(s):``), covering
  direct set expressions, laundered locals, and dict views.
* **D102** — give a bare ``random.Random()`` the explicit seed ``0``
  (the caller should thread a real seed through; ``Random(0)`` makes
  the stream reproducible *now* and greppable later).
* **O301** — wrap a bare hook statement in its guard
  (``tracer.instant(...)`` → ``if tracer is not None:
  tracer.instant(...)`` on two lines), preserving indentation.  Only
  single-line expression statements are rewritten; anything
  structurally involved is left for a human.

The engine re-lints between passes (per-file mode, suppressions
respected — a suppressed line is never rewritten) and stops at a
fixpoint, so ``--fix`` twice is a no-op by construction.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from .simlint import Violation, lint_source

__all__ = ["FIXABLE", "fix_source", "fix_paths"]

FIXABLE = frozenset({"D103", "D102", "O301"})

_GUARD_TEMPLATE = "if %s is not None:"

_MAX_PASSES = 10


def _line_offsets(source: str) -> List[int]:
    offsets = [0]
    for line in source.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    return offsets


def _span(offsets: List[int], node: ast.AST) -> Optional[Tuple[int, int]]:
    end_lineno = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_lineno is None or end_col is None:
        return None
    start = offsets[node.lineno - 1] + node.col_offset
    end = offsets[end_lineno - 1] + end_col
    return start, end


def _node_at(tree: ast.Module, line: int,
             col: int) -> Optional[ast.expr]:
    """The widest expression starting exactly at ``line:col``."""
    best: Optional[ast.expr] = None
    for node in ast.walk(tree):
        if not isinstance(node, ast.expr):
            continue
        if node.lineno != line or node.col_offset != col:
            continue
        if best is None or (
                (getattr(node, "end_lineno", 0),
                 getattr(node, "end_col_offset", 0))
                > (getattr(best, "end_lineno", 0),
                   getattr(best, "end_col_offset", 0))):
            best = node
    return best


def _parents(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _fix_d103(source: str, offsets: List[int], tree: ast.Module,
              violation: Violation) -> Optional[Tuple[int, int, str]]:
    node = _node_at(tree, violation.line, violation.col)
    if node is None:
        return None
    span = _span(offsets, node)
    if span is None:
        return None
    segment = source[span[0]:span[1]]
    return span[0], span[1], "sorted(%s)" % segment


def _fix_d102(source: str, offsets: List[int], tree: ast.Module,
              violation: Violation) -> Optional[Tuple[int, int, str]]:
    node = _node_at(tree, violation.line, violation.col)
    if not isinstance(node, ast.Call) or node.args or node.keywords:
        return None
    span = _span(offsets, node)
    if span is None:
        return None
    segment = source[span[0]:span[1]]
    if not segment.rstrip().endswith(")"):
        return None
    closing = segment.rindex(")")
    opening = segment.rindex("(", 0, closing)
    fixed = segment[:opening + 1] + "0" + segment[closing:]
    return span[0], span[1], fixed


def _fix_o301(source: str, offsets: List[int], tree: ast.Module,
              violation: Violation) -> Optional[Tuple[int, int, str]]:
    node = _node_at(tree, violation.line, violation.col)
    if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute):
        return None
    parents = _parents(tree)
    stmt = parents.get(node)
    if not isinstance(stmt, ast.Expr) or stmt.value is not node:
        return None  # only a bare hook statement can be wrapped
    if getattr(stmt, "end_lineno", stmt.lineno) != stmt.lineno:
        return None  # multi-line statements are left for a human
    receiver_span = _span(offsets, node.func.value)
    stmt_span = _span(offsets, stmt)
    if receiver_span is None or stmt_span is None:
        return None
    receiver = source[receiver_span[0]:receiver_span[1]]
    stmt_text = source[stmt_span[0]:stmt_span[1]]
    indent = " " * stmt.col_offset
    guard = _GUARD_TEMPLATE % receiver
    replacement = "%s\n%s    %s" % (guard, indent, stmt_text)
    return stmt_span[0], stmt_span[1], replacement


_FIXERS = {
    "D103": _fix_d103,
    "D102": _fix_d102,
    "O301": _fix_o301,
}


def _one_pass(source: str, path: str,
              module: Optional[str]) -> Tuple[str, int]:
    """Apply every non-overlapping fix once; returns (source, count)."""
    violations = [v for v in lint_source(source, path, module)
                  if v.code in FIXABLE]
    if not violations:
        return source, 0
    tree = ast.parse(source, filename=path)
    offsets = _line_offsets(source)
    edits: List[Tuple[int, int, str]] = []
    for violation in violations:
        edit = _FIXERS[violation.code](source, offsets, tree, violation)
        if edit is not None:
            edits.append(edit)
    # Apply right-to-left so earlier offsets stay valid; drop overlaps
    # (e.g. a laundering fix inside a statement another fix rewraps).
    edits.sort(key=lambda e: (e[0], e[1]), reverse=True)
    applied = 0
    last_start = len(source) + 1
    for start, end, replacement in edits:
        if end > last_start:
            continue
        source = source[:start] + replacement + source[end:]
        last_start = start
        applied += 1
    return source, applied


def fix_source(source: str, path: str = "<string>",
               module: Optional[str] = None) -> Tuple[str, int]:
    """Fix one buffer to a fixpoint; returns (new_source, fix_count)."""
    total = 0
    for _ in range(_MAX_PASSES):
        source, applied = _one_pass(source, path, module)
        total += applied
        if not applied:
            break
    return source, total


def fix_paths(paths: Sequence[str]) -> Dict[str, int]:
    """Fix every ``.py`` file under ``paths`` in place.

    Returns ``{path: fixes_applied}`` for the files that changed.
    """
    from .graph import module_name_for
    from .simlint import _iter_py_files

    out: Dict[str, int] = {}
    for filename in _iter_py_files(paths):
        with open(filename, encoding="utf-8") as handle:
            original = handle.read()
        fixed, count = fix_source(original, filename,
                                  module_name_for(filename))
        if count and fixed != original:
            with open(filename, "w", encoding="utf-8") as handle:
                handle.write(fixed)
            out[filename] = count
    return out
