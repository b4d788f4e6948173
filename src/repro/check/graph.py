"""Cross-module symbol and import graph for whole-program simlint.

The per-file AST pass in :mod:`repro.check.simlint` sees one buffer at a
time, so a wall-clock value laundered through a helper function in
another module is invisible to it.  This module parses every file in a
lint run exactly once and builds the three indexes the whole-program
passes need:

* a **module table** — dotted module name (derived from the package
  layout on disk) to parsed AST plus per-module import bindings;
* a **function table** — ``module:qualname`` (``func`` or
  ``Class.method``) to the defining AST node, so a dotted call target
  can be resolved to the code it runs;
* a **call-site index** — every resolved call in the program, with its
  enclosing class/function and the ``if``-guards it sits under, which
  is what lets O301 guard inference and the D101/D102 taint pass
  (:mod:`repro.check.dataflow`) work across function boundaries.

Resolution is intentionally static and conservative: plain names,
dotted module attributes, ``from x import y`` bindings (including
relative imports), and ``self.method`` within a class body resolve;
anything dynamic (instance attributes of unknown type, getattr,
re-exports) resolves to ``None`` and the analyses fall back to the
per-file answer.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .simlint import guard_kinds

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "CallRecord",
    "ProgramGraph",
    "module_name_for",
    "build_program",
]


class FunctionInfo:
    """One function or method definition, addressable program-wide."""

    __slots__ = ("module", "qualname", "cls", "node", "lineno", "end_lineno")

    def __init__(self, module: str, qualname: str, cls: Optional[str],
                 node: ast.AST):
        self.module = module
        self.qualname = qualname
        self.cls = cls
        self.node = node
        self.lineno = node.lineno
        self.end_lineno = getattr(node, "end_lineno", node.lineno)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module, self.qualname)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<FunctionInfo %s:%s>" % (self.module, self.qualname)


class CallRecord:
    """One call expression: where it is and what guards enclose it."""

    __slots__ = ("module", "node", "cls", "func", "guards")

    def __init__(self, module: str, node: ast.Call, cls: Optional[str],
                 func: Optional[str], guards: frozenset):
        self.module = module
        self.node = node
        self.cls = cls
        self.func = func
        self.guards = guards


class ModuleInfo:
    """One parsed file: name, tree, import bindings, definitions."""

    __slots__ = ("name", "path", "source", "tree", "imports", "functions",
                 "parents")

    def __init__(self, name: str, path: str, source: str, tree: ast.Module):
        self.name = name
        self.path = path
        self.source = source
        self.tree = tree
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        self._index_imports()
        self._index_functions()

    # -- indexing --------------------------------------------------------------

    def _package(self) -> str:
        """The package this module can resolve relative imports against."""
        parts = self.name.split(".")
        return ".".join(parts[:-1])

    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        first = alias.name.split(".")[0]
                        self.imports[first] = first
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    package_parts = self.name.split(".")[:-1]
                    if node.level > 1:
                        package_parts = package_parts[:-(node.level - 1)]
                    prefix = ".".join(package_parts)
                    base = prefix + "." + base if base else prefix
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = (base + "." + alias.name
                                           if base else alias.name)

    def _index_functions(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(self.name, stmt.name, None, stmt)
                self.functions[stmt.name] = info
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        qual = "%s.%s" % (stmt.name, sub.name)
                        self.functions[qual] = FunctionInfo(
                            self.name, qual, stmt.name, sub)

    def function_at(self, lineno: int) -> Optional[FunctionInfo]:
        """The innermost indexed function containing ``lineno``."""
        best: Optional[FunctionInfo] = None
        for info in self.functions.values():
            if info.lineno <= lineno <= info.end_lineno:
                if best is None or info.lineno > best.lineno:
                    best = info
        return best


def module_name_for(path: str) -> str:
    """The dotted module name of ``path``, from the package layout.

    Walks up while parent directories carry ``__init__.py``; a file in
    no package keeps its bare stem (which is how ad-hoc fixture trees
    resolve their sibling imports).
    """
    path = os.path.abspath(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    directory = os.path.dirname(path)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        directory = os.path.dirname(directory)
    if not parts:
        parts = [stem]
    return ".".join(reversed(parts))


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ProgramGraph:
    """The whole-program view: modules, symbols, and resolved calls."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: Dict[str, ModuleInfo] = {}
        for module in modules:
            # Last definition wins on a name collision (shadowed fixture
            # trees); real package layouts never collide.
            self.modules[module.name] = module
        self.order = [module.name for module in modules]
        self.calls: List[CallRecord] = []
        self._sites: Dict[Tuple[str, str], List[CallRecord]] = {}
        for module in modules:
            self._index_calls(module)

    # -- resolution ------------------------------------------------------------

    def resolve(self, module: ModuleInfo, func_expr: ast.AST,
                cls: Optional[str] = None) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a call target names, if static."""
        dotted = _dotted(func_expr)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and cls is not None and len(parts) == 2:
            return module.functions.get("%s.%s" % (cls, parts[1]))
        if len(parts) == 1:
            local = module.functions.get(parts[0])
            if local is not None:
                return local
            mapped = module.imports.get(parts[0])
            if mapped is None:
                return None
            return self._lookup(mapped)
        mapped = module.imports.get(parts[0])
        full = (mapped + "." + ".".join(parts[1:])) if mapped else dotted
        return self._lookup(full)

    def _lookup(self, full: str) -> Optional[FunctionInfo]:
        """Split ``pkg.mod.[Class.]func`` into a known module + qualname."""
        parts = full.split(".")
        for split in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:split])
            target = self.modules.get(prefix)
            if target is None:
                continue
            qual = ".".join(parts[split:])
            info = target.functions.get(qual)
            if info is not None:
                return info
        # A bare module-less name (fixture trees at the filesystem root).
        if len(parts) == 1:
            for module in self.modules.values():
                info = module.functions.get(parts[0])
                if info is not None:
                    return info
        return None

    def call_sites(self, info: FunctionInfo) -> List[CallRecord]:
        """Every resolved call of ``info`` anywhere in the program."""
        return self._sites.get(info.key, [])

    # -- call indexing ---------------------------------------------------------

    def _index_calls(self, module: ModuleInfo) -> None:
        class_stack: List[str] = []
        func_stack: List[str] = []

        def visit(node: ast.AST, guards: frozenset) -> None:
            if isinstance(node, ast.ClassDef):
                class_stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    visit(child, guards)
                class_stack.pop()
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func_stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    visit(child, guards)
                func_stack.pop()
                return
            if isinstance(node, ast.If):
                kinds = guard_kinds(node.test)
                for child in node.body:
                    visit(child, guards | kinds)
                for child in node.orelse:
                    visit(child, guards)
                visit(node.test, guards)
                return
            if isinstance(node, ast.Call):
                cls = class_stack[-1] if class_stack else None
                func = func_stack[-1] if func_stack else None
                record = CallRecord(module.name, node, cls, func, guards)
                self.calls.append(record)
                target = self.resolve(module, node.func, cls)
                if target is not None:
                    self._sites.setdefault(target.key, []).append(record)
            for child in ast.iter_child_nodes(node):
                visit(child, guards)

        visit(module.tree, frozenset())


def build_program(files: Iterable[str]) -> ProgramGraph:
    """Parse ``files`` once each and index them into a ProgramGraph."""
    modules: List[ModuleInfo] = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=path)
        modules.append(ModuleInfo(module_name_for(path), path, source, tree))
    return ProgramGraph(modules)
