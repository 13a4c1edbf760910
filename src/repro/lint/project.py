"""Whole-program analysis context: symbol table + module index.

The per-file rules see one AST at a time (:class:`~repro.lint.registry.
FileContext`); the concurrency hazards — a blocking call reached
*transitively* from an ``async def``, an attribute written from both the
event loop and a worker thread — need a view of the whole linted tree.
:class:`ProjectContext` is that view: every parsed module, every function
and class indexed by dotted qualname, instance-attribute and
local-variable types inferred where a constructor call or annotation
makes them knowable, and the :class:`~repro.lint.callgraph.CallGraph`
built on top.

Resolution is deliberately *best-effort* (documented in
``docs/static-analysis.md``): the import forms that actually occur,
``self.method()`` dispatch within a class, and attribute/parameter types
that come from a direct ``Name(...)`` constructor call or an annotation.
A call the resolver cannot attribute is simply absent from the graph —
project rules under-approximate rather than guess, so a finding is always
anchored on an evidenced call path.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.lint.astutil import ImportMap

if TYPE_CHECKING:  # runtime import would be circular (callgraph -> project)
    from repro.lint.callgraph import CallGraph

#: modules whose classes we track well enough to resolve method calls on
#: typed values (``self._pool.shutdown()`` with ``self._pool =
#: ThreadPoolExecutor(...)``).  Maps local class name -> canonical dotted
#: class path used in call-graph node ids.
EXTERNAL_CLASSES = {
    ("concurrent.futures", "ThreadPoolExecutor"):
        "concurrent.futures.ThreadPoolExecutor",
    ("pathlib", "Path"): "pathlib.Path",
    ("threading", "Lock"): "threading.Lock",
    ("threading", "RLock"): "threading.RLock",
    ("threading", "Thread"): "threading.Thread",
}


class FunctionInfo:
    """One function or method definition in the project."""

    __slots__ = (
        "qualname", "module", "path", "node", "class_name", "is_async",
    )

    def __init__(
        self,
        qualname: str,
        module: str,
        path: str,
        node: ast.AST,
        class_name: Optional[str],
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.path = path
        self.node = node
        #: qualname of the owning class for methods, None for functions
        self.class_name = class_name
        self.is_async = isinstance(node, ast.AsyncFunctionDef)

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)

    @property
    def short_name(self) -> str:
        """The trailing ``Class.method`` / ``function`` part (messages)."""
        parts = self.qualname.split(".")
        return ".".join(parts[-2:]) if self.class_name else parts[-1]

    def __repr__(self) -> str:
        return f"<FunctionInfo {self.qualname}>"


class ClassInfo:
    """One class definition: methods, bases, and inferred attribute types."""

    __slots__ = ("qualname", "module", "path", "node", "methods",
                 "base_names", "attr_types")

    def __init__(
        self, qualname: str, module: str, path: str, node: ast.ClassDef
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.path = path
        self.node = node
        #: method name -> FunctionInfo
        self.methods: Dict[str, FunctionInfo] = {}
        #: base-class expressions as dotted strings (resolved lazily)
        self.base_names: List[str] = []
        #: instance attribute -> class qualname (project or EXTERNAL_CLASSES
        #: value), inferred from ``self.x = ClassName(...)`` / ``self.x =
        #: <param annotated ClassName>`` / ``self.x: ClassName`` sites
        self.attr_types: Dict[str, str] = {}

    def __repr__(self) -> str:
        return f"<ClassInfo {self.qualname}>"


class ModuleInfo:
    """One parsed file: names, imports, definitions."""

    __slots__ = ("module", "path", "source", "tree", "imports",
                 "functions", "classes")

    def __init__(
        self, module: str, path: str, source: str, tree: ast.Module
    ) -> None:
        self.module = module
        self.path = path
        self.source = source
        self.tree = tree
        self.imports = ImportMap(tree)
        #: top-level function name -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: top-level class name -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}

    def __repr__(self) -> str:
        return f"<ModuleInfo {self.module} ({self.path})>"


class ProjectContext:
    """Everything project rules know about the linted tree as a whole.

    ``modules`` is keyed by *path* (test trees produce colliding stem
    names — two ``conftest`` modules — and a path never collides);
    ``modules_by_name`` resolves dotted imports and returns ``None`` on
    ambiguity, so cross-file resolution never guesses between same-named
    files.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_name: Dict[str, List[ModuleInfo]] = {}
        #: function qualname -> FunctionInfo (methods included)
        self.functions: Dict[str, FunctionInfo] = {}
        #: class qualname -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        #: seconds spent building the context + call graph (``--stats``)
        self.build_seconds: float = 0.0
        self._graph: Optional["CallGraph"] = None

    @property
    def graph(self) -> "CallGraph":
        """The call graph over this project, built on first access."""
        if self._graph is None:
            from repro.lint.callgraph import CallGraph

            self._graph = CallGraph(self)
        return self._graph

    # ------------------------------------------------------------- lookup

    def module_by_name(self, name: str) -> Optional[ModuleInfo]:
        """The unique module with dotted name ``name``, else ``None``."""
        mods = self._by_name.get(name)
        return mods[0] if mods is not None and len(mods) == 1 else None

    def resolve_name(
        self, module: ModuleInfo, name: str
    ) -> Optional[str]:
        """Resolve a bare name in ``module`` to a project/external symbol.

        Returns a dotted path — a project function/class qualname, an
        external ``module.member`` string, or ``None`` for locals and
        unknown names.
        """
        if name in module.functions:
            return module.functions[name].qualname
        if name in module.classes:
            return module.classes[name].qualname
        member = module.imports.member_aliases.get(name)
        if member is not None:
            src_mod, src_name = member
            target = self.module_by_name(src_mod)
            if target is not None:
                resolved = self.resolve_name(target, src_name)
                if resolved is not None:
                    return resolved
            return f"{src_mod}.{src_name}"
        return None

    def method_of(self, class_qualname: str, name: str) -> Optional[str]:
        """Resolve ``name`` as a method of a class (bases included)."""
        seen = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name].qualname
            queue.extend(cls.base_names)
        return None

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every indexed function and method, in indexing order."""
        yield from self.functions.values()

    # ----------------------------------------------------------- building

    def add_module(self, info: ModuleInfo) -> None:
        """Index one parsed module (``build_project``'s door)."""
        self.modules[info.path] = info
        self._by_name.setdefault(info.module, []).append(info)


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute chains as a dotted string, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_class(
    project: ProjectContext, module: ModuleInfo, ann: Optional[ast.expr]
) -> Optional[str]:
    """Resolve an annotation expression to a class qualname if knowable.

    ``Optional[X]``/``"X"`` string forms unwrap; subscripted containers
    (``List[X]``) do not type the annotated name itself.
    """
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(ann, ast.Subscript):
        head = _dotted(ann.value)
        if head is None or head.split(".")[-1] != "Optional":
            return None
        ann = ann.slice
    name = _dotted(ann)
    if name is None:
        return None
    return _resolve_class_path(project, module, name)


def _resolve_class_path(
    project: ProjectContext, module: ModuleInfo, dotted: str
) -> Optional[str]:
    """Resolve a (possibly aliased) dotted class reference in ``module``."""
    head, _, rest = dotted.partition(".")
    if not rest:
        resolved = project.resolve_name(module, head)
        if resolved is not None:
            if resolved in project.classes:
                return resolved
            parts = tuple(resolved.rsplit(".", 1))
            if len(parts) == 2 and parts in EXTERNAL_CLASSES:
                return EXTERNAL_CLASSES[parts]
        return None
    src_mod = module.imports.module_aliases.get(head)
    if src_mod is None:
        return None
    target = project.module_by_name(src_mod)
    if target is not None and rest in target.classes:
        return target.classes[rest].qualname
    if (src_mod, rest) in EXTERNAL_CLASSES:
        return EXTERNAL_CLASSES[(src_mod, rest)]
    return None


def _index_module(info: ModuleInfo) -> None:
    """Populate a module's function/class tables (pass 1)."""
    for stmt in info.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{info.module}.{stmt.name}"
            info.functions[stmt.name] = FunctionInfo(
                qual, info.module, info.path, stmt, None
            )
        elif isinstance(stmt, ast.ClassDef):
            qual = f"{info.module}.{stmt.name}"
            cls = ClassInfo(qual, info.module, info.path, stmt)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[sub.name] = FunctionInfo(
                        f"{qual}.{sub.name}", info.module, info.path,
                        sub, qual,
                    )
            info.classes[stmt.name] = cls


def _link_classes(project: ProjectContext, info: ModuleInfo) -> None:
    """Resolve base classes and infer instance-attribute types (pass 2)."""
    for cls in info.classes.values():
        for base in cls.node.bases:
            dotted = _dotted(base)
            if dotted is None:
                continue
            resolved = _resolve_class_path(project, info, dotted)
            if resolved is not None:
                cls.base_names.append(resolved)
        for method in cls.methods.values():
            _infer_attr_types(project, info, cls, method)


def _param_types(
    project: ProjectContext, module: ModuleInfo, fn: ast.AST
) -> Dict[str, str]:
    """Annotated-parameter types of a function (class qualnames only)."""
    out: Dict[str, str] = {}
    args = getattr(fn, "args", None)
    if args is None:
        return out
    for arg in list(args.posonlyargs) + list(args.args) + list(
        args.kwonlyargs
    ):
        resolved = _annotation_class(project, module, arg.annotation)
        if resolved is not None:
            out[arg.arg] = resolved
    return out


def local_types(
    project: ProjectContext,
    module: ModuleInfo,
    fn: ast.AST,
    cls: Optional[ClassInfo] = None,
) -> Dict[str, str]:
    """Best-effort local-variable types within one function body.

    Sources, in increasing precedence by statement order: annotated
    parameters, ``x: C = ...`` annotated assignments, and ``x = C(...)``
    direct constructor calls.  ``self`` maps to the owning class.
    """
    out = _param_types(project, module, fn)
    if cls is not None:
        args = getattr(fn, "args", None)
        if args is not None and args.args:
            out[args.args[0].arg] = cls.qualname
    for node in ast.walk(fn):
        target: Optional[str] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and (
            isinstance(node.targets[0], ast.Name)
        ):
            target, value = node.targets[0].id, node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            ann_cls = _annotation_class(project, module, node.annotation)
            if ann_cls is not None:
                out[node.target.id] = ann_cls
            target, value = node.target.id, node.value
        if target is None or value is None:
            continue
        ctor = _constructed_class(project, module, value)
        if ctor is not None:
            out[target] = ctor
    return out


def _constructed_class(
    project: ProjectContext, module: ModuleInfo, value: ast.expr
) -> Optional[str]:
    """The class qualname a ``C(...)`` call constructs, if resolvable."""
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted(value.func)
    if dotted is None:
        return None
    return _resolve_class_path(project, module, dotted)


def _infer_attr_types(
    project: ProjectContext,
    module: ModuleInfo,
    cls: ClassInfo,
    method: FunctionInfo,
) -> None:
    """Record ``self.x`` attribute types evidenced inside one method."""
    args = getattr(method.node, "args", None)
    if args is None or not args.args:
        return
    self_name = args.args[0].arg
    params = _param_types(project, module, method.node)
    for node in ast.walk(method.node):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        annotation: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, annotation = node.target, node.value, (
                node.annotation
            )
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == self_name
        ):
            continue
        attr = target.attr
        resolved: Optional[str] = None
        if annotation is not None:
            resolved = _annotation_class(project, module, annotation)
        if resolved is None and value is not None:
            resolved = _constructed_class(project, module, value)
        if resolved is None and isinstance(value, ast.Name):
            resolved = params.get(value.id)
        if resolved is not None:
            cls.attr_types.setdefault(attr, resolved)


def build_project(
    files: List[Tuple[str, str, ast.Module, str]],
) -> ProjectContext:
    """Build a :class:`ProjectContext` from parsed files.

    ``files`` holds ``(path, source, tree, module)`` tuples — the runner
    parses once and shares the trees between the per-file and project
    passes.
    """
    project = ProjectContext()
    for path, source, tree, module in files:
        info = ModuleInfo(module, path, source, tree)
        _index_module(info)
        project.add_module(info)
    # Same-stem files outside the repro package (two ``conftest.py``s) get
    # path-qualified qualnames, so distinct functions never merge into one
    # call-graph node.
    for name, mods in project._by_name.items():
        if len(mods) == 1:
            continue
        for info in mods:
            for fn_name, fn in info.functions.items():
                fn.qualname = f"{info.path}:{fn_name}"
            for cls in info.classes.values():
                cls.qualname = f"{info.path}:{cls.node.name}"
                for mname, method in cls.methods.items():
                    method.qualname = f"{cls.qualname}.{mname}"
                    method.class_name = cls.qualname
    for info in project.modules.values():
        for fn in info.functions.values():
            project.functions[fn.qualname] = fn
        for cls in info.classes.values():
            project.classes[cls.qualname] = cls
            for method in cls.methods.values():
                project.functions[method.qualname] = method
    for info in project.modules.values():
        _link_classes(project, info)
    return project
