"""Project-wide call graph: call sites resolved to definitions.

The determinism lints see one statement at a time; secret hygiene,
tenant partitioning of hardware NV/counters and snapshot
confidentiality only hold *across* functions.  This module gives the
rules that follow calls — the shared taint analysis behind SEC001,
SEC002 and ISO002 (:mod:`repro.analysis.interproc`), ISO001 and
RACE001 — the structure they need: every function and method
definition in the project, and for every call site the definition(s)
it can reach.

Resolution is static and deliberately three-tiered, in decreasing
precision:

``local`` / ``import``
    The callee is named directly: a module-level function of the same
    module, or a name bound by an import (``from repro.crypto.sha1
    import sha1``; ``mux.migrate_tenant`` after ``import
    repro.vtpm.mux as mux``).  Class constructors resolve to
    ``__init__``; ``Class.method`` resolves through the class table.
``class``
    ``self.meth(...)`` / ``cls.meth(...)`` inside a class body resolves
    through the class's method table, walking base classes (bases are
    themselves resolved through the importing module's bindings).
``suffix``
    Anything else with an attribute callee (``host.platform.attest``)
    matches every definition whose bare name agrees.  A suffix edge
    with exactly one candidate is *unambiguous* and the rules treat it
    like a precise edge; multi-candidate edges are recorded (they count
    in the report) but no rule acts on them.  That policy has one
    owner, :func:`actionable_callees`, which every rule calls.

The committed ``ANALYSIS_callgraph.json`` summarises the graph per
module and is pinned exactly like ``ANALYSIS_tcb.json``: CG001 fails
the lint when the committed report no longer matches the source, and
regeneration (``--update-callgraph-report``) is byte-identical for
identical sources across Python 3.10–3.12 — the builder only uses
names and line numbers, never interpreter-variant AST details.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.astutil import dotted_name, resolve_relative
from repro.analysis.engine import Finding, Project, Rule, SourceFile, register

#: Report file name (committed at the repo root) and format tag.
CALLGRAPH_REPORT_NAME = "ANALYSIS_callgraph.json"
CALLGRAPH_REPORT_FORMAT = "repro-analysis-callgraph"
CALLGRAPH_REPORT_VERSION = 1

#: Resolution kinds a rule may trust without ambiguity checks.
PRECISE_RESOLUTIONS = ("local", "import", "class")


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # module.func or module.Class.method
    module: str
    relpath: str
    line: int
    name: str  # bare name
    class_name: Optional[str]  # bare enclosing class name, None if free
    is_generator: bool
    params: Tuple[str, ...]  # declared parameter names, in order
    has_vararg: bool
    has_kwarg: bool
    node: ast.AST = field(repr=False)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassInfo:
    """One class definition: its bases (as written) and method table."""

    qualname: str
    module: str
    name: str
    bases: Tuple[str, ...]
    methods: Dict[str, str]  # bare method name -> function qualname


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: ``caller`` may invoke ``callee``."""

    caller: str  # qualname; "<module>.<module>" for module-level code
    callee: str
    line: int
    resolution: str  # "local" | "import" | "class" | "suffix"
    #: True for a suffix edge whose site had several candidates.
    ambiguous: bool
    text: str  # the callee expression as written


@dataclass
class CallGraph:
    """The project's functions, classes, and resolved call edges."""

    functions: Dict[str, FunctionInfo]
    classes: Dict[str, ClassInfo]
    bindings: Dict[str, Dict[str, str]]  # module -> imported name -> target
    edges: List[CallEdge]
    call_sites: int
    unresolved_calls: int
    out_edges: Dict[str, List[CallEdge]] = field(default_factory=dict)
    by_name: Dict[str, List[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for edge in self.edges:
            self.out_edges.setdefault(edge.caller, []).append(edge)
        for qualname, info in self.functions.items():
            self.by_name.setdefault(info.name, []).append(qualname)
        for names in self.by_name.values():
            names.sort()

    def callees(
        self, qualname: str, precise_only: bool = False
    ) -> List[CallEdge]:
        """Outgoing edges a rule may act on: precise resolutions plus
        unambiguous suffix edges (or precise only)."""
        kept = []
        for edge in self.out_edges.get(qualname, ()):
            if edge.resolution in PRECISE_RESOLUTIONS:
                kept.append(edge)
            elif not precise_only and not edge.ambiguous:
                kept.append(edge)
        return kept

    def reachable(
        self, roots: Iterable[str], precise_only: bool = False
    ) -> Set[str]:
        """Functions reachable from ``roots`` over actionable edges
        (roots included when they are project functions)."""
        seen: Set[str] = set()
        frontier = [r for r in sorted(set(roots)) if r in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self.callees(current, precise_only=precise_only):
                if edge.callee in self.functions and edge.callee not in seen:
                    frontier.append(edge.callee)
        return seen

    def method_on(
        self, class_qualname: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Resolve ``method`` on a class, walking base classes."""
        seen = _seen if _seen is not None else set()
        if class_qualname in seen:
            return None
        seen.add(class_qualname)
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        module_bindings = self.bindings.get(info.module, {})
        for base in info.bases:
            base_qual = _resolve_dotted_target(
                base, info.module, module_bindings, self.classes
            )
            if base_qual is not None:
                found = self.method_on(base_qual, method, seen)
                if found is not None:
                    return found
        return None


def _function_params(node: ast.AST) -> Tuple[Tuple[str, ...], bool, bool]:
    args = node.args
    names = [a.arg for a in getattr(args, "posonlyargs", ())]
    names += [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return tuple(names), args.vararg is not None, args.kwarg is not None


def _is_generator(node: ast.AST) -> bool:
    """Does the function's own body (not nested defs) yield?"""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(sub))
    return False


def module_bindings(source: SourceFile) -> Dict[str, str]:
    """Imported-name bindings for one module: local name → dotted target."""
    bindings: Dict[str, str] = {}
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = resolve_relative(
                    source.module, node.level, base,
                    is_package=source.relpath.endswith("__init__.py"),
                )
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                bindings[alias.asname or alias.name] = target
    return bindings


def _resolve_dotted_target(
    name: str,
    module: str,
    bindings: Dict[str, str],
    classes: Dict[str, ClassInfo],
) -> Optional[str]:
    """Map a dotted class reference (as written) onto a class qualname."""
    if f"{module}.{name}" in classes:  # same-module class
        return f"{module}.{name}"
    root, _, rest = name.partition(".")
    if root in bindings:
        target = bindings[root] + ("." + rest if rest else "")
        if target in classes:
            return target
    if name in classes:
        return name
    return None


def build_callgraph(project: Project) -> CallGraph:
    """Index every definition, then resolve every call site."""
    functions: Dict[str, FunctionInfo] = {}
    classes: Dict[str, ClassInfo] = {}
    bindings: Dict[str, Dict[str, str]] = {}

    # Pass 1: definitions.  Only module-level functions and one level of
    # class methods are indexed — nested defs belong to their enclosing
    # definition for attribution and are not call targets.
    for source in project.files:
        if not source.module:
            continue
        bindings[source.module] = module_bindings(source)
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = function_info(source, node, None)
                functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                qualname = f"{source.module}.{node.name}"
                methods: Dict[str, str] = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = function_info(source, item, node.name)
                        functions[info.qualname] = info
                        methods[item.name] = info.qualname
                classes[qualname] = ClassInfo(
                    qualname=qualname,
                    module=source.module,
                    name=node.name,
                    bases=tuple(
                        b for b in (dotted_name(base) for base in node.bases)
                        if b is not None
                    ),
                    methods=methods,
                )

    graph = CallGraph(
        functions=functions, classes=classes, bindings=bindings,
        edges=[], call_sites=0, unresolved_calls=0,
    )

    # Pass 2: call sites.
    edges: List[CallEdge] = []
    call_sites = 0
    unresolved = 0
    for source in project.files:
        if not source.module:
            continue
        for caller, class_name, call in _iter_call_sites(source):
            call_sites += 1
            resolved = resolve_call(graph, source, class_name, call)
            if not resolved:
                unresolved += 1
                continue
            text = dotted_name(call.func) or "<dynamic>"
            ambiguous = _is_ambiguous(resolved)
            for callee, resolution in resolved:
                edges.append(CallEdge(
                    caller=caller, callee=callee, line=call.lineno,
                    resolution=resolution, ambiguous=ambiguous, text=text,
                ))
    edges.sort(key=lambda e: (e.caller, e.line, e.callee, e.resolution))
    return CallGraph(
        functions=functions, classes=classes, bindings=bindings,
        edges=edges, call_sites=call_sites, unresolved_calls=unresolved,
    )


def function_info(
    source: SourceFile, node: ast.AST, class_name: Optional[str]
) -> FunctionInfo:
    """Describe one ``def`` in ``source`` (enclosed by ``class_name``)."""
    qualname = (
        f"{source.module}.{class_name}.{node.name}"
        if class_name else f"{source.module}.{node.name}"
    )
    params, has_vararg, has_kwarg = _function_params(node)
    return FunctionInfo(
        qualname=qualname, module=source.module, relpath=source.relpath,
        line=node.lineno, name=node.name, class_name=class_name,
        is_generator=_is_generator(node), params=params,
        has_vararg=has_vararg, has_kwarg=has_kwarg, node=node,
    )


def _iter_call_sites(source: SourceFile):
    """Yield ``(caller qualname, enclosing class name, Call node)``.

    Calls inside nested defs/lambdas attribute to the nearest indexed
    enclosing definition; module-level calls attribute to
    ``module.<module>``.
    """

    def visit(node: ast.AST, caller: str, class_name: Optional[str]):
        for child in ast.iter_child_nodes(node):
            next_caller, next_class = caller, class_name
            if isinstance(child, ast.ClassDef):
                next_class = child.name
                next_caller = f"{source.module}.<module>"
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if caller.endswith(".<module>"):
                    next_caller = (
                        f"{source.module}.{class_name}.{child.name}"
                        if class_name else f"{source.module}.{child.name}"
                    )
                # nested def: keep attributing to the enclosing function
            if isinstance(child, ast.Call):
                yield caller, class_name, child
            yield from visit(child, next_caller, next_class)

    yield from visit(source.tree, f"{source.module}.<module>", None)


def resolve_call(
    graph: CallGraph,
    source: SourceFile,
    class_name: Optional[str],
    call: ast.Call,
) -> List[Tuple[str, str]]:
    """All (callee qualname, resolution) pairs for one call site."""
    name = dotted_name(call.func)
    if name is None:
        return []
    module = source.module
    bindings = graph.bindings.get(module, {})

    def as_callable(target: str, resolution: str) -> List[Tuple[str, str]]:
        if target in graph.functions:
            return [(target, resolution)]
        if target in graph.classes:  # constructor call
            init = graph.method_on(target, "__init__")
            return [(init, resolution)] if init else []
        # Class.method written with an explicit class prefix.
        prefix, _, attr = target.rpartition(".")
        if prefix in graph.classes and attr:
            found = graph.method_on(prefix, attr)
            if found is not None:
                return [(found, resolution)]
        return []

    if "." not in name:
        local = f"{module}.{name}"
        hit = as_callable(local, "local")
        if hit:
            return hit
        if name in bindings:
            hit = as_callable(bindings[name], "import")
            if hit:
                return hit
        return []

    parts = name.split(".")
    if parts[0] in ("self", "cls") and class_name is not None and len(parts) == 2:
        own = graph.method_on(f"{module}.{class_name}", parts[1])
        if own is not None:
            return [(own, "class")]
    elif parts[0] not in ("self", "cls"):
        root, rest = parts[0], ".".join(parts[1:])
        if root in bindings:
            hit = as_callable(f"{bindings[root]}.{rest}", "import")
            if hit:
                return hit
        hit = as_callable(f"{module}.{name}", "local")  # local Class.method
        if hit:
            return hit

    candidates = graph.by_name.get(parts[-1], [])
    return [(c, "suffix") for c in candidates]


def _is_ambiguous(resolved: List[Tuple[str, str]]) -> bool:
    """A suffix match with several candidates: recorded, never acted on."""
    return len(resolved) > 1 and resolved[0][1] == "suffix"


def actionable_callees(
    graph: CallGraph,
    source: SourceFile,
    class_name: Optional[str],
    call: ast.Call,
) -> List[str]:
    """Callee qualnames a rule may act on for one call site: precise
    resolutions plus unambiguous suffix matches."""
    resolved = resolve_call(graph, source, class_name, call)
    if _is_ambiguous(resolved):
        return []
    return [callee for callee, _ in resolved]


def get_callgraph(project: Project) -> CallGraph:
    """The project's call graph, built once and cached on the project."""
    cached = getattr(project, "_callgraph", None)
    if cached is None:
        cached = build_callgraph(project)
        project._callgraph = cached
    return cached


# -- the committed report ------------------------------------------------------


def generate_callgraph_report(project: Project) -> str:
    """The canonical call-graph summary: byte-identical for identical
    sources, and stable across supported interpreter versions."""
    graph = get_callgraph(project)
    per_module: Dict[str, Dict[str, object]] = {}
    for source in project.files:
        if not source.module:
            continue
        per_module[source.module] = {
            "functions": 0, "classes": 0,
            "calls_out": {}, "ambiguous_calls": 0,
        }
    for info in graph.functions.values():
        per_module[info.module]["functions"] += 1
    for info in graph.classes.values():
        per_module[info.module]["classes"] += 1
    edge_totals = {"local": 0, "import": 0, "class": 0, "suffix": 0}
    for edge in graph.edges:
        if edge.caller.endswith(".<module>"):
            caller_module = edge.caller[: -len(".<module>")]
        elif edge.caller in graph.functions:
            caller_module = graph.functions[edge.caller].module
        else:
            continue
        entry = per_module.get(caller_module)
        if entry is None:
            continue
        edge_totals[edge.resolution] += 1
        if edge.ambiguous:
            entry["ambiguous_calls"] += 1
            continue
        callee_module = graph.functions[edge.callee].module
        calls_out = entry["calls_out"]
        calls_out[callee_module] = calls_out.get(callee_module, 0) + 1
    doc = {
        "format": CALLGRAPH_REPORT_FORMAT,
        "version": CALLGRAPH_REPORT_VERSION,
        "totals": {
            "functions": len(graph.functions),
            "classes": len(graph.classes),
            "call_sites": graph.call_sites,
            "unresolved_calls": graph.unresolved_calls,
            "edges": edge_totals,
        },
        "modules": per_module,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@register
class CallGraphReportStaleRule(Rule):
    """The committed ``ANALYSIS_callgraph.json`` must match the source.

    The call graph is the foundation the call-following rules (SEC001,
    SEC002, ISO001, ISO002, RACE001) stand on; its committed summary is
    pinned exactly like ``ANALYSIS_tcb.json`` so a PR that changes what those
    rules can see — new cross-module call paths, newly ambiguous edges —
    shows that shift in its diff.  Regenerate with ``python -m
    repro.tools.lint --update-callgraph-report``; generation is
    deterministic and version-stable across Python 3.10–3.12.
    """

    id = "CG001"
    title = "committed call-graph report is stale"
    severity = "error"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        report_path = project.root / CALLGRAPH_REPORT_NAME
        expected = generate_callgraph_report(project)
        if not report_path.exists():
            yield Finding(
                self.id, CALLGRAPH_REPORT_NAME, 1,
                f"{CALLGRAPH_REPORT_NAME} is missing; regenerate it with "
                "--update-callgraph-report", self.severity,
            )
            return
        if report_path.read_text(encoding="utf-8") != expected:
            yield Finding(
                self.id, CALLGRAPH_REPORT_NAME, 1,
                f"{CALLGRAPH_REPORT_NAME} does not match the source tree; "
                "regenerate it with --update-callgraph-report", self.severity,
            )
