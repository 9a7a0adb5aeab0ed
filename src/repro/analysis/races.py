"""Scheduler-sharing lint: concurrent process bodies must not share
mutable state outside ``Mailbox`` mediation.

The simulation's determinism story (byte-identical replay of fleet
runs, fault campaigns and benchmarks) rests on the cooperative
scheduler in :mod:`repro.sim.sched`: processes interleave only at
``yield`` points, and the sanctioned communication channel is a
:class:`Mailbox`, whose FIFO order the scheduler controls.  State
shared *around* the mailboxes — a module-level dict two process bodies
both write, an attribute mutated by every instance of a per-host
client process — is exactly the state whose final value depends on
interleaving order.  Today's scheduler is deterministic, so such code
*happens* to replay; the first scheduling change turns it into a
heisenbug.  RACE001 is the static analogue of the replay checks: it
finds the sharing before the interleaving does.

Process bodies are found at spawn sites (``Process(body(...))`` and
the fleet's ``spawn``/``spawn_server``/``spawn_verifier``) whose
argument resolves — through the project call graph — to a generator
function.  From each body the rule walks the reachable call closure
and collects writes to module-level names and to ``self.*``
attributes; a location written from two different bodies, or from a
body spawned inside a loop (many instances of the same generator), is
a finding.  ``Mailbox.put`` is ordinary method-call syntax on a
dedicated object, so mailbox traffic is naturally outside the tracked
write set — mediate through it and the finding disappears.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.astutil import dotted_name
from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    actionable_callees,
    get_callgraph,
)
from repro.analysis.engine import Finding, Project, Rule, register

#: Call-name terminals that start a scheduler process.
SPAWN_TERMINALS = ("Process", "spawn", "spawn_server", "spawn_verifier")

#: Method names that mutate their receiver in place.
MUTATING_METHODS = (
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "remove", "setdefault",
    "update",
)


@dataclass(frozen=True)
class SpawnedBody:
    """One process body: the generator a spawn site starts."""

    qualname: str
    #: True when the spawn site sits inside a loop — many instances of
    #: the same generator run concurrently.
    multi_instance: bool
    #: Enclosing ``if`` arms of every spawn site, for mutual-exclusion
    #: checks: each context is a tuple of ``(id(if_node), arm)`` pairs.
    contexts: Tuple[Tuple[Tuple[int, str], ...], ...] = ()


def _contexts_co_live(
    a: Tuple[Tuple[int, str], ...], b: Tuple[Tuple[int, str], ...]
) -> bool:
    """Can two spawn sites execute in the same run?  Not if they sit in
    different arms of a common ``if``."""
    arms = dict(a)
    return all(arms.get(if_id, arm) == arm for if_id, arm in b)


def bodies_co_live(a: SpawnedBody, b: SpawnedBody) -> bool:
    """Can these two bodies be scheduled together?"""
    return any(
        _contexts_co_live(ctx_a, ctx_b)
        for ctx_a in (a.contexts or ((),))
        for ctx_b in (b.contexts or ((),))
    )


@dataclass(frozen=True)
class SharedWrite:
    """One write to potentially shared state."""

    key: Tuple[str, str]  # ("module"|"attr", qualified location)
    relpath: str
    line: int
    writer: str  # function qualname performing the write


def _loop_contained_ids(tree: ast.AST) -> Set[int]:
    """ids of AST nodes that sit inside a ``for``/``while`` body."""
    contained: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for child in node.body + node.orelse:
                for sub in ast.walk(child):
                    contained.add(id(sub))
    return contained


def find_spawned_bodies(project: Project) -> List[SpawnedBody]:
    """Every generator handed to a spawn site, project-wide."""
    graph = get_callgraph(project)
    # qualname -> [multi_instance, set of spawn contexts]
    bodies: Dict[str, list] = {}
    for source in project.files:
        if not source.module:
            continue
        in_loop = _loop_contained_ids(source.tree)
        for class_name, context, call in _calls_with_context(source.tree):
            name = dotted_name(call.func)
            if name is None or name.split(".")[-1] not in SPAWN_TERMINALS:
                continue
            for arg in call.args:
                if not isinstance(arg, ast.Call):
                    continue
                for callee in actionable_callees(graph, source, class_name, arg):
                    info = graph.functions.get(callee)
                    if info is None or not info.is_generator:
                        continue
                    entry = bodies.setdefault(callee, [False, set()])
                    entry[0] = entry[0] or id(call) in in_loop
                    entry[1].add(context)
    return [
        SpawnedBody(qualname, multi, tuple(sorted(contexts)))
        for qualname, (multi, contexts) in sorted(bodies.items())
    ]


def _calls_with_context(tree: ast.AST):
    """``(enclosing class name, if-arm context, Call node)`` triples.

    The context lists the ``if`` arms a call sits under, so spawn sites
    in opposite arms of one ``if`` can be proven mutually exclusive.
    """

    def visit(node: ast.AST, class_name: Optional[str], context):
        if isinstance(node, ast.If):
            for child in node.body:
                yield from visit(
                    child, class_name, context + ((id(node), "body"),)
                )
            for child in node.orelse:
                yield from visit(
                    child, class_name, context + ((id(node), "orelse"),)
                )
            yield from visit(node.test, class_name, context)
            return
        for child in ast.iter_child_nodes(node):
            next_class = child.name if isinstance(child, ast.ClassDef) else class_name
            if isinstance(child, ast.Call):
                yield class_name, context, child
            yield from visit(child, next_class, context)

    yield from visit(tree, None, ())


def _module_level_names(source) -> Set[str]:
    names: Set[str] = set()
    for node in source.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _local_names(func_node: ast.AST) -> Set[str]:
    """Names the function binds locally (params + non-global assigns)."""
    names: Set[str] = set()
    args = func_node.args
    for a in (
        list(getattr(args, "posonlyargs", ())) + list(args.args)
        + list(args.kwonlyargs)
    ):
        names.add(a.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    globals_declared: Set[str] = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names - globals_declared


def collect_shared_writes(
    project: Project, graph: CallGraph, info: FunctionInfo
) -> List[SharedWrite]:
    """Writes in one function that target module-level or ``self.*``
    state (the candidates for cross-process sharing)."""
    source = project.by_module.get(info.module)
    if source is None:
        return []
    if info.name in ("__init__", "__post_init__"):
        # Constructors write to an object no other process holds yet.
        return []
    module_names = _module_level_names(source)
    local_names = _local_names(info.node)
    writes: List[SharedWrite] = []

    def module_key(name: str) -> Optional[Tuple[str, str]]:
        if name in module_names and name not in local_names:
            return ("module", f"{info.module}.{name}")
        return None

    def attr_key(chain: str) -> Optional[Tuple[str, str]]:
        if chain.startswith("self.") and info.class_name is not None:
            return (
                "attr",
                f"{info.module}.{info.class_name}.{chain[len('self.'):]}",
            )
        return None

    def record(key: Optional[Tuple[str, str]], line: int) -> None:
        if key is not None:
            writes.append(SharedWrite(key, info.relpath, line, info.qualname))

    for node in ast.walk(info.node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    # module_key() drops plain local rebinds; a name
                    # under ``global`` stays out of local_names.
                    record(module_key(target.id), node.lineno)
                    continue
                chain = dotted_name(target)
                if chain is not None:
                    record(attr_key(chain), node.lineno)
                    record(module_key(chain.split(".")[0])
                           if "." in chain else None, node.lineno)
                elif isinstance(target, ast.Subscript):
                    receiver = dotted_name(target.value)
                    if receiver is None:
                        continue
                    record(attr_key(receiver), node.lineno)
                    if "." not in receiver:
                        record(module_key(receiver), node.lineno)
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None or "." not in name:
                continue
            receiver, _, method = name.rpartition(".")
            if method not in MUTATING_METHODS:
                continue
            record(attr_key(receiver), node.lineno)
            if "." not in receiver:
                record(module_key(receiver), node.lineno)
    return writes


@register
class SchedulerSharedStateRule(Rule):
    """Concurrent process bodies must share state via mailboxes only.

    A spawn site (``Process(body(...))``, ``fleet.spawn(...)``,
    ``spawn_server``/``spawn_verifier``) marks its generator argument
    as a *process body*; the rule walks each body's reachable call
    closure and collects writes to module-level names and ``self.*``
    attributes.  A location written from two different bodies — or
    from a body spawned inside a loop, where many instances of one
    generator interleave — is a finding: its final value depends on
    scheduling order, which is exactly what the byte-identity replay
    checks exist to forbid.

    Fix by routing the shared value through a :class:`Mailbox` (the
    scheduler orders mailbox delivery deterministically) or by giving
    each process its own state and merging results in the owner.  If
    the sharing is genuinely single-writer (e.g. all writers run in
    one process by construction), suppress with
    ``# repro: noqa[RACE001]`` and say why.
    """

    id = "RACE001"
    title = "process bodies share mutable state without a mailbox"
    severity = "error"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = get_callgraph(project)
        bodies = find_spawned_bodies(project)
        if not bodies:
            return
        # key -> {body qualname: [writes]}; a write in a function
        # reachable from several bodies counts for each of them.
        by_key: Dict[Tuple[str, str], Dict[str, List[SharedWrite]]] = {}
        multi = {b.qualname for b in bodies if b.multi_instance}
        for body in bodies:
            for qualname in sorted(graph.reachable([body.qualname])):
                info = graph.functions[qualname]
                for write in collect_shared_writes(project, graph, info):
                    by_key.setdefault(write.key, {}).setdefault(
                        body.qualname, []
                    ).append(write)
        body_class = {
            b.qualname: (
                f"{graph.functions[b.qualname].module}."
                f"{graph.functions[b.qualname].class_name}"
            )
            for b in bodies
            if graph.functions[b.qualname].class_name is not None
        }
        body_by_name = {b.qualname: b for b in bodies}
        for key in sorted(by_key):
            writers = by_key[key]
            names = sorted(writers)
            # Spawn sites in opposite arms of one ``if`` never share a
            # schedule (e.g. alternate server modes) — only co-live
            # pairs, or a looped (multi-instance) body, conflict.
            conflicted = any(b in multi for b in writers) or any(
                bodies_co_live(body_by_name[x], body_by_name[y])
                for i, x in enumerate(names)
                for y in names[i + 1:]
            )
            if not conflicted:
                continue
            kind_of_key, location = key
            if kind_of_key == "attr":
                # The only object statically known to be shared between
                # bodies is the instance the spawns hang off: require
                # the attribute's class to be a conflicting body's own
                # class.  Attributes of other objects reached through
                # the closure (a per-client helper, a constructor-built
                # vTPM) have untrackable identity — skip them.
                attr_class = location.rsplit(".", 1)[0]
                if attr_class not in {
                    body_class.get(b) for b in writers
                }:
                    continue
            body_names = ", ".join(sorted(writers))
            kind, location = key
            what = (
                "module-level state" if kind == "module" else "shared attribute"
            )
            seen_sites = set()
            for body_writes in writers.values():
                for write in body_writes:
                    site = (write.relpath, write.line)
                    if site in seen_sites:
                        continue
                    seen_sites.add(site)
                    yield Finding(
                        self.id, write.relpath, write.line,
                        f"{what} '{location}' is written from process "
                        f"bod{'ies' if len(writers) > 1 else 'y'} "
                        f"{body_names}"
                        + ("" if len(writers) > 1 else " (spawned in a loop)")
                        + "; mediate through a Mailbox",
                        self.severity,
                    )
