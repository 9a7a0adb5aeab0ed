"""The taint engine behind SEC001, SEC002 and ISO002.

One :class:`TaintAnalysis` per project tracks two *kinds* of sensitive
material from the calls that produce it to the channels that publish
it:

``secret``
    ``unseal``/``get_random``/key-generation output — sealed plaintext,
    randomness, private keys (SEC001, SEC002);
``snapshot``
    ``export_tenant`` output — a tenant's whole virtual TPM on its way
    to migration (ISO002).

The sinks are logging, trace events, observability spans/events,
``print`` and raised exception messages; snapshots must not reach NV
writes either.  Every label also records whether the value *crossed a
function boundary* on the way, which is all that separates SEC001 (a
leak inside one function) from SEC002 (a leak through a wrapper):

.. code-block:: python

    def load_key(ctx):
        return ctx.tpm.unseal(blob)      # fine on its own

    def report(ctx, log):
        log.info(load_key(ctx))          # SEC002 — two functions away

Function *summaries* over the call graph (:mod:`repro.analysis.callgraph`)
carry labels across calls, per kind:

``returns``
    the return value carries the kind regardless of the arguments (the
    function calls a source, or reads a tainted attribute);
``param_to_return``
    parameters whose taint flows to the return value (decoders and
    wrappers);
``param_to_sink``
    parameters whose taint reaches a sink inside the function —
    passing tainted material *into* such a function is itself a leak;
``attrs``
    ``self.attr = <tainted>`` stores, so a method that stashes unsealed
    material and a sibling method that logs it are connected.

Summaries only grow, so rounds over every function reach a fixpoint.
Each round walks each function once: assignments propagate labels to a
local fixpoint, then returns, sink calls and raises update the summary
and record :class:`Flow` s.  The last round's flows are final; the
rules only filter them by kind and boundary crossing.  Calls act
through :func:`~repro.analysis.callgraph.actionable_callees` only,
trading recall for a zero-false-positive default.  Digests and lengths
are public by design, and so is the public half of a keypair.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple,
)

from repro.analysis.astutil import dotted_name
from repro.analysis.callgraph import (
    FunctionInfo,
    actionable_callees,
    function_info,
    get_callgraph,
)
from repro.analysis.engine import Finding, Project, Rule, register

#: Call-name suffixes whose return value is secret.
SECRET_SOURCE_SUFFIXES = (
    "unseal",
    "get_random",
    "generate_rsa_keypair",
    "generate_keypair",
    "derive_key",
)

#: Call-name suffixes that publish their arguments.
SINK_SUFFIXES = (
    "print",
    "emit",          # trace events
    "event",         # observability instant events
    "span",          # observability spans (args land in exports)
    "record_metrics",
    "debug", "info", "warning", "error", "exception", "critical", "log",
)

#: Measurement/size functions whose output is public by design.  Note
#: ``.hex()`` is *not* here: hex is an encoding, not a digest — the hex
#: of a secret is the secret.
SANITIZER_NAMES = (
    "sha1", "sha512", "md5", "hmac_sha1", "sha1_cached",
    "len", "measure", "io_measurement", "type", "isinstance",
)

#: Attribute selections that *declassify*: reading the public half of a
#: keypair (``keys.public``, ``authority.public_key``) yields a value
#: the protocols publish by construction.  The private halves
#: (``.private``) keep their taint.
PUBLIC_ATTRS = ("public", "public_key")

#: The taint vocabulary: kind -> (source call suffixes, sink call suffixes).
KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "secret": (SECRET_SOURCE_SUFFIXES, SINK_SUFFIXES),
    "snapshot": (
        ("export_tenant",),
        SINK_SUFFIXES + ("nv_write", "nv_define_space"),
    ),
}
ALL_KINDS = frozenset(KINDS)

#: A label is ``(kind, tag)``.  The tag says the value came straight
#: from a source call, or crossed at least one function boundary; any
#: other tag is a parameter name the value depends on (summaries only).
Label = Tuple[str, str]
DIRECT = "<direct>"
CROSSED = "<crossed>"
_TAINTED = (DIRECT, CROSSED)

#: A raise publishes every kind, through no named sink.
_RAISE: Dict[str, Optional[str]] = dict.fromkeys(KINDS)


def _suffix_hit(name: Optional[str], suffixes: Iterable[str]) -> Optional[str]:
    if name is None:
        return None
    for suffix in suffixes:
        if name == suffix or name.endswith("." + suffix):
            return suffix
    return None


def _is_self_attr(node: ast.AST) -> bool:
    """``self.attr`` / ``cls.attr``, exactly one level deep."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    )


def _target_names(targets: List[ast.expr]) -> List[str]:
    """Names bound by assignment targets, one tuple/list level deep."""
    names: List[str] = []
    for target in targets:
        elements = (
            target.elts if isinstance(target, (ast.Tuple, ast.List))
            else [target]
        )
        names += [e.id for e in elements if isinstance(e, ast.Name)]
    return names


def _map_args(callee: FunctionInfo, call: ast.Call) -> List[Tuple[str, ast.expr]]:
    """``(parameter name, argument expression)`` pairs for a call.

    Method calls written through a receiver (``obj.meth(x)``) bind the
    first declared parameter implicitly, so positionals shift by one.
    Overflow into ``*args``/``**kwargs`` is dropped.
    """
    offset = (
        1 if callee.is_method and callee.params
        and callee.params[0] in ("self", "cls") else 0
    )
    pairs: List[Tuple[str, ast.expr]] = []
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            continue
        slot = index + offset
        if slot < len(callee.params):
            pairs.append((callee.params[slot], arg))
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in callee.params:
            pairs.append((keyword.arg, keyword.value))
    return pairs


def _call_args(call: ast.Call) -> List[ast.expr]:
    return list(call.args) + [k.value for k in call.keywords]


@dataclass
class Summary:
    """What one function does with tainted values and its parameters."""

    returns: Set[str] = field(default_factory=set)  # kinds
    param_to_return: Set[Label] = field(default_factory=set)
    param_to_sink: Set[Label] = field(default_factory=set)

    def snapshot(self) -> Tuple[FrozenSet[str], FrozenSet[Label], FrozenSet[Label]]:
        return (
            frozenset(self.returns),
            frozenset(self.param_to_return),
            frozenset(self.param_to_sink),
        )


@dataclass(frozen=True)
class Flow:
    """Tainted material reaching an output channel."""

    kind: str
    #: False when the value came straight from a source call in the
    #: same function; passing it to a publishing parameter crosses.
    crossed: bool
    relpath: str
    line: int
    function: str  # qualname of the function the flow is in
    sink: Optional[str]  # sink suffix; None for a raise or a parameter
    callee: str = ""  # set when passed to a publishing parameter
    param: str = ""

    def describe(self, noun: str, param_noun: str) -> str:
        if self.callee:
            return (
                f"{param_noun} passed to {self.callee}() parameter "
                f"'{self.param}', which publishes it"
            )
        if self.sink:
            return (
                f"{noun} reaches '{self.sink}' in {self.function}; "
                "publish a digest or length instead"
            )
        return (
            f"{noun} reaches an exception message in {self.function}; "
            "exceptions cross the trust boundary"
        )


class _Site(NamedTuple):
    """One call site, resolved once."""

    sanitizer: bool
    sources: FrozenSet[str]  # kinds this call is a source of
    sinks: Dict[str, Optional[str]]  # kind -> sink suffix hit
    callees: Tuple[Tuple[FunctionInfo, List[Tuple[str, ast.expr]]], ...]


#: Shared by the many call sites that are neither sources nor sinks.
_NO_KINDS: FrozenSet[str] = frozenset()
_NO_SINKS: Dict[str, Optional[str]] = {}


@dataclass
class _Body:
    """One function's AST, walked once: what every round re-evaluates."""

    #: ``(value, target names, self attributes)`` in source order.
    bindings: List[Tuple[ast.expr, List[str], List[str]]]
    outputs: List[ast.expr]  # return (and, in generators, yield) values
    calls: List[ast.Call]
    raises: List[Tuple[int, List[ast.expr]]]


def _body(info: FunctionInfo) -> _Body:
    statements: List[ast.stmt] = []
    body = _Body([], [], [], [])
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            body.calls.append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For)):
            statements.append(node)
        elif isinstance(node, ast.Return) and node.value is not None:
            body.outputs.append(node.value)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            if info.is_generator and node.value is not None:
                body.outputs.append(node.value)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            if isinstance(exc, ast.Call):
                body.raises.append((node.lineno, _call_args(exc)))
            elif isinstance(exc, ast.Name):
                body.raises.append((node.lineno, [exc]))
    statements.sort(key=lambda s: (s.lineno, s.col_offset))
    for statement in statements:
        if isinstance(statement, ast.For):
            target = statement.target
            names = [target.id] if isinstance(target, ast.Name) else []
            body.bindings.append((statement.iter, names, []))
        elif statement.value is not None:  # not a bare annotation
            targets = (
                statement.targets if isinstance(statement, ast.Assign)
                else [statement.target]
            )
            attrs = (
                [t.attr for t in targets if _is_self_attr(t)]
                if info.class_name else []
            )
            body.bindings.append((statement.value, _target_names(targets), attrs))
    return body


def _unindexed_functions(project: Project, indexed: Set[int]) -> List[FunctionInfo]:
    """Outermost ``def`` s the call graph does not index (under a
    module-level ``if``/``try``, in a nested class, in a file with no
    module name): no call reaches them, but their bodies are checked."""
    found: List[FunctionInfo] = []
    for source in project.files:
        stack: List[Tuple[ast.AST, Optional[str]]] = [(source.tree, None)]
        while stack:
            node, class_name = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if id(child) not in indexed:
                        found.append(function_info(source, child, class_name))
                    continue
                inner = child.name if isinstance(child, ast.ClassDef) else class_name
                stack.append((child, inner))
    found.sort(key=lambda info: (info.relpath, info.line))
    return found


class TaintAnalysis:
    """Summaries, tainted attributes and flows for one project."""

    #: Fixpoint bounds: the label lattice is tiny, so these are never
    #: reached in practice — they are a defensive cap, not a tuning knob.
    MAX_GLOBAL_ROUNDS = 10
    MAX_LOCAL_ROUNDS = 20

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = get_callgraph(project)
        functions = [self.graph.functions[q] for q in sorted(self.graph.functions)]
        #: qualname -> summary, for every call-graph function.
        self.summaries: Dict[str, Summary] = {f.qualname: Summary() for f in functions}
        #: ``(kind, class qualname, attr name)`` holding tainted material.
        self.attrs: Set[Tuple[str, str, str]] = set()
        self._sites: Dict[int, _Site] = {}
        unindexed = _unindexed_functions(project, {id(f.node) for f in functions})
        self._units = [
            (f, _body(f), self.summaries[f.qualname]) for f in functions
        ] + [(f, _body(f), Summary()) for f in unindexed]
        self.flows: List[Flow] = []
        for _ in range(self.MAX_GLOBAL_ROUNDS):
            before = self._state()
            self.flows = []
            for info, body, summary in self._units:
                self._walk(info, body, summary)
            if self._state() == before:
                break
        # Only summaries, attrs and flows outlive the fixpoint.
        del self._units, self._sites

    def _state(self) -> tuple:
        summaries = [s.snapshot() for s in self.summaries.values()]
        return summaries, frozenset(self.attrs)

    # -- call sites ------------------------------------------------------------

    def _site(self, call: ast.Call, info: FunctionInfo) -> _Site:
        site = self._sites.get(id(call))
        if site is None:
            name = dotted_name(call.func)
            source = self.project.by_module.get(info.module)
            callees = [
                self.graph.functions[qualname] for qualname in (
                    actionable_callees(self.graph, source, info.class_name, call)
                    if source is not None else []
                )
            ]
            site = _Site(
                sanitizer=(
                    name is not None
                    and name.rsplit(".", 1)[-1] in SANITIZER_NAMES
                ),
                sources=frozenset(
                    kind for kind, (sources, _) in KINDS.items()
                    if _suffix_hit(name, sources)
                ) or _NO_KINDS,
                sinks={
                    kind: hit for kind, (_, sinks) in KINDS.items()
                    for hit in [_suffix_hit(name, sinks)] if hit
                } or _NO_SINKS,
                callees=tuple((f, _map_args(f, call)) for f in callees),
            )
            self._sites[id(call)] = site
        return site

    # -- label evaluation ------------------------------------------------------

    def _labels(
        self,
        node: ast.AST,
        env: Dict[str, Set[Label]],
        info: FunctionInfo,
        kinds: FrozenSet[str],
    ) -> Set[Label]:
        """Labels of ``kinds`` carried by an expression."""
        labels: Set[Label] = set()
        owner = f"{info.module}.{info.class_name}" if info.class_name else None

        def visit(sub: ast.AST, kinds: FrozenSet[str]) -> None:
            if isinstance(sub, ast.Name):
                labels.update(
                    label for label in env.get(sub.id, ()) if label[0] in kinds
                )
                return
            if isinstance(sub, ast.Attribute):
                if sub.attr in PUBLIC_ATTRS:
                    return  # the public half of a keypair is public
                if owner is not None and _is_self_attr(sub):
                    labels.update(
                        (kind, CROSSED) for kind in kinds
                        if (kind, owner, sub.attr) in self.attrs
                    )
            elif isinstance(sub, ast.Call):
                kinds = self._call_labels(sub, env, info, kinds, labels)
                if not kinds:
                    return
            for child in ast.iter_child_nodes(sub):
                visit(child, kinds)

        visit(node, kinds)
        return labels

    def _call_labels(
        self,
        call: ast.Call,
        env: Dict[str, Set[Label]],
        info: FunctionInfo,
        kinds: FrozenSet[str],
        labels: Set[Label],
    ) -> FrozenSet[str]:
        """Add the labels a call's result carries; return the kinds its
        sub-expressions may still contribute."""
        site = self._site(call, info)
        if site.sanitizer:
            return frozenset()  # a digest/length of a secret is public
        labels.update((kind, DIRECT) for kind in site.sources & kinds)
        kinds = kinds - site.sources
        if not site.callees:
            return kinds  # unresolved (str(), .hex(), joins): conservative
        # Resolved to project functions: the summaries decide what flows
        # out, so a tainted *argument* does not taint the result (a
        # constructor given a secret does not make the object secret).
        for callee, pairs in site.callees:
            summary = self.summaries[callee.qualname]
            labels.update((kind, CROSSED) for kind in summary.returns & kinds)
            for pname, arg in pairs:
                through = frozenset(
                    kind for kind in kinds
                    if (kind, pname) in summary.param_to_return
                )
                if through:
                    labels.update(
                        (kind, CROSSED if tag in _TAINTED else tag)
                        for kind, tag in self._labels(arg, env, info, through)
                    )
        return frozenset()

    # -- one round over one function -------------------------------------------

    def _walk(self, info: FunctionInfo, body: _Body, summary: Summary) -> None:
        env: Dict[str, Set[Label]] = {
            p: {(kind, p) for kind in KINDS}
            for p in info.params if p not in ("self", "cls")
        }
        self._propagate(info, body, env)
        for value in body.outputs:
            for kind, tag in self._labels(value, env, info, ALL_KINDS):
                if tag in _TAINTED:
                    summary.returns.add(kind)
                else:
                    summary.param_to_return.add((kind, tag))
        for call in body.calls:
            self._check_call(call, env, info, summary)
        for line, exprs in body.raises:
            self._publish(info, line, exprs, env, _RAISE)

    def _propagate(
        self, info: FunctionInfo, body: _Body, env: Dict[str, Set[Label]]
    ) -> None:
        """Run assignments to a local fixpoint, recording ``self.attr``
        stores of tainted values."""
        owner = f"{info.module}.{info.class_name}"
        for _ in range(self.MAX_LOCAL_ROUNDS):
            changed = False
            for value, names, attrs in body.bindings:
                labels = self._labels(value, env, info, ALL_KINDS)
                if not labels:
                    continue
                for name in names:
                    if not labels <= env.setdefault(name, set()):
                        env[name].update(labels)
                        changed = True
                for attr in attrs:
                    for kind, tag in labels:
                        key = (kind, owner, attr)
                        if tag in _TAINTED and key not in self.attrs:
                            self.attrs.add(key)
                            changed = True
            if not changed:
                return

    def _check_call(
        self,
        call: ast.Call,
        env: Dict[str, Set[Label]],
        info: FunctionInfo,
        summary: Summary,
    ) -> None:
        """A sink call publishes its arguments; a call into a publishing
        parameter publishes that argument."""
        site = self._site(call, info)
        if site.sinks:
            labels = self._publish(
                info, call.lineno, _call_args(call), env, site.sinks
            )
            summary.param_to_sink.update(
                label for label in labels if label[1] not in _TAINTED
            )
        for callee, pairs in site.callees:
            to_sink = self.summaries[callee.qualname].param_to_sink
            if not to_sink:
                continue
            fired: Set[str] = set()
            for pname, arg in pairs:
                through = frozenset(k for k in KINDS if (k, pname) in to_sink)
                if not through:
                    continue
                for kind, tag in self._labels(arg, env, info, through):
                    if tag not in _TAINTED:
                        summary.param_to_sink.add((kind, tag))
                    elif kind not in fired:
                        fired.add(kind)
                        self.flows.append(Flow(
                            kind, True, info.relpath, call.lineno,
                            info.qualname, None, callee.qualname, pname,
                        ))

    def _publish(
        self,
        info: FunctionInfo,
        line: int,
        exprs: List[ast.expr],
        env: Dict[str, Set[Label]],
        sinks: Dict[str, Optional[str]],
    ) -> Set[Label]:
        """Record flows for the values one sink call or raise publishes
        (``sinks``: kind -> sink suffix): per kind, the first direct and
        the first crossed-only value.  Returns every label seen."""
        kinds = frozenset(sinks)
        seen: Set[Label] = set()
        fired: Set[Tuple[str, bool]] = set()
        for expr in exprs:
            labels = self._labels(expr, env, info, kinds)
            seen |= labels
            for kind in kinds:
                if (kind, DIRECT) in labels:
                    key = (kind, False)
                elif (kind, CROSSED) in labels:
                    key = (kind, True)
                else:
                    continue
                if key not in fired:
                    fired.add(key)
                    self.flows.append(Flow(
                        kind, key[1], info.relpath, line, info.qualname,
                        sinks[kind],
                    ))
        return seen


def get_taint(project: Project) -> TaintAnalysis:
    """The project's taint analysis, built once and cached on the
    project (the first taint rule to ask pays for it)."""
    cached = getattr(project, "_taint", None)
    if cached is None:
        cached = TaintAnalysis(project)
        project._taint = cached
    return cached


@register
class InterproceduralSecretFlowRule(Rule):
    """Secrets must not leak through wrapper functions into sinks.

    SEC002 reports secret flows that cross a function boundary, read
    from the shared taint analysis (:mod:`repro.analysis.interproc`): a
    function that *returns* a secret, *forwards* a parameter to its
    return value, *publishes* a parameter to a sink, or *stores* a
    secret on ``self`` extends the flow into every caller.  A finding
    fires when such a flow reaches the SEC001 sinks (logging, trace
    events, observability spans, ``print``, raised exception messages),
    or when a secret is passed to a parameter that a callee publishes.
    A value straight from a source in the same function is SEC001's, so
    each leak is reported once.

    The same sanitizers apply — route the value through ``sha1``/
    ``len``/``io_measurement`` to publish a digest or size.  Calls only
    propagate through precise call-graph edges and unambiguous
    name-suffix matches, so a finding always names a concrete callee;
    fix the flow, or suppress with ``# repro: noqa[SEC002]`` plus a
    justification.
    """

    id = "SEC002"
    title = "interprocedural secret flow reaches an output channel"
    severity = "error"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        for flow in get_taint(project).flows:
            if flow.kind == "secret" and flow.crossed:
                yield Finding(
                    self.id, flow.relpath, flow.line,
                    flow.describe("secret from another function", "secret value"),
                    self.severity,
                )
