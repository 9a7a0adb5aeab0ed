"""Reference taint semantics: the analyzer's three former taint paths.

This is the secret-flow and snapshot-flow analysis as it stood before
SEC001, SEC002 and ISO002 were folded into one engine
(:mod:`repro.analysis.interproc`), kept as an executable oracle for
``test_taint_differential.py``:

* :class:`ReferenceSecretToSinkRule` is the former SEC001, a
  name-based intra-procedural walk;
* :class:`TaintAnalysis` built from a :class:`TaintConfig` is the former
  SEC002 (``TaintConfig()``) and ISO002 (:data:`ISO002_CONFIG`).

The code is the former implementation verbatim.  Only the vocabulary
constants are imported from the live engine, so oracle and engine agree
on what a source, a sink and a sanitizer are.  Nothing in ``src``
imports this module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.astutil import dotted_name
from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    get_callgraph,
    resolve_call,
)
from repro.analysis.engine import Finding, Project, Rule, SourceFile
from repro.analysis.interproc import (
    PUBLIC_ATTRS,
    SANITIZER_NAMES,
    SECRET_SOURCE_SUFFIXES,
    SINK_SUFFIXES,
)

def _suffix_hit(name: Optional[str], suffixes: Iterable[str]) -> Optional[str]:
    if name is None:
        return None
    for suffix in suffixes:
        if name == suffix or name.endswith("." + suffix):
            return suffix
    return None


def _is_sanitizer_call(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return False
        last = name.rsplit(".", 1)[-1]
        return last in SANITIZER_NAMES
    return False


def _names_in(node: ast.AST) -> Set[str]:
    """Names mentioned in an expression, not descending into sanitizer
    calls (a digest of a secret is not a secret)."""
    names: Set[str] = set()

    def visit(sub: ast.AST) -> None:
        if _is_sanitizer_call(sub):
            return
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        for child in ast.iter_child_nodes(sub):
            visit(child)

    visit(node)
    return names


def _contains_source_call(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _suffix_hit(
            dotted_name(sub.func), SECRET_SOURCE_SUFFIXES
        ):
            return True
    return False


def _assign_targets(node: ast.stmt) -> List[str]:
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and getattr(node, "value", None):
        targets = [node.target]
    names: List[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    names.append(element.id)
    return names


class ReferenceSecretToSinkRule(Rule):
    """Values from Unseal/GetRandom/key generation must not be published.

    Within each function, names assigned from a secret-bearing call
    (``*.unseal(...)``, ``*.get_random(...)``,
    ``generate_rsa_keypair(...)``, …) are tainted, and taint follows
    assignments.  A finding fires when a tainted name — or a secret
    call's result directly — appears in the arguments of ``print``,
    ``logging`` methods, ``*.emit(...)`` trace events, ``*.event(...)``
    / ``*.span(...)`` observability calls, or in a raised exception's
    message.

    Publishing a *digest* or a *length* of a secret is fine (that is
    how the paper's protocols communicate): pass the value through
    ``sha1``/``len``/``io_measurement`` first.  If a site is a true
    false positive, suppress it with ``# repro: noqa[SEC001]`` plus a
    comment saying why the value is not secret.
    """

    id = "SEC001"
    title = "secret value flows into an output channel"
    severity = "error"

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(source, node)

    def _check_function(self, source: SourceFile, func: ast.AST) -> Iterable[Finding]:
        tainted: Set[str] = set()
        statements = [s for s in ast.walk(func) if isinstance(s, ast.stmt)]
        statements.sort(key=lambda s: (s.lineno, s.col_offset))

        # Pass 1: propagate taint through assignments to a fixpoint —
        # a single source-order sweep misses loops where the taint's
        # defining assignment sits *below* the use that re-binds it.
        changed = True
        while changed:
            changed = False
            for statement in statements:
                names = _assign_targets(statement)
                if not names or set(names) <= tainted:
                    continue
                value = getattr(statement, "value", None)
                if value is None:
                    continue
                if _contains_source_call(value) or (_names_in(value) & tainted):
                    tainted.update(names)
                    changed = True

        # Pass 2: flag sinks that mention tainted names or source calls.
        for statement in statements:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    hit = _suffix_hit(dotted_name(node.func), SINK_SUFFIXES)
                    if not hit:
                        continue
                    for arg in list(node.args) + [k.value for k in node.keywords]:
                        if (_names_in(arg) & tainted) or _contains_source_call(arg):
                            yield self.finding(
                                source, node.lineno,
                                f"secret-derived value reaches '{hit}' "
                                "output; log a digest or length instead",
                            )
                            break
                elif isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc
                    args: List[ast.expr] = []
                    if isinstance(exc, ast.Call):
                        args = list(exc.args) + [k.value for k in exc.keywords]
                    # ``raise err`` where err was built from a tainted
                    # message (e.g. an f-string) leaks exactly like the
                    # inline ``raise Error(f"… {secret}")`` form.
                    raised_tainted_name = (
                        isinstance(exc, ast.Name) and exc.id in tainted
                    )
                    if raised_tainted_name or any(
                        (_names_in(a) & tainted) or _contains_source_call(a)
                        for a in args
                    ):
                        yield self.finding(
                            source, node.lineno,
                            "secret-derived value reaches an exception "
                            "message; exceptions cross the trust boundary",
                        )


#: Label meaning "directly from a base source call" — SEC001 territory.
SECRET = "secret"
#: Label meaning "secret via at least one function boundary".
XSECRET = "xsecret"

_SECRETISH = frozenset((SECRET, XSECRET))


@dataclass
class TaintConfig:
    """Vocabulary for one interprocedural taint analysis."""

    source_suffixes: Tuple[str, ...] = SECRET_SOURCE_SUFFIXES
    sink_suffixes: Tuple[str, ...] = SINK_SUFFIXES
    #: When False, flows SEC001 already reports (same-function source →
    #: sink) are skipped so each leak is reported exactly once.
    fire_intra: bool = False
    #: How findings name the tainted value (ISO002 overrides these).
    noun: str = "secret from another function"
    param_noun: str = "secret value"


@dataclass
class Summary:
    """What one function does with secrets and with its parameters."""

    returns_secret: bool = False
    param_to_return: Set[str] = field(default_factory=set)
    param_to_sink: Set[str] = field(default_factory=set)

    def snapshot(self) -> Tuple[bool, frozenset, frozenset]:
        return (
            self.returns_secret,
            frozenset(self.param_to_return),
            frozenset(self.param_to_sink),
        )


@dataclass(frozen=True)
class TaintFinding:
    """One interprocedural flow, pre-Rule packaging."""

    relpath: str
    line: int
    message: str


class TaintAnalysis:
    """Summary computation + detection for one :class:`TaintConfig`."""

    #: Fixpoint bounds: the label lattice is tiny, so these are never
    #: reached in practice — they are a defensive cap, not a tuning knob.
    MAX_GLOBAL_ROUNDS = 10
    MAX_LOCAL_ROUNDS = 20

    def __init__(self, project: Project, config: TaintConfig) -> None:
        self.project = project
        self.config = config
        self.graph: CallGraph = get_callgraph(project)
        self.summaries: Dict[str, Summary] = {
            q: Summary() for q in self.graph.functions
        }
        #: ``(class qualname, attr name)`` holding secret material.
        self.secret_attrs: Set[Tuple[str, str]] = set()
        self._resolution_cache: Dict[int, List[str]] = {}
        self._stmt_cache: Dict[str, List[ast.stmt]] = {}
        self._compute_summaries()

    # -- call resolution -------------------------------------------------------

    def _callees_at(self, info: FunctionInfo, call: ast.Call) -> List[str]:
        """Actionable callee qualnames for one call site (precise edges
        plus unambiguous suffix matches)."""
        key = id(call)
        if key not in self._resolution_cache:
            source = self.project.by_module.get(info.module)
            resolved = (
                resolve_call(self.graph, source, info.class_name, call)
                if source is not None else []
            )
            if len(resolved) > 1 and resolved[0][1] == "suffix":
                resolved = []  # ambiguous — do not act on it
            self._resolution_cache[key] = [
                callee for callee, _ in resolved
                if callee in self.graph.functions
            ]
        return self._resolution_cache[key]

    def _map_args(
        self, callee: FunctionInfo, call: ast.Call
    ) -> List[Tuple[str, ast.expr]]:
        """``(parameter name, argument expression)`` pairs for a call.

        Method calls written through a receiver (``obj.meth(x)``) bind
        the first declared parameter implicitly, so positionals shift
        by one.  Overflow into ``*args``/``**kwargs`` is dropped.
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

    # -- label evaluation ------------------------------------------------------

    def _expr_labels(
        self,
        node: ast.AST,
        env: Dict[str, Set[str]],
        info: FunctionInfo,
    ) -> Set[str]:
        """Taint labels carried by an expression.

        Labels are ``secret`` (base source call), ``xsecret`` (crossed a
        function boundary), and ``param:<name>`` (depends on a caller
        argument — used only while computing summaries).
        """
        labels: Set[str] = set()

        def visit(sub: ast.AST) -> None:
            if _is_sanitizer_call(sub):
                return  # a digest/length of a secret is public
            if isinstance(sub, ast.Name):
                labels.update(env.get(sub.id, ()))
            elif isinstance(sub, ast.Attribute):
                if sub.attr in PUBLIC_ATTRS:
                    return  # the public half of a keypair is public
                chain = dotted_name(sub)
                if (
                    chain is not None
                    and chain.startswith(("self.", "cls."))
                    and chain.count(".") == 1
                    and info.class_name is not None
                ):
                    key = (f"{info.module}.{info.class_name}", sub.attr)
                    if key in self.secret_attrs:
                        labels.add(XSECRET)
            elif isinstance(sub, ast.Call):
                if self._call_labels(sub, env, info, labels):
                    # A source call, or one resolved to a project
                    # function: the summary decides what flows out, so
                    # a tainted *argument* does not taint the result
                    # (a constructor given a secret does not make the
                    # whole object secret).  Unresolved calls (str(),
                    # .hex(), joins) stay conservative below.
                    return
            for child in ast.iter_child_nodes(sub):
                visit(child)

        visit(node)
        return labels

    def _call_labels(
        self,
        call: ast.Call,
        env: Dict[str, Set[str]],
        info: FunctionInfo,
        labels: Set[str],
    ) -> bool:
        """Labels a call's result carries; True when the call was a
        source or resolved to project callees (summary is authoritative)."""
        if _suffix_hit(dotted_name(call.func), self.config.source_suffixes):
            labels.add(SECRET)
            return True
        callees = self._callees_at(info, call)
        for callee_qual in callees:
            summary = self.summaries[callee_qual]
            if summary.returns_secret:
                labels.add(XSECRET)
            if summary.param_to_return:
                callee = self.graph.functions[callee_qual]
                for pname, arg in self._map_args(callee, call):
                    if pname not in summary.param_to_return:
                        continue
                    arg_labels = self._expr_labels(arg, env, info)
                    if arg_labels & _SECRETISH:
                        labels.add(XSECRET)
                    labels.update(
                        label for label in arg_labels
                        if label.startswith("param:")
                    )
        return bool(callees)

    # -- per-function walk -----------------------------------------------------

    def _function_statements(self, info: FunctionInfo) -> List[ast.stmt]:
        statements = self._stmt_cache.get(info.qualname)
        if statements is None:
            statements = [
                s for s in ast.walk(info.node) if isinstance(s, ast.stmt)
            ]
            statements.sort(key=lambda s: (s.lineno, s.col_offset))
            self._stmt_cache[info.qualname] = statements
        return statements

    def _propagate(
        self,
        info: FunctionInfo,
        env: Dict[str, Set[str]],
        statements: List[ast.stmt],
        summary: Optional[Summary],
    ) -> None:
        """Run assignments to a local fixpoint; when ``summary`` is
        given, also record ``self.attr`` secret stores."""
        for _ in range(self.MAX_LOCAL_ROUNDS):
            changed = False
            for statement in statements:
                value = getattr(statement, "value", None)
                if isinstance(statement, ast.For):
                    value = statement.iter
                    targets = (
                        [statement.target.id]
                        if isinstance(statement.target, ast.Name) else []
                    )
                else:
                    targets = _assign_targets(statement)
                if value is None:
                    continue
                labels = self._expr_labels(value, env, info)
                if not labels:
                    continue
                for name in targets:
                    if not labels <= env.setdefault(name, set()):
                        env[name].update(labels)
                        changed = True
                if (
                    summary is not None
                    and isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                    and labels & _SECRETISH
                    and info.class_name is not None
                ):
                    raw_targets = (
                        statement.targets
                        if isinstance(statement, ast.Assign)
                        else [statement.target]
                    )
                    for target in raw_targets:
                        chain = dotted_name(target)
                        if (
                            chain is not None
                            and chain.startswith(("self.", "cls."))
                            and chain.count(".") == 1
                        ):
                            key = (
                                f"{info.module}.{info.class_name}",
                                chain.split(".", 1)[1],
                            )
                            if key not in self.secret_attrs:
                                self.secret_attrs.add(key)
                                changed = True
            if not changed:
                return

    # -- summaries -------------------------------------------------------------

    def _compute_summaries(self) -> None:
        order = sorted(self.graph.functions)
        for _ in range(self.MAX_GLOBAL_ROUNDS):
            before = {
                q: self.summaries[q].snapshot() for q in order
            }
            attrs_before = set(self.secret_attrs)
            for qualname in order:
                self._summarize(self.graph.functions[qualname])
            if (
                all(self.summaries[q].snapshot() == before[q] for q in order)
                and self.secret_attrs == attrs_before
            ):
                return

    def _summarize(self, info: FunctionInfo) -> None:
        summary = self.summaries[info.qualname]
        env: Dict[str, Set[str]] = {
            p: {f"param:{p}"} for p in info.params if p not in ("self", "cls")
        }
        statements = self._function_statements(info)
        self._propagate(info, env, statements, summary)
        for statement in statements:
            if isinstance(statement, ast.Return) and statement.value is not None:
                labels = self._expr_labels(statement.value, env, info)
                if labels & _SECRETISH:
                    summary.returns_secret = True
                summary.param_to_return.update(
                    label.split(":", 1)[1] for label in labels
                    if label.startswith("param:")
                )
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                sink_params = self._sink_arg_params(node, env, info)
                summary.param_to_sink.update(sink_params)
        # Generators publish through ``yield`` like a return.
        if info.is_generator:
            for statement in statements:
                for node in ast.walk(statement):
                    if isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value:
                        labels = self._expr_labels(node.value, env, info)
                        if labels & _SECRETISH:
                            summary.returns_secret = True
                        summary.param_to_return.update(
                            label.split(":", 1)[1] for label in labels
                            if label.startswith("param:")
                        )

    def _sink_arg_params(
        self, call: ast.Call, env: Dict[str, Set[str]], info: FunctionInfo
    ) -> Set[str]:
        """Parameters whose taint this call would publish: direct sink
        calls, plus calls into a callee with ``param_to_sink``."""
        params: Set[str] = set()
        if _suffix_hit(dotted_name(call.func), self.config.sink_suffixes):
            for arg in list(call.args) + [k.value for k in call.keywords]:
                params.update(
                    label.split(":", 1)[1]
                    for label in self._expr_labels(arg, env, info)
                    if label.startswith("param:")
                )
        for callee_qual in self._callees_at(info, call):
            callee_summary = self.summaries[callee_qual]
            if not callee_summary.param_to_sink:
                continue
            callee = self.graph.functions[callee_qual]
            for pname, arg in self._map_args(callee, call):
                if pname in callee_summary.param_to_sink:
                    params.update(
                        label.split(":", 1)[1]
                        for label in self._expr_labels(arg, env, info)
                        if label.startswith("param:")
                    )
        return params

    # -- detection -------------------------------------------------------------

    def findings(self) -> List[TaintFinding]:
        """Flows visible with *no* assumptions about caller arguments."""
        found: List[TaintFinding] = []
        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            found.extend(self._detect(info))
        return found

    def _detect(self, info: FunctionInfo) -> Iterable[TaintFinding]:
        env: Dict[str, Set[str]] = {}
        statements = self._function_statements(info)
        self._propagate(info, env, statements, None)
        # SEC001's own intra-procedural taint, used to avoid reporting
        # the same leak twice when ``fire_intra`` is off.
        intra: Set[str] = {
            name for name, labels in env.items() if SECRET in labels
        }
        fire_on = (
            _SECRETISH if self.config.fire_intra else frozenset((XSECRET,))
        )
        for statement in statements:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    yield from self._detect_call(node, env, info, intra, fire_on)
                elif isinstance(node, ast.Raise) and node.exc is not None:
                    yield from self._detect_raise(node, env, info, fire_on)

    def _already_sec001(
        self, arg: ast.expr, intra: Set[str]
    ) -> bool:
        """Would SEC001 flag this sink argument on its own?"""
        if self.config.fire_intra:
            return False
        return bool(_names_in(arg) & intra) or _contains_source_call(arg)

    def _detect_call(
        self,
        call: ast.Call,
        env: Dict[str, Set[str]],
        info: FunctionInfo,
        intra: Set[str],
        fire_on: frozenset,
    ) -> Iterable[TaintFinding]:
        hit = _suffix_hit(dotted_name(call.func), self.config.sink_suffixes)
        if hit:
            for arg in list(call.args) + [k.value for k in call.keywords]:
                labels = self._expr_labels(arg, env, info)
                if labels & fire_on and not self._already_sec001(arg, intra):
                    yield TaintFinding(
                        info.relpath, call.lineno,
                        f"{self.config.noun} reaches '{hit}' in "
                        f"{info.qualname}; publish a digest or length "
                        "instead",
                    )
                    break
        for callee_qual in self._callees_at(info, call):
            summary = self.summaries[callee_qual]
            if not summary.param_to_sink:
                continue
            callee = self.graph.functions[callee_qual]
            for pname, arg in self._map_args(callee, call):
                if pname not in summary.param_to_sink:
                    continue
                labels = self._expr_labels(arg, env, info)
                if labels & _SECRETISH:
                    yield TaintFinding(
                        info.relpath, call.lineno,
                        f"{self.config.param_noun} passed to "
                        f"{callee.qualname}() parameter '{pname}', "
                        "which publishes it",
                    )
                    break

    def _detect_raise(
        self,
        node: ast.Raise,
        env: Dict[str, Set[str]],
        info: FunctionInfo,
        fire_on: frozenset,
    ) -> Iterable[TaintFinding]:
        exc = node.exc
        exprs: List[ast.expr] = []
        if isinstance(exc, ast.Call):
            exprs = list(exc.args) + [k.value for k in exc.keywords]
        elif isinstance(exc, ast.Name):
            exprs = [exc]
        for expr in exprs:
            if self._expr_labels(expr, env, info) & fire_on:
                yield TaintFinding(
                    info.relpath, node.lineno,
                    f"{self.config.noun} reaches an exception message "
                    f"in {info.qualname}; exceptions cross the trust "
                    "boundary",
                )
                return


def run_taint(project: Project, config: TaintConfig) -> List[TaintFinding]:
    """One full analysis pass; convenience for rules and tests."""
    return TaintAnalysis(project, config).findings()


#: The former ISO002 vocabulary, verbatim from its rule class.
ISO002_CONFIG = TaintConfig(
    source_suffixes=("export_tenant",),
    sink_suffixes=SINK_SUFFIXES + ("nv_write", "nv_define_space"),
    fire_intra=True,
    noun="tenant snapshot material",
    param_noun="tenant snapshot material",
)

#: taint kind -> (the former rule that tracked it, its configuration).
KIND_CONFIGS = {
    "secret": ("SEC002", TaintConfig()),
    "snapshot": ("ISO002", ISO002_CONFIG),
}


def reference_analyses(project: Project) -> Dict[str, TaintAnalysis]:
    """The former analyses, one per taint kind."""
    return {
        kind: TaintAnalysis(project, config)
        for kind, (_, config) in KIND_CONFIGS.items()
    }


def reference_findings(
    project: Project, analyses: Optional[Dict[str, TaintAnalysis]] = None
) -> List[Finding]:
    """SEC001, SEC002 and ISO002 findings as the former rules reported
    them, deduplicated and sorted like ``run_rules`` output (suppressions
    are not applied)."""
    if analyses is None:
        analyses = reference_analyses(project)
    found: Set[Finding] = set()
    sec001 = ReferenceSecretToSinkRule()
    for source in project.files:
        found.update(sec001.check_file(source))
    for kind, (rule_id, _) in KIND_CONFIGS.items():
        for hit in analyses[kind].findings():
            found.add(Finding(rule_id, hit.relpath, hit.line, hit.message))
    return sorted(found, key=Finding.sort_key)
