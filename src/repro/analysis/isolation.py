"""Tenant isolation: virtual-TPM code must stay inside tenant bounds.

PR 9's multiplexer partitions one hardware TPM among tenants: every
tenant's NV space, monotonic counters and sealed storage live behind a
*tenant-bound* session interface (``TPM.interface(locality,
tenant=...)``), which prefixes NV indices and counter ids so no tenant
can name another tenant's state.  That property is enforced at runtime
by the interface — but only if the multiplexer and the tenant-tagged
distribution layer actually *go through* the interface.  One direct
call into the chip (``machine.tpm._nv_write(...)``) or one untenanted
interface acquisition silently collapses the partition.

Two rules audit this over the project call graph
(:mod:`repro.analysis.callgraph`):

* **ISO001** — inside ``repro.vtpm*`` and ``repro.dist*``, every path
  to a TPM NV/counter/sealed-storage mutator must be tenant-bound: no
  direct chip-method calls, no ``*.interface(...)`` without a
  ``tenant=`` keyword, and no call into a helper that *returns* an
  untenanted interface (resolved through the call graph, so hiding the
  acquisition in ``repro.hw`` does not help).  The hardware-owner
  paths in ``repro.hw``/``repro.core`` are out of scope by design —
  the platform legitimately owns the chip.
* **ISO002** — tenant snapshot material (``export_tenant`` output
  carries a tenant's full sealed storage, keys and counters) must
  never reach shared logs, trace events, exception messages, or NV
  writes.  These are the ``snapshot`` flows of the shared taint
  analysis (:mod:`repro.analysis.interproc`); the only legitimate
  consumers are ``import_tenant``/``remove_tenant`` on the migration
  path, which are not sinks.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from repro.analysis.astutil import dotted_name
from repro.analysis.callgraph import actionable_callees, get_callgraph
from repro.analysis.engine import Finding, Project, Rule, SourceFile, register
from repro.analysis.interproc import get_taint

#: Module prefixes whose TPM access must be tenant-bound.
TENANT_SCOPED_PREFIXES = ("repro.vtpm", "repro.dist")

#: TPM state mutators a tenant-scoped module must reach only through a
#: tenant-bound interface.
TPM_MUTATOR_NAMES = (
    "nv_define_space",
    "nv_write",
    "create_counter",
    "increment_counter",
    "seal",
)


def _in_scope(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in TENANT_SCOPED_PREFIXES
    )


def _is_direct_chip_call(name: str) -> bool:
    """``*.tpm.<mutator>`` / ``*.tpm._<mutator>``: the chip itself."""
    parts = name.split(".")
    if len(parts) < 2:
        return False
    terminal = parts[-1].lstrip("_")
    return terminal in TPM_MUTATOR_NAMES and "tpm" in parts[:-1]


def _untenanted_interface_call(call: ast.Call) -> bool:
    """An ``*.interface(...)`` acquisition with no usable tenant."""
    name = dotted_name(call.func)
    if name is None or name.split(".")[-1] != "interface":
        return False
    for keyword in call.keywords:
        if keyword.arg == "tenant":
            is_none = (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is None
            )
            return is_none
    return True


def _untenanted_interface_returners(project: Project) -> Set[str]:
    """Functions whose return value is an untenanted TPM interface,
    directly or through another such function (small fixpoint)."""
    graph = get_callgraph(project)
    returners: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for qualname in sorted(graph.functions):
            if qualname in returners:
                continue
            info = graph.functions[qualname]
            source = project.by_module.get(info.module)
            if source is None:
                continue
            for node in ast.walk(info.node):
                if not (isinstance(node, ast.Return) and node.value is not None):
                    continue
                for sub in ast.walk(node.value):
                    if not isinstance(sub, ast.Call):
                        continue
                    if _untenanted_interface_call(sub):
                        returners.add(qualname)
                        changed = True
                        break
                    callees = actionable_callees(
                        graph, source, info.class_name, sub
                    )
                    if any(callee in returners for callee in callees):
                        returners.add(qualname)
                        changed = True
                        break
                if qualname in returners:
                    break
    return returners


@register
class TenantBoundAccessRule(Rule):
    """Tenant-scoped code must reach TPM state through tenant-bound
    interfaces.

    Within ``repro.vtpm`` and ``repro.dist``, three shapes defeat the
    tenant partition and are findings: (1) calling a chip mutator
    directly (``*.tpm.nv_write(...)``, ``*.tpm._seal(...)`` — the
    underscore entry points bypass even locality checks); (2) acquiring
    a session with ``*.interface(...)`` without a ``tenant=`` keyword
    (or with ``tenant=None``), which yields a hardware-owner session
    whose NV indices and counter ids are unprefixed; (3) calling a
    helper — anywhere in the project — that returns such an untenanted
    interface, resolved through the call graph.

    Fix by acquiring the session once with ``tenant=vt.tenant`` and
    passing it down.  Hardware-owner code (``repro.hw``, ``repro.core``
    platform construction) is exempt by scope, not by suppression.
    """

    id = "ISO001"
    title = "tenant-scoped TPM access is not tenant-bound"
    severity = "error"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = get_callgraph(project)
        returners = _untenanted_interface_returners(project)
        for source in project.files:
            if not source.module or not _in_scope(source.module):
                continue
            yield from self._check_scoped_file(project, graph, source, returners)

    def _check_scoped_file(
        self,
        project: Project,
        graph,
        source: SourceFile,
        returners: Set[str],
    ) -> Iterable[Finding]:
        class_stack: List[str] = []

        def visit(node: ast.AST, class_name):
            for child in ast.iter_child_nodes(node):
                next_class = class_name
                if isinstance(child, ast.ClassDef):
                    next_class = child.name
                if isinstance(child, ast.Call):
                    yield from check_call(child, class_name)
                yield from visit(child, next_class)

        def check_call(call: ast.Call, class_name):
            name = dotted_name(call.func)
            if name is None:
                return
            if _is_direct_chip_call(name):
                yield self.finding(
                    source, call.lineno,
                    f"direct hardware TPM call '{name}' bypasses the "
                    "tenant partition; go through a tenant-bound "
                    "interface",
                )
                return
            if _untenanted_interface_call(call):
                yield self.finding(
                    source, call.lineno,
                    f"'{name}' acquires a TPM session without tenant=; "
                    "tenant-scoped code must bind the session to its "
                    "tenant",
                )
                return
            for callee in actionable_callees(graph, source, class_name, call):
                if callee in returners:
                    yield self.finding(
                        source, call.lineno,
                        f"'{name}' returns an untenanted TPM interface "
                        f"(via {callee}); tenant-scoped code must use a "
                        "tenant-bound session",
                    )
                    return

        yield from visit(source.tree, None)


@register
class TenantSnapshotLeakRule(Rule):
    """Tenant snapshot material must stay on the migration path.

    ``export_tenant`` serialises a tenant's entire virtual TPM — PCR
    bank, sealed storage, keys, counters — for live migration.  That
    snapshot is as secret as the tenant's secrets: flowing it into
    shared logs, trace events, observability spans, ``print``, raised
    exception messages, or NV writes (``nv_write``/``nv_define_space``
    — even a tenant-bound one persists it outside the migration
    channel) hands one tenant's state to whoever reads the shared
    medium.

    The rule reads the ``snapshot`` flows of the shared taint analysis
    (:mod:`repro.analysis.interproc`), whether or not they cross a
    function boundary: snapshots stay tainted across calls and attribute
    stores, and the ``sha1``/``len`` sanitizers apply — logging a
    snapshot digest for the attestation trail is fine.  The legitimate
    consumers, ``import_tenant`` and ``remove_tenant``, are not sinks
    and need no special-casing.
    """

    id = "ISO002"
    title = "tenant snapshot material reaches a shared channel"
    severity = "error"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        noun = "tenant snapshot material"
        for flow in get_taint(project).flows:
            if flow.kind == "snapshot":
                yield Finding(
                    self.id, flow.relpath, flow.line,
                    flow.describe(noun, noun), self.severity,
                )
