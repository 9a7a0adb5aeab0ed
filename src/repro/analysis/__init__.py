"""Static analysis for the repo's two load-bearing invariants.

Flicker's claim is a *measured, minimal* TCB; this reproduction's own
claim is byte-identical determinism (fault campaigns, fleet reports and
bench baselines are all compared byte-for-byte).  Neither survives by
accident, so this package checks both from the source text itself:

* :mod:`repro.analysis.tcb` — builds the import graph rooted at the PAL
  runtime (``core/pal.py``, ``core/slb_core.py``, ``core/modules/*``),
  enforces the allowlisted TCB closure, and emits the per-PAL TCB report
  (``ANALYSIS_tcb.json``, the repro analogue of the paper's Figure 6
  TCB-size table).
* :mod:`repro.analysis.determinism` — forbids wall-clock and ambient
  entropy, unordered-set iteration feeding exporters, and ``id()``-based
  sort keys.
* :mod:`repro.analysis.callgraph` — resolves every call site to its
  definition(s) (imports, class attribution, name-suffix matching) and
  pins the summary in ``ANALYSIS_callgraph.json``; every rule that
  follows calls builds on it.
* :mod:`repro.analysis.interproc` — the one taint engine: values from
  Unseal / GetRandom / key generation (``secret``) and from
  ``export_tenant`` (``snapshot``) tracked through assignments, calls
  and attribute stores into logs, trace events, exception messages and
  NV writes, computed once per project.  Three rules read it: SEC001
  (:mod:`repro.analysis.secret_flow`, flows inside one function),
  SEC002 (flows through a wrapper) and ISO002
  (:mod:`repro.analysis.isolation`, snapshot flows).
* :mod:`repro.analysis.isolation` (ISO001 tenant-bound TPM access) and
  :mod:`repro.analysis.races` (RACE001 scheduler sharing) walk the
  call graph directly.

Drive it with ``python -m repro.tools.lint``; see ``docs/ANALYSIS.md``.

Example
-------
>>> from repro.analysis import analyze_source
>>> findings = analyze_source(
...     "import time\\n"
...     "def stamp(report):\\n"
...     "    report['at'] = time.time()\\n",
...     module="repro.sim.example",
... )
>>> [(f.rule, f.line) for f in findings]
[('DET001', 3)]
"""

from repro.analysis.engine import (
    Finding,
    Project,
    Rule,
    all_rules,
    analyze_source,
    get_rule,
    load_baseline,
    load_project,
    render_baseline,
    run_rules,
    split_baselined,
)
from repro.analysis.engine import run_rules_timed
from repro.analysis import (  # noqa: F401  (register rules)
    callgraph,
    determinism,
    interproc,
    isolation,
    races,
    secret_flow,
    tcb,
)
from repro.analysis.callgraph import generate_callgraph_report, get_callgraph
from repro.analysis.tcb import generate_tcb_report

__all__ = [
    "Finding",
    "Project",
    "Rule",
    "all_rules",
    "analyze_source",
    "generate_callgraph_report",
    "generate_tcb_report",
    "get_callgraph",
    "get_rule",
    "load_baseline",
    "load_project",
    "render_baseline",
    "run_rules",
    "run_rules_timed",
    "split_baselined",
]
