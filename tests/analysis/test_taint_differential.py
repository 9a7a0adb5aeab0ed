"""Differential test: the one taint engine against the former three.

``reference_taint`` keeps the former SEC001 walk and the former
``TaintAnalysis``/``TaintConfig`` pair verbatim.  Over the live
``src/repro`` tree the shared engine must compute the same summaries
per kind.  ISO002 must report exactly what the former ISO002 reported,
on the tree and on every snippet the rule tests analyse; SEC001/SEC002
may differ only on the snippets enumerated in :data:`PRECISION_CHANGES`.
"""

import inspect
import textwrap
from pathlib import Path

import pytest

from repro.analysis import get_rule, load_project
from repro.analysis.engine import Finding, Project, parse_source
from repro.analysis.interproc import KINDS, get_taint
from tests.analysis import reference_taint as reference
from tests.analysis import test_interproc, test_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
TAINT_RULES = ("ISO002", "SEC001", "SEC002")

#: snippet -> (former findings, findings now), as ``(rule, line)``.
PRECISION_CHANGES = {
    # The former SEC001 did not propagate ``for`` targets, and SEC002
    # skipped same-function flows as SEC001's: nobody reported it.
    test_rules.SECRET_FOR_TARGET: ([], [("SEC001", 4)]),
    # ``.public`` declassifies, as it always did for SEC002.
    test_rules.PUBLIC_HALF_OF_KEYPAIR: ([("SEC001", 6)], []),
    # A resolved call's result carries what its summary says.
    test_rules.CONSTANT_FROM_PROJECT_FUNCTION: ([("SEC001", 7)], []),
    # The secret crossed ``wrap``: one finding, now SEC002's.
    test_rules.SECRET_THROUGH_WRAPPER: ([("SEC001", 7)], [("SEC002", 7)]),
    # The former SEC001 looked for source calls inside sanitizers too.
    test_rules.DIGEST_OF_INLINE_SOURCE: ([("SEC001", 4)], []),
    # The former SEC002 re-reported raises SEC001 had already reported.
    test_rules.RAISE_OF_DIRECT_AND_WRAPPED_SECRET: (
        [("SEC001", 7), ("SEC002", 7)], [("SEC001", 7)],
    ),
}


def current_findings(project):
    """The shared engine's taint findings, unsuppressed like the oracle's."""
    found = set()
    for rule_id in TAINT_RULES:
        found.update(get_rule(rule_id).check_project(project))
    return sorted(found, key=Finding.sort_key)


def of_rules(findings, rule_ids):
    return [f for f in findings if f.rule in rule_ids]


@pytest.fixture(scope="module")
def tree():
    return load_project(REPO_ROOT)


@pytest.fixture(scope="module")
def oracles(tree):
    return reference.reference_analyses(tree)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_summaries_match_reference_on_tree(tree, oracles, kind):
    analysis, oracle = get_taint(tree), oracles[kind]

    def of_kind(labels):
        return {tag for label_kind, tag in labels if label_kind == kind}

    got = {
        qualname: (kind in s.returns, of_kind(s.param_to_return),
                   of_kind(s.param_to_sink))
        for qualname, s in analysis.summaries.items()
    }
    want = {
        qualname: (s.returns_secret, s.param_to_return, s.param_to_sink)
        for qualname, s in oracle.summaries.items()
    }
    assert got == want
    attrs = {(owner, attr) for k, owner, attr in analysis.attrs if k == kind}
    assert attrs == oracle.secret_attrs
    # Not vacuous: the tree exercises forwarding and publishing params.
    assert any(p2r for _, p2r, _ in want.values())
    assert any(p2s for _, _, p2s in want.values())


def test_secret_summaries_on_tree_are_not_vacuous(oracles):
    oracle = oracles["secret"]
    assert any(s.returns_secret for s in oracle.summaries.values())
    assert oracle.secret_attrs


def test_findings_match_reference_on_tree(tree, oracles):
    assert current_findings(tree) == reference.reference_findings(tree, oracles)


def recorded_snippet_projects(monkeypatch, tmp_path):
    """Every project the SEC/ISO/RACE rule tests build, recorded by
    running those tests with their project builders wrapped."""
    projects = []
    make_project = test_interproc.make_project
    analyze_source = test_rules.analyze_source

    def record_project(root, files):
        projects.append(make_project(root, files))
        return projects[-1]

    def record_source(text, module="repro.example", relpath="example.py",
                      rules=None):
        projects.append(Project(
            root=Path("."), files=[parse_source(text, relpath, module)]
        ))
        return analyze_source(text, module=module, relpath=relpath,
                              rules=rules)

    monkeypatch.setattr(test_interproc, "make_project", record_project)
    monkeypatch.setattr(test_rules, "analyze_source", record_source)
    suites = [getattr(test_interproc, name) for name in dir(test_interproc)
              if name.startswith("Test")] + [test_rules.TestSecretFlow]
    for suite in suites:
        for name in sorted(dir(suite)):
            if name.startswith("test_"):
                test = getattr(suite(), name)
                if "tmp_path" in inspect.signature(test).parameters:
                    test(tmp_path)
                else:
                    test()
    return projects


def test_findings_match_reference_on_rule_test_snippets(monkeypatch, tmp_path):
    changes = {textwrap.dedent(s): sides for s, sides in PRECISION_CHANGES.items()}
    seen = set()
    projects = recorded_snippet_projects(monkeypatch, tmp_path)
    assert len(projects) > 30
    for project in projects:
        now = current_findings(project)
        before = reference.reference_findings(project)
        assert of_rules(now, {"ISO002"}) == of_rules(before, {"ISO002"})
        text = project.files[0].text
        if len(project.files) > 1 or text not in changes:
            assert now == before
            continue
        seen.add(text)
        assert ([(f.rule, f.line) for f in before],
                [(f.rule, f.line) for f in now]) == changes[text]
    assert seen == set(changes)
