"""The documentation is executable.

Every ``>>>`` example in ``docs/*.md`` and in the ``repro.obs`` /
``repro.sim.trace`` / ``repro.sim.sched`` / ``repro.sim.parallel`` /
``repro.tools`` docstrings runs here, so the docs cannot drift from the
code.  Equivalent to::

    pytest --doctest-glob='*.md' docs/
    pytest --doctest-modules src/repro/obs src/repro/sim/trace.py \
        src/repro/sim/sched/ src/repro/sim/parallel.py \
        src/repro/tools/__init__.py

The demo scripts under ``examples/`` registered in ``EXECUTED_EXAMPLES``
run end-to-end as well (they assert their own claims inline).
"""

import doctest
import pathlib
import runpy

import pytest

import repro.obs.export
import repro.obs.metrics
import repro.obs.spans
import repro.sim.parallel
import repro.sim.sched.clock
import repro.sim.sched.events
import repro.sim.sched.process
import repro.sim.trace
import repro.tools

pytestmark = pytest.mark.obs

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS_DIR = REPO_ROOT / "docs"

OPTIONFLAGS = doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS

DOCTESTED_MODULES = [
    repro.obs.metrics,
    repro.obs.spans,
    repro.obs.export,
    repro.sim.trace,
    repro.sim.sched.events,
    repro.sim.sched.clock,
    repro.sim.sched.process,
    repro.sim.parallel,
    repro.tools,
]

#: Examples cheap enough to execute on every test run.
EXECUTED_EXAMPLES = ["fleet_distributed.py"]

DOC_PAGES = sorted(DOCS_DIR.glob("*.md"))


def test_docs_directory_found():
    assert DOC_PAGES, f"no markdown pages under {DOCS_DIR}"


@pytest.mark.parametrize(
    "module", DOCTESTED_MODULES, ids=lambda m: m.__name__)
def test_module_docstrings_execute(module):
    results = doctest.testmod(module, optionflags=OPTIONFLAGS, verbose=False)
    assert results.attempted > 0, (
        f"{module.__name__} has no doctests; its docstring examples "
        f"were removed or never written")
    assert results.failed == 0


@pytest.mark.parametrize("page", DOC_PAGES, ids=lambda p: p.name)
def test_markdown_examples_execute(page):
    results = doctest.testfile(
        str(page), module_relative=False, optionflags=OPTIONFLAGS,
        verbose=False)
    assert results.failed == 0


@pytest.mark.parametrize("script", EXECUTED_EXAMPLES)
def test_examples_execute(script, capsys):
    """Registered demo scripts run to completion (their inline asserts
    are the claims the script text makes to the reader)."""
    runpy.run_path(str(REPO_ROOT / "examples" / script), run_name="__main__")
    assert capsys.readouterr().out  # the demo actually narrated something


def test_architecture_and_observability_have_examples():
    """The pages this suite was built for must stay executable —
    an edit that deletes their examples should fail loudly, not skip."""
    for name in ("ARCHITECTURE.md", "OBSERVABILITY.md", "BENCHMARKS.md",
                 "DISTRIBUTED.md"):
        results = doctest.testfile(
            str(DOCS_DIR / name), module_relative=False,
            optionflags=OPTIONFLAGS, verbose=False)
        assert results.attempted > 0, f"{name} lost its doctests"
