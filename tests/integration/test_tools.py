"""CLI tools smoke tests."""

import pytest

from repro.bench import get_benchmark
from repro.tools.report import PAPER_BENCHMARKS, build_report
from repro.tools.timeline import TimelineDemoPAL


class TestReportTool:
    @pytest.fixture(scope="class")
    def report(self):
        return build_report()

    def test_report_builds(self, report):
        for name in PAPER_BENCHMARKS:
            assert f"## {get_benchmark(name).description}\n" in report
        assert "1028.825984" in report  # Table 1's end-to-end query (ms)

    def test_report_is_deterministic(self, report):
        assert build_report() == report

    def test_report_claims_hold(self, report):
        """The benchmarks checked their claims while the report was built;
        every yes/no value in it reads yes."""
        assert "| True" in report
        assert "False" not in report


class TestTimelineTool:
    def test_demo_pal_runs(self, platform):
        result = platform.execute_pal(TimelineDemoPAL(), inputs=b"x")
        assert len(result.outputs) > 0

    def test_trace_has_key_events(self, platform):
        platform.execute_pal(TimelineDemoPAL(), inputs=b"x")
        trace = platform.machine.trace
        for kind in ("os-suspended", "dynamic_pcr_reset", "skinit",
                     "seal", "slb-core-exit", "os-resumed"):
            assert trace.events(kind=kind), kind
