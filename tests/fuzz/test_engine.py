"""Campaign engine: determinism, monotone coverage, worker independence."""

import importlib

import pytest

from repro.fuzz.engine import FuzzCampaign, edge_monotonicity

pytestmark = pytest.mark.fuzz


def _small(seed, workers=1, executions=24):
    return FuzzCampaign(seed=seed, executions=executions, workers=workers)


class TestDeterminism:
    def test_same_seed_same_report(self, fuzz_seed):
        first = _small(fuzz_seed).run()
        second = _small(fuzz_seed).run()
        assert FuzzCampaign.report_json(first) == FuzzCampaign.report_json(second)

    def test_different_seeds_diverge(self, fuzz_seed):
        a = _small(fuzz_seed, executions=32).run()
        b = _small(fuzz_seed + 1, executions=32).run()
        assert FuzzCampaign.report_json(a) != FuzzCampaign.report_json(b)

    def test_report_independent_of_warm_memos(self, fuzz_seed):
        # Each shard starts from a fresh process's memo state, so a
        # campaign run after others in one process reports what a cold
        # one does (and a serial run what a worker pool does).
        for name, memos in (("repro.core.slb", ("_module_binary", "_bootstrap_stub")),
                            ("repro.core.pal", ("_class_source",)),
                            ("repro.crypto.sha1", ("sha1_cached",))):
            module = importlib.import_module(name)
            for memo in memos:
                getattr(module, memo).cache_clear()
        importlib.import_module("repro.crypto.rsa")._KEYGEN_CACHE.clear()
        # The faults target runs whole Flicker sessions, so it builds SLBs.
        cold = FuzzCampaign(seed=fuzz_seed, executions=8, shards=1,
                            targets=("faults",)).run()
        warm = FuzzCampaign(seed=fuzz_seed, executions=8, shards=1,
                            targets=("faults",)).run()
        assert FuzzCampaign.report_json(cold) == FuzzCampaign.report_json(warm)

    @pytest.mark.slow
    def test_byte_identical_across_worker_counts(self, fuzz_seed):
        serial = _small(fuzz_seed, workers=1, executions=48).run()
        parallel = _small(fuzz_seed, workers=4, executions=48).run()
        assert FuzzCampaign.report_json(serial) == FuzzCampaign.report_json(parallel)


class TestCoverageGrowth:
    def test_edge_count_monotone(self, fuzz_seed):
        report = _small(fuzz_seed, executions=32).run()
        assert edge_monotonicity(report)

    def test_coverage_nonzero_and_tcb_scoped(self, fuzz_seed):
        report = _small(fuzz_seed, executions=32).run()
        assert report["coverage"]["edges"] > 0
        assert all(m.startswith("repro.") for m in report["coverage"]["modules"])
        assert "repro.tpm.tpm" in report["coverage"]["modules"]


class TestReportShape:
    def test_execution_accounting(self, fuzz_seed):
        report = _small(fuzz_seed, executions=24).run()
        assert report["executions"]["total"] == 24
        assert sum(report["executions"]["by_target"].values()) == 24

    def test_clean_campaign_has_no_counterexamples(self, fuzz_seed):
        report = _small(fuzz_seed, executions=24).run()
        assert report["summary"]["clean"]
        assert report["counterexamples"] == []

    def test_target_restriction(self, fuzz_seed):
        report = FuzzCampaign(seed=fuzz_seed, executions=16,
                              targets=("tpm",)).run()
        assert set(report["executions"]["by_target"]) == {"tpm"}

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            FuzzCampaign(targets=("bios",))
        with pytest.raises(ValueError):
            FuzzCampaign(shards=0)
