"""Determinism: same seed, byte-identical result modulo wall/meta.

These tests run the real registered benchmarks twice and require the
canonical serialization of the non-volatile portion (everything except
``wall`` and ``meta`` — see :func:`repro.bench.strip_volatile`) to be
byte-for-byte identical.  This is the property the CI perf gate's
"virtual metrics compare exactly" rule rests on.  Each run also checks
the benchmark's paper claims, which fail the test when they break.
"""

import pytest

from repro.bench import (
    build_result,
    discover,
    get_benchmark,
    result_json,
    strip_volatile,
)


def stripped_bytes(name: str) -> str:
    """One quick run of benchmark ``name``, canonicalized and stripped."""
    bench = get_benchmark(name)
    result = build_result(
        name=bench.name, params=bench.parameters(quick=True),
        metrics=bench.run(quick=True), quick=True, wall_seconds=0.0,
    )
    return result_json(strip_volatile(result))


@pytest.fixture(scope="module", autouse=True)
def _discovered():
    discover()


@pytest.mark.parametrize("name", [
    "attestation_comparison",
    "ca",
    "e2e_rootkit",
    "fig6_modules",
    "fig8_efficiency",
    "fig9_ssh",
    "future_hw",
    "io_impact",
    "obs_overhead",
    "skinit_opt",
    "table1_rootkit",
    "table2_skinit",
    "table3_impact",
    "table4_distributed",
    "txt",
])
def test_quick_run_is_byte_deterministic(name):
    assert stripped_bytes(name) == stripped_bytes(name)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fleet", "fault_campaign"])
def test_campaign_scale_benchmarks_are_byte_deterministic(name):
    assert stripped_bytes(name) == stripped_bytes(name)


def test_wall_and_meta_are_the_only_volatile_sections():
    bench = get_benchmark("fig6_modules")
    result = build_result(
        name=bench.name, params=bench.parameters(quick=True),
        metrics=bench.run(quick=True), quick=True, wall_seconds=1.0,
    )
    stripped = strip_volatile(result)
    assert set(result) - set(stripped) == {"wall", "meta"}
