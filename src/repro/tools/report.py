"""One-shot experiment report: ``python -m repro.tools.report``.

Runs the registered benchmarks that reproduce the paper's §7 tables and
figures (see :mod:`repro.bench`) in quick mode and prints each one's
``virtual`` block as a table.  Every benchmark checks its own paper
claims as it runs, so a report that prints is a report whose claims
hold.  Deterministic: the same numbers appear on every run and every
machine.  Like ``python -m repro.tools.bench``, it needs the repository's
``benchmarks`` package importable (run it from the repository root).
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.bench import discover, get_benchmark
from repro.tools import render_table

#: The report's sections, in the paper's order.
PAPER_BENCHMARKS = (
    "table1_rootkit",
    "e2e_rootkit",
    "skinit_opt",
    "table2_skinit",
    "table3_impact",
    "table4_distributed",
    "fig6_modules",
    "fig8_efficiency",
    "fig9_ssh",
    "ca",
    "io_impact",
)


def _rows(value, path: str = "") -> Iterator[Tuple[str, object]]:
    """Flatten nested dicts to (dotted-path, value) rows.  A list of
    scalars prints as one comma-separated cell; a list of records (a
    metrics snapshot) prints as its length."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _rows(value[key], f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            yield path, ", ".join(str(v) for v in value)
        else:
            yield path, f"{len(value)} records"
    else:
        yield path, value


def build_report() -> str:
    """The full report as a string."""
    discover()
    sections = [
        "# Flicker reproduction — experiment report",
        "(paper: McCune et al., EuroSys 2008; all measured values are",
        "deterministic virtual-time results from the simulated platform)",
    ]
    for name in PAPER_BENCHMARKS:
        bench = get_benchmark(name)
        virtual = bench.run(quick=True)["virtual"]
        sections.append(render_table(bench.description, ["Metric", "Value"],
                                     _rows(virtual)))
    return "\n".join(sections)


def main() -> None:
    print(build_report())


if __name__ == "__main__":
    main()
