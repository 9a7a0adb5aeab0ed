"""Command-line tools for the Flicker reproduction.

* ``python -m repro.tools.report`` — run the registered benchmarks that
  reproduce the paper's §7 tables and figures and print their results
  as one report.
* ``python -m repro.tools.timeline`` — run a hello-world session and dump
  the full platform trace, for exploring how a session unfolds.

:func:`render_table` is the text-table layout the report tools share;
this module imports nothing else, so any tool can use it for free.
"""

from typing import Iterable, List, Sequence


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence]) -> str:
    """A ``## title`` heading over a ``-+-``-ruled, left-justified text
    table — the one layout every report tool prints.

    >>> print(render_table("T", ["k", "value"], [("a", 1)]))
    <BLANKLINE>
    ## T
    --+------
    k | value
    --+------
    a | 1
    --+------
    """
    rows = [tuple(str(c) for c in row) for row in rows]
    headers = [str(h) for h in headers]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = [f"\n## {title}", sep]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(sep)
    return "\n".join(lines)
