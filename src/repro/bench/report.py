"""Table/figure formatting for the benchmark harness.

Each experiment bench prints the same rows/series the paper reports, next
to the paper's published values where we have them, so a run of
``pytest benchmarks/ --benchmark-only`` doubles as the EXPERIMENTS.md
regeneration source.
"""

from __future__ import annotations


def format_table(title: str, headers: list[str],
                 rows: list[list[object]]) -> str:
    """Fixed-width table with a title rule."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = [title, "=" * max(len(title), sum(widths) + 2 * len(widths))]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def pct(x: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{x * 100:.{digits}f}%"


def ratio(x: float, digits: int = 2) -> str:
    """Format a multiplier as an 'N.NNx' string."""
    return f"{x:.{digits}f}x"


def mib(nbytes: int) -> str:
    """Format a byte count in whole MiB."""
    return f"{nbytes / (1024 * 1024):.0f}MiB"


def check(flag: bool) -> str:
    """Render a protection-matrix cell (Table 1 style)."""
    return "yes" if flag else "NO"
