"""What a sweep leaves behind: each chunk size's results.jsonl, report.csv
and report.svg in its output directory, and its summary lines on stderr.
This module alone names those files, writes them and clears them."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import write_jsonl
from .metrics import EvalResult

_CSV = "report.csv"
_SVG = "report.svg"
_RESULTS = "results.jsonl"  # in each size's directory


@dataclass
class SweepRow:
    chunk_size: int
    mean_correctness: float
    n: int


@dataclass
class SweepReport:
    rows: list[SweepRow]
    per_question: dict[int, list[EvalResult]]

    @property
    def argmax_sizes(self) -> list[int]:
        """The sizes that share the highest mean."""
        best = max((r.mean_correctness for r in self.rows), default=None)
        return [r.chunk_size for r in self.rows if r.mean_correctness == best]


def clear(out_dir: str | Path) -> None:
    """Delete the files any sweep writes into out_dir, whatever its sizes, so
    that an earlier run's outputs do not outlive a sweep that fails or sit
    beside a report that does not list them."""
    out = Path(out_dir)
    sized = (p for p in out.glob(f"*/{_RESULTS}")
             if p.parent.name.isascii() and p.parent.name.isdecimal())
    for path in (out / _CSV, out / _SVG, *sized):
        path.unlink(missing_ok=True)


def _dump_size_results(out_dir: str | Path, size: int, results: list[EvalResult]) -> None:
    size_dir = Path(out_dir) / str(size)
    size_dir.mkdir(parents=True, exist_ok=True)
    # vars, not asdict: the fields are scalars, so no deep copy is needed
    write_jsonl(size_dir / _RESULTS, map(vars, results))


def summary_lines(report: SweepReport) -> list[str]:
    """Each size's mean and n, then the best sizes."""
    return [f"chunk_size={r.chunk_size} mean={r.mean_correctness:.6f} n={r.n}"
            for r in report.rows] + [f"argmax_sizes={report.argmax_sizes}"]


def emit_csv(report: SweepReport, out_dir: str | Path) -> None:
    """out_dir/report.csv: UTF-8, LF endings, means to 6 decimal places."""
    lines = ["chunk_size,mean_correctness,n"]
    for row in report.rows:
        lines.append(f"{row.chunk_size},{row.mean_correctness:.6f},{row.n}")
    (Path(out_dir) / _CSV).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


# SVG geometry; fixed so identical reports yield identical bytes
_W, _H = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 30, 50


def emit_svg(report: SweepReport, out_dir: str | Path) -> None:
    """out_dir/report.svg, a standalone bar chart: x = chunk sizes ascending,
    y = mean correctness on [0, 1] with gridlines every 0.25."""
    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B
    rows = report.rows
    n = len(rows)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.2f}" y="18" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">'
        "Mean answer correctness by chunk size</text>",
    ]
    for i in range(5):
        level = i * 0.25
        y = _MARGIN_T + plot_h * (1 - level)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_W - _MARGIN_R}" '
            f'y2="{y:.2f}" stroke="#cccccc" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{level:.2f}</text>'
        )
    slot = plot_w / n if n else plot_w
    bar_w = slot * 0.6
    for i, row in enumerate(rows):
        bar_h = plot_h * row.mean_correctness
        x = _MARGIN_L + slot * i + (slot - bar_w) / 2
        y = _MARGIN_T + plot_h - bar_h
        out.append(
            f'<rect class="bar" x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
            f'height="{bar_h:.2f}" fill="#4477aa"/>'
        )
        cx = _MARGIN_L + slot * i + slot / 2
        out.append(
            f'<text x="{cx:.2f}" y="{_H - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{row.chunk_size}</text>'
        )
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_W - _MARGIN_R}" y2="{_MARGIN_T + plot_h}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append("</svg>")
    (Path(out_dir) / _SVG).write_bytes(("\n".join(out) + "\n").encode("utf-8"))
