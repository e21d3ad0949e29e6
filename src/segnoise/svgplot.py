"""Tiny deterministic SVG writers for line plots and heatmaps.

Hand-rolled on purpose: output bytes are a pure function of the data,
which keeps plot files reproducible and diff-able without a plotting
dependency or display.
"""

from __future__ import annotations

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_W, _H = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 40, 55
# Line plots show scores: dashed lines over a fixed y range.
_Y_LO, _Y_HI = 0.0, 1.05
_DASH = ' stroke-dasharray="6,4"'


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _svg(title: str, x_label: str, y_label: str, body, legend, font_size: int, x_label_y, y_label_x) -> str:
    """One plot's SVG text: the frame (canvas, title, and the axis labels
    centred on the plot area, the x label at `x_label_y` and the rotated
    y label at `y_label_x`) drawn over `body`, then `legend`."""
    x_mid, y_mid = (_MARGIN_L + _W - _MARGIN_R) / 2, (_MARGIN_T + _H - _MARGIN_B) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="{font_size}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>',
        *body,
        f'<text x="{x_mid}" y="{x_label_y}" text-anchor="middle">{x_label}</text>',
        f'<text x="{y_label_x}" y="{y_mid}" text-anchor="middle" '
        f'transform="rotate(-90 {y_label_x} {y_mid})">{y_label}</text>',
        *legend,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def line_plot(
    x_values,
    series: dict[str, list[float]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Multi-series line plot of scores; series maps label -> y values
    over x_values."""
    xs = [float(v) for v in x_values]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    plot_w = (_MARGIN_L, _W - _MARGIN_R)
    plot_h = (_H - _MARGIN_B, _MARGIN_T)  # svg y grows downward

    # Axes with min/max ticks.
    axes = [
        f'<line x1="{plot_w[0]}" y1="{plot_h[0]}" x2="{plot_w[1]}" y2="{plot_h[0]}" stroke="black"/>',
        f'<line x1="{plot_w[0]}" y1="{plot_h[0]}" x2="{plot_w[0]}" y2="{plot_h[1]}" stroke="black"/>',
    ]
    for xv in xs:
        (px,) = _scale([xv], x_lo, x_hi, *plot_w)
        axes.append(
            f'<text x="{_fmt(px)}" y="{plot_h[0] + 18}" text-anchor="middle">{_fmt(xv)}</text>'
        )
    for yv in (_Y_LO, (_Y_LO + _Y_HI) / 2, _Y_HI):
        (py,) = _scale([yv], _Y_LO, _Y_HI, *plot_h)
        axes.append(
            f'<text x="{plot_w[0] - 8}" y="{_fmt(py + 4)}" text-anchor="end">{_fmt(yv)}</text>'
        )

    lines = []
    for idx, (label, ys) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        px = _scale(xs, x_lo, x_hi, *plot_w)
        py = _scale([float(v) for v in ys], _Y_LO, _Y_HI, *plot_h)
        points = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{_DASH} points="{points}"/>'
        )
        for a, b in zip(px, py):
            lines.append(f'<circle cx="{_fmt(a)}" cy="{_fmt(b)}" r="2.5" fill="{color}"/>')
        ly = _MARGIN_T + 14 * idx
        lines.append(
            f'<line x1="{plot_w[1] - 110}" y1="{ly}" x2="{plot_w[1] - 86}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"{_DASH}/>'
        )
        lines.append(f'<text x="{plot_w[1] - 80}" y="{ly + 4}">{label}</text>')
    return _svg(title, x_label, y_label, axes, lines, font_size=12, x_label_y=_H - 12, y_label_x=18)


def _heat_color(fraction: float) -> str:
    # Blue (low) to red (high) through white.
    f = min(max(fraction, 0.0), 1.0)
    if f < 0.5:
        ratio = f / 0.5
        r, g, b = int(60 + 195 * ratio), int(90 + 165 * ratio), 255
    else:
        ratio = (f - 0.5) / 0.5
        r, g, b = 255, int(255 - 165 * ratio), int(255 - 195 * ratio)
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(
    row_values,
    col_values,
    grid,
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Grid heatmap with per-cell value annotations.

    `grid[i][j]` belongs to row_values[i] x col_values[j].
    """
    rows = [float(v) for v in row_values]
    cols = [float(v) for v in col_values]
    flat = [v for row in grid for v in row]
    lo, hi = (min(flat), max(flat)) if flat else (0.0, 1.0)
    span = hi - lo if hi > lo else 1.0

    cell_w = (_W - _MARGIN_L - _MARGIN_R) / max(len(cols), 1)
    cell_h = (_H - _MARGIN_T - _MARGIN_B) / max(len(rows), 1)
    parts = []
    for i, rv in enumerate(rows):
        for j, cv in enumerate(cols):
            value = float(grid[i][j])
            x = _MARGIN_L + j * cell_w
            y = _MARGIN_T + i * cell_h
            color = _heat_color((value - lo) / span)
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w)}" '
                f'height="{_fmt(cell_h)}" fill="{color}" stroke="white"/>'
            )
            parts.append(
                f'<text x="{_fmt(x + cell_w / 2)}" y="{_fmt(y + cell_h / 2 + 4)}" '
                f'text-anchor="middle">{format(value, ".3f")}</text>'
            )
    for j, cv in enumerate(cols):
        x = _MARGIN_L + (j + 0.5) * cell_w
        parts.append(
            f'<text x="{_fmt(x)}" y="{_H - _MARGIN_B + 16}" text-anchor="middle">{_fmt(cv)}</text>'
        )
    for i, rv in enumerate(rows):
        y = _MARGIN_T + (i + 0.5) * cell_h
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end">{_fmt(rv)}</text>'
        )
    return _svg(title, x_label, y_label, parts, (), font_size=11, x_label_y=_H - 10, y_label_x=16)
