"""Minimal SVG renderings of decision boundaries and density heatmaps.

Grids are rasterized into per-row runs of equal color so the output stays
small at high resolutions; no plotting library is involved and the files
parse with any XML reader. Marks (rectangles and circles) are formatted and
written ``_MARK_BLOCK`` at a time, so no string holds a whole file.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .ensemble import EnsembleModel, decide, log_density_table, score_chunks

CANVAS = 480

CLASS_PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]

DENSITY_LOW = (13, 8, 65)
DENSITY_HIGH = (250, 231, 85)

# Marks formatted with one ``%`` and written at once: about 100 KB of text.
_MARK_BLOCK = 1024


def class_color(k: int) -> str:
    return CLASS_PALETTE[k % len(CLASS_PALETTE)]


def _grid_centers(region, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    xmin, xmax, ymin, ymax = region
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"degenerate region {region}")
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    xs = xmin + (np.arange(resolution) + 0.5) * (xmax - xmin) / resolution
    ys = ymin + (np.arange(resolution) + 0.5) * (ymax - ymin) / resolution
    return xs, ys


def _write_marks(fh, template: str, *columns: np.ndarray) -> None:
    """Write the line ``template % row`` for each row of the columns,
    ``_MARK_BLOCK`` rows at a time, each block formatted with one ``%``:
    ``"%.2f" % x`` has the bytes of ``f"{x:.2f}"``."""
    for start in range(0, len(columns[0]), _MARK_BLOCK):
        cells = [c[start : start + _MARK_BLOCK].tolist() for c in columns]
        fh.write("\n".join([template] * len(cells[0])) % tuple(chain(*zip(*cells))) + "\n")


def _svg_grid(path, colors: np.ndarray, overlay: tuple | None = None) -> None:
    """Write an SVG whose rows of colored cells come from a (r, r) index grid.

    ``colors`` holds palette strings; row 0 is the bottom of the region, so
    rows are flipped into screen coordinates here. Each maximal run of one
    color within a row is one rectangle. ``overlay`` is the template and
    columns of marks drawn over the grid, as ``_point_overlay`` returns.
    """
    res, width = colors.shape
    cell = CANVAS / res
    # a run starts at each row's first cell and wherever a cell's color
    # differs from its left neighbour's; it stops where the next run of its
    # row starts, or at the row's end
    starts = np.ones(colors.shape, dtype=bool)
    np.not_equal(colors[:, 1:], colors[:, :-1], out=starts[:, 1:])
    rows, cols = np.nonzero(starts)
    stops = np.full(len(cols), width)
    same_row = rows[1:] == rows[:-1]
    stops[:-1][same_row] = cols[1:][same_row]
    template = (
        f'<rect x="%.2f" y="%.2f" width="%.2f" height="{cell + 0.01:.2f}" fill="%s"/>'
    )
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
            f'viewBox="0 0 {CANVAS} {CANVAS}">\n'
        )
        _write_marks(fh, template, cols * cell, (res - 1 - rows) * cell,
                     (stops - cols) * cell, colors[rows, cols])
        if overlay is not None:
            _write_marks(fh, *overlay)
        fh.write("</svg>\n")


def _point_overlay(region, points: np.ndarray, labels: np.ndarray) -> tuple:
    """The circle template and its columns (x, y, fill) for ``_write_marks``."""
    xmin, xmax, ymin, ymax = region
    cx = (points[:, 0] - xmin) / (xmax - xmin) * CANVAS
    cy = (1.0 - (points[:, 1] - ymin) / (ymax - ymin)) * CANVAS
    fills = np.array(CLASS_PALETTE)[labels.astype(np.int64) % len(CLASS_PALETTE)]
    template = (
        '<circle cx="%.2f" cy="%.2f" r="2.5" fill="%s" stroke="#222222" stroke-width="0.6"/>'
    )
    return template, cx, cy, fills


def plot_decision_boundary(
    ens: EnsembleModel,
    region,
    resolution: int,
    path,
    points: np.ndarray | None = None,
    labels: np.ndarray | None = None,
) -> None:
    """Rasterize the ensemble decision over a 2D box; optional data overlay.

    The grid is scored through ``score_chunks``, so a fine grid holds one
    chunk's posteriors at a time.
    """
    first = ens.parties[0].classifier
    if getattr(first, "dim", 2) != 2:
        raise ValueError("decision boundary plots need 2D features")
    xs, ys = _grid_centers(region, resolution)
    gx, gy = np.meshgrid(xs, ys)
    queries = np.column_stack([gx.ravel(), gy.ravel()])
    grid = np.concatenate([decide(om) for _, om in score_chunks(ens, queries)])
    grid = grid.reshape(resolution, resolution)
    colors = np.empty(grid.shape, dtype=object)
    for k in np.unique(grid):
        colors[grid == k] = class_color(int(k))
    overlay = None
    if points is not None and labels is not None:
        overlay = _point_overlay(region, np.asarray(points), np.asarray(labels))
    _svg_grid(path, colors, overlay)


def plot_density(estimator, region, resolution: int, path) -> None:
    """Log-density heatmap over a 2D box; floored cells render darkest.

    The grid is scored as a one-column ``log_density_table``, whose row
    spans share a fine grid among the CPUs.
    """
    xs, ys = _grid_centers(region, resolution)
    gx, gy = np.meshgrid(xs, ys)
    queries = np.column_stack([gx.ravel(), gy.ravel()])
    logd = log_density_table([estimator], queries).reshape(resolution, resolution)
    lo, hi = float(logd.min()), float(logd.max())
    span = hi - lo
    t = np.zeros_like(logd) if span == 0 else (logd - lo) / span
    # np.rint rounds half to even, as Python's round does
    code = np.zeros(logd.shape, dtype=np.int64)
    for a, b in zip(DENSITY_LOW, DENSITY_HIGH):
        code = code << 8 | np.rint(a + t * (b - a)).astype(np.int64)
    distinct, cell_index = np.unique(code, return_inverse=True)
    names = np.array([f"#{c:06x}" for c in distinct], dtype=object)
    _svg_grid(path, names[cell_index].reshape(logd.shape))
