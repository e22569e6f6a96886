"""SVG rendering of decision grids and density heatmaps."""

import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import (
    ConstantClassifier,
    ConstantDensity,
    assert_reaped,
    cli_peak_rss_mb,
    toy3_untrained_manifest,
)
from densemble import ensemble, plotting, workers
from densemble.classifiers import SoftmaxRegression
from densemble.density import kde_fit
from densemble.ensemble import PartyModel, build_ensemble
from densemble.plotting import (
    CANVAS,
    DENSITY_HIGH,
    DENSITY_LOW,
    _grid_centers,
    _point_overlay,
    _svg_grid,
    _write_marks,
    class_color,
    plot_decision_boundary,
    plot_density,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def constant_ensemble():
    party = PartyModel(ConstantClassifier([0.2, 0.8], (0, 1)), ConstantDensity(0.0), 1)
    return build_ensemble([party], num_classes=2)


def rects(path):
    root = ET.parse(path).getroot()
    return root.findall(f"{SVG_NS}rect")


def circles(path):
    root = ET.parse(path).getroot()
    return root.findall(f"{SVG_NS}circle")


def test_constant_classifier_single_color(tmp_path):
    path = tmp_path / "flat.svg"
    plot_decision_boundary(constant_ensemble(), (-1, 1, -1, 1), 16, path)
    fills = {r.get("fill") for r in rects(path)}
    assert len(fills) == 1
    # one run per row
    assert len(rects(path)) == 16


def test_resolution_one_single_cell(tmp_path):
    path = tmp_path / "one.svg"
    plot_decision_boundary(constant_ensemble(), (-1, 1, -1, 1), 1, path)
    assert len(rects(path)) == 1


def test_boundary_with_overlay_points(tmp_path):
    path = tmp_path / "pts.svg"
    pts = np.array([[0.0, 0.0], [0.5, 0.5]])
    labels = np.array([0, 1])
    plot_decision_boundary(constant_ensemble(), (-1, 1, -1, 1), 8, path, pts, labels)
    assert len(circles(path)) == 2


def test_boundary_grid_is_valid_svg_at_high_resolution(tmp_path):
    rng = np.random.default_rng(0)
    parties = [
        PartyModel(
            ConstantClassifier([0.7, 0.3], (0, 1)), kde_fit(rng.normal(size=(10, 2)) - 2.0, 0.8), 5
        ),
        PartyModel(
            ConstantClassifier([0.1, 0.9], (0, 1)), kde_fit(rng.normal(size=(10, 2)) + 2.0, 0.8), 5
        ),
    ]
    ens = build_ensemble(parties, num_classes=2)
    path = tmp_path / "grid.svg"
    plot_decision_boundary(ens, (-5, 5, -5, 5), 100, path)
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    fills = {r.get("fill") for r in rects(path)}
    assert len(fills) == 2


def test_density_heatmap_radially_symmetric(tmp_path):
    kde = kde_fit(np.zeros((1, 2)), 0.5)
    path = tmp_path / "peak.svg"
    plot_density(kde, (-2, 2, -2, 2), 21, path)
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    # rebuild the color grid from rect runs and check x/y mirror symmetry
    res, cell = 21, 480 / 21
    grid = {}
    for r in rects(path):
        row = int(round((480 - cell - float(r.get("y"))) / cell))
        col0 = int(round(float(r.get("x")) / cell))
        ncols = int(round(float(r.get("width")) / cell))
        for c in range(col0, col0 + ncols):
            grid[(row, c)] = r.get("fill")
    assert len(grid) == res * res
    for i in range(res):
        for j in range(res):
            assert grid[(i, j)] == grid[(j, i)]
            assert grid[(i, j)] == grid[(res - 1 - i, j)]


def test_density_floor_renders_darkest(tmp_path):
    kde = kde_fit(np.zeros((1, 2)), 0.05)
    path = tmp_path / "floor.svg"
    plot_density(kde, (0, 200, 0, 200), 10, path)
    fills = [r.get("fill") for r in rects(path)]
    # every cell in this region is floored, so all render the ramp minimum
    assert set(fills) == {"#0d0841"}


def test_near_uniform_density_low_variance(tmp_path):
    est = ConstantDensity(-3.0)
    path = tmp_path / "flat.svg"
    plot_density(est, (-1, 1, -1, 1), 12, path)
    fills = {r.get("fill") for r in rects(path)}
    assert len(fills) == 1


def test_non_2d_features_rejected(tmp_path):
    class ThreeD(ConstantClassifier):
        def __init__(self):
            super().__init__([1.0], (0,))
            self.dim = 3

    ens = build_ensemble([PartyModel(ThreeD(), ConstantDensity(0.0), 1)], num_classes=1)
    with pytest.raises(ValueError, match="2D"):
        plot_decision_boundary(ens, (-1, 1, -1, 1), 4, tmp_path / "x.svg")


def test_region_and_resolution_validation(tmp_path):
    with pytest.raises(ValueError):
        plot_decision_boundary(constant_ensemble(), (1, 1, -1, 1), 4, tmp_path / "x.svg")
    with pytest.raises(ValueError):
        plot_decision_boundary(constant_ensemble(), (-1, 1, -1, 1), 0, tmp_path / "x.svg")


def reference_plot_density(estimator, region, resolution, path):
    """The per-cell colour loop that plot_density vectorises."""
    xs, ys = _grid_centers(region, resolution)
    gx, gy = np.meshgrid(xs, ys)
    queries = np.column_stack([gx.ravel(), gy.ravel()])
    logd = estimator.log_density(queries).reshape(resolution, resolution)
    lo, hi = float(logd.min()), float(logd.max())
    span = hi - lo
    t = np.zeros_like(logd) if span == 0 else (logd - lo) / span
    colors = np.empty(logd.shape, dtype=object)
    for row in range(resolution):
        for col in range(resolution):
            rgb = tuple(
                int(round(a + t[row, col] * (b - a)))
                for a, b in zip(DENSITY_LOW, DENSITY_HIGH)
            )
            colors[row, col] = f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"
    reference_svg_grid(path, colors)


@pytest.mark.parametrize("resolution", [1, 7, 60])
def test_density_svg_bytes_match_per_cell_reference(tmp_path, resolution):
    rng = np.random.default_rng(resolution)
    model = kde_fit(rng.normal(size=(200, 2)) * 1.5, 0.3)
    region = (-6.0, 6.0, -6.0, 6.0)
    plot_density(model, region, resolution, tmp_path / "new.svg")
    reference_plot_density(model, region, resolution, tmp_path / "ref.svg")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


@pytest.mark.parametrize("cpus, forked", [(1, 0), (2, 1), (3, 2)])
def test_density_plot_in_forked_row_spans_matches_per_cell_reference(
    tmp_path, monkeypatch, forks, cpus, forked
):
    # a grid of at least the fork bound is one estimator's column cut into
    # one row span per CPU, all but the first scored in children
    monkeypatch.setattr(workers, "cpu_count", lambda: cpus)
    rng = np.random.default_rng(4)
    model = kde_fit(rng.normal(size=(200, 2)) * 1.5, 0.3)
    region = (-6.0, 6.0, -6.0, 6.0)
    resolution = int(np.ceil(np.sqrt(ensemble._FORK_ROWS)))
    plot_density(model, region, resolution, tmp_path / "new.svg")
    assert len(forks) == forked
    assert_reaped(forks)
    reference_plot_density(model, region, resolution, tmp_path / "ref.svg")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def reference_svg_grid(path, colors, overlay=""):
    """The per-cell run scan and per-rectangle f-strings that _svg_grid
    replaces with whole-array passes."""
    res = colors.shape[0]
    cell = CANVAS / res
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">'
    ]
    for row in range(res):
        screen_y = (res - 1 - row) * cell
        line = colors[row]
        start = 0
        for i in range(1, len(line) + 1):
            if i == len(line) or line[i] != line[start]:
                parts.append(
                    f'<rect x="{start * cell:.2f}" y="{screen_y:.2f}" '
                    f'width="{(i - start) * cell:.2f}" height="{cell + 0.01:.2f}" '
                    f'fill="{line[start]}"/>'
                )
                start = i
    if overlay:
        parts.append(overlay)
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def reference_point_overlay(region, points, labels):
    """One f-string per point, as _point_overlay formatted them before it
    went column-wise."""
    xmin, xmax, ymin, ymax = region
    marks = []
    for (px, py), label in zip(points, labels):
        cx = (px - xmin) / (xmax - xmin) * CANVAS
        cy = (1.0 - (py - ymin) / (ymax - ymin)) * CANVAS
        marks.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" '
            f'fill="{class_color(int(label))}" stroke="#222222" stroke-width="0.6"/>'
        )
    return "\n".join(marks)


def overlay_text(overlay) -> str:
    """The lines ``_write_marks`` writes for ``_point_overlay``'s marks,
    without the last newline."""
    fh = io.StringIO()
    _write_marks(fh, *overlay)
    return fh.getvalue().removesuffix("\n")


def test_point_overlay_bytes_match_per_point_reference(monkeypatch):
    rng = np.random.default_rng(3)
    region = (-2.0, 3.0, -1.5, 2.5)
    points = np.concatenate(
        [
            rng.uniform(-4.0, 5.0, size=(300, 2)),  # inside and outside, negative too
            [[-2.0, 2.5], [-2.00001, 2.50001], [-2.0 - 1e-4, 2.5 + 1e-4]],  # round to -0.00
            [[3.0, -1.5], [-7.25, -9.5]],
        ]
    )
    labels = np.concatenate([rng.integers(0, 25, 300), [10, 19, 0, 11, 9]])
    got = overlay_text(_point_overlay(region, points, labels))
    assert got == reference_point_overlay(region, points, labels)
    assert 'cx="-0.00"' in got and 'cy="-0.00"' in got
    assert class_color(10) == class_color(0) and f'fill="{class_color(19)}"' in got
    assert overlay_text(_point_overlay(region, points[:0], labels[:0])) == ""
    # 305 points in 76 blocks of 4 and one of 1
    monkeypatch.setattr(plotting, "_MARK_BLOCK", 4)
    assert overlay_text(_point_overlay(region, points, labels)) == got


@pytest.mark.parametrize("resolution", [1, 2, 9, 64])
def test_svg_grid_bytes_match_per_cell_reference(tmp_path, monkeypatch, resolution):
    rng = np.random.default_rng(resolution)
    # long runs and single cells: smoothed random labels, a few flipped
    grid = np.cumsum(rng.random((resolution, resolution)) < 0.15, axis=1) % 3
    grid[rng.random(grid.shape) < 0.05] = 7
    colors = np.empty(grid.shape, dtype=object)
    for k in np.unique(grid):
        colors[grid == k] = class_color(int(k))
    overlay = _point_overlay((-1, 1, -1, 1), rng.normal(size=(5, 2)), np.arange(5))
    blocks = (plotting._MARK_BLOCK, 7)  # marks in one block, and in blocks of 7
    for extra in (None, overlay):
        text = "" if extra is None else overlay_text(extra)
        reference_svg_grid(tmp_path / "ref.svg", colors, text)
        for block in blocks:
            monkeypatch.setattr(plotting, "_MARK_BLOCK", block)
            _svg_grid(tmp_path / "new.svg", colors, extra)
            assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


@pytest.mark.parametrize("args", [[], ["--density", "0"]], ids=["boundary", "density"])
def test_plot_at_resolution_400_stays_under_300_mb(tmp_path, args):
    # toy3's shards: 160000 grid queries against about 560 points per party
    # would be a 717 MB (queries x points) array if the kernel formed one
    manifest = toy3_untrained_manifest(tmp_path / "ens")
    argv = ["plot", "--ensemble", manifest, "--resolution", "400", *args]
    peak_mb = cli_peak_rss_mb(argv + ["--out", str(tmp_path / "plot.svg")])
    assert peak_mb < 300, peak_mb


def test_boundary_plot_in_chunks_has_the_bytes_of_one_batch(tmp_path, monkeypatch):
    # the 10 x 10 grid is one chunk by default, 15 chunks of 7 rows patched
    rng = np.random.default_rng(3)
    parties = [
        PartyModel(
            SoftmaxRegression.init_random(2, space, rng),
            kde_fit(rng.normal(size=(20, 2)) + shift, 0.5),
            20,
        )
        for space, shift in (((0, 1), -1.0), ((1, 2), 1.0))
    ]
    ens = build_ensemble(parties, num_classes=3)
    region = (-3.0, 3.0, -3.0, 3.0)
    plot_decision_boundary(ens, region, 10, tmp_path / "whole.svg")
    monkeypatch.setattr(ensemble, "SCORE_CHUNK_ROWS", 7)
    plot_decision_boundary(ens, region, 10, tmp_path / "chunked.svg")
    assert len({r.get("fill") for r in rects(tmp_path / "whole.svg")}) > 1
    assert (tmp_path / "chunked.svg").read_bytes() == (tmp_path / "whole.svg").read_bytes()
