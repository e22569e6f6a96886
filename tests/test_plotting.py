"""SVG rendering of decision grids and density heatmaps."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import ConstantClassifier, ConstantDensity
from densemble.classifiers import SoftmaxRegression
from densemble.density import kde_fit
from densemble.ensemble import PartyModel, build_ensemble
from densemble.harness import load_config, prepare_data, stream_seeds
from densemble.serialize import save_ensemble
from densemble.plotting import (
    DENSITY_HIGH,
    DENSITY_LOW,
    _grid_centers,
    _svg_grid,
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
    _svg_grid(path, colors)


@pytest.mark.parametrize("resolution", [1, 7, 60])
def test_density_svg_bytes_match_per_cell_reference(tmp_path, resolution):
    rng = np.random.default_rng(resolution)
    model = kde_fit(rng.normal(size=(200, 2)) * 1.5, 0.3)
    region = (-6.0, 6.0, -6.0, 6.0)
    plot_density(model, region, resolution, tmp_path / "new.svg")
    reference_plot_density(model, region, resolution, tmp_path / "ref.svg")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


# Run the CLI in a child and print the child's own peak RSS (KiB on Linux).
MAXRSS_CHILD = (
    "import resource, sys\n"
    "from densemble import cli\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


@pytest.mark.parametrize("args", [[], ["--density", "0"]], ids=["boundary", "density"])
def test_plot_at_resolution_400_stays_under_300_mb(tmp_path, args):
    # toy3's shards: 160000 grid queries against about 560 points per party
    # would be a 717 MB (queries x points) array if the kernel formed one
    cfg = load_config("toy3")
    _, _, shards = prepare_data(cfg, stream_seeds(0, len(cfg.parties)))
    rng = np.random.default_rng(0)
    parties = [
        PartyModel(
            SoftmaxRegression.init_random(2, shard.label_space, rng),
            kde_fit(shard.features, pcfg.estimator.bandwidth),
            len(shard),
        )
        for pcfg, shard in zip(cfg.parties, shards)
    ]
    manifest = save_ensemble(build_ensemble(parties, cfg.data.num_classes), tmp_path / "ens")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    argv = ["plot", "--ensemble", manifest, "--resolution", "400", *args]
    proc = subprocess.run(
        [sys.executable, "-c", MAXRSS_CHILD, *argv, "--out", str(tmp_path / "plot.svg")],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        check=True,
    )
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb < 300, peak_mb
