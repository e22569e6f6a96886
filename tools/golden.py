"""Byte-compare the CLI outputs of two densemble checkouts.

    python tools/golden.py PARENT_ROOT CHANGE_ROOT OUT

Runs one fixed set of ``densemble`` commands against the ``src`` of each
checkout, with one BLAS thread, in ``OUT/parent`` and ``OUT/change``. Every
command's printed output is kept next to its artifacts. Then every file is
compared byte for byte, except ``metrics.json``, whose ``timings`` differ
from run to run. Exits 1 if a command fails, or if a file differs or exists
on one side only. Under each CSV that differs, it says whether every
integer column (labels, indices, steps) is equal, and gives the largest
absolute difference in each other numeric column, so a deliberate bit move
reads as "labels equal, |delta| <= x" straight from the output. Under each
JSON file that differs (a model file, say), it says whether the keys, every
``label_space`` and every array's shape are equal, and gives the largest
absolute difference in each array, so a deliberate parameter move reads the
same way.

The configs that set calibration or estimator fields are written once to
``OUT/configs`` from PARENT_ROOT's presets, so both sides read the same
inputs. ``toy3-narrow`` (bandwidth 0.03) drops over 90 % of the kernel
terms below the exp cutoff and puts a few per query in the subnormal range,
so its scoring and density plot cover the exact KDE tail's sparse case.
``toy3-mixed`` gives toy3's third party a GMM and calibrates with
``update_density``, clipping and noise, so the flat gradient mixes KDE
parties (no density block) with a GMM party; ``splitD-density-eval`` loads
GMM files written after density updates and scores queries with them.
``splitD-density-all`` updates the GMMs with ``density_scope`` "all" and no
clipping, so every batch row feeds every mixture's gradient.
``splitD-mixed-shapes`` gives parties 1 and 4 three-component mixtures and
updates densities with clipping and noise, so two stacks of mixtures (three
and four components) interleave in the flat gradient.
``splitD-mixed-classifiers`` makes parties 1 and 4 MLPs with 16 hidden units
and updates densities with clipping and noise: the five softmax parties
train in lockstep as one stack and the two MLPs as another, and the two
classifier stacks interleave in the flat gradient.
"""

from __future__ import annotations

import csv
import filecmp
import json
import os
import subprocess
import sys

DENSITY_CLIP = {
    "steps": 300,
    "update_density": True,
    "clip": {"clip_norm": 1.0, "noise_sigma": 0.1},
}

# config name -> (preset, calibration block or None, {party: {block: fields}}),
# where a block is "classifier" or "estimator"
CONFIGS = {
    "toy3-raw": ("toy3", {"steps": 300}, {}),
    "splitD-density": ("splitD", DENSITY_CLIP, {}),
    "splitD-density-all": (
        "splitD", {"steps": 300, "update_density": True, "density_scope": "all"}, {}
    ),
    "splitA": ("splitA", {"steps": 300}, {}),
    "splitC": ("splitC", {"steps": 300}, {}),
    "toy3-narrow": ("toy3", None, {j: {"estimator": {"bandwidth": 0.03}} for j in range(3)}),
    "toy3-mixed": ("toy3", DENSITY_CLIP, {2: {"estimator": {"type": "gmm", "components": 4}}}),
    "splitD-mixed-shapes": (
        "splitD", DENSITY_CLIP, {j: {"estimator": {"components": 3}} for j in (1, 4)}
    ),
    "splitD-mixed-classifiers": (
        "splitD", DENSITY_CLIP, {j: {"classifier": {"type": "mlp", "hidden": 16}} for j in (1, 4)}
    ),
}

COMMANDS = {
    "toy3-seed0": ["train-local", "--config", "toy3", "--seed", "0", "--out", "toy3-seed0"],
    "toy3-seed1": ["train-local", "--config", "toy3", "--seed", "1", "--out", "toy3-seed1"],
    "splitB": ["train-local", "--config", "splitB", "--out", "splitB"],
    "toy3-raw": [
        "calibrate", "--config", "../configs/toy3-raw.json", "--from-raw",
        "--out", "toy3-raw",
    ],
    "splitD-density": [
        "calibrate", "--config", "../configs/splitD-density.json",
        "--out", "splitD-density",
    ],
    "splitD-density-all": [
        "calibrate", "--config", "../configs/splitD-density-all.json",
        "--out", "splitD-density-all",
    ],
    "splitA": ["calibrate", "--config", "../configs/splitA.json", "--out", "splitA"],
    "splitC": ["calibrate", "--config", "../configs/splitC.json", "--out", "splitC"],
    "toy3-mixed": [
        "calibrate", "--config", "../configs/toy3-mixed.json", "--out", "toy3-mixed",
    ],
    "splitD-mixed-shapes": [
        "calibrate", "--config", "../configs/splitD-mixed-shapes.json",
        "--out", "splitD-mixed-shapes",
    ],
    "splitD-mixed-classifiers": [
        "calibrate", "--config", "../configs/splitD-mixed-classifiers.json",
        "--out", "splitD-mixed-classifiers",
    ],
    "gen-data": ["gen-data", "--seed", "7", "--n", "3000", "--out", "queries.csv"],
    "splitD-density-eval": [
        "eval-zeroshot", "--ensemble", "splitD-density/ensemble.json",
        "--data", "queries.csv", "--out", "splitD-density_predictions.csv",
    ],
    "eval-zeroshot": [
        "eval-zeroshot", "--ensemble", "toy3-seed0/ensemble.json",
        "--data", "queries.csv", "--out", "queries_predictions.csv",
    ],
    "plot-boundary": [
        "plot", "--ensemble", "toy3-seed0/ensemble.json",
        "--data", "toy3-seed0/test.csv", "--resolution", "100", "--out", "boundary.svg",
    ],
    "plot-density": [
        "plot", "--ensemble", "toy3-seed0/ensemble.json", "--density", "0",
        "--resolution", "150", "--out", "density0.svg",
    ],
    "sweep": ["sweep", "--config", "toy3", "--seeds", "2", "--out", "sweep"],
    "toy3-narrow": [
        "train-local", "--config", "../configs/toy3-narrow.json", "--out", "toy3-narrow",
    ],
    "toy3-narrow-eval": [
        "eval-zeroshot", "--ensemble", "toy3-narrow/ensemble.json",
        "--data", "queries.csv", "--out", "toy3-narrow_predictions.csv",
    ],
    "toy3-narrow-density": [
        "plot", "--ensemble", "toy3-narrow/ensemble.json", "--density", "1",
        "--resolution", "150", "--out", "toy3-narrow-density1.svg",
    ],
}

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def write_configs(parent_root: str, out: str) -> None:
    os.makedirs(os.path.join(out, "configs"), exist_ok=True)
    for name, (preset, calibration, parties) in CONFIGS.items():
        doc = read_preset(parent_root, preset)
        if calibration is not None:
            doc["calibration"] = calibration
        for j, blocks in parties.items():
            for block, fields in blocks.items():
                doc["parties"][j][block].update(fields)
        with open(os.path.join(out, "configs", f"{name}.json"), "w") as fh:
            json.dump(doc, fh, indent=2)


def read_preset(root: str, preset: str) -> dict:
    with open(os.path.join(root, "src/densemble/presets", f"{preset}.json")) as fh:
        return json.load(fh)


def run_side(root: str, workdir: str) -> list[str]:
    """Run every command in ``workdir`` against ``root``; one message per failure."""
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"), **ONE_THREAD)
    failed = []
    for name, args in COMMANDS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "densemble.cli", *args],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        with open(os.path.join(workdir, f"{name}.stdout"), "w") as fh:
            fh.write(proc.stdout)
        if proc.returncode != 0:
            failed.append(f"{name} (exit {proc.returncode}): {proc.stderr.strip()}")
    return failed


def files_under(top: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), top)
        for d, _, names in os.walk(top)
        for f in names
    }


def _parses(cells: list[str], kind) -> bool:
    try:
        for c in cells:
            kind(c)
    except ValueError:
        return False
    return True


def explain_csv(path_a: str, path_b: str) -> list[str]:
    """One line per finding on how two CSV files with one header row differ."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return ["headers differ"]
    if len(rows_a) != len(rows_b):
        return [f"{len(rows_a) - 1} rows against {len(rows_b) - 1}"]
    header, body_a, body_b = rows_a[0], rows_a[1:], rows_b[1:]
    if any(len(r) != len(header) for r in body_a + body_b):
        return ["ragged rows"]
    equal, unequal, deltas = [], [], []
    for k, name in enumerate(header):
        pairs = [(ra[k], rb[k]) for ra, rb in zip(body_a, body_b)]
        cells = [c for pair in pairs for c in pair if c != ""]
        same = all(a == b for a, b in pairs)
        if _parses(cells, int) or not _parses(cells, float):
            (equal if same else unequal).append(name)
        elif any((a == "") != (b == "") for a, b in pairs):
            unequal.append(name)
        else:
            worst = max((abs(float(a) - float(b)) for a, b in pairs if a != ""), default=0.0)
            deltas.append(f"{name} {worst:.3g}")
    lines = []
    if equal:
        lines.append(f"equal: {', '.join(equal)}")
    if unequal:
        lines.append(f"NOT EQUAL: {', '.join(unequal)}")
    if deltas:
        lines.append(f"max |delta|: {', '.join(deltas)}")
    return lines


def _leaves(doc, path: str = ""):
    """(dotted path, value) for every leaf of a JSON document; an array object
    ``{"shape": [...], "data": [...]}`` is one leaf, as is any list."""
    if isinstance(doc, dict) and set(doc) != {"shape", "data"}:
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    else:
        yield path, doc


def explain_json(path_a: str, path_b: str) -> list[str]:
    """One line per finding on how two JSON documents differ."""
    with open(path_a) as fa, open(path_b) as fb:
        leaves_a, leaves_b = dict(_leaves(json.load(fa))), dict(_leaves(json.load(fb)))
    if leaves_a.keys() != leaves_b.keys():
        return ["keys differ"]
    equal, unequal, deltas = ["keys"], [], []
    arrays = [k for k in leaves_a if all(isinstance(d[k], dict) for d in (leaves_a, leaves_b))]
    if all(leaves_a[k]["shape"] == leaves_b[k]["shape"] for k in arrays):
        equal.append("shapes")
        for k in arrays:
            a, b = leaves_a[k]["data"], leaves_b[k]["data"]
            worst = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
            deltas.append(f"{k} {worst:.3g}")
    else:
        unequal.append("shapes")
    for k in leaves_a:
        if k not in arrays and leaves_a[k] != leaves_b[k]:
            unequal.append(k)
        elif k.endswith("label_space"):
            equal.append(k)
    lines = [f"equal: {', '.join(equal)}"]
    if unequal:
        lines.append(f"NOT EQUAL: {', '.join(unequal)}")
    if deltas:
        lines.append(f"max |delta|: {', '.join(deltas)}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python tools/golden.py PARENT_ROOT CHANGE_ROOT OUT", file=sys.stderr)
        return 2
    parent_root, change_root, out = argv
    write_configs(parent_root, out)
    sides = {"parent": parent_root, "change": change_root}
    failed = []
    for side, root in sides.items():
        print(f"running {side}: {root}", flush=True)
        failed += [f"{side}: {msg}" for msg in run_side(root, os.path.join(out, side))]
    a, b = (os.path.join(out, side) for side in sides)
    files_a, files_b = files_under(a), files_under(b)
    compared = sorted(p for p in files_a & files_b if os.path.basename(p) != "metrics.json")
    differ = [
        p for p in compared
        if not filecmp.cmp(os.path.join(a, p), os.path.join(b, p), shallow=False)
    ]
    one_side = sorted(files_a ^ files_b)
    print(f"{len(compared)} files compared, {len(differ)} differ, {len(one_side)} on one side only")
    for msg in failed:
        print(f"FAILED {msg}")
    for p in differ:
        print(f"DIFFERS {p}")
        explain = {".csv": explain_csv, ".json": explain_json}.get(os.path.splitext(p)[1])
        if explain is not None:
            for line in explain(os.path.join(a, p), os.path.join(b, p)):
                print(f"    {line}")
    for p in one_side:
        print(f"ONE SIDE {p}")
    return 1 if failed or differ or one_side else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
