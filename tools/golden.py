"""Byte-compare the CLI outputs of two densemble checkouts.

    python tools/golden.py PARENT_ROOT CHANGE_ROOT OUT

Runs one fixed set of ``densemble`` commands against the ``src`` of each
checkout, with one BLAS thread, in ``OUT/parent`` and ``OUT/change``. Every
command's printed output is kept next to its artifacts. Then every file is
compared byte for byte, except ``metrics.json``, whose ``timings`` differ
from run to run: both sides are parsed, ``timings`` is dropped, and the
rest must hold the same values under the same keys in the same order.
Each side then reruns ``toy3-seed0``, ``gen-data-20k``, ``eval-zeroshot-20k``,
``plot-boundary-400`` and ``plot-density`` in ``OUT/<side>-one-cpu``, each
command's process pinned to one CPU with ``os.sched_setaffinity`` (the pass
is skipped where that call is missing), and every file there must equal the
same side's all-CPU file. On one CPU, local training runs every lockstep
group in one process, and a log-density table scores every party's whole
column in one process, where more CPUs fork parties and, for the density
plot's lone estimator, row spans; so the pass compares both forked paths
with their in-process fallbacks.
Each side also runs a fixed set of commands that must fail (``MUST_FAIL``):
``eval-zeroshot`` on copies of the parent's toy3-seed0 ensemble, written to
``OUT/configs`` with one fault in ``party_0.json`` each (no ``classifier.W``,
an unknown ``estimator`` key, a list where ``estimator.bandwidth`` belongs,
a ``classifier.b`` shape that does not hold its data), and ``train-local``
on a toy3 config with an unknown ``data`` key. Each must exit 2, and its
stderr, kept as ``<name>.stderr``, is compared byte for byte like every
other file; the files it names lie under ``OUT/configs`` on both sides.
Exits 1 if a command fails (or a must-fail command does not exit 2), if a
file differs or exists on one side only, or if a one-CPU file differs from
its all-CPU twin. Under each CSV
that differs, it says whether every integer column
(labels, indices, steps) is equal, and gives the largest
absolute difference in each other numeric column, so a deliberate bit move
reads as "labels equal, |delta| <= x" straight from the output. Under each
JSON file that differs (a model file, say), it says whether the keys, every
``label_space`` and every array's shape are equal, and gives the largest
absolute difference in each array, so a deliberate parameter move reads the
same way.

The configs that set calibration or estimator fields are written once to
``OUT/configs`` from PARENT_ROOT's presets, so both sides read the same
inputs. ``toy3-narrow`` (bandwidth 0.03) puts over 90 % of the kernel
terms below the KDE kernel's exp clamp (-700 after the row max), where each
counts as exp(-700), so its scoring and density plot cover the kernel
tail's sparse case; ``toy3-wide`` (bandwidth 0.3) leaves nearly every
kernel term above the clamp, its dense case.
``toy3-mixed`` gives toy3's third party a GMM and calibrates with
``update_density``, clipping and noise, so the flat gradient mixes KDE
parties (no density block) with a GMM party; ``splitD-density-eval`` loads
GMM files written after density updates and scores queries with them, and
``splitD-density-plot`` plots party 0's mixture density from the same files
on a 150 x 150 grid. ``splitD-density-all`` updates the GMMs with
``density_scope`` "all" and no clipping, so every batch row feeds every
mixture's gradient.
``splitD-mixed-shapes`` gives parties 1 and 4 three-component mixtures and
updates densities with clipping and noise, so two stacks of mixtures (three
and four components) interleave in the flat gradient.
``splitD-mixed-classifiers`` makes parties 1 and 4 MLPs with 16 hidden units
and updates densities with clipping and noise: the five softmax parties
train in lockstep as one stack and the two MLPs as another, and the two
classifier stacks interleave in the flat gradient.
``splitD-nine`` gives party 0 the label space 0-8 and a nine-component
mixture (every party takes a fifth of each of its classes, so that no class
is over-drawn) and updates densities with clipping and noise, so that its
softmax and its mixture's logsumexp reduce axes of 9, wider than
``densemble._reduce`` chains.
``partition`` loads a partition spec, written to ``OUT/configs`` from the
toy3 preset's ``partition`` block, and splits the generated queries into
shard CSVs with it.
``queries.csv`` (3000 rows) is one scoring chunk; ``queries20k.csv`` (20000
rows) is several (``ensemble.SCORE_CHUNK_ROWS``), so ``eval-zeroshot-20k``
and ``splitD-density-eval-20k`` cover predictions written chunk by chunk,
and ``plot-boundary-400`` a 160000-cell grid scored chunk by chunk under an
overlay of those rows. ``queries-crlf.csv``, written to ``OUT/configs``
from a seeded ``random.Random``, ends its lines with CRLF and holds blank
lines, whitespace-only lines and rows padded with spaces and tabs, which
the data reader skips or strips; ``eval-zeroshot-crlf`` scores it and
``partition-crlf`` splits it. ``queries-far.csv``, written the same way,
holds queries among the blobs, whose kernel terms include exp inputs in
[-708.4, -700) (normal exps the clamp replaces) and below; queries 8 to
1e100 from the data, whose row max is far below 0; and queries with a
coordinate of +-1e154 or +-1e200, whose every kernel exponent overflows to
-inf, so their rows stay at the floor. ``eval-zeroshot-far`` scores it with toy3 and
``toy3-narrow-eval-far`` with ``toy3-narrow``.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
import random
import shutil
import subprocess
import sys

DENSITY_CLIP = {
    "steps": 300,
    "update_density": True,
    "clip": {"clip_norm": 1.0, "noise_sigma": 0.1},
}

# config name -> (preset, calibration block or None, {party: {block: fields}}),
# where a block is "classifier", "estimator" or "partition" (the party's
# entry in the partition spec)
CONFIGS = {
    "toy3-raw": ("toy3", {"steps": 300}, {}),
    "splitD-density": ("splitD", DENSITY_CLIP, {}),
    "splitD-density-all": (
        "splitD", {"steps": 300, "update_density": True, "density_scope": "all"}, {}
    ),
    "splitA": ("splitA", {"steps": 300}, {}),
    "splitC": ("splitC", {"steps": 300}, {}),
    "toy3-narrow": ("toy3", None, {j: {"estimator": {"bandwidth": 0.03}} for j in range(3)}),
    "toy3-wide": ("toy3", None, {j: {"estimator": {"bandwidth": 0.3}} for j in range(3)}),
    "toy3-mixed": ("toy3", DENSITY_CLIP, {2: {"estimator": {"type": "gmm", "components": 4}}}),
    "splitD-mixed-shapes": (
        "splitD", DENSITY_CLIP, {j: {"estimator": {"components": 3}} for j in (1, 4)}
    ),
    "splitD-mixed-classifiers": (
        "splitD", DENSITY_CLIP, {j: {"classifier": {"type": "mlp", "hidden": 16}} for j in (1, 4)}
    ),
    "splitD-nine": (
        "splitD",
        DENSITY_CLIP,
        {
            0: {
                "partition": {"classes": list(range(9)), "fraction": 0.2},
                "estimator": {"components": 9},
            },
            **{j: {"partition": {"fraction": 0.2}} for j in range(1, 7)},
        },
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
    "splitD-nine": [
        "calibrate", "--config", "../configs/splitD-nine.json", "--out", "splitD-nine",
    ],
    "gen-data": ["gen-data", "--seed", "7", "--n", "3000", "--out", "queries.csv"],
    "partition": [
        "partition", "--data", "queries.csv", "--spec", "../configs/toy3-partition.json",
        "--out", "parts",
    ],
    "splitD-density-eval": [
        "eval-zeroshot", "--ensemble", "splitD-density/ensemble.json",
        "--data", "queries.csv", "--out", "splitD-density_predictions.csv",
    ],
    "splitD-density-plot": [
        "plot", "--ensemble", "splitD-density/ensemble.json", "--density", "0",
        "--resolution", "150", "--out", "splitD-density0.svg",
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
    "gen-data-20k": ["gen-data", "--seed", "8", "--n", "20000", "--out", "queries20k.csv"],
    "eval-zeroshot-20k": [
        "eval-zeroshot", "--ensemble", "toy3-seed0/ensemble.json",
        "--data", "queries20k.csv", "--out", "queries20k_predictions.csv",
    ],
    "splitD-density-eval-20k": [
        "eval-zeroshot", "--ensemble", "splitD-density/ensemble.json",
        "--data", "queries20k.csv", "--out", "splitD-density_predictions20k.csv",
    ],
    "plot-boundary-400": [
        "plot", "--ensemble", "toy3-seed0/ensemble.json",
        "--data", "queries20k.csv", "--resolution", "400", "--out", "boundary400.svg",
    ],
    "eval-zeroshot-crlf": [
        "eval-zeroshot", "--ensemble", "toy3-seed0/ensemble.json",
        "--data", "../configs/queries-crlf.csv", "--out", "crlf_predictions.csv",
    ],
    "partition-crlf": [
        "partition", "--data", "../configs/queries-crlf.csv",
        "--spec", "../configs/toy3-partition.json", "--out", "parts-crlf",
    ],
    "eval-zeroshot-far": [
        "eval-zeroshot", "--ensemble", "toy3-seed0/ensemble.json",
        "--data", "../configs/queries-far.csv", "--out", "far_predictions.csv",
    ],
    "sweep": ["sweep", "--config", "toy3", "--seeds", "2", "--out", "sweep"],
    "toy3-narrow": [
        "train-local", "--config", "../configs/toy3-narrow.json", "--out", "toy3-narrow",
    ],
    "toy3-narrow-eval": [
        "eval-zeroshot", "--ensemble", "toy3-narrow/ensemble.json",
        "--data", "queries.csv", "--out", "toy3-narrow_predictions.csv",
    ],
    "toy3-narrow-eval-far": [
        "eval-zeroshot", "--ensemble", "toy3-narrow/ensemble.json",
        "--data", "../configs/queries-far.csv", "--out", "toy3-narrow_far_predictions.csv",
    ],
    "toy3-narrow-density": [
        "plot", "--ensemble", "toy3-narrow/ensemble.json", "--density", "1",
        "--resolution", "150", "--out", "toy3-narrow-density1.svg",
    ],
    "toy3-wide": [
        "train-local", "--config", "../configs/toy3-wide.json", "--out", "toy3-wide",
    ],
    "toy3-wide-eval": [
        "eval-zeroshot", "--ensemble", "toy3-wide/ensemble.json",
        "--data", "queries.csv", "--out", "toy3-wide_predictions.csv",
    ],
    "toy3-wide-density": [
        "plot", "--ensemble", "toy3-wide/ensemble.json", "--density", "1",
        "--resolution", "150", "--out", "toy3-wide-density1.svg",
    ],
}

# Faults written into party_0.json of a copy of toy3-seed0's ensemble, one
# copy each in OUT/configs/<name>; each copy is scored by MUST_FAIL[name].
BAD_PARTY = {
    "bad-missing-W": lambda doc: doc["classifier"].pop("W"),
    "bad-estimator-key": lambda doc: doc["estimator"].update(extra=1),
    "bad-bandwidth-list": lambda doc: doc["estimator"].update(bandwidth=[0.1]),
    "bad-shape": lambda doc: doc["classifier"]["b"].update(shape=[7]),
}

# Commands that must exit 2 on both sides, with the same stderr.
MUST_FAIL = {
    **{
        name: [
            "eval-zeroshot", "--ensemble", f"../configs/{name}/ensemble.json",
            "--data", "queries.csv",
        ]
        for name in BAD_PARTY
    },
    "bad-config-key": ["train-local", "--config", "../configs/bad-config-key.json"],
}

# Rerun on one CPU, where training and density scoring run every job in
# one process; toy3-seed0 and gen-data-20k make the inputs of the others.
ONE_CPU = (
    "toy3-seed0", "gen-data-20k", "eval-zeroshot-20k", "plot-boundary-400", "plot-density"
)

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def write_configs(parent_root: str, out: str) -> None:
    os.makedirs(os.path.join(out, "configs"), exist_ok=True)
    for name, (preset, calibration, parties) in CONFIGS.items():
        doc = read_preset(parent_root, preset)
        if calibration is not None:
            doc["calibration"] = calibration
        for j, blocks in parties.items():
            for block, fields in blocks.items():
                if block == "partition":
                    doc["partition"]["parties"][j].update(fields)
                else:
                    doc["parties"][j][block].update(fields)
        with open(os.path.join(out, "configs", f"{name}.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
    bad = read_preset(parent_root, "toy3")
    bad["data"]["num_clases"] = 5
    with open(os.path.join(out, "configs", "bad-config-key.json"), "w") as fh:
        json.dump(bad, fh, indent=2)
    with open(os.path.join(out, "configs", "toy3-partition.json"), "w") as fh:
        json.dump(read_preset(parent_root, "toy3")["partition"], fh, indent=2)
    write_crlf_queries(os.path.join(out, "configs", "queries-crlf.csv"))
    write_far_queries(os.path.join(out, "configs", "queries-far.csv"))


def write_crlf_queries(path: str, n: int = 600) -> None:
    """A toy3-shaped data CSV with CRLF line ends: every 7th line blank,
    every 11th whitespace-only, every 5th row padded with spaces and tabs."""
    rng = random.Random(11)
    lines = ["f0,f1,label"]
    for i in range(n):
        if i % 7 == 3:
            lines.append("")
        if i % 11 == 5:
            lines.append(" \t ")
        row = f"{rng.uniform(-6, 6)!r},{rng.uniform(-6, 6)!r},{i % 5}"
        lines.append(f" \t{row}  " if i % 5 == 2 else row)
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_far_queries(path: str, n: int = 600) -> None:
    """A toy3-shaped data CSV: a third of the rows among the blobs, a third
    8 to 1e100 from the data, and a third with a coordinate of +-1e154 or
    +-1e200, whose kernel exponents overflow to -inf at toy3's bandwidths."""
    rng = random.Random(13)
    lines = ["f0,f1,label"]
    for i in range(n):
        if i % 3 == 0:
            x = [rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)]
        elif i % 3 == 1:
            angle, r = rng.uniform(0.0, 2.0 * math.pi), 10.0 ** rng.uniform(0.9, 100.0)
            x = [r * math.cos(angle), r * math.sin(angle)]
        else:
            x = [rng.uniform(-6.0, 6.0), rng.choice([-1e200, -1e154, 1e154, 1e200])]
            rng.shuffle(x)
        lines.append(f"{x[0]!r},{x[1]!r},{i % 5}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bad_parties(source: str, out: str) -> None:
    """A copy of the manifest and party files in ``source`` for each
    ``BAD_PARTY`` fault, in ``OUT/configs/<name>``, with the fault in
    ``party_0.json``; nothing where ``source`` holds no manifest."""
    if not os.path.isfile(os.path.join(source, "ensemble.json")):
        return
    for name, fault in BAD_PARTY.items():
        target = os.path.join(out, "configs", name)
        os.makedirs(target, exist_ok=True)
        for f in os.listdir(source):
            if f == "ensemble.json" or f.startswith("party_"):
                shutil.copy(os.path.join(source, f), target)
        path = os.path.join(target, "party_0.json")
        with open(path) as fh:
            doc = json.load(fh)
        fault(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def read_preset(root: str, preset: str) -> dict:
    with open(os.path.join(root, "src/densemble/presets", f"{preset}.json")) as fh:
        return json.load(fh)


def pin_to_one_cpu() -> None:
    """Restrict the calling process (a command's child, before it execs) to
    the lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_side(
    root: str, workdir: str, commands=COMMANDS, preexec_fn=None, status: int = 0
) -> list[str]:
    """Run ``commands`` (name -> argv) in ``workdir`` against ``root``, each
    child set up by ``preexec_fn``; one message per command that does not
    exit ``status``. A command that must fail keeps its stderr too."""
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"), **ONE_THREAD)
    failed = []
    for name, argv in commands.items():
        proc = subprocess.run(
            [sys.executable, "-m", "densemble.cli", *argv],
            cwd=workdir, env=env, capture_output=True, text=True, preexec_fn=preexec_fn,
        )
        with open(os.path.join(workdir, f"{name}.stdout"), "w") as fh:
            fh.write(proc.stdout)
        if status:
            with open(os.path.join(workdir, f"{name}.stderr"), "w") as fh:
                fh.write(proc.stderr)
        if proc.returncode != status:
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


def load_json(path: str):
    """A JSON file's document; a ``metrics.json`` without its ``timings``."""
    with open(path) as fh:
        doc = json.load(fh)
    if os.path.basename(path) == "metrics.json":
        doc.pop("timings", None)
    return doc


def same(path_a: str, path_b: str) -> bool:
    """Whether two files are equal: byte for byte, or for ``metrics.json``
    as untimed documents, key order included (``json.dumps`` keeps the
    order and writes a NaN as ``NaN``, which equals itself)."""
    if os.path.basename(path_a) == "metrics.json":
        return json.dumps(load_json(path_a)) == json.dumps(load_json(path_b))
    return filecmp.cmp(path_a, path_b, shallow=False)


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
    leaves_a, leaves_b = dict(_leaves(load_json(path_a))), dict(_leaves(load_json(path_b)))
    if leaves_a.keys() != leaves_b.keys():
        return ["keys differ"]
    if list(leaves_a) != list(leaves_b):
        return ["key order differs"]
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
    write_bad_parties(os.path.join(out, "parent", "toy3-seed0"), out)
    for side, root in sides.items():
        print(f"running {side}: commands that must fail", flush=True)
        workdir = os.path.join(out, side)
        failed += [
            f"{side}: {msg}" for msg in run_side(root, workdir, MUST_FAIL, status=2)
        ]
    if hasattr(os, "sched_setaffinity"):
        for side, root in sides.items():
            print(f"running {side} on one CPU", flush=True)
            workdir = os.path.join(out, f"{side}-one-cpu")
            failed += [
                f"{side} on one CPU: {msg}"
                for msg in run_side(
                    root, workdir, {n: COMMANDS[n] for n in ONE_CPU}, pin_to_one_cpu
                )
            ]
            pinned = sorted(files_under(workdir))
            unequal = [
                p for p in pinned
                if not same(os.path.join(workdir, p), os.path.join(out, side, p))
            ]
            print(f"{side} on one CPU: {len(pinned)} files compared, {len(unequal)} differ")
            failed += [f"{side} on one CPU: {p} differs from the all-CPU run" for p in unequal]
    else:
        print("one-CPU pass skipped: no os.sched_setaffinity")
    a, b = (os.path.join(out, side) for side in sides)
    files_a, files_b = files_under(a), files_under(b)
    compared = sorted(files_a & files_b)
    differ = [p for p in compared if not same(os.path.join(a, p), os.path.join(b, p))]
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
