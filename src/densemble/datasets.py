"""Synthetic data generation, biased multiparty partitioning, and CSV I/O.

A ``LocalDataset`` is one party's view of the world: a feature matrix, the
labels that go with it, and the subset of the global label space the party
can actually observe. Partitioning a dataset according to a ``PartitionSpec``
produces one such shard per party, with label-biased class assignments and
optional per-class subsampling fractions.

Every CSV the toolkit writes (datasets, predictions, traces, metrics,
sweeps) goes through one writer, ``_write_columns``. The only CSVs it reads
back are data CSVs: ``read_csv`` parses them with numpy's C text reader and
rescans the file in Python only to name the first line that reader rejects.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .jsonconfig import from_json, read_json

TOY_CIRCLE_RADIUS = 4.0
TOY_BLOB_SIGMA = 0.8
# Pulling one adjacent pair of blobs to this centre distance creates a single
# slightly-overlapping class boundary, so a good classifier lands just below
# 100% accuracy instead of saturating.
TOY_OVERLAP_PAIR = (1, 2)
TOY_OVERLAP_DISTANCE = 3.2
# ``_write_columns`` joins and writes this many lines at a time.
_CSV_BLOCK_LINES = 1 << 10
# a class-coverage error lists at most this many unassigned classes
_SHOWN_CLASSES = 10


@dataclass
class LocalDataset:
    """A party's data shard together with its local label space.

    Attributes:
        features: (n, d) float array; finite entries only.
        labels: (n,) int array with values inside ``label_space``.
        label_space: sorted tuple of the class indices this shard may contain.
        num_classes: size K of the global label space.
    """

    features: np.ndarray
    labels: np.ndarray
    label_space: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            feats = feats.reshape(len(feats), -1) if feats.size else feats.reshape(0, 0)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.shape[0] != labels.shape[0]:
            raise ValueError(
                f"feature/label count mismatch: {feats.shape[0]} vs {labels.shape[0]}"
            )
        if feats.size and not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite (found NaN or Inf)")
        space = tuple(sorted(int(c) for c in set(self.label_space)))
        if space and (space[0] < 0 or space[-1] >= self.num_classes):
            raise ValueError(
                f"label_space {space} not contained in [0, {self.num_classes})"
            )
        if labels.size:
            present = set(int(v) for v in np.unique(labels))
            if not present.issubset(space):
                raise ValueError(
                    f"labels {sorted(present - set(space))} outside label_space {space}"
                )
        feats.setflags(write=False)
        labels.setflags(write=False)
        self.features = feats
        self.labels = labels
        self.label_space = space

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, index: np.ndarray, label_space: tuple[int, ...] | None = None) -> "LocalDataset":
        space = self.label_space if label_space is None else label_space
        return LocalDataset(self.features[index], self.labels[index], space, self.num_classes)


@dataclass
class PartyRule:
    """Which classes a party may see, and the fraction of each it receives."""

    classes: tuple[int, ...]
    fraction: float = 1.0


@dataclass(kw_only=True)
class PartitionSpec:
    """Label-biased partition assignment: an RNG seed plus one rule per party."""

    seed: int = 0
    parties: list[PartyRule]

    def __post_init__(self):
        if not self.parties:
            raise ValueError("parties: a partition spec needs at least one party")
        if self.seed < 0:
            raise ValueError(f"seed: must be nonnegative, got {self.seed}")
        for i, rule in enumerate(self.parties):
            if not rule.classes or min(rule.classes) < 0:
                raise ValueError(f"parties[{i}].classes: {list(rule.classes)} is empty or below 0")
            if not (0.0 < rule.fraction <= 1.0):
                raise ValueError(f"parties[{i}].fraction: {rule.fraction} outside (0, 1]")
        for c in sorted(self.covered_classes):
            claimants = [i for i, rule in enumerate(self.parties) if c in rule.classes]
            total = sum(self.parties[i].fraction for i in claimants)
            if total > 1.0 + 1e-9:
                names = " + ".join(f"parties[{i}].fraction" for i in claimants)
                raise ValueError(f"{names}: class {c} gets {total} in all; fractions exceed 1")

    @property
    def covered_classes(self) -> set[int]:
        return {c for rule in self.parties for c in rule.classes}

    def unassigned(self, num_classes: int) -> str | None:
        """The classes 0 ... num_classes-1 that no rule claims, as text:
        ``classes [5]``, or the first ``_SHOWN_CLASSES`` of them and their
        count, ``classes [2, 3, ...] (99998 in all)``; None if every class
        is claimed. The work and the text grow with the rules, not with
        ``num_classes``."""
        covered = self.covered_classes
        count = num_classes - sum(0 <= c < num_classes for c in covered)
        free = (c for c in range(num_classes) if c not in covered)
        shown = ", ".join(map(str, islice(free, _SHOWN_CLASSES)))
        more = f", ...] ({count} in all)" if count > _SHOWN_CLASSES else "]"
        return f"classes [{shown}{more}" if count > 0 else None

    @classmethod
    def load(cls, path) -> "PartitionSpec":
        return from_json(cls, read_json(path))


def toy_blob_means(num_classes: int) -> np.ndarray:
    """Blob centres for the synthetic dataset: K points on a circle.

    The circle radius is chosen so adjacent centres keep the same spacing for
    any K (radius 4 at K=5). The overlap pair, when both its members exist,
    is pulled together symmetrically to ``TOY_OVERLAP_DISTANCE``.
    """
    k = num_classes
    if k == 1:
        return np.zeros((1, 2))
    base_chord = 2.0 * TOY_CIRCLE_RADIUS * np.sin(np.pi / 5.0)
    radius = base_chord / (2.0 * np.sin(np.pi / k))
    angles = 2.0 * np.pi * np.arange(k) / k + np.pi / 2.0
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    a, b = TOY_OVERLAP_PAIR
    if a < k and b < k:
        mid = 0.5 * (means[a] + means[b])
        gap = means[a] - means[b]
        unit = gap / np.linalg.norm(gap)
        means[a] = mid + 0.5 * TOY_OVERLAP_DISTANCE * unit
        means[b] = mid - 0.5 * TOY_OVERLAP_DISTANCE * unit
    return means


def generate_toy(seed: int, n: int, num_classes: int) -> LocalDataset:
    """Sample a balanced K-class 2D Gaussian-blob dataset.

    Class counts are balanced to within one sample; the draw is a pure
    function of ``seed``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if num_classes < 1:
        raise ValueError("num_classes must be at least 1")
    rng = np.random.default_rng(seed)
    means = toy_blob_means(num_classes)
    counts = np.full(num_classes, n // num_classes, dtype=int)
    counts[: n % num_classes] += 1
    feats, labels = [], []
    for k in range(num_classes):
        feats.append(means[k] + TOY_BLOB_SIGMA * rng.standard_normal((counts[k], 2)))
        labels.append(np.full(counts[k], k, dtype=np.int64))
    if n == 0:
        return LocalDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), (), num_classes)
    features = np.concatenate(feats)
    labels = np.concatenate(labels)
    order = rng.permutation(n)
    space = tuple(k for k in range(num_classes) if counts[k] > 0)
    return LocalDataset(features[order], labels[order], space, num_classes)


def split_train_test(ds: LocalDataset, ratio: float, seed: int) -> tuple[LocalDataset, LocalDataset]:
    """Class-stratified split into (train, test), deterministic per seed."""
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio {ratio} outside (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in ds.label_space:
        idx = np.where(ds.labels == c)[0]
        if len(idx) < 2:
            raise ValueError(f"class {c} has {len(idx)} sample(s); need at least 2 to split")
        rng.shuffle(idx)
        n_train = int(len(idx) * ratio + 0.5)
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.append(idx[:n_train])
        test_idx.append(idx[n_train:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return ds.subset(train_idx), ds.subset(test_idx)


def partition(ds: LocalDataset, spec: PartitionSpec) -> list[LocalDataset]:
    """Split a dataset into label-biased party shards.

    Each party receives its rule's share of every class it claims; samples are
    never duplicated across shards. Classes absent from every rule would be
    globally unlearnable and are rejected.
    """
    missing = spec.unassigned(ds.num_classes)
    if missing:
        raise ValueError(f"{missing} not assigned to any party")
    rng = np.random.default_rng(spec.seed)
    shard_indices: list[list[np.ndarray]] = [[] for _ in spec.parties]
    for c in sorted(spec.covered_classes):
        idx = np.where(ds.labels == c)[0]
        rng.shuffle(idx)
        claimants = [(i, r.fraction) for i, r in enumerate(spec.parties) if c in r.classes]
        fractions = np.array([f for _, f in claimants])
        bounds = np.rint(np.cumsum(fractions) * len(idx)).astype(int)
        start = 0
        for (party, _), stop in zip(claimants, bounds):
            shard_indices[party].append(idx[start:stop])
            start = stop
    shards = []
    for i, (chunks, rule) in enumerate(zip(shard_indices, spec.parties)):
        index = np.sort(np.concatenate(chunks)) if chunks else np.zeros(0, dtype=int)
        if len(index) == 0:
            raise ValueError(f"parties[{i}]: empty shard (classes {rule.classes})")
        shards.append(ds.subset(index, label_space=tuple(sorted(rule.classes))))
    return shards


def write_csv(ds: LocalDataset, path) -> None:
    """Write ``f0,...,f{d-1},label`` rows with full round-trip float precision."""
    d = ds.dim
    columns = [map(repr, ds.features[:, i].tolist()) for i in range(d)]
    columns.append(map(str, ds.labels.tolist()))
    _write_columns(path, [f"f{i}" for i in range(d)] + ["label"], [columns])


def _write_columns(path, header: list[str], chunks) -> None:
    """Write a CSV from its header and its rows, column by column.

    ``chunks`` yields, for each run of consecutive rows, one iterable of cell
    strings per column. Every CSV the toolkit writes goes through here.
    Formatting a whole column in one ``map`` and joining the rows gives the
    bytes of formatting cell by cell, in a fraction of the time. Rows are
    joined and written ``_CSV_BLOCK_LINES`` at a time, so no string holds
    the whole file and a chunk's cells can be formatted lazily.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for columns in chunks:
            rows = map(",".join, zip(*columns))
            while block := list(islice(rows, _CSV_BLOCK_LINES)):
                fh.write("\n".join(block) + "\n")


def _dataset_header(header: str) -> int:
    """The feature count d of a ``f0,...,f{d-1},label`` header."""
    if not header:
        raise ValueError("line 1: missing header")
    cols = header.split(",")
    if cols[-1] != "label" or any(c != f"f{i}" for i, c in enumerate(cols[:-1])):
        raise ValueError(f"line 1: unexpected header {header!r}")
    return len(cols) - 1


def read_csv(path, num_classes: int | None = None) -> LocalDataset:
    """Read a dataset written by ``write_csv``.

    The data lines, stripped, go to one ``np.loadtxt`` call, whose C reader
    parses a cell with ``PyOS_string_to_double``, the routine ``float``
    uses, so every cell reads to the bits ``float`` or ``int`` gives it.
    Blank lines are skipped. The features and labels are views of the one
    record array the reader returns. ``num_classes`` defaults to max(label)+1.
    Malformed rows, and a label outside int64, raise ValueError naming the
    offending line.
    """
    # a byte that is not UTF-8 decodes to a lone surrogate, which the reader
    # rejects and ``_bad_line`` names as a non-ASCII cell on its line
    with open(path, errors="surrogateescape") as fh:
        d = _dataset_header(fh.readline().strip())
        try:
            with warnings.catch_warnings():
                # a header-only file: numpy warns that it read no data
                warnings.simplefilter("ignore", UserWarning)
                # numpy < 2 reads ``1.0`` in an int column, with this warning
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(
                    map(str.strip, fh), [("f", np.float64, (d,)), ("label", np.int64)],
                    delimiter=",", comments=None, ndmin=1,
                )
        except (ValueError, DeprecationWarning):
            raise _bad_line(path, d + 1) from None
    labels = rows["label"]
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if len(labels) else 0
    return LocalDataset(rows["f"], labels, np.unique(labels).tolist(), num_classes)


def _bad_line(path, width: int) -> ValueError:
    """The error for the first data line of ``path`` that ``read_csv``'s
    reader rejects, lines numbered from 2 with the blank ones counted: the
    wrong field count, a feature ``float`` rejects (``non-numeric cell``),
    a label ``int`` rejects (``non-integer cell``) or one outside int64.
    Every line the reader rejects is one of these, so this never falls
    through to its last line."""
    with open(path, errors="surrogateescape") as fh:
        next(fh)
        for lineno, line in enumerate(map(str.strip, fh), 2):
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != width:
                return ValueError(f"line {lineno}: expected {width} fields, got {len(cells)}")
            # ``float`` and ``int`` read Python literal syntax, ``1_0`` as 10
            # and a full-width ``２`` as 2, which the reader rejects: such a
            # cell becomes one they reject too
            cells = [c if c.isascii() and "_" not in c else "?" for c in cells]
            try:
                for cell in cells[:-1]:
                    float(cell)
            except ValueError:
                return ValueError(f"line {lineno}: non-numeric cell in {line!r}")
            try:
                label = int(cells[-1])
            except ValueError:
                return ValueError(f"line {lineno}: non-integer cell in {line!r}")
            if not -(2**63) <= label < 2**63:
                return ValueError(f"line {lineno}: label {label} outside int64")
    raise AssertionError(f"{path}: numpy rejected a line that float and int accept")
