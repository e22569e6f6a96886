"""Data generation, partitioning, and CSV round-trip behavior."""

import json

import numpy as np
import pytest

from densemble import cli
from densemble.classifiers import SoftmaxRegression
from densemble.datasets import (
    LocalDataset,
    PartitionSpec,
    PartyRule,
    generate_toy,
    partition,
    read_csv,
    split_train_test,
    toy_blob_means,
    write_csv,
)
from densemble.density import kde_fit
from densemble.ensemble import PartyModel, build_ensemble
from densemble.jsonconfig import to_json, write_json
from densemble.serialize import save_ensemble


def class_counts(ds: LocalDataset) -> dict[int, int]:
    """Row count of each label present in ``ds``."""
    vals, counts = np.unique(ds.labels, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def test_generate_toy_empty():
    ds = generate_toy(0, 0, 5)
    assert len(ds) == 0
    assert ds.label_space == ()
    assert ds.num_classes == 5


def test_generate_toy_balanced_counts():
    ds = generate_toy(0, 2000, 5)
    assert len(ds) == 2000
    assert ds.features.shape == (2000, 2)
    counts = class_counts(ds)
    assert counts == {k: 400 for k in range(5)}


def test_generate_toy_uneven_n_balanced_within_one():
    ds = generate_toy(3, 2003, 5)
    counts = list(class_counts(ds).values())
    assert max(counts) - min(counts) <= 1
    assert sum(counts) == 2003


def test_generate_toy_deterministic():
    a = generate_toy(42, 300, 5)
    b = generate_toy(42, 300, 5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = generate_toy(43, 300, 5)
    assert not np.array_equal(a.features, c.features)


def test_generate_toy_blob_sample_means_near_generator_means():
    # 20 draws per blob; sample mean of an isotropic Gaussian stays within
    # 3*sigma/sqrt(20) of the true mean per coordinate with high margin
    ds = generate_toy(7, 100, 5)
    means = toy_blob_means(5)
    tol = 3.0 * 0.8 / np.sqrt(20.0)
    for k in range(5):
        blob = ds.features[ds.labels == k]
        assert len(blob) == 20
        assert np.all(np.abs(blob.mean(axis=0) - means[k]) < tol)


def test_toy_blob_means_overlap_pair_distance():
    means = toy_blob_means(5)
    assert np.isclose(np.linalg.norm(means[1] - means[2]), 3.2)
    # the non-overlapping adjacent pairs keep the base circle chord
    chord = 2.0 * 4.0 * np.sin(np.pi / 5.0)
    assert np.isclose(np.linalg.norm(means[3] - means[4]), chord)


def test_generate_toy_validation():
    with pytest.raises(ValueError):
        generate_toy(0, -1, 5)
    with pytest.raises(ValueError):
        generate_toy(0, 10, 0)


def test_split_equal_halves():
    ds = generate_toy(0, 2000, 5)
    train, test = split_train_test(ds, 0.5, 0)
    assert len(train) == 1000 and len(test) == 1000


def test_split_deterministic_and_disjoint():
    ds = generate_toy(1, 400, 5)
    a_train, a_test = split_train_test(ds, 0.5, 9)
    b_train, b_test = split_train_test(ds, 0.5, 9)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    merged = np.concatenate([a_train.features, a_test.features])
    assert merged.shape[0] == len(ds)
    # every original row appears exactly once across the two halves
    orig = {tuple(row) for row in ds.features}
    assert {tuple(row) for row in merged} == orig


def test_split_stratified_counts():
    ds = generate_toy(2, 100, 5)
    train, test = split_train_test(ds, 0.8, 0)
    for k in range(5):
        assert np.sum(train.labels == k) == 16
        assert np.sum(test.labels == k) == 4


def test_split_ratio_validation():
    ds = generate_toy(0, 100, 5)
    for ratio in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split_train_test(ds, ratio, 0)


def test_split_tiny_class_rejected():
    ds = LocalDataset(np.zeros((1, 2)), np.array([0]), (0,), 1)
    with pytest.raises(ValueError):
        split_train_test(ds, 0.5, 0)


def test_partition_shared_class_shards():
    ds = generate_toy(0, 1000, 5)
    spec = PartitionSpec(
        parties=[
            PartyRule((0, 1), 1.0),
            PartyRule((2, 3), 0.5),
            PartyRule((3, 4), 0.5),
        ],
        seed=0,
    )
    shards = partition(ds, spec)
    assert len(shards) == 3
    assert shards[0].label_space == (0, 1)
    assert shards[1].label_space == (2, 3)
    assert shards[2].label_space == (3, 4)
    # the shared class is split between its two claimants without loss
    n3 = np.sum(ds.labels == 3)
    assert np.sum(shards[1].labels == 3) + np.sum(shards[2].labels == 3) == n3
    for shard in shards:
        assert shard.num_classes == 5


def test_partition_identity():
    ds = generate_toy(5, 200, 4)
    spec = PartitionSpec(parties=[PartyRule((0, 1, 2, 3), 1.0)], seed=1)
    (shard,) = partition(ds, spec)
    assert len(shard) == len(ds)
    assert {tuple(r) for r in shard.features} == {tuple(r) for r in ds.features}


def test_partition_class_count_conservation():
    ds = generate_toy(0, 500, 5)
    spec = PartitionSpec(
        parties=[PartyRule((0, 1, 2), 0.5), PartyRule((2, 3, 4), 0.5)], seed=0
    )
    shards = partition(ds, spec)
    n2 = np.sum(ds.labels == 2)
    assert np.sum(shards[0].labels == 2) + np.sum(shards[1].labels == 2) == n2


def test_partition_no_duplication():
    ds = generate_toy(4, 600, 5)
    spec = PartitionSpec(
        parties=[PartyRule((0, 1, 2), 0.5), PartyRule((2, 3, 4), 0.5)], seed=3
    )
    shards = partition(ds, spec)
    rows = [tuple(r) for shard in shards for r in shard.features]
    assert len(rows) == len(set(rows))
    assert set(rows).issubset({tuple(r) for r in ds.features})


def test_partition_deterministic():
    ds = generate_toy(0, 400, 5)
    spec = PartitionSpec(parties=[PartyRule((0, 1, 2), 0.5), PartyRule((2, 3, 4), 0.5)], seed=11)
    a = partition(ds, spec)
    b = partition(ds, spec)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.features, sb.features)


def test_partition_uncovered_class_rejected():
    ds = generate_toy(0, 100, 5)
    spec = PartitionSpec(parties=[PartyRule((0, 1), 1.0), PartyRule((2, 3), 1.0)], seed=0)
    with pytest.raises(ValueError, match="not assigned"):
        partition(ds, spec)


def test_partition_error_for_a_large_label_lists_a_few_classes(tmp_path, capsys):
    # num_classes is 1 + the largest label; the error names the first ten
    # unassigned classes and their count, not all 99998 of them
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,label\n0.0,0.0,0\n1.0,1.0,1\n2.0,2.0,100000\n")
    spec = tmp_path / "spec.json"
    write_json(spec, to_json(PartitionSpec(parties=[PartyRule((0, 1)), PartyRule((100000,))])))
    argv = ["partition", "--data", str(data), "--spec", str(spec), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    first = ", ".join(map(str, range(2, 12)))
    message = f"classes [{first}, ...] (99998 in all) not assigned to any party"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_partition_overallocated_class_rejected():
    with pytest.raises(ValueError, match="exceed"):
        PartitionSpec(parties=[PartyRule((0, 1), 1.0), PartyRule((1, 2), 0.7)], seed=0)


def test_partition_spec_fraction_bounds():
    for frac in (0.0, -0.1, 1.2):
        with pytest.raises(ValueError):
            PartitionSpec(parties=[PartyRule((0,), frac)], seed=0)


def test_partition_spec_json_round_trip(tmp_path):
    spec = PartitionSpec(
        parties=[PartyRule((0, 1), 1.0), PartyRule((2, 3), 0.5), PartyRule((3, 4), 0.5)],
        seed=17,
    )
    path = tmp_path / "spec.json"
    write_json(path, to_json(spec))
    loaded = PartitionSpec.load(path)
    assert loaded.seed == 17
    assert [r.classes for r in loaded.parties] == [r.classes for r in spec.parties]
    assert [r.fraction for r in loaded.parties] == [r.fraction for r in spec.parties]


def test_partition_spec_save_bytes_are_pinned(tmp_path):
    spec = PartitionSpec(parties=[PartyRule((0, 1)), PartyRule((2,), 0.5)], seed=4)
    path = tmp_path / "spec.json"
    write_json(path, to_json(spec))
    rules = [{"classes": [0, 1], "fraction": 1.0}, {"classes": [2], "fraction": 0.5}]
    expected = json.dumps({"seed": 4, "parties": rules}, indent=2) + "\n"
    assert path.read_text() == expected
    assert PartitionSpec.load(path) == spec


def test_csv_round_trip_bitwise(tmp_path):
    ds = generate_toy(0, 150, 5)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = read_csv(path, num_classes=5)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == 5



def reference_write_csv(ds, path):
    """The cell-by-cell writer: one ``repr``/``str`` per cell, row by row."""
    with open(path, "w") as fh:
        fh.write(",".join([f"f{i}" for i in range(ds.dim)] + ["label"]) + "\n")
        for i in range(len(ds)):
            row = [repr(float(v)) for v in ds.features[i]]
            row.append(str(int(ds.labels[i])))
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("n", [0, 1, 7, 500, 2500])
def test_csv_bytes_match_cell_by_cell_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    feats = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-320, 300, size=(n, 3))
    ds = LocalDataset(feats, rng.integers(0, 4, size=n), (0, 1, 2, 3), 4)
    write_csv(ds, tmp_path / "got.csv")
    reference_write_csv(ds, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("f0,f1,label\n")
    ds = read_csv(path)
    assert len(ds) == 0


def test_csv_non_numeric_feature_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\nx,2.0,1\n")
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value) == "line 3: non-numeric cell in 'x,2.0,1'"


def test_csv_wrong_field_count_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value) == "line 3: expected 3 fields, got 2"


def test_csv_bad_label_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,zero\n")
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value) == "line 2: non-integer cell in '1.0,2.0,zero'"


@pytest.mark.parametrize(
    "row, kind",
    [
        ("1_0,\uff12.5,0_1", "non-numeric"),
        ("1.0,\uff12.5,1", "non-numeric"),
        ("1.0,2.5,0_1", "non-integer"),
        ("1.0,2.5,\uff11", "non-integer"),
    ],
)
def test_csv_python_literal_cells_rejected(tmp_path, row, kind):
    # float and int read 1_0 as 10 and a full-width digit as its ASCII one
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,0\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value) == f"line 3: {kind} cell in {row!r}"


@pytest.mark.parametrize(
    "row, message",
    [
        (b"1.0,\xff2.5,1", "non-numeric cell in '1.0,\\udcff2.5,1'"),
        (b"1.0,2.5,\xff", "non-integer cell in '1.0,2.5,\\udcff'"),
    ],
    ids=["feature", "label"],
)
def test_csv_byte_not_utf8_names_line(tmp_path, capsys, row, message):
    # a byte that is not UTF-8 is a bad cell on its line, like any other
    path = tmp_path / "bad.csv"
    path.write_bytes(b"f0,f1,label\n1.0,2.0,0\n" + row + b"\n")
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value) == f"line 3: {message}"
    rng = np.random.default_rng(0)
    party = PartyModel(
        SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1)),
        kde_fit(rng.normal(size=(5, 2)), 0.2),
        10,
    )
    manifest = save_ensemble(build_ensemble([party]), tmp_path / "model")
    assert cli.main(["eval-zeroshot", "--ensemble", manifest, "--data", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 3: {message}\n"


def test_csv_lines_counted_across_blocks_and_blank_lines(tmp_path):
    # line numbers count the blank and whitespace-only lines the reader skips
    rows = [f"{i}.5,{-i},{i % 3}" for i in range(11)]
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,label\n" + "\n".join(rows[:5] + ["", "  "] + rows[5:]) + "\n")
    ds = read_csv(path)
    assert ds.features[:, 1].tolist() == [-float(i) for i in range(11)]
    assert ds.labels.tolist() == [i % 3 for i in range(11)]
    rows[9] = "9.5,nine,0"
    path.write_text("f0,f1,label\n" + "\n".join(rows[:5] + ["", "  "] + rows[5:]) + "\n")
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value) == "line 13: non-numeric cell in '9.5,nine,0'"


MUTANT_ROWS = [[b"0.5", b"-1.25", b"0"], [b"3.0", b"2e-3", b"2"], [b"-7.5", b"0.0", b"1"]]


def python_reads(rows: list[list[bytes]]):
    """(features, labels) as ``float`` and ``int`` read the cells, or None
    if a row has the wrong field count, a label is outside int64, or a cell
    is rejected or is not ASCII or holds ``_`` (Python literal syntax)."""
    try:
        cells = [[c.decode("ascii") for c in row] for row in rows]
        if any(len(row) != 3 or "_" in "".join(row) for row in cells):
            return None
        features = np.array([[float(c) for c in row[:2]] for row in cells])
        return features, np.array([int(row[2]) for row in cells], dtype=np.int64)
    except (ValueError, OverflowError):
        return None


@pytest.mark.parametrize(
    "token",
    [b"", b" ", b"x", b"1_0", "\uff11".encode(), b"0x10", b"1e400", b"nan", b"1.0",
     b"99999999999999999999", b"+1", b"-0", b"\xff", None],
    ids=lambda t: "extra-field" if t is None else t.decode(errors="backslashreplace") or "empty",
)
def test_mutated_data_cell_loads_its_python_value_or_names_its_line(tmp_path, token):
    # every cell of a small CSV in turn is set to the token (None: one more
    # field on each line in turn). The file loads with the bits float and
    # int give each cell if they read them all and the features are finite;
    # it fails the finiteness check if they read them all but one is not;
    # otherwise it raises a ValueError that names the mutated line
    path = tmp_path / "data.csv"
    spots = [(i, j) for i in range(3) for j in (range(3) if token is not None else [3])]
    for i, j in spots:
        rows = [list(row) for row in MUTANT_ROWS]
        rows[i][j:j + 1] = [b"1" if token is None else token]
        path.write_bytes(b"f0,f1,label\n" + b"".join(b",".join(r) + b"\n" for r in rows))
        want = python_reads(rows)
        if want is not None and np.all(np.isfinite(want[0])):
            ds = read_csv(path)
            assert ds.features.tobytes() == want[0].tobytes(), (i, j)
            assert ds.labels.tolist() == want[1].tolist(), (i, j)
            continue
        with pytest.raises(ValueError) as err:
            read_csv(path)
        if want is not None:
            assert str(err.value) == "features must be finite (found NaN or Inf)", (i, j)
        else:
            assert str(err.value).startswith(f"line {i + 2}: "), (i, j, str(err.value))


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,0\n")
    with pytest.raises(ValueError, match="line 1"):
        read_csv(path)


def test_dataset_validation():
    with pytest.raises(ValueError, match="finite"):
        LocalDataset(np.array([[np.nan, 0.0]]), np.array([0]), (0,), 1)
    with pytest.raises(ValueError, match="label"):
        LocalDataset(np.zeros((1, 2)), np.array([3]), (0, 1), 5)
    with pytest.raises(ValueError, match="mismatch"):
        LocalDataset(np.zeros((2, 2)), np.array([0]), (0,), 1)


def test_dataset_arrays_are_read_only():
    ds = generate_toy(0, 10, 2)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1
