"""The typed JSON reader and writer behind every config block, party
file and manifest."""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

import numpy as np
import pytest

from densemble.jsonconfig import from_json, to_json


@dataclass
class Inner:
    rate: float
    tags: tuple[int, ...] = ()


@dataclass
class Outer:
    count: int = 1
    flag: bool = False
    inner: Inner | None = None
    items: list[Inner] = field(default_factory=list)

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be nonnegative")


def test_reads_nested_blocks_and_converts_int_to_float():
    doc = {"count": 2, "inner": {"rate": 3, "tags": [1, 2]}, "items": [{"rate": 0.5}]}
    obj = from_json(Outer, doc)
    assert obj == Outer(2, False, Inner(3.0, (1, 2)), [Inner(0.5)])
    assert type(obj.inner.rate) is float


def test_to_json_keeps_declaration_order_and_drops_none_and_skipped():
    obj = Outer(count=2, inner=None, items=[Inner(1.0, (4,))])
    assert list(to_json(obj)) == ["count", "flag", "items"]
    assert to_json(obj, skip=("flag",)) == {"count": 2, "items": [{"rate": 1.0, "tags": [4]}]}
    assert from_json(Outer, to_json(obj)) == obj


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"count": True}, "count: expected integer, got boolean"),
        ({"count": 1.0}, "count: expected integer, got number"),
        ({"flag": 1}, "flag: expected boolean, got integer"),
        ({"inner": {"rate": "1"}}, "inner.rate: expected number, got string"),
        ({"inner": {}}, "inner.rate: missing"),
        ({"inner": [1]}, "inner: expected object, got array"),
        ({"items": [{"rate": 1, "tag": []}]}, "items[0].tag: unknown field"),
        ({"items": [{"rate": 1, "tags": [1, None]}]}, "items[0].tags[1]: expected integer, got null"),
        ({"count": -1}, "count must be nonnegative"),
    ],
)
def test_errors_name_the_path(doc, message):
    with pytest.raises(ValueError) as err:
        from_json(Outer, doc)
    assert str(err.value) == message


def test_constructor_errors_are_prefixed_with_the_block_path():
    with pytest.raises(ValueError, match=r"^items\[0\]: count must be nonnegative$"):
        from_json(list[Outer], [{"count": -1}], "items")


class Scaled:
    """A model-style record: its ``file_fields`` list the stored fields in
    file order, which differs from its constructor's."""

    file_fields = {"scale": float, "grid": np.ndarray}

    def __init__(self, grid, scale):
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.grid, self.scale = grid, scale


@dataclass
class Holder:
    grid: np.ndarray
    scaled: Scaled | None = None


def test_array_field_reads_and_writes_its_array_object():
    grid = np.arange(6.0).reshape(2, 3) / 7
    doc = to_json(Holder(grid))
    assert doc == {"grid": {"shape": [2, 3], "data": grid.ravel().tolist()}}
    back = from_json(Holder, doc).grid
    assert back.shape == (2, 3) and back.dtype == np.float64
    assert back.tobytes() == grid.tobytes()
    empty = from_json(Holder, {"grid": {"shape": [0, 2], "data": []}}).grid
    assert empty.shape == (0, 2)
    # integer cells are numbers, as an integer is where a float field is
    assert from_json(np.ndarray, {"shape": [2], "data": [1, 2**64]}).tolist() == [1.0, 2.0**64]


@pytest.mark.parametrize(
    "value,message",
    [
        ([1.0], "grid: expected object, got array"),
        ({"shape": [1]}, "grid: expected keys 'data' and 'shape', got ['shape']"),
        ({"shape": [1], "data": [1.0], "x": 0}, "grid: expected keys 'data' and 'shape', got"),
        ({"shape": 2, "data": [1.0, 2.0]}, "grid.shape: expected array, got integer"),
        ({"shape": [2.0], "data": [1.0, 2.0]}, "grid.shape[0]: expected integer, got number"),
        ({"shape": [2**63], "data": []}, "grid.shape[0]: integer out of int64 range"),
        ({"shape": [-1], "data": [1.0]}, "grid.shape: negative extent in [-1]"),
        ({"shape": [2], "data": [1.0, True]}, "grid.data: expected an array of numbers"),
        ({"shape": [2], "data": [[1.0], [2.0]]}, "grid.data: expected an array of numbers"),
        ({"shape": [2], "data": "1,2"}, "grid.data: expected an array of numbers"),
        ({"shape": [2, 2], "data": [1.0] * 3}, "grid: shape [2, 2] does not hold 3 numbers"),
        ({"shape": [1], "data": [10**400]}, "grid.data: a number is out of double range"),
    ],
)
def test_array_object_errors_name_the_path(value, message):
    with pytest.raises(ValueError) as err:
        from_json(Holder, {"grid": value})
    assert str(err.value).startswith(message)


def test_file_fields_record_reads_and_writes_in_file_order():
    grid = np.array([[0.5, -1.25]])
    doc = to_json(Holder(np.zeros(1), Scaled(grid, 2.0)))
    assert list(doc["scaled"]) == ["scale", "grid"]
    assert doc["scaled"] == {"scale": 2.0, "grid": {"shape": [1, 2], "data": [0.5, -1.25]}}
    back = from_json(Holder, doc).scaled
    assert back.scale == 2.0 and back.grid.tobytes() == grid.tobytes()
    # an integer is read as a float here too
    doc["scaled"]["scale"] = 3
    assert type(from_json(Holder, doc).scaled.scale) is float


EMPTY = {"shape": [0], "data": []}


@pytest.mark.parametrize(
    "scaled,message",
    [
        ({"scale": 1.0}, "scaled.grid: missing"),
        ({"scale": 1.0, "grid": EMPTY, "seed": 0}, "scaled.seed: unknown field"),
        ({"scale": "1", "grid": EMPTY}, "scaled.scale: expected number, got string"),
        ({"scale": -1, "grid": EMPTY}, "scaled: scale must be positive, got -1.0"),
        ({"scale": 10**400, "grid": EMPTY}, "scaled.scale: integer out of double range"),
        ([], "scaled: expected object, got array"),
    ],
)
def test_file_fields_record_errors_name_the_path(scaled, message):
    with pytest.raises(ValueError) as err:
        from_json(Holder, {"grid": EMPTY, "scaled": scaled})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "value", [2**63, -(2**63) - 1, 2**64, 10**400], ids=["2**63", "-2**63-1", "2**64", "10**400"]
)
def test_integers_outside_int64_are_rejected_by_path(value):
    assert from_json(list[int], [2**63 - 1, -(2**63)]) == [2**63 - 1, -(2**63)]
    with pytest.raises(ValueError) as err:
        from_json(list[Inner], [{"rate": 1.0, "tags": [0, value]}], "items")
    assert str(err.value) == "items[0].tags[1]: integer out of int64 range"


def test_integer_outside_double_range_is_rejected_where_a_float_is_read():
    assert from_json(Inner, {"rate": 2**1023}).rate == 2.0**1023
    with pytest.raises(ValueError) as err:
        from_json(Outer, {"inner": {"rate": -(10**400)}})
    assert str(err.value) == "inner.rate: integer out of double range"


def test_type_hints_are_resolved_once_per_class(monkeypatch):
    calls = []
    get_type_hints = typing.get_type_hints

    def counted(tp):
        calls.append(tp)
        return get_type_hints(tp)

    monkeypatch.setattr(typing, "get_type_hints", counted)

    @dataclass
    class Fresh:
        rate: float

    for _ in range(3):
        assert from_json(list[Fresh], [{"rate": 1}, {"rate": 2}]) == [Fresh(1.0), Fresh(2.0)]
    assert calls == [Fresh]
