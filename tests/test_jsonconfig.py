"""The typed JSON reader and writer behind every config block."""

from __future__ import annotations

from dataclasses import dataclass, field

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
