"""``reduce_last`` against numpy's own last-axis reductions, bit for bit."""

import numpy as np
import pytest

from densemble._reduce import reduce_last

SPECIAL = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0,
     1e308, -1e308]
)


def _inputs(width: int) -> list[np.ndarray]:
    """Random rows, rows drawn from ``SPECIAL`` (all -0.0, ±inf sums, NaN,
    subnormals and overflow among them), non-contiguous views of both, and a
    few rows, too few elements to chain."""
    rng = np.random.default_rng(width)
    scaled = rng.standard_normal((500, width)) * np.exp(rng.uniform(-40.0, 40.0, (500, width)))
    special = rng.choice(SPECIAL, size=(4000, width))
    special[:5] = -0.0
    wide = rng.standard_normal((6, 50, 2 * width))
    return [
        scaled,
        special,
        special.reshape(40, 100, width),
        special[::3],  # rows apart
        wide[..., ::2],  # elements of the axis apart
        np.asfortranarray(scaled),
        rng.standard_normal((width, 30, 7)).transpose(1, 2, 0),
        special[:9],
    ]


@pytest.mark.parametrize("width", range(1, 11))
@pytest.mark.parametrize("ufunc", [np.add, np.maximum], ids=["add", "maximum"])
def test_reduce_last_has_the_bits_of_ufunc_reduce(ufunc, width):
    with np.errstate(over="ignore", invalid="ignore"):
        for a in _inputs(width):
            for keepdims in (False, True):
                want = ufunc.reduce(a, axis=-1, keepdims=keepdims)
                got = reduce_last(ufunc, a, keepdims=keepdims)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_reduce_last_of_one_row_and_of_an_empty_axis():
    a = np.array([1e16, 1.0, -1e16])
    assert reduce_last(np.add, a) == np.add.reduce(a)
    assert reduce_last(np.add, np.empty((3, 0))).tobytes() == np.zeros(3).tobytes()
    with pytest.raises(ValueError):
        reduce_last(np.maximum, np.empty((3, 0)))
