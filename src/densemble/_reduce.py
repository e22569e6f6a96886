"""Reductions over a short last axis, with the bits of ``ufunc.reduce``.

numpy reduces a last axis one inner loop per output element, so summing or
maxing an axis of 2 to 7 elements costs several times an elementwise op on
the same array. Over fewer than 8 elements numpy combines them in index
order, starting from the ufunc's identity when it has one: +0.0 for
``np.add``, so a sum of -0.0s is +0.0. ``reduce_last`` does the same with
one elementwise op per slice ``a[..., k]``, which runs over every output
element at once, and so returns the bits ``ufunc.reduce`` would. At 8
elements or more numpy's sum unrolls into several partial sums, whose bits
a chain would not give, so there ``reduce_last`` calls ``ufunc.reduce``
itself. So it does for an array of too few rows: on a 2-vCPU x86-64 host
(numpy 2.4), a chain costs 0.5-1 us per element of the width, one reduce
call 1 us plus about 20 ns a row for a sum and 45 ns a row for a max (a
training minibatch's sum over 2 classes takes the reduce call, its max the
chain).
"""

from __future__ import annotations

import numpy as np

# Widths from here on are reduced by ufunc.reduce itself.
_CHAIN_LIMIT = 8
# So are arrays of fewer rows than this many per element of the width.
_CHAIN_ROWS = {np.add: 50, np.maximum: 16}


def reduce_last(ufunc: np.ufunc, a: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1, keepdims=keepdims)``, bit for bit, for
    ``np.add`` and ``np.maximum``."""
    width = a.shape[-1]
    if not 0 < width < _CHAIN_LIMIT or a.size < _CHAIN_ROWS[ufunc] * width * width:
        return ufunc.reduce(a, axis=-1, keepdims=keepdims)
    # without an identity, the chain starts from the first two elements
    if ufunc.identity is not None:
        out, start = ufunc(a[..., 0], ufunc.identity), 1
    elif width > 1:
        out, start = ufunc(a[..., 0], a[..., 1]), 2
    else:
        out, start = a[..., 0].copy(), 1
    for k in range(start, width):
        ufunc(out, a[..., k], out=out)
    return out[..., None] if keepdims else out
