"""The CSV rows of a record table as bytes, for tables.render_csv, which
imports this module on first use, so that importing the CLI does not
compile it.

format_floats computes "%.9g" with integer arithmetic wherever that is
provably C's rounding: a value whose exponent e = floor(log10|x|) is in
[-4, 8] is written in fixed notation from the 9 digits of
rint(|x| * 10**(8 - e)). 10**(8 - e) is exact, so that product carries one
rounding, at most 6e-8 below 2**30; the value passes only if its digits
cannot carry into a tenth digit and its fraction is more than 1e-6 from
one half. Every other value (zeros, infinities, NaNs, subnormals, exponent
notation, near-ties and near-powers of ten) is written by C's "%".
"""

from __future__ import annotations

import numpy as np


def format_floats(values: np.ndarray) -> np.ndarray:
    """The "%.9g" texts of a float64 array, as an "S16" array of its shape
    (no "%.9g" text is longer than 16 bytes). Each distinct value, told
    apart by its bits, is written once, in sorted order."""
    distinct, where = np.unique(values.view(np.int64), return_inverse=True)
    return _cells_9g(distinct.view(np.float64)).view("S16")[:, 0][where.reshape(values.shape)]


_POW10 = np.array([10 ** k for k in range(13)], dtype=np.float64)
_FIXED_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)  # "0." and the zeros before the digits of an e < 0 value


def _digit_words() -> tuple:
    """The four digits of each of 0..9999 as a little-endian word of ASCII
    bytes, and the same word with the number's trailing zeros as NULs (0 is
    four NULs)."""
    numbers = np.arange(10000, dtype=np.uint32)
    text = np.empty((10000, 4), dtype=np.uint8)
    stripped = np.empty_like(text)
    for j, power in enumerate((1000, 100, 10, 1)):
        text[:, j] = numbers // power % 10 + ord("0")
        # digit j is a trailing zero when it and every digit after it are 0
        stripped[:, j] = np.where(numbers % (10 * power) == 0, 0, text[:, j])
    return text.view("<u4")[:, 0], stripped.view("<u4")[:, 0]


_TEXT4, _STRIPPED4 = _digit_words()


def _fixed_point(values: np.ndarray) -> tuple:
    """Per value: the exponent e = floor(log10|x|) clipped to [-4, 8],
    whether "%.9g" provably writes the value in fixed notation from the
    digits of rint(|x| * 10**(8 - e)), and that whole number as uint32 (1e8
    where it does not)."""
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 1e9)  # NaN is not
    # a value out of that range gets the nearest end's exponent, so that it
    # joins its neighbours' run in _cells_9g
    e = np.fmin(magnitude, 1e8)
    np.fmax(e, 1e-4, out=e)
    e = np.floor(np.log10(e, out=e), out=e).astype(np.int8)
    np.clip(e, -4, 8, out=e)
    m = np.where(fast, magnitude, 1e8)
    m *= _POW10[8 - e]
    whole = np.floor(m)
    fast &= (whole >= 1e8) & (m < 999999999.5 - 1e-6)
    fraction = np.subtract(m, whole, out=m)
    whole += fraction > 0.5
    fraction -= 0.5
    fast &= np.abs(fraction, out=fraction) > 1e-6
    whole[~fast] = 1e8
    return e, fast, whole.astype(np.uint32)


def _digit_bytes(whole: np.ndarray) -> np.ndarray:
    """The 9 ASCII digits of whole numbers in [1e8, 1e9) as an (n, 9) uint8
    array, the trailing zeros as NULs."""
    first, rest = np.divmod(whole, 10 ** 8)
    high, low = np.divmod(rest, 10 ** 4)
    words = np.empty((len(whole), 3), dtype="<u4")
    words[:, 0] = (first + ord("0")) << 24
    words[:, 1] = np.where(low == 0, _STRIPPED4[high], _TEXT4[high])
    words[:, 2] = _STRIPPED4[low]
    return words.view(np.uint8)[:, 3:]


def _cells_9g(values: np.ndarray) -> np.ndarray:
    """The "%.9g" texts of a 1-D float64 array, NUL-padded in an (n, 16)
    uint8 array. Fast when values of one exponent and sign are adjacent, as
    in sorted input: each such run is laid out with slices."""
    n = len(values)
    if not n:
        return np.zeros((0, 16), dtype=np.uint8)
    e, fast, whole = _fixed_point(values)
    digits = _digit_bytes(whole)
    negative = np.signbit(values)
    out = np.zeros((n, 16), dtype=np.uint8)
    starts = (np.flatnonzero(np.diff(2 * e + negative)) + 1).tolist()
    for start, stop in zip([0, *starts], [*starts, n]):
        exp, sign = int(e[start]), int(negative[start])
        out[start:stop, 0] = ord("-")  # overwritten below unless the run is negative
        cells, run = out[start:stop, sign:], digits[start:stop]
        if exp >= 0:
            # the integer part keeps its zeros; the point goes with the fraction
            cells[:, :exp + 1] = run[:, :exp + 1] | ord("0")
            if exp < 8:
                cells[:, exp + 1] = (run[:, exp + 1] != 0) * ord(".")
                cells[:, exp + 2:10] = run[:, exp + 1:]
        else:
            cells[:, :1 - exp] = _FIXED_PREFIX[:1 - exp]
            cells[:, 1 - exp:10 - exp] = run

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = ("%.9g " * slow.size % tuple(values[slow].tolist())).split(" ")[:-1]
        out[slow] = np.array(texts, dtype="S16").view(np.uint8).reshape(slow.size, 16)
    return out


_BLOCK_ROWS = 4096  # rows laid out at a time, which bounds the scratch memory of a long table


def record_body(rows: np.ndarray) -> bytes:
    """The CSV rows of a record table: one fixed-width byte record per row,
    each cell NUL-padded to its field's width and followed by "," or "\\n",
    then the NULs dropped; _BLOCK_ROWS rows at a time."""
    return b"".join(_block_body(rows[start:start + _BLOCK_ROWS]) for start in range(0, len(rows), _BLOCK_ROWS))


def _block_body(rows: np.ndarray) -> bytes:
    names = rows.dtype.names
    floats = [name for name in names if rows.dtype[name] == np.float64]
    texts = format_floats(np.stack([rows[name] for name in floats], axis=1)) if floats else None
    line = np.dtype({"names": [f"{part}{j}" for j in range(len(names)) for part in ("cell", "end")],
                     "formats": [form for name in names
                                 for form in ("S16" if name in floats else rows.dtype[name], "S1")]})
    body = np.empty(len(rows), dtype=line)
    for j, name in enumerate(names):
        body[f"cell{j}"] = texts[:, floats.index(name)] if name in floats else rows[name]
        body[f"end{j}"] = b","
    body[f"end{len(names) - 1}"] = b"\n"
    # free each buffer as soon as the next holds its bytes: the body is the
    # largest memory a table's rendering needs
    del texts
    data = body.tobytes()
    del body
    return data.translate(None, b"\0")
