"""The bytes of every CSV row and JSON record the commands write.

Each writer is a layout of parts (constant bytes, a state's label, '%.12g'
cells, JSON number texts), and one composer, `_compose`, turns the rows
of every layout into text without a Python step per row or per cell.
`g12_rows` writes every '%.12g' text (the loss CSV of `loss_csv_lines`,
the per-trial CSV and the sweep), exact for every double (`_g12_cells`),
and `json_records` the records of a JSON document, with the bytes of
`json.dumps(..., sort_keys=True, indent=2)`.  Both take a state's label,
its entries joined by "|" in CSV and by a comma and an indent in JSON,
from one digit table.
"""

from __future__ import annotations

import functools
import json

import numpy as np

__all__ = ["LOSS_CSV_HEADER", "g12_rows", "json_records", "loss_csv_lines"]

LOSS_CSV_HEADER = "state;c_sampled;c_eq;c_opt;loss_eq;loss_opt;nu"

# Text of many cells at once.  A cell is a row of byte slots, one slot per
# character it may hold; a slot it does not use holds 0, and one
# `np.compress` of a block of rows removes those.  The slots of a '%.12g'
# cell: the sign, the "0.000" lead of a fixed value below 1, 12 digits each
# followed by a slot for a ".", and the "e+dd" tail.  A fallback text (at
# most 19 characters) fills its cell's first slots.
_G12_SLOTS = 34
_DIGIT0, _TAIL0 = 6, 30
# Slots per row block of `_compose`, so its temporaries do not grow with S.
_ROW_BLOCK_SLOTS = 1 << 18
# Exact scales: 10**j for |j| <= 22 is a double (5**22 < 2**53).  Entry
# j + 22 of _UP and _DOWN is 10**j as a factor and as a divisor, one of them 1.
_UP = np.array([float(10 ** max(j, 0)) for j in range(-22, 23)])
_DOWN = _UP[::-1].copy()
# Fast-path cells lie within this distance of no half-integer (see _g12_cells).
_TIE_MARGIN = 1e-3


@functools.cache
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """Each of 0 .. 9999 as its four zero-padded ASCII digits, each followed
    by a 0 byte, packed into one uint64: entry v as is, entry 10**4 + v with
    its trailing zeros as 0 bytes too; and the count of those trailing
    zeros (4 for 0)."""
    ten = np.arange(10)
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    zeros = 0
    for place in range(4):  # thousands to units
        column = ten.reshape((10,) + (1,) * (3 - place))
        digits[..., place] = column + 48
        zeros = (column == 0) * (zeros + 1)  # trailing zeros up to this place
    digits, zeros = digits.reshape(10**4, 4), zeros.astype(np.uint8).ravel()
    pairs = np.zeros((2, 10**4, 8), dtype=np.uint8)
    pairs[0, :, ::2] = digits
    pairs[1, :, ::2] = digits * (np.arange(4) < 4 - zeros[:, None])
    return pairs.view(np.uint64).ravel(), zeros


@functools.cache
def _g12_layouts() -> np.ndarray:
    """The bytes of each fast-path '%.12g' cell other than its sign and its
    significant digits (the lead, the zeros of an integer part, the "." and
    the exponent tail), by code 12 (33 - e) + z for its decimal exponent e
    in -11 .. 33 and its z = 0 .. 11 trailing zeros among 12 digits."""
    expo = np.repeat(np.arange(33, -12, -1), 12)
    count = 12 - np.tile(np.arange(12), 45)  # significant digits
    fixed = (expo >= -4) & (expo < 12)
    below_one = fixed & (expo < 0)
    dot = np.where(fixed, expo, 0)  # the digit a "." follows, if any digit does
    dot[count <= dot + 1] = -1
    places = np.arange(12)
    scientific = ~fixed
    size = np.abs(expo)
    fill = np.zeros((len(expo), _G12_SLOTS), dtype=np.uint8)
    fill[:, 1] = below_one * 48
    fill[:, 2] = below_one * 46
    fill[:, 3:_DIGIT0] = (below_one[:, None] & (places[:3] < -1 - expo[:, None])) * 48
    integer_zeros = fixed[:, None] & (places >= count[:, None]) & (places <= expo[:, None])
    fill[:, _DIGIT0:_TAIL0:2] = integer_zeros * 48
    fill[:, _DIGIT0 + 1 : _TAIL0 : 2] = (places == dot[:, None]) * 46
    fill[:, _TAIL0] = scientific * 101
    fill[:, _TAIL0 + 1] = scientific * np.where(expo < 0, 45, 43)
    fill[:, _TAIL0 + 2] = scientific * (48 + size // 10)
    fill[:, _TAIL0 + 3] = scientific * (48 + size % 10)
    return fill


def _g12_cells(x: np.ndarray) -> np.ndarray:
    """The bytes of ``'%.12g' % v`` for each v of the 1-D float64 array x,
    as a (len(x), _G12_SLOTS) uint8 array of cells.

    Fast path, for finite x with |11 - floor(log10 |x|)| <= 22: with
    j = 11 - floor(log10 |x|), m = |x| 10**j takes one rounding, as 10**j
    is exact, so m is within 2**-13 of the exact product (m < 1e12 < 2**40).
    Where m's fraction is more than _TIE_MARGIN from 1/2, r = floor(m + 1/2)
    is the exact product rounded to an integer, with no tie; and where also
    1e11 <= m and r < 1e12, r holds the 12 significant digits that Python's
    correctly rounded conversion gives, with decimal exponent 11 - j.  (The
    margin is a second guard: rounding is monotone and every half-integer
    below 2**40 is a double, so one rounding never carries m across a
    half-integer that the exact product does not reach.)  The
    digits of r, trailing zeros blank, come from three table lookups, and
    the rest of its cell (`_g12_layouts`) from its exponent and its count
    of trailing zeros.  Every other cell (zeros, infinities, nan,
    subnormals, far exponents, near-ties, and a log10 estimate off by one)
    is ``'%.12g' % v`` itself.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
        fast = np.abs(e - 11) <= 22  # false for 0, inf and nan
        k = np.where(fast, 33 - e, 0).astype(np.intp)  # j + 22
        m = a * _UP[k] / _DOWN[k]
        half = m + 0.5  # exact, as is half - r
        r = np.floor(half)
        past = half - r  # |frac(m) - 1/2| is the smaller of past and 1 - past
        fast &= (past > _TIE_MARGIN) & (past < 1 - _TIE_MARGIN) & (m >= 1e11) & (r < 1e12)
    r[~fast] = 1e11
    r = r.astype(np.int64)
    top, mid, low = r // 10**8, r // 10**4 % 10**4, r % 10**4
    words, zeros = _digit_table()
    low_zero = low == 0
    both_zero = low_zero & (mid == 0)
    pairs = np.empty((len(x), 3), dtype=np.uint64)
    pairs[:, 0] = words[top + 10**4 * both_zero]
    pairs[:, 1] = words[mid + 10**4 * low_zero]
    pairs[:, 2] = words[low + 10**4]
    trailing = zeros[low] + low_zero * zeros[mid] + both_zero * zeros[top]
    cells = _g12_layouts()[12 * k + trailing]
    cells[:, 0] = (x < 0) * 45
    cells[:, _DIGIT0:_TAIL0] |= pairs.view(np.uint8)
    slow = np.flatnonzero(~fast)
    texts = ["%.12g" % v for v in x[slow].tolist()]
    cells[slow] = np.array(texts, dtype=f"S{_G12_SLOTS}").view(np.uint8).reshape(-1, _G12_SLOTS)
    return cells


def _label_part(block, sep: bytes):
    """The part of row i's label, the bytes of ``sep.join(map(str, row))``
    for row i of an (S, k) block of nonnegative integers: a gather of a
    table of each value 0 .. max(block), its digits then sep, with the last
    entry's sep blanked."""
    block = np.asarray(block)
    if block.ndim != 2 or not np.issubdtype(block.dtype, np.integer):
        raise ValueError(f"labels need an (S, k) integer block, got {block.dtype} {block.shape}")
    if block.size and block.min() < 0:
        raise ValueError("labels need nonnegative integers")
    values = np.arange(int(block.max(initial=0)) + 1)
    width = len(str(values[-1]))
    groups = -(-width // 4)
    quads = np.stack([values // 10 ** (4 * g) % 10**4 for g in range(groups - 1, -1, -1)], axis=1)
    words = _digit_table()[0][quads]  # four digits per lookup, most significant first
    table = np.empty((len(values), width + len(sep)), dtype=np.uint8)
    table[:, :width] = words.view(np.uint8)[:, 8 * groups - 2 * width :: 2]
    table[:, : width - 1][values[:, None] < 10 ** np.arange(width - 1, 0, -1)] = 0
    table[:, width:] = np.frombuffer(sep, dtype=np.uint8)
    entries = table.view(f"V{table.shape[1]}").ravel()

    def fill(out, start, stop):
        out[:] = entries[block[start:stop]].view(np.uint8).reshape(out.shape)
        out[:, out.shape[1] - len(sep) :] = 0

    return block.shape[1] * entries.itemsize, fill


def _g12_part(columns, lead: bool):
    """The part of row i's '%.12g' cells (`_g12_cells`, exact for every
    double) of the i-th value of each 1-D float64 column, each led by a ";"
    (the first only if lead).  One `_g12_cells` call writes every cell of a
    block of rows."""
    cell = _G12_SLOTS + 1

    def fill(out, start, stop):
        cells = out.reshape(len(out), len(columns), cell, copy=False)
        values = np.stack([col[start:stop] for col in columns], axis=1)
        cells[..., 0] = 59  # ";"
        cells[..., 1:] = _g12_cells(values.ravel()).reshape(cells[..., 1:].shape)
        out[:, 0] *= lead  # no ";" before the first cell unless lead

    return len(columns) * cell, fill


def _compose(parts, rows: int) -> str:
    """The text of `rows` rows, row i the bytes of each part's row i.

    A part is constant bytes; a fixed-width bytes array, row i's text its
    item i; or a pair (width, fill) whose fill(out, start, stop) writes the
    slots of rows start .. stop - 1 into out, its columns of a block's byte
    matrix.  A slot with no character holds 0.  Each block of rows, at most
    _ROW_BLOCK_SLOTS slots or one row, fills the same matrix, constant
    parts written once, and one `np.compress` turns it into text, so the
    temporaries do not grow with `rows`.
    """
    widths = [
        len(part) if isinstance(part, bytes) else part.itemsize if isinstance(part, np.ndarray) else part[0]
        for part in parts
    ]
    ends = np.cumsum(widths).tolist()
    spans = list(zip(parts, [0, *ends], ends))
    per_block = max(1, min(rows, _ROW_BLOCK_SLOTS // ends[-1]))
    matrix = np.empty((per_block, ends[-1]), dtype=np.uint8)
    for part, first, end in spans:
        if isinstance(part, bytes):
            matrix[:, first:end] = np.frombuffer(part, dtype=np.uint8)
    pieces = []
    for start in range(0, rows, per_block):
        stop = min(start + per_block, rows)
        block = matrix[: stop - start]
        for part, first, end in spans:
            if isinstance(part, np.ndarray):
                block[:, first:end] = part[start:stop].view(np.uint8).reshape(len(block), -1)
            elif isinstance(part, tuple):
                part[1](block[:, first:end], start, stop)
        flat = block.ravel()
        pieces.append(str(np.compress(flat != 0, flat), "ascii"))  # decoded from its buffer
    return "".join(pieces)


def g12_rows(columns, block=None) -> str:
    """Rows of ``'%.12g'`` cells as text: row i is the i-th value of each
    column, joined by ";" and ended by a newline, and led by the label of
    block row i (its entries joined by "|") and a ";" when an (S, k)
    integer block is given."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    rows = len(columns[0]) if columns else 0
    parts = []
    if block is not None:
        rows = len(block)
        parts.append(_label_part(block, b"|"))
    if any(col.shape != (rows,) for col in columns):
        raise ValueError(f"every column must hold {rows} values")
    if columns:
        parts.append(_g12_part(columns, lead=block is not None))
    return _compose(parts + [b"\n"], rows)


def loss_csv_lines(
    block, c_sampled, c_eq, c_opt, loss_eq, loss_opt, nu, bits: bool = False
) -> str:
    """The semicolon-delimited CSV of per-state losses, header first, as one
    text with every line ended by a newline.

    block is the (S, k) integer block of each state's 1-based active-subband
    indices, and the other columns (sequences or arrays) hold its values,
    so a caller holding an index block and the batched capacities need not
    build a LossReport per state.  With bits=True a trailing loss_eq_bits
    column (loss_eq / log 2) is added.  The rows are `g12_rows`: the bytes
    of ``"|".join(map(str, label))`` and ``'%.12g' % float(x)``.
    """
    columns = [c_sampled, c_eq, c_opt, loss_eq, loss_opt, nu]
    if bits:
        columns.append(np.asarray(loss_eq, dtype=float) / np.log(2.0))
    header = LOSS_CSV_HEADER + (";loss_eq_bits" if bits else "")
    return header + "\n" + g12_rows(columns, block)


def _json_texts(columns) -> list[np.ndarray]:
    """Each column's values as the texts `json.dumps` writes for them, in a
    fixed-width bytes array (shorter texts padded with 0 bytes).

    The texts are the encoder's own: one `json.dumps` of the column's
    Python floats (never numpy scalars, whose repr differs), split at its
    ", " separators, so a finite float is its `float.__repr__` and the
    non-finite ones are the NaN, Infinity and -Infinity tokens.  A column
    whose values are bit for bit those of an earlier column (compared as
    int64 words, so 0.0 and -0.0, and NaN payloads, stay apart) reuses that
    column's texts instead of rendering them again.
    """
    rendered: list[tuple[np.ndarray, np.ndarray]] = []  # (int64 words, texts)
    out = []
    for column in columns:
        values = np.asarray(column, dtype=float)
        words = values.view(np.int64)
        for seen, texts in rendered:
            if np.array_equal(seen, words):
                break
        else:
            texts = np.array(json.dumps(values.tolist())[1:-1].split(", "), dtype="S")
            rendered.append((words, texts))
        out.append(texts)
    return out


def json_records(block, columns: dict, level: int) -> str:
    """The bytes of ``json.dumps(records, sort_keys=True, indent=2)`` for the
    list of records ``{"state": list(block[i]), key: columns[key][i], ...}``,
    nested ``level`` levels deep in an enclosing document.

    block is an (S, k) integer block.  Each record is one row of parts,
    instead of the encoder, which falls back to pure Python under `indent`:
    the texts of each column (`_json_texts`, rendered once per distinct
    column: the two loss columns of a state set whose c_opt equals c_eq
    share theirs) and the state's label.  Every key of columns sorts before
    "state".
    """
    keys = sorted(columns)
    if not keys or keys[-1] >= "state":
        raise ValueError(f"record keys must sort before 'state', got {keys}")
    texts = _json_texts([columns[key] for key in keys])
    pad = "  " * level
    indent = f"\n{pad}      "
    parts = [f"{pad}  {{\n".encode()]
    for key, column in zip(keys, texts):
        parts += [f'{pad}    "{key}": '.encode(), column, b",\n"]
    parts += [
        f'{pad}    "state": [{indent}'.encode(),
        _label_part(block, f",{indent}".encode()),
        f"\n{pad}    ]\n{pad}  }},\n".encode(),
    ]
    # every record ends with ",\n"; the last one's comes off
    return "[\n" + _compose(parts, len(block))[:-2] + f"\n{pad}]"
