"""Numeric columns to CSV text with the bytes of `repr`, a block of rows at a
time in numpy.

A block goes into one (rows, width) uint8 matrix, a slot of fixed width per
field: a sign byte and the characters, NUL in the bytes not used, then the
separator. Dropping the NULs leaves the CSV rows. Integers are written by
digit extraction. A float with 1e-4 <= |x| < 1e16 (which `repr` writes in
fixed notation) or ±0.0 is laid out positionally from its shortest
round-trip digits, found by Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020) with exact 64 x 64-bit products on 32-bit halves.
Other floats (exponent form, inf, nan) go through `repr`. Unsigned
arithmetic takes np.uint64 operands only: numpy 1.x promotes uint64 mixed
with int64 or Python ints to float64.
"""
import numpy as np

# Float values per matrix, as in 2048 rows of a trajectory table's 3 float
# fields: the writer's memory follows this, not the run's length, and a
# narrow table gets as many values per numpy call as a wide one.
BLOCK_FLOATS = 3 * 2048

_U, _M32 = np.uint64, np.uint64(0xFFFFFFFF)
_POW10 = np.array([10**i for i in range(20)], dtype=_U)
_POW10F = np.array([float(f"1e{i}") for i in range(-4, 17)])  # the doubles nearest 10^-4 .. 10^16
# _DIGITS4[i]: the 4 ASCII digits of i < 10^4, in memory order.
_PAIRS = np.array([ord(a) | ord(b) << 8 for a in "0123456789" for b in "0123456789"], np.uint32)
_DIGITS4 = (_PAIRS[:, None] | _PAIRS << 16).astype("<u4").reshape(-1)


def _scalings():
    """Schubfach's k, and 10^-k as g * 2^(h - 64) with 2^63 <= g < 2^64 (exact:
    5^-k < 2^47), per binary exponent 2^-14 .. 2^53, then for powers of 2."""
    q = np.arange(-66, 2)
    k = np.concatenate([(q * 78913) >> 18, (q * 1262611 - 524031) >> 22])
    five = [5 ** int(j) for j in -k]
    g = np.array([f << (64 - f.bit_length()) for f in five], dtype=_U)
    h = np.tile(q, 2) - k + np.array([f.bit_length() for f in five])
    return k, g, h.astype(_U)


_K, _G, _H = _scalings()


def _mul128(a, b):
    """(hi, lo) words of the exact 128-bit products a * b."""
    a0, a1, b0, b1 = a & _M32, a >> _U(32), b & _M32, b >> _U(32)
    x, y, a0, a1 = a1 * b0, a0 * b1, a0 * b0, a1 * b1
    b0 = (a0 >> _U(32)) + (x & _M32) + (y & _M32)
    a1 += (x >> _U(32)) + (y >> _U(32)) + (b0 >> _U(32))
    return a1, (b0 << _U(32)) | (a0 & _M32)


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e): d * 10^e is the shortest decimal that rounds to a, the nearest
    to a of those, for 1e-4 <= a < 1e16. d may end in zeros."""
    c = a.view(_U) & _U((1 << 52) - 1)
    closer = c == _U(0)
    i = (a.view(_U) >> _U(52)).astype(np.intp) + (closer * 68 - 1009)
    k, g, h = _K[i], _G[i], _H[i]
    c |= _U(1 << 52)
    # 4c, then 4c + 2 and 4c - 2 (4c - 1 when closer), times 10^-k * 2^q and
    # rounded to odd: the middle product, plus or minus g shifted.
    hi, lo = _mul128(g, c << (h + _U(2)))
    h += _U(1)
    upper, lower = lo + (g << h), lo - (g << (h - closer))
    odd = c & _U(1)
    upper = (hi + (g >> (_U(64) - h)) + (upper < lo) | (upper != _U(0))) - odd
    lower = (hi - (g >> (_U(64) - h + closer)) - (lower > lo) | (lower != _U(0))) + odd
    hi |= lo != _U(0)  # the middle product
    s = hi >> _U(2)
    sp = s // _U(10)
    wp_in = sp * _U(40) + _U(40) <= upper
    short = (lower <= sp * _U(40)) != wp_in
    u_in, w_in = lower <= s * _U(4), s * _U(4) + _U(4) <= upper
    near = (hi & _U(3)) + (s & _U(1)) > _U(2)  # past the midpoint 4s + 2, or on it with s odd
    s += (u_in != w_in) & w_in | (u_in == w_in) & near
    sp += wp_in
    np.copyto(s, sp, where=short)
    return s, k + short


def _ascii(u: np.ndarray, out: np.ndarray) -> None:
    """Write the last 4n digits of each u < 10^(4n), in ASCII, to the n 4-byte columns of out."""
    for i in range(out.shape[1] - 1, -1, -1):
        q = u // _U(10000)
        out[:, i] = _DIGITS4[(u - q * _U(10000)).astype(np.intp)]
        u = q


class _Cells:
    """Stacked cells of one kind: cell j is `width` bytes, a sign byte, then n
    bytes of text[j] from starts[j] (an int if the same for all) with a point
    after `whole` of them, all but lead[j] of those leading zeros; or, for the
    cells listed in fallback[0], the rows of fallback[1]."""

    def __init__(self, text, starts, n, whole, lead, sign, width, fallback):
        self.text, self.starts, self.n, self.whole = text.view(np.uint8), starts, n, whole
        self.lead, self.sign, self.width, self.fallback = lead, sign, width, fallback

    def write(self, cell: np.ndarray, part: slice) -> None:
        rows, n, whole = self.text[part], self.n, self.whole
        if isinstance(self.starts, int):
            cell[:, 1 : 1 + n] = rows[:, self.starts : self.starts + n]
        else:  # the n-byte windows starting at each byte of the rows
            flat = rows.reshape(-1)
            windows = np.ndarray((flat.size - n + 1, n), np.uint8, flat, 0, (1, 1))
            cell[:, 1 : 1 + n] = windows[self.starts[part] + np.arange(0, flat.size, rows.shape[1])]
        if n > whole:
            cell[:, whole + 2 : n + 2] = cell[:, whole + 1 : n + 1].copy()
            cell[:, whole + 1] = ord(".")
        lead = self.lead[part]
        for c in range(1, whole):
            cell[:, c] *= lead > whole - c
        cell[:, 0] = self.sign[part] * np.uint8(ord("-"))
        which, text = self.fallback
        mine = (which >= part.start) & (which < part.stop)
        cell[which[mine] - part.start] = text[mine]


def _ints(v: np.ndarray) -> _Cells:
    u = v.astype(np.int64).view(_U)
    np.negative(u, out=u, where=v < 0)
    nd = np.maximum(np.searchsorted(_POW10, u, side="right"), 1)
    n = int(nd.max())
    text = np.empty((len(u), -(-n // 4)), "<u4")
    _ascii(u, text)
    return _Cells(text, text.shape[1] * 4 - n, n, n, nd, v < 0, 1 + n,
                  (np.zeros(0, int), np.zeros((0, 1 + n), np.uint8)))


def _floats(x: np.ndarray) -> _Cells:
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)
    a[~fixed] = 1.0
    d, e = _shortest(a)
    z = np.flatnonzero(d % _U(10) == _U(0))  # strip trailing zeros
    dz, ez = d[z], e[z]
    for p in (16, 8, 4, 2, 1):
        hit = dz % _POW10[p] == _U(0)
        np.floor_divide(dz, _POW10[p], out=dz, where=hit)
        ez += hit * p
    d[z], e[z] = dz, ez
    # An integer ends in its units and a 0 after the point; a zero is 0.0.
    d *= _POW10[np.maximum(e + 1, 0)]
    np.minimum(e, -1, out=e)
    d *= fixed
    # Digits before the point (at most 0 below 1): the decimal exponent of
    # the shortest decimal, which is that of a (no power of 10 lies between).
    t = (((a.view(_U) >> _U(52)).astype(np.int64) - 1023) * 78913) >> 18
    point = t + 1 + (a >= _POW10F[t + 5])
    whole, frac = max(1, int(point.max())), int(-e.min())
    # Row bytes: [pad_l][24 digits, the last of power e][pad_r NUL]. The
    # columns left of the first digit kept are cleared, so pad_l stays unset.
    pad_l = -(-max(0, whole - 24 - int(e.min())) // 4)
    pad_r = -(-max(0, frac + int(e.max())) // 4)
    text = np.empty((len(x), pad_l + 6 + pad_r), "<u4")
    _ascii(d, text[:, pad_l : pad_l + 6])
    text[:, pad_l + 6 :] = 0
    which = np.flatnonzero(~fixed & (x != 0))  # exponent form, inf and nan: repr's text
    reprs = [repr(v) for v in x[which].tolist()]
    width = max(2 + whole + frac, *map(len, reprs), 0)
    own = np.frombuffer("".join(r.ljust(width, "\0") for r in reprs).encode(), np.uint8)
    return _Cells(text, e + (pad_l * 4 + 24 - whole), whole + frac, whole, np.maximum(point, 1),
                  np.signbit(x), width, (which, own.reshape(len(which), width)))


def block_rows(cols) -> int:
    """Rows per block of `cols`: BLOCK_FLOATS float values."""
    return BLOCK_FLOATS // max(1, sum(c.dtype.kind == "f" for c in cols))


def block(cols, fields: int) -> bytes:
    """CSV rows of one block of at least one row: row i holds element i of
    every column (int or float64), then blank fields up to `fields`, CRLF."""
    rows = len(cols[0])
    kinds = [c.dtype.kind == "f" for c in cols]
    cells = {f: (_floats if f else _ints)(np.concatenate([c for c, k in zip(cols, kinds) if k == f]))
             for f in set(kinds)}
    tail = ("," * (fields - len(cols)) + "\r\n").encode()
    mat = np.zeros((rows, sum(cells[k].width + 1 for k in kinds) - 1 + len(tail)), np.uint8)
    pos, seen = 0, dict.fromkeys(cells, 0)
    for kind in kinds:
        c = cells[kind]
        c.write(mat[:, pos : pos + c.width], slice(seen[kind] * rows, (seen[kind] + 1) * rows))
        seen[kind] += 1
        pos += c.width + 1
        mat[:, pos - 1] = ord(",")
    mat[:, pos - 1 :] = np.frombuffer(tail, np.uint8)
    return mat.tobytes().translate(None, b"\0")
