"""Boolean and vector-valued functions on packed bit inputs.

Conventions, shared package-wide:

* A width-w input (x_1, ..., x_w) is the integer sum_i x_i * 2^(w-i), so
  coordinate x_1 is the most significant bit and lexicographic order on bit
  strings equals numeric order on indices.
* f: {0,1}^n -> {0,1} is a dense table of 2^n bits indexed by packed input.
* F: {0,1}^m -> {0,1}^n is a dense table of 2^m output words; output
  component 1 is the most significant output bit.
* Walsh coefficients are stored as exact integers W[w] = 2^n * S_f(w) where
  S_f(w) = 2^-n * sum_x (-1)^(f(x) + w.x), so Parseval and the counting
  identity relating spectra to derivative counts hold exactly in int64.

Widths are capped at 24 bits; every table here is dense.
"""

from __future__ import annotations

import io
import re
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Union

import numpy as np

__all__ = [
    "MAX_WIDTH",
    "BooleanFunction",
    "VectorFunction",
    "WalshSpectrum",
    "walsh_spectrum",
    "autocorrelation",
    "derivative_table",
    "derivative_count",
    "differential_uniformity",
    "structure_free_uniformity",
    "linear_structures_exhaustive",
    "vector_structures_exhaustive",
    "restricted_spectral_mass",
    "random_boolean_function",
    "random_vector_function",
    "format_word_block",
    "parse_word_block",
    "save_function",
    "load_function",
]

MAX_WIDTH = 24


def _check_width(w: int, name: str = "width") -> None:
    if not 1 <= w <= MAX_WIDTH:
        raise ValueError(f"{name} must be in [1, {MAX_WIDTH}], got {w}")


class BooleanFunction:
    """A function {0,1}^n -> {0,1} held as a dense bit table."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table) -> None:
        _check_width(n, "n")
        self.n = n
        self.table = _word_table(table, n, 1, "truth table entries must be bits")

    def __call__(self, x: int) -> int:
        return _entry(self.table, x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.table, other.table))

    def __repr__(self) -> str:
        return f"BooleanFunction(n={self.n})"


def _word_dtype(bits: int) -> np.dtype:
    """The narrowest unsigned type that holds a `bits`-bit word: uint8 up to
    8 bits, uint16 up to 16, uint32 up to the 24-bit cap."""
    return np.min_scalar_type((1 << bits) - 1)


def _entry(table: np.ndarray, x: int) -> int:
    """table[x], for an integer x in [0, len(table)); numpy would wrap a
    negative x, raise IndexError on a float, whole or not, and read a bool as a mask."""
    if not isinstance(x, (int, np.integer)) or not 0 <= x < len(table):
        raise ValueError(f"input must be in [0, {len(table)}) and of an integer type, got {x!r}")
    return int(table[int(x)])


def _word_table(table, m: int, n: int, range_error: str) -> np.ndarray:
    """`table` as 2^m read-only n-bit words in `_word_dtype(n)`.  It is
    range-checked in its own type and then narrowed, with no copy when it is
    already narrow and contiguous, so no cast wraps or truncates an entry
    before the check; a table that is not of an integer or bool type must
    hold whole numbers."""
    t = np.asarray(table)
    if t.shape != (1 << m,):
        raise ValueError(f"table must have 2^{m} entries, got shape {t.shape}")
    if t.dtype.kind not in "biu" and not np.array_equal(t, np.floor(t)):
        raise ValueError("table entries must be whole numbers")
    # an unsigned table holds no negative entry, so component() pays one pass
    if t.max() >= 1 << n or t.dtype.kind != "u" and t.min() < 0:
        raise ValueError(range_error)
    t = np.ascontiguousarray(t, dtype=_word_dtype(n))
    t.setflags(write=False)
    return t


class VectorFunction:
    """A function {0,1}^m -> {0,1}^n held as a dense word table.

    The table is held in the narrowest unsigned type for n-bit words: uint8
    up to 8 output bits, uint16 up to 16, uint32 up to 24.  The table is
    range-checked in its own type and then narrowed, with no copy when it is
    already narrow and contiguous; a float table must hold whole numbers.
    component() returns uint8 bits.
    """

    __slots__ = ("m", "n", "table")

    def __init__(self, m: int, n: int, table) -> None:
        _check_width(m, "m")
        _check_width(n, "n")
        self.m = m
        self.n = n
        self.table = _word_table(table, m, n, f"table entries must fit in {n} output bits")

    def __call__(self, x: int) -> int:
        return _entry(self.table, x)

    def component(self, j: int) -> BooleanFunction:
        """Output bit j as a boolean function; j is 1-based, 1 = most significant."""
        if not 1 <= j <= self.n:
            raise ValueError(f"component index must be in [1, {self.n}], got {j}")
        bit = self.table >> (self.n - j)
        bit &= 1
        return BooleanFunction(self.m, bit.astype(np.uint8, copy=False))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorFunction):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and bool(np.array_equal(self.table, other.table))
        )

    def __repr__(self) -> str:
        return f"VectorFunction(m={self.m}, n={self.n})"


class WalshSpectrum:
    """Exact integer Walsh coefficients of a boolean function."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs) -> None:
        _check_width(n, "n")
        c = np.ascontiguousarray(coeffs, dtype=np.int64)
        if c.shape != (1 << n,):
            raise ValueError(f"spectrum must have 2^{n} entries, got shape {c.shape}")
        c.setflags(write=False)
        self.n = n
        self.coeffs = c

    def value(self, w: int) -> Fraction:
        """The normalized coefficient S_f(w) as an exact rational."""
        return Fraction(_entry(self.coeffs, w), 1 << self.n)

    def support(self) -> np.ndarray:
        """All w with nonzero coefficient (the possible sampler outcomes)."""
        return np.flatnonzero(self.coeffs)

    def __repr__(self) -> str:
        return f"WalshSpectrum(n={self.n})"


# A pass whose stride is under this many entries runs on the transposed copy
# of _wht, where numpy iterates it in long runs.  On a 2-core Xeon VM (2 MiB
# L2 per core), a (2^18, 1) int32 butterfly took 3.6 ms flat, its passes at
# strides of 4 and 16 entries 1.45 and 0.51 ms of it, against 0.09-0.33 ms
# for each pass at 64 or more; with the copy it took 2.0-2.3 ms.
_RUN = 64


def _wht(b: np.ndarray) -> np.ndarray:
    """Integer Walsh-Hadamard butterfly along axis 0, in place on the caller's
    fresh integer array of 2^w rows (by c columns), which it returns.  The
    dtype must hold 2^w * max|entry|, the largest sum a row can reach.

    The stages commute, so they run in two groups.  With lo the fewest low
    row bits whose 2^lo rows hold _RUN entries, the rows split as (2^hi,
    2^lo, c): the lo low stages run on one contiguous (2^lo, c, 2^hi) copy,
    where their strides are at least c * 2^hi entries, and the copy is
    written back; the hi high stages then run in place, from a stride of
    c * 2^lo entries.  Rows that already hold _RUN entries (lo = 0), or
    stages that the low group would cover alone (lo >= w), run in place."""
    f = b.reshape(-1)
    c = f.size // len(b)
    lo = (-(-_RUN // c) - 1).bit_length()
    hi = len(b).bit_length() - 1 - lo
    if lo and hi > 0:
        v = b.reshape(1 << hi, 1 << lo, c)
        t = np.ascontiguousarray(v.transpose(1, 2, 0))
        _passes(t.reshape(-1), c << hi)
        v[...] = t.transpose(2, 0, 1)
        c <<= lo
    _passes(f, c)
    return b


def _passes(f: np.ndarray, h: int) -> None:
    """The stages of strides h, 2h, ... below f.size, on the flat array f.

    Each radix-4 pass does two stages, at strides h and 2h, on the quarters
    a0..a3 of every block of 4h entries: with s = a0 + a1 and d = a0 - a1 it
    writes (s + t, d + u, s - t, d - u) for t = a2 + a3 and u = a2 - a3, and
    every temporary holds a value after one stage, so no entry leaves the
    bound of `_wht`.  An odd stage count leaves one radix-2 stage, run last
    at h = f.size / 2, where both halves are contiguous."""
    while 4 * h <= f.size:
        v = f.reshape(-1, 4, h)
        a0, a1, a2, a3 = v[:, 0], v[:, 1], v[:, 2], v[:, 3]
        s = a0 + a1
        d = a0 - a1
        # out is passed by position: at 2^4 to 2^8 rows the cost of each
        # numpy call, keyword parsing included, outweighs the arithmetic
        np.add(a2, a3, a0)
        np.subtract(a2, a3, a1)
        np.subtract(s, a0, a2)
        a0 += s
        np.subtract(d, a1, a3)
        a1 += d
        h *= 4
    if h < f.size:
        x, y = f[:h], f[h:]
        left = x.copy()
        x += y
        np.subtract(left, y, y)


# Every butterfly entry lies in [-2^width, 2^width]: each starts as a sign +-1,
# and each of the width stages maps a pair (x, y) to (x + y, x - y), which at
# most doubles the largest magnitude (a constant column reaches 2^width); the
# temporaries of _wht's radix-4 passes hold values after one stage, so they
# keep the same bound.  So int8 holds width <= 6, int16 width <= 14, and int32
# the rest up to the 24-bit cap.
def _sign_type(width: int) -> type:
    """The narrowest type that holds every entry of a width-bit butterfly."""
    return np.int8 if width <= 6 else np.int16 if width <= 14 else np.int32


def _butterfly(words: np.ndarray, shifts: np.ndarray, width: int) -> np.ndarray:
    """The Walsh butterfly of k boolean tables at once: table b is bit
    shifts[b, 0] of `words`, a (2^width, 1, c) word table with its data rows
    on axis 0.  The signs (-1)^bit are written straight into the narrowest
    type that holds them and transformed along axis 0 in one `_wht`; table b
    fills columns b * c to (b + 1) * c of the (2^width, k * c) result."""
    t = np.empty((len(words), len(shifts), words.shape[2]), _sign_type(width))
    # the cast keeps the low bits of each shifted word, and only bit 0 is kept
    np.right_shift(words, shifts, out=t, casting="unsafe")
    t &= 1
    t *= -2
    t += 1
    return _wht(t.reshape(len(t), -1))


# the shifts of a block of one boolean table, which holds its bits as they are
_NO_SHIFT = np.zeros((1, 1), dtype=np.uint8)


def walsh_spectrum(f: BooleanFunction) -> WalshSpectrum:
    """Integer Walsh transform of f: its narrow sign butterfly, widened to int64."""
    return WalshSpectrum(f.n, _butterfly(f.table.reshape(-1, 1, 1), _NO_SHIFT, f.n)[:, 0])


def autocorrelation(spec: WalshSpectrum) -> np.ndarray:
    """C(a) = sum_x (-1)^(f(x) + f(x ^ a)) for every direction a, exact.

    C = WHT(W^2) / 2^n (Wiener-Khinchin), so one more butterfly yields every
    derivative count: f(x ^ a) ^ f(x) is 1 on (2^n - C(a)) / 2 inputs.
    """
    c = _wht(spec.coeffs * spec.coeffs)
    c >>= spec.n
    return c


def derivative_table(f: BooleanFunction | VectorFunction, a: int,
                     width: int | None = None) -> np.ndarray:
    """x -> f(x ^ a) ^ f(x) for a direction a of the leading `width` input bits
    (all of them by default), words for a vector f and bits for a boolean f, as
    2^width rows: D[x, k] for a keyed family G(x || k) at width G.n."""
    bits = len(f.table).bit_length() - 1
    width = bits if width is None else width
    if not 1 <= width <= bits:
        raise ValueError(f"width must be in [1, {bits}], got {width}")
    rows = 1 << width
    if not 0 <= a < rows:
        raise ValueError(f"direction {a:#x} does not fit in {width} bits")
    t = f.table.reshape(rows, -1)
    d = np.take(t, np.arange(rows) ^ a, axis=0)
    d ^= t
    return d


def derivative_count(f: BooleanFunction, a: int, i: int) -> int:
    """|{x : f(x ^ a) ^ f(x) = i}| by direct table lookup."""
    if i not in (0, 1):
        raise ValueError(f"derivative value must be a bit, got {i}")
    d = derivative_table(f, a)
    return int(np.count_nonzero(d == i))


def differential_uniformity(f: BooleanFunction) -> Fraction:
    """Largest derivative bias: max over a != 0 and i of Pr_x[derivative = i]."""
    size = 1 << f.n
    c = autocorrelation(walsh_spectrum(f))[1:]
    return Fraction((size + int(np.abs(c).max())) // 2, size)


def structure_free_uniformity(f: BooleanFunction) -> Fraction | None:
    """Same maximum, restricted to directions that are not exact structures.

    Returns None when every nonzero direction is a structure (affine f).
    """
    size = 1 << f.n
    c = np.abs(autocorrelation(walsh_spectrum(f))[1:])
    c = c[c != size]
    return None if c.size == 0 else Fraction((size + int(c.max())) // 2, size)


def linear_structures_exhaustive(f: BooleanFunction) -> tuple[list[int], list[int]]:
    """(U^0, U^1): all directions with constant derivative 0 or 1; 0 is in U^0.

    Read off the spectrum: a is in U^i iff the whole squared mass sits on
    {w : w . a = i}, i.e. C(a) = +-2^n.
    """
    c = autocorrelation(walsh_spectrum(f))
    size = 1 << f.n
    return np.flatnonzero(c == size).tolist(), np.flatnonzero(c == -size).tolist()


def vector_structures_exhaustive(F: VectorFunction) -> list[tuple[int, int]]:
    """All (a, alpha) with F(x ^ a) = F(x) ^ alpha for every x; includes (0, 0).

    a qualifies iff every component j has |C_j(a)| = 2^m, and the sign of
    C_j(a) gives bit j of alpha.
    """
    size = 1 << F.m
    joint = np.ones(size, dtype=bool)
    alpha = np.zeros(size, dtype=np.int64)
    for j in range(1, F.n + 1):
        c = autocorrelation(walsh_spectrum(F.component(j)))
        joint &= np.abs(c) == size
        alpha |= (c < 0).astype(np.int64) << (F.n - j)
    return [(a, int(alpha[a])) for a in np.flatnonzero(joint).tolist()]


def restricted_spectral_mass(spec: WalshSpectrum, a: int, i: int) -> int:
    """Sum of squared integer coefficients over {w : w . a = i}, exact."""
    if i not in (0, 1):
        raise ValueError(f"mask value must be a bit, got {i}")
    ws = np.arange(1 << spec.n)
    sel = (np.bitwise_count(ws & a) & 1) == i
    c = spec.coeffs[sel]
    return int(np.sum(c * c))


def random_boolean_function(n: int, rng: np.random.Generator) -> BooleanFunction:
    return BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))


def random_vector_function(m: int, n: int, rng: np.random.Generator) -> VectorFunction:
    return VectorFunction(m, n, rng.integers(0, 1 << n, size=1 << m, dtype=np.int64))


# ---------------------------------------------------------------------------
# table files: a one-line header, then a word block: the table in index order
# as fixed-width hex words, 16 per line, each line ending in a newline.  Cipher
# files hold one block per table.  Round-trips bit-exactly.

_HEADER_BOOL = re.compile(r"^boolfn n=(\d+)$")
_HEADER_VEC = re.compile(r"^vecfn m=(\d+) n=(\d+)$")
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_HEX_VALUE = np.full(256, 255, dtype=np.uint8)  # byte -> hex digit value, 255 if none
_HEX_VALUE[_HEX_DIGITS] = np.arange(16)
_HEX_VALUE[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16)
_SEPARATOR = np.zeros(256, dtype=bool)  # byte -> whether it may follow a canonical word
_SEPARATOR[np.frombuffer(b" \n", dtype=np.uint8)] = True
# ASCII bytes other than "\n" that str.splitlines breaks a line at, or that
# str.strip strips and bytes.strip does not: a file that holds one is
# rewritten
_ODD_BYTES = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_BLANK = re.compile(rb"[ \t\n]*")  # the whitespace left in a file without them


def format_word_block(words, bits: int) -> bytes:
    """The word block of a table, each word zero-padded to ceil(bits/4) digits."""
    words = np.asarray(words)
    digits = max(1, (bits + 3) // 4)
    out = np.empty((len(words), digits + 1), dtype=np.uint8)
    # each nibble in one reused buffer of the word type, gathered by take: on
    # a 2-core VM a 2^18-word block took 0.50, 0.94, 2.8 and 3.3 ms at 4, 7, 18
    # and 24 bits, against 0.92, 1.7, 4.9 and 5.9 ms for _HEX_DIGITS[(words >> s)
    # & 15] (two temporaries and a fancy index per digit); 2^4 and 2^7 words
    # were no slower, so one gather serves every width
    nib = np.empty(len(words), dtype=words.dtype)
    for k in range(digits):
        np.right_shift(words, 4 * (digits - 1 - k), out=nib)
        nib &= 15
        out[:, k] = _HEX_DIGITS.take(nib)
    out[:, digits] = ord(" ")
    out[15::16, digits] = ord("\n")
    out[-1, digits] = ord("\n")
    return out.tobytes()


def _decode_canonical(raw, count: int, digits: int, dtype) -> np.ndarray | None:
    """The words of the bytes `raw` if they are `count` tokens of exactly
    `digits` ASCII hex digits, each followed by a space or a newline (the last
    one's may be missing), decoded in one pass into `dtype`; else None."""
    if len(raw) not in (count * (digits + 1) - 1, count * (digits + 1)):
        return None
    raw = np.frombuffer(raw, dtype=np.uint8)
    if not _SEPARATOR[raw[digits::digits + 1]].all():
        return None
    vals = np.zeros(count, dtype=dtype)
    for k in range(digits):
        nib = _HEX_VALUE[raw[k::digits + 1]]
        if nib.max() > 15:
            return None
        vals <<= 4
        vals |= nib
    return vals


def parse_word_block(block, m: int, bits: int, what: str) -> np.ndarray:
    """The 2^m words of a word block (bytes as a file holds them, or text),
    checked to fit in `bits` and held in the narrowest unsigned type for
    `bits`-bit words; both widths are checked first.  A canonical block, as
    format_word_block writes it, decodes in one vectorised pass; any other
    block is decoded as UTF-8 and goes token by token through int(t, 16),
    which gives the same words on canonical text, so both paths accept the
    same blocks with the same errors."""
    _check_width(m, f"{what}: input width")
    _check_width(bits, f"{what}: output width")
    count, dtype = 1 << m, _word_dtype(bits)
    if isinstance(block, str):
        block = block.encode()
    vals = _decode_canonical(block, count, max(1, (bits + 3) // 4), dtype)
    if vals is None:
        toks = str(block, "utf-8").split()
        if len(toks) != count:
            raise ValueError(f"{what}: expected {count} entries, got {len(toks)}")
        try:
            vals = np.fromiter(map(int, toks, repeat(16)), dtype=np.int64, count=count)
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from exc
        except OverflowError:
            vals = None  # an entry beyond int64 fits no table width
    if vals is None or int(vals.min()) < 0 or int(vals.max()) >= (1 << bits):
        raise ValueError(f"{what}: an entry does not fit in {bits} bits")
    return vals.astype(dtype, copy=False)


def _read_sections(path, marks: tuple[str, ...] = ()) -> list[tuple[str, memoryview]]:
    """A table file as (line, block) sections: its first non-blank line, and
    each later line that starts with one of `marks` once right-stripped, each
    with the rest of the file up to the next such line as its block, a
    memoryview of the file that reaches parse_word_block undecoded.  A file
    that is not ASCII, or that holds a byte of _ODD_BYTES, is first rewritten:
    decoded as Path.read_text decodes it (with its errors), split by
    str.splitlines, blank lines dropped and each line right-stripped, joined
    by "\\n" and encoded as UTF-8.  So every file is cut at "\\n" alone, into
    the lines and tokens its text holds."""
    data = Path(path).read_bytes()
    if not data.isascii() or any(c in data for c in _ODD_BYTES):
        text = io.TextIOWrapper(io.BytesIO(data)).read()
        data = "\n".join(ln.rstrip() for ln in text.splitlines() if ln.strip()).encode()
    first = _BLANK.match(data).end()
    if first == len(data):
        return []
    starts = [data.rfind(b"\n", 0, first) + 1]
    for mark in marks:
        key = b"\n" + mark.encode()
        at = data.find(key, starts[0])
        while at >= 0:
            end = data.find(b"\n", at + 1)
            if data[at + 1:end if end >= 0 else None].rstrip() != key[1:].rstrip():
                starts.append(at + 1)
            at = data.find(key, at + 1)
    starts.sort()
    view = memoryview(data)
    out = []
    for i, j in zip(starts, starts[1:] + [len(data)]):
        end = data.find(b"\n", i, j)
        end = j if end < 0 else end
        out.append((data[i:end].decode(), view[end + 1:j]))
    return out


def save_function(path, fn: Union[BooleanFunction, VectorFunction]) -> None:
    """Write a function table file (header line plus word block)."""
    if isinstance(fn, BooleanFunction):
        header, bits = f"boolfn n={fn.n}", 1
    elif isinstance(fn, VectorFunction):
        header, bits = f"vecfn m={fn.m} n={fn.n}", fn.n
    else:
        raise TypeError(f"cannot save object of type {type(fn).__name__}")
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        fh.write(format_word_block(fn.table, bits))


def load_function(path) -> Union[BooleanFunction, VectorFunction]:
    """Read a table file written by save_function."""
    sections = _read_sections(path)
    if not sections:
        raise ValueError(f"{path}: empty function file")
    line, block = sections[0]
    head = line.strip()
    m = _HEADER_BOOL.match(head)
    if m:
        n = int(m.group(1))
        return BooleanFunction(n, parse_word_block(block, n, 1, str(path)))
    m = _HEADER_VEC.match(head)
    if m:
        mm, n = int(m.group(1)), int(m.group(2))
        return VectorFunction(mm, n, parse_word_block(block, mm, n, str(path)))
    raise ValueError(f"{path}: unrecognized header {head!r}")
