"""Spectral and structure primitives against definitional oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvattack.boolfn import (
    MAX_WIDTH,
    BooleanFunction,
    VectorFunction,
    autocorrelation,
    derivative_count,
    derivative_table,
    differential_uniformity,
    format_word_block,
    linear_structures_exhaustive,
    load_function,
    parse_word_block,
    random_boolean_function,
    random_vector_function,
    restricted_spectral_mass,
    save_function,
    structure_free_uniformity,
    vector_structures_exhaustive,
    walsh_spectrum,
)
from bvattack.rng import seeded_rng

from oracles import (
    boolean_structures_direct,
    derivative_value_counts,
    hex_lines_direct,
    load_function_direct,
    parse_word_block_direct,
    restricted_mass_direct,
    vector_structures_direct,
    walsh_spectrum_direct,
)


def fn(n, bits):
    return BooleanFunction(n, np.array(bits, dtype=np.uint8))


LINEAR_X1 = fn(2, [0, 0, 1, 1])          # f(x) = x1, the high bit
AND2 = fn(2, [0, 0, 0, 1])               # f(x) = x1 x2
QUAD3 = fn(3, [0, 1, 0, 1, 0, 1, 1, 0])  # f(x) = x1 x2 + x3
ZERO3 = fn(3, [0] * 8)


# --- pinned spectra ----------------------------------------------------------


def test_spectrum_of_linear_function():
    # f(x)=x1 at n=2: all mass on w=10
    assert walsh_spectrum(LINEAR_X1).coeffs.tolist() == [0, 0, 4, 0]


def test_spectrum_of_constant_zero():
    # constant 0 puts all mass on w=0
    assert walsh_spectrum(ZERO3).coeffs.tolist() == [8, 0, 0, 0, 0, 0, 0, 0]


def test_spectrum_of_and():
    # x1 x2: normalized values (1/2, 1/2, 1/2, -1/2)
    spec = walsh_spectrum(AND2)
    assert spec.coeffs.tolist() == [2, 2, 2, -2]
    assert spec.value(3) == Fraction(-1, 2)


def test_spectrum_of_quadratic_example():
    # x1 x2 + x3: support exactly on odd w (w3 = 1)
    spec = walsh_spectrum(QUAD3)
    assert spec.coeffs.tolist() == [0, 4, 0, 4, 0, 4, 0, -4]
    assert sorted(spec.support().tolist()) == [1, 3, 5, 7]


@given(st.integers(1, 8), st.integers(0, 2**30))
def test_spectrum_matches_direct_sum(n, key):
    f = random_boolean_function(n, seeded_rng(key, 1))
    assert walsh_spectrum(f).coeffs.tolist() == walsh_spectrum_direct(f.table, n)


@given(st.integers(1, 10), st.integers(0, 2**30))
def test_parseval_exact(n, key):
    f = random_boolean_function(n, seeded_rng(key, 2))
    coeffs = walsh_spectrum(f).coeffs.astype(object)
    assert int((coeffs ** 2).sum()) == 4 ** n


# --- derivatives and structures ----------------------------------------------


def test_derivative_counts_on_and():
    # x1 x2 along a=11: flips iff x1 != x2, half the points
    assert derivative_count(AND2, 0b11, 0) == 2
    assert derivative_count(AND2, 0b11, 1) == 2


def test_uniformity_values():
    # delta(x1 x2) = 1/2; the quadratic has an exact structure so
    # delta = 1 but the structure-skipping variant is 1/2
    assert differential_uniformity(AND2) == Fraction(1, 2)
    assert differential_uniformity(QUAD3) == Fraction(1)
    assert structure_free_uniformity(QUAD3) == Fraction(1, 2)


def test_structure_free_uniformity_of_affine_is_none():
    assert structure_free_uniformity(LINEAR_X1) is None


def test_exhaustive_structures_of_quadratic():
    # only direction 001 is a structure, with constant 1
    assert linear_structures_exhaustive(QUAD3) == ([0], [1])


@given(st.integers(1, 6), st.integers(0, 2**30))
def test_exhaustive_structures_match_oracle(n, key):
    f = random_boolean_function(n, seeded_rng(key, 3))
    assert linear_structures_exhaustive(f) == boolean_structures_direct(f.table, n)


@given(st.integers(1, 8), st.integers(0, 2**30), st.data())
def test_derivative_count_matches_oracle(n, key, data):
    f = random_boolean_function(n, seeded_rng(key, 4))
    a = data.draw(st.integers(0, (1 << n) - 1))
    zeros, ones = derivative_value_counts(f.table, n, a)
    assert derivative_count(f, a, 0) == zeros
    assert derivative_count(f, a, 1) == ones


@given(st.integers(1, 8), st.integers(0, 2**30))
def test_autocorrelation_matches_derivative_counts(n, key):
    f = random_boolean_function(n, seeded_rng(key, 8))
    c = autocorrelation(walsh_spectrum(f))
    for a in range(1 << n):
        zeros, ones = derivative_value_counts(f.table, n, a)
        assert c[a] == zeros - ones


@given(st.integers(1, 8), st.integers(0, 2**30), st.data())
def test_restricted_mass_identity(n, key, data):
    """Spectral mass on {w : w.a = i} equals 2^n times the matching
    derivative count, exactly, dyadic arithmetic end to end."""
    f = random_boolean_function(n, seeded_rng(key, 5))
    a = data.draw(st.integers(1, (1 << n) - 1))
    i = data.draw(st.integers(0, 1))
    spec = walsh_spectrum(f)
    mass = restricted_spectral_mass(spec, a, i)
    assert mass == restricted_mass_direct(f.table, n, a, i)
    assert mass == (1 << n) * derivative_count(f, a, i)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**30))
def test_vector_structures_match_oracle(m, n, key):
    F = random_vector_function(m, n, seeded_rng(key, 7))
    assert vector_structures_exhaustive(F) == vector_structures_direct(F.table, m, n)


@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**30), st.data())
def test_vector_derivative_table_matches_loop(m, n, key, data):
    F = random_vector_function(m, n, seeded_rng(key, 11))
    a = data.draw(st.integers(0, (1 << m) - 1))
    want = [F(x ^ a) ^ F(x) for x in range(1 << m)]
    assert derivative_table(F, a).ravel().tolist() == want
    with pytest.raises(ValueError):
        derivative_table(F, 1 << m)
    # a direction of the leading `width` bits, one row per value of those bits
    width = data.draw(st.integers(1, m))
    a = data.draw(st.integers(0, (1 << width) - 1))
    lift = a << (m - width)
    want = [F(x ^ lift) ^ F(x) for x in range(1 << m)]
    d = derivative_table(F, a, width)
    assert d.shape == (1 << width, 1 << (m - width)) and d.ravel().tolist() == want
    with pytest.raises(ValueError):
        derivative_table(F, 1 << width, width)


# --- containers and validation -----------------------------------------------


def test_width_guard():
    with pytest.raises(ValueError):
        BooleanFunction(MAX_WIDTH + 1, np.zeros(1 << (MAX_WIDTH + 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        BooleanFunction(2, np.array([0, 1, 0], dtype=np.uint8))
    with pytest.raises(ValueError):
        BooleanFunction(1, np.array([0, 2], dtype=np.uint8))


def test_vector_component_convention():
    # component 1 is the most significant output bit
    F = VectorFunction(2, 2, np.array([0b00, 0b01, 0b10, 0b11]))
    assert F.component(1).table.tolist() == [0, 0, 1, 1]
    assert F.component(2).table.tolist() == [0, 1, 0, 1]
    # words wider than a byte: every bit, the ones above bit 7 included
    words = [0xabcdef, 0x123456, 0xffffff, 0, 0x800000, 0x000001, 0x555555, 0xaaaaaa]
    G = VectorFunction(3, 24, np.array(words))
    for j in range(1, 25):
        assert G.component(j).table.tolist() == [(w >> (24 - j)) & 1 for w in words], j
    with pytest.raises(ValueError):
        F.component(0)
    with pytest.raises(ValueError):
        F.component(3)


@pytest.mark.parametrize("n,dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16),
                                     (16, np.uint16), (17, np.uint32), (24, np.uint32)])
def test_vector_table_word_type(n, dtype):
    """Words are held in the narrowest unsigned type for n bits, every bit is
    kept, and components come out as uint8 bits."""
    words = [0, (1 << n) - 1, 1 << (n - 1), 1, 0x5555555 & ((1 << n) - 1), 3 % (1 << n), 0, 1]
    F = VectorFunction(3, n, np.array(words))
    assert F.table.dtype == dtype and F.table.tolist() == words
    for j in range(1, n + 1):
        c = F.component(j).table
        assert c.dtype == np.uint8 and c.tolist() == [(w >> (n - j)) & 1 for w in words], j
    # an integer table of any type is range-checked in its own type, then narrowed
    for src in (np.int8, np.uint16, np.int32, np.uint64):
        if (1 << n) - 1 <= np.iinfo(src).max:
            assert VectorFunction(3, n, np.array(words, dtype=src)).table.dtype == dtype
    with pytest.raises(ValueError, match="fit"):
        VectorFunction(3, n, np.array([1 << n] + words[1:], dtype=np.uint64))
    with pytest.raises(ValueError, match="fit"):
        VectorFunction(3, n, np.array([-1] + words[1:], dtype=np.int32))
    # a table already in the word type is kept, not copied
    narrow = np.array(words, dtype=dtype)
    assert np.shares_memory(VectorFunction(3, n, narrow).table, narrow)
    # a non-integer table goes through int64 first
    assert VectorFunction(3, n, np.array(words, dtype=float)).table.tolist() == words


@given(st.integers(1, 5), st.integers(6, 10), st.integers(0, 2**30))
def test_vector_structures_of_wide_words_match_oracle(m, n, key):
    """The exhaustive readout on uint8 and uint16 word tables, with planted
    structures so that there is something to find."""
    rng = seeded_rng(key, 8)
    a = int(rng.integers(1, 1 << m))
    alpha = int(rng.integers(0, 1 << n))
    xs = np.arange(1 << m)
    table = rng.integers(0, 1 << n, size=1 << m)
    reps = xs[xs < (xs ^ a)]
    table[reps ^ a] = table[reps] ^ alpha
    F = VectorFunction(m, n, table)
    assert F.table.dtype == np.min_scalar_type((1 << n) - 1)
    got = vector_structures_exhaustive(F)
    assert got == vector_structures_direct(F.table, m, n) and (a, alpha) in got


def test_callables():
    assert [AND2(x) for x in range(4)] == [0, 0, 0, 1]
    F = VectorFunction(2, 3, np.array([5, 1, 7, 0]))
    assert [F(x) for x in range(4)] == [5, 1, 7, 0]


def test_functions_compare_by_shape_and_table():
    f = BooleanFunction(2, [0, 1, 1, 0])
    assert f == BooleanFunction(2, np.array([0, 1, 1, 0], dtype=np.int64))
    assert f != BooleanFunction(2, [0, 1, 1, 1])
    assert f != BooleanFunction(3, [0, 1, 1, 0, 0, 1, 1, 0])
    F = VectorFunction(2, 3, [5, 1, 7, 0])
    assert F == VectorFunction(2, 3, np.array([5, 1, 7, 0], dtype=np.uint16))
    assert F != VectorFunction(2, 3, [5, 1, 7, 1])
    assert F != VectorFunction(2, 4, [5, 1, 7, 0])  # same words, other output width
    assert F != VectorFunction(3, 3, [5, 1, 7, 0, 5, 1, 7, 0])
    g = VectorFunction(2, 1, [0, 1, 1, 0])
    for a, b in ((f, g), (g, f), (f, 1), (F, "F"), (F, F.table)):
        assert type(a).__eq__(a, b) is NotImplemented
    assert f != g and g != f and f != 1 and F != "F"


# --- file round-trips ----------------------------------------------------------


@given(st.integers(1, 8), st.integers(0, 2**30))
def test_boolean_file_roundtrip(n, key):
    import tempfile
    f = random_boolean_function(n, seeded_rng(key, 8))
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/fn.txt"
        save_function(path, f)
        g = load_function(path)
    assert isinstance(g, BooleanFunction)
    assert g.n == f.n and g.table.tolist() == f.table.tolist()


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**30))
def test_vector_file_roundtrip(m, n, key):
    import tempfile
    F = random_vector_function(m, n, seeded_rng(key, 9))
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/fn.txt"
        save_function(path, F)
        G = load_function(path)
    assert isinstance(G, VectorFunction)
    assert (G.m, G.n) == (F.m, F.n)
    assert G.table.tolist() == F.table.tolist()


def test_load_rejects_bad_files(tmp_path):
    cases = {
        "empty.txt": "",
        "badheader.txt": "boolfn\n0 1\n",
        "badcount.txt": "boolfn n=2\n0 1 0\n",
        "badvalue.txt": "boolfn n=1\n0 5\n",
        "badhex.txt": "vecfn m=1 n=4\nq 3\n",
        "overflow.txt": "vecfn m=1 n=2\nf 3\n",
        "negative.txt": "vecfn m=1 n=2\n-1 3\n",
        "beyond_int64.txt": "vecfn m=1 n=2\n" + "f" * 17 + " 3\n",
        "zero_width.txt": "boolfn n=0\n0\n",
    }
    for name, text in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError):
            load_function(p)


def test_file_format_shape(tmp_path):
    """Vector tables are fixed-width hex, 16 words per line."""
    F = VectorFunction(5, 8, np.arange(32))
    path = tmp_path / "f.txt"
    save_function(path, F)
    lines = path.read_text().splitlines()
    assert lines[0] == "vecfn m=5 n=8"
    assert len(lines) == 3
    assert lines[1].split() == [f"{v:02x}" for v in range(16)]
    small = tmp_path / "g.txt"
    save_function(small, VectorFunction(2, 5, np.array([0, 1, 30, 17])))
    assert small.read_text() == "vecfn m=2 n=5\n00 01 1e 11\n"
    save_function(small, BooleanFunction(2, [0, 1, 1, 0]))
    assert small.read_text() == "boolfn n=2\n0 1 1 0\n"


def test_load_accepts_every_int_base16_token(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("vecfn m=2 n=8\n0xF +1 1_0 \u0663\n")
    assert load_function(path).table.tolist() == [15, 1, 16, 3]


def _load_outcome(load, path):
    """What loading a table file gives: the function's kind, widths and
    words, or the error's type and message."""
    try:
        fn = load(path)
    except (ValueError, IndexError) as exc:
        return type(exc).__name__, str(exc)
    return type(fn).__name__, getattr(fn, "m", fn.n), fn.n, fn.table.tolist()


# A saved 4 -> 5-bit table file and the edits of it that no longer read as a
# canonical file, each still accepted or refused as the text reader does.
_VEC_FILE = b"vecfn m=4 n=5\n" + format_word_block(np.arange(16) * 2 % 32, 5)
_FILE_EDITS = {
    "canonical": _VEC_FILE,
    "no final newline": _VEC_FILE[:-1],
    "blank lines": b"\n  \n" + _VEC_FILE.replace(b"\n", b"\n\n\t \n"),
    "header indented": b"  \t" + _VEC_FILE.replace(b"\n", b"   \n", 1),
    "crlf": _VEC_FILE.replace(b"\n", b"\r\n"),
    "cr": _VEC_FILE.replace(b"\n", b"\r"),
    "vertical tab": _VEC_FILE.replace(b" 02", b"\x0b02"),
    "form feed in header": _VEC_FILE.replace(b"m=4", b"\x0cm=4"),
    "file separator": _VEC_FILE.replace(b"\n", b"\x1c", 2),
    "unit separator": _VEC_FILE.replace(b" 02", b"\x1f02"),
    "0x": _VEC_FILE.replace(b"1e", b"0x1e"),
    "plus": _VEC_FILE.replace(b" 02 ", b" +2 "),
    "underscore": _VEC_FILE.replace(b" 04 ", b" 0_4 "),
    "upper case": _VEC_FILE.replace(b"1e", b"1E"),
    "arabic digit": _VEC_FILE.replace(b" 06 ", " \u0666 ".encode()),
    "no-break space": _VEC_FILE.replace(b" 08 ", "\u00a008 ".encode()),
    "line separator": _VEC_FILE.replace(b"\n", "\u2028".encode(), 2),
    "invalid utf-8": _VEC_FILE.replace(b"0a", b"\xff\xfe"),
    "latin-1 byte in header": _VEC_FILE.replace(b"vecfn", b"vecfn\xe9"),
    "wide token": _VEC_FILE.replace(b"1e", b"01e"),
    "too wide": _VEC_FILE.replace(b"1e", b"3f"),
    "missing token": _VEC_FILE.replace(b" 02", b""),
    "header only": b"vecfn m=4 n=5\n",
    "boolean": b"boolfn n=2\n0 1 1 0\n",
    "boolean, blank first": b"\n\nboolfn n=2\n0 1\n1\n0",
    "empty": b"",
    "blank": b" \n\t\n",
    "unknown header": b"fn n=2\n0 1 1 0\n",
}


@pytest.mark.parametrize("edit", list(_FILE_EDITS))
def test_load_function_reads_as_the_text_reader(tmp_path, edit):
    """Cut up as bytes or, for any other file, decoded as text, a function
    file loads as the whole-text reader loads it, errors included."""
    path = tmp_path / "f.txt"
    path.write_bytes(_FILE_EDITS[edit])
    want = _load_outcome(load_function_direct, path)
    assert _load_outcome(load_function, path) == want
    if edit == "canonical":
        assert want[0] == "VectorFunction"


@given(st.integers(0, len(_VEC_FILE)), st.integers(0, len(_VEC_FILE)),
       st.binary(max_size=3) | st.sampled_from([b"\r", b"\x0b", b"\x1e", b"\x1f", b"\xc2\x85",
                                                 b"\n\n", b"  ", b"\t"]))
def test_edited_function_file_reads_as_the_text_reader(tmp_path_factory, i, j, insert):
    """Any span of the saved file replaced by a few bytes loads as the
    whole-text reader loads the edited file."""
    i, j = min(i, j), max(i, j)
    path = tmp_path_factory.mktemp("edit") / "f.txt"
    path.write_bytes(_VEC_FILE[:i] + insert + _VEC_FILE[j:])
    assert _load_outcome(load_function, path) == _load_outcome(load_function_direct, path)


@given(st.integers(1, 6), st.integers(1, 24), st.integers(0, 2**30))
def test_word_block_matches_per_word_formatting(m, bits, key):
    words = random_vector_function(m, bits, seeded_rng(key, 10)).table
    block = format_word_block(words, bits).decode()
    assert block == "".join(f"{line}\n" for line in hex_lines_direct(words, bits))
    assert parse_word_block(block, m, bits, "block").tolist() == words.tolist()


# --- canonical decode against the per-token reference -----------------------------


def _mutate(text: str, kind: str, i: int, bits: int) -> str:
    """A saved word block with one edit; i picks where (and, for some kinds, what)."""
    width = max(1, (bits + 3) // 4)
    digits = [k for k, c in enumerate(text) if c not in " \n"]
    seps = [k for k, c in enumerate(text) if c == " "]
    ends = [k for k, c in enumerate(text) if c == "\n"]
    digit, sep, end = digits[i % len(digits)], seps[i % len(seps)], ends[i % len(ends)]
    tok = digit - digit % (width + 1)
    wide = format((1 << bits) + i % 3, f"0{width}x")
    return {
        "non-hex": lambda: text[:digit] + "gxz-.+_#"[i % 8] + text[digit + 1:],
        "upper": lambda: text[:tok] + text[tok:tok + width].upper() + text[tok + width:],
        "short": lambda: text[:digit] + text[digit + 1:],
        "long": lambda: text[:digit] + "0123456789abcdef"[i % 16] + text[digit:],
        "double-space": lambda: text[:sep] + " " + text[sep:],
        "tab": lambda: text[:sep] + "\t" + text[sep + 1:],
        "trailing-space": lambda: text[:end] + " " + text[end:],
        "crlf": lambda: text[:end] + "\r" + text[end:],
        "cr": lambda: text[:sep] + "\r" + text[sep + 1:],
        "nbsp": lambda: text[:sep] + "\xa0" + text[sep + 1:],
        "arabic-digit": lambda: text[:digit] + "\u0663" + text[digit + 1:],
        "0x": lambda: text[:tok] + "0x" + text[tok:],
        "missing-token": lambda: text[:tok] + text[tok + width + 1:],
        "extra-token": lambda: text[:tok] + text[tok:tok + width + 1] + text[tok:],
        "too-wide": lambda: text[:tok] + wide + text[tok + width:],
        "byte": lambda: text[:i % len(text)] + chr(32 + i % 95) + text[i % len(text) + 1:],
    }[kind]()


_MUTATIONS = ("non-hex", "upper", "short", "long", "double-space", "tab", "trailing-space",
              "crlf", "cr", "nbsp", "arabic-digit", "0x", "missing-token", "extra-token",
              "too-wide", "byte")


def _parse_outcome(parse, block, m: int, bits: int, dtype):
    """The words parsed from a block, or the ValueError message; parsed words
    must come in `dtype`."""
    try:
        vals = parse(block, m, bits, "block")
    except ValueError as exc:
        return str(exc)
    assert vals.dtype == dtype
    return vals.tolist()


def _assert_decode_matches_reference(m, bits, key, kind, i):
    """The block as text and as its UTF-8 bytes parses as the per-token
    reference parses its non-blank lines, into the narrow word type."""
    words = random_vector_function(m, bits, seeded_rng(key, 11)).table
    text = format_word_block(words, bits).decode()
    if kind is not None:
        text = _mutate(text, kind, i, bits)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    want = _parse_outcome(parse_word_block_direct, lines, m, bits, np.int64)
    narrow = np.min_scalar_type((1 << bits) - 1)
    assert _parse_outcome(parse_word_block, text, m, bits, narrow) == want
    assert _parse_outcome(parse_word_block, text.encode(), m, bits, narrow) == want
    if kind is None:
        assert want == words.tolist()


@given(st.integers(1, 6), st.integers(1, 24), st.integers(0, 2**30),
       st.sampled_from((None,) + _MUTATIONS), st.integers(0, 2**16))
def test_decode_equals_per_token_reference(m, bits, key, kind, i):
    _assert_decode_matches_reference(m, bits, key, kind, i)


@pytest.mark.parametrize("m,bits", [(1, 1), (1, 4), (1, 5), (1, 24), (5, 1), (5, 4), (5, 5),
                                    (5, 24)])
def test_decode_equals_per_token_reference_pinned(m, bits):
    for kind in (None,) + _MUTATIONS:
        for i in range(5):
            _assert_decode_matches_reference(m, bits, 12, kind, i)
