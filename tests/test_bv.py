"""Measurement sampler: exact outcome law, determinism, query accounting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bvattack.boolfn import (
    MAX_WIDTH,
    BooleanFunction,
    _wht,
    random_boolean_function,
    walsh_spectrum,
)
from bvattack.ciphers import ToyCipher, toy_zero_key_family
from bvattack.experiments import inner_product_function, planted_boolean
from bvattack.bv import _BLOCK, MAX_DRAWS, BvSampler, QueryLedger, _set_blocks
from bvattack.rng import seeded_rng

from oracles import (
    TOY_SHAPES,
    butterfly_sampler_direct,
    full_spectrum_draws,
    marginal_draws_direct,
    marginal_masses_direct,
    row_masses_einsum,
    sample_distribution_direct,
    toy_reduced_family,
    wht_radix2,
)

# chi-square seeds are pinned; if an implementation change shifts the stream,
# re-pin once after confirming the distribution is otherwise healthy
CHI2_ALPHA = 1e-3


def fn(n, bits):
    return BooleanFunction(n, np.array(bits, dtype=np.uint8))


def test_constant_function_always_measures_zero():
    # all spectral mass of a constant sits at w=0
    out = BvSampler(fn(3, [1] * 8), 1).draw(50)
    assert np.all(out == 0)


def test_linear_function_recovers_its_vector():
    # f(x) = x.a yields a with certainty, the noiseless case
    for a in range(1, 8):
        table = [bin(a & x).count("1") & 1 for x in range(8)]
        out = BvSampler(fn(3, table), (2, a)).draw(20)
        assert np.all(out == a)


@given(st.integers(1, 8), st.integers(0, 2**30))
def test_outcomes_stay_on_spectrum_support(n, key):
    f = random_boolean_function(n, seeded_rng(key, 10))
    support = set(walsh_spectrum(f).support().tolist())
    out = BvSampler(f, (key, 11)).draw(64)
    assert set(out.tolist()) <= support


def test_distribution_matches_exact_law_chi2():
    """1e5 draws against the definitional squared-coefficient law."""
    f = random_boolean_function(4, seeded_rng(777))
    probs = sample_distribution_direct(f.table, 4)
    draws = 100_000
    out = BvSampler(f, 778).draw(draws)
    observed = np.bincount(out, minlength=16)
    keep = [k for k in range(16) if probs[k] > 0]
    obs = [int(observed[k]) for k in keep]
    exp = [float(probs[k]) * draws for k in keep]
    assert sum(int(observed[k]) for k in range(16) if k not in keep) == 0
    _, pvalue = stats.chisquare(obs, exp)
    assert pvalue > CHI2_ALPHA


def test_uniform_case_chi2():
    # x1 x2 has |coeff| = 2 everywhere: uniform over 4 outcomes
    f = fn(2, [0, 0, 0, 1])
    out = BvSampler(f, 779).draw(40_000)
    observed = np.bincount(out, minlength=4)
    _, pvalue = stats.chisquare(observed, [10_000.0] * 4)
    assert pvalue > CHI2_ALPHA


def test_equal_seeds_give_equal_streams():
    f = random_boolean_function(5, seeded_rng(5))
    a = BvSampler(f, (9, 1)).draw(100)
    b = BvSampler(f, (9, 1)).draw(100)
    assert a.tolist() == b.tolist()


def test_distinct_stream_components_differ():
    f = random_boolean_function(6, seeded_rng(6))
    a = BvSampler(f, (9, 1)).draw(200)
    b = BvSampler(f, (9, 2)).draw(200)
    assert a.tolist() != b.tolist()


def test_nested_seed_keys_flatten():
    f = random_boolean_function(4, seeded_rng(4))
    a = BvSampler(f, ((3, 4), 5)).draw(32)
    b = BvSampler(f, (3, 4, 5)).draw(32)
    assert a.tolist() == b.tolist()


def test_ledger_charges_one_quantum_per_draw():
    led = QueryLedger()
    s = BvSampler(random_boolean_function(4, seeded_rng(12)), (13,), led)
    s.draw(10)
    s.draw(1)
    s.draw(0)
    assert led.quantum == 11
    assert led.classical == 0


def test_ledger_validation():
    led = QueryLedger()
    led.add_classical(3)
    assert led.snapshot() == {"quantum": 0, "classical": 3}
    with pytest.raises(ValueError):
        led.add_quantum(-1)
    s = BvSampler(random_boolean_function(3, seeded_rng(14)), (15,))
    with pytest.raises(ValueError):
        s.draw(-1)


def test_draw_budget_checked_before_drawing():
    class NoDraws:
        def integers(self, *args, **kwargs):
            raise AssertionError("draws allocated before the budget check")

    led = QueryLedger()
    s = BvSampler(random_boolean_function(3, seeded_rng(16)), (17,), led)
    s._rng = NoDraws()
    with pytest.raises(ValueError, match="budget"):
        s.draw(MAX_DRAWS + 1)
    # a sample set of no samples has no pivot
    for count, match in ((0, "pivot"), (-1, "budget"), (MAX_DRAWS + 1, "budget")):
        with pytest.raises(ValueError, match=match):
            s.sample_set(count)
    assert led.quantum == 0


# --- truncated sampler: the exact marginal law of the leading bits ------------


@given(st.integers(1, 10), st.integers(0, 2**30),
       st.one_of(st.integers(1, 300), st.integers((1 << 12) - 2, 3 << 12)))
def test_truncated_draws_are_full_draws_shifted(n, key, p):
    f = random_boolean_function(n, seeded_rng(key, 30))
    full = full_spectrum_draws(f, (key, 31), p)
    assert BvSampler(f, (key, 31)).draw(p).tolist() == full.tolist()
    for width in range(1, n + 1):
        s = BvSampler(f, (key, 31), width=width)
        assert s.n == width
        assert s.draw(p).tolist() == (full >> (n - width)).tolist(), width


@given(st.integers(1, 6), st.integers(0, 2**30))
def test_marginal_masses_match_grouped_squares(n, key):
    f = random_boolean_function(n, seeded_rng(key, 32))
    for width in range(1, n + 1):
        s = BvSampler(f, (key,), width=width)
        masses = [0] * (1 << width)
        for w, m in zip(s.outcomes.tolist(), np.diff(s._cum, prepend=0).tolist()):
            masses[w] = m
        assert masses == marginal_masses_direct(f.table, n, width), width
        assert int(s._cum[-1]) == 4 ** n


@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**30))
def test_butterfly_along_rows_is_walsh_per_column(n, cols, key):
    fs = [random_boolean_function(n, seeded_rng(key, 33, c)) for c in range(cols)]
    got = _wht(np.stack([1 - 2 * f.table.astype(np.int64) for f in fs], axis=1))
    for c, f in enumerate(fs):
        assert got[:, c].tolist() == walsh_spectrum(f).coeffs.tolist()


_WHT_TYPES = (np.int8, np.int16, np.int32, np.int64)


@given(st.sampled_from(_WHT_TYPES), st.integers(0, 5), st.data())
def test_butterfly_matches_the_radix2_reference(dtype, cols, data):
    # 2^0 to 2^16 rows, both parities of w (an odd w ends on one radix-2
    # stage), a 1-D array (cols = 0) or 1 to 5 columns; entries up to the
    # largest magnitude whose 2^w-fold sum the type still holds
    w = data.draw(st.integers(0, min(16, np.iinfo(dtype).bits - 2)), label="w")
    top = int(np.iinfo(dtype).max) >> w
    shape = (1 << w, cols) if cols else (1 << w,)
    b = seeded_rng(data.draw(st.integers(0, 2**30), label="key"), 37).integers(
        -top, top, size=shape, endpoint=True).astype(dtype)
    want = wht_radix2(b.copy())
    got = _wht(b)
    assert got is b and got.dtype == dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype,w", [(np.int8, 5), (np.int8, 6), (np.int16, 13), (np.int16, 14)])
def test_butterfly_reaches_each_narrow_limit(dtype, w):
    # a constant or affine sign column (-1)^(a . x ^ c) transforms to one
    # entry (-1)^c 2^w at a, zeros elsewhere: 64 is the widest int8 reach
    # (w = 6, the sampler's int8 limit), 16384 the widest int16 reach (w = 14)
    x = np.arange(1 << w)
    forms = [(0, 0), (0, 1), (1, 0), (1 << (w - 1), 1), ((1 << w) - 1, 0), (0b101101 % (1 << w), 1)]
    b = np.stack([1 - 2 * ((np.bitwise_count(x & a) & 1) ^ c) for a, c in forms], axis=1)
    b = b.astype(dtype)
    want = np.zeros(b.shape, dtype=np.int64)
    for j, (a, c) in enumerate(forms):
        want[a, j] = (1 - 2 * c) << w
    assert np.array_equal(wht_radix2(b.copy()), want)
    assert np.array_equal(_wht(b), want)


def test_truncated_width_validation():
    f = random_boolean_function(4, seeded_rng(34))
    for width in (0, 5):
        with pytest.raises(ValueError, match="width"):
            BvSampler(f, (35,), width=width)


# --- translated sampler: the keyed family from its zero-key slice ------------


@pytest.mark.parametrize("preset,n,rounds", TOY_SHAPES)
@settings(max_examples=3)
@given(st.integers(0, 2**30), st.data())
def test_zero_key_slice_samples_the_keyed_family(preset, n, rounds, key, data):
    """G(x || k1 || k') = G0(x ^ k1 || k'), so a sampler on a component of G0
    with translated = n has the outcomes, cumulative masses, draws, sample
    sets and stream of the sampler on the same component of G."""
    pub = ToyCipher.generate(n, preset, seed=(key, 36), rounds=rounds).public
    j = data.draw(st.integers(1, n))
    count = data.draw(st.integers(1, 3 * _BLOCK))
    full = BvSampler(toy_reduced_family(pub).component(j), (key, j), width=n)
    part = BvSampler(toy_zero_key_family(pub).component(j), (key, j), width=n, translated=n)
    for got, want in ((part.outcomes, full.outcomes), (part._cum, full._cum),
                      (part.draw(count), full.draw(count))):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert part.sample_set(count) == full.sample_set(count)
    assert part._rng.bit_generator.state == full._rng.bit_generator.state


def test_translated_is_checked_before_anything_is_allocated():
    f = random_boolean_function(20, seeded_rng(37))
    for t in (-1, MAX_WIDTH - 20 + 1):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="translated must be in \\[0, 4\\]"):
                BvSampler(f, (38,), width=8, translated=t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < f.table.nbytes // 16, t  # the signs' copy alone is the whole table
    # the widest accepted family: uniforms from [0, 4^24)
    assert int(BvSampler(f, (38,), width=8, translated=MAX_WIDTH - 20)._cum[-1]) == 4 ** MAX_WIDTH


def _top_bent(n: int) -> BooleanFunction:
    """x1 x2 + x3 x4 on the top four of n bits: the 16 outcomes are the
    multiples of 2^(n - 4), so the support is not arange."""
    x = np.arange(1 << n) >> (n - 4)
    return BooleanFunction(n, ((x >> 3) & (x >> 2) ^ (x >> 1) & x) & 1)


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_table_draws_across_block_boundaries(count):
    """A draw maps u to outcomes block by block; every block, the short last
    one included, gives the full-spectrum reference's draws."""
    cases = [
        # n = 1: one outcome, u itself is one of 4 values
        (fn(1, [0, 1]), None, lambda s: s.outcomes.tolist() == [1]),
        (fn(1, [1, 1]), None, lambda s: s.outcomes.tolist() == [0]),
        # a random function at full width
        (random_boolean_function(6, seeded_rng(0, 40)), None, lambda s: s.n == 6),
        # the marginal law of the leading 5 of 9 bits
        (random_boolean_function(9, seeded_rng(0, 41)), 5, lambda s: s.n == 5),
        # 16 outcomes spaced 16 apart
        (_top_bent(8), None, lambda s: s.outcomes.tolist() == list(range(0, 256, 16))),
        # x1...x8: one mass of 254^2 and 255 crowded masses of 4
        (fn(8, [0] * 255 + [1]), None, lambda s: len(s.outcomes) == 256),
    ]
    for f, width, shape in cases:
        s = BvSampler(f, (42,), width=width)
        got = s.draw(count)
        full = full_spectrum_draws(f, (42,), count)
        assert got.tolist() == (full >> (f.n - s.n)).tolist(), f.n
        assert shape(s), f.n


@pytest.mark.parametrize("n", [6, 12, 16])
def test_large_draw_allocates_no_other_full_length_array(n):
    """A draw writes each block's outcomes back over its uniforms, so at its
    peak it holds the uniforms and at most a few blocks of indices."""
    s = BvSampler(random_boolean_function(n, seeded_rng(n, 47)), (48,))
    count = 1 << 20
    tracemalloc.start()
    try:
        out = s.draw(count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == count and peak <= out.nbytes + 4 * _BLOCK * 8, peak


# --- narrow butterflies ----------------------------------------------------------------


def _extreme_or_random(n: int, kind: str, key: int) -> BooleanFunction:
    """A random, constant or affine function of n bits; the constant and
    affine ones put a butterfly entry at +-2^width, the bound its type must
    hold."""
    rng = seeded_rng(key, 44)
    if kind == "random":
        return random_boolean_function(n, rng)
    c = int(rng.integers(0, 2))
    a = int(rng.integers(0, 1 << n)) if kind == "affine" else 0
    return BooleanFunction(n, (np.bitwise_count(np.arange(1 << n) & a) & 1) ^ c)


def _assert_sampler_equals_int64_reference(f: BooleanFunction, width: int, key: int) -> None:
    s = BvSampler(f, (key,), width=width)
    outcomes, cum = butterfly_sampler_direct(f.table, f.n, width)
    assert s.outcomes.tolist() == outcomes.tolist()
    assert s._cum.tolist() == cum.tolist()
    want = marginal_draws_direct(f.table, f.n, width, (key,), 1 << 13)
    assert s.draw(1 << 13).tolist() == want.tolist()


@given(st.integers(1, 16), st.integers(0, 2), st.sampled_from(("random", "constant", "affine")),
       st.integers(0, 2**30))
def test_narrow_butterfly_equals_int64_reference(width, extra, kind, key):
    """The sampler's int8, int16 or int32 butterfly gives the outcomes, the
    cumulative masses and the draws of an int64 reference butterfly."""
    f = _extreme_or_random(min(16, width + extra), kind, key)
    _assert_sampler_equals_int64_reference(f, width, key)


@pytest.mark.parametrize("width", [6, 7, 8, 14, 15, 16])
@pytest.mark.parametrize("kind", ["constant", "affine"])
def test_butterfly_type_switch_points(width, kind):
    """Around width 6/7 and 14/15, where int8 and int16 stop holding
    2^width, constant and affine functions reach the bound exactly."""
    for n in (width, width + 1):
        f = _extreme_or_random(n, kind, 45)
        _, cum = butterfly_sampler_direct(f.table, n, width)
        assert len(cum) == 1  # all the mass on one outcome: one entry is +-2^width
        _assert_sampler_equals_int64_reference(f, width, 45)


@pytest.mark.parametrize("n, width", [
    (24, 6), (23, 7), (18, 12), (16, 14),  # n + width = 30: the row mass fits int32
    (24, 7), (19, 12), (17, 14), (16, 15),  # n + width = 31: it does not
    (6, 6), (7, 7), (14, 14), (15, 15), (16, 16),  # width == n: the squares themselves
])
def test_row_masses_at_their_type_bounds(n, width):
    """A constant function puts the largest row mass there is, 2^(n + width),
    on row 0; every build keeps it exact, as an int64 einsum does."""
    f = BooleanFunction(n, np.full(1 << n, (n + width) & 1, dtype=np.uint8))
    s = BvSampler(f, (46,), width=width)
    masses = row_masses_einsum(f.table, width)
    assert masses[0] == 1 << (n + width) and not masses[1:].any()
    assert s.outcomes.tolist() == [0]
    assert s._cum.tolist() == [int(masses[0]) << (n - width)] == [4 ** n]


# --- sample sets: the pivot and the distinct outcomes of a draw -----------------------


def _sample_set_function(kind: str, n: int, key: int) -> BooleanFunction:
    """A random, affine, bent (n rounded up to even) or planted function of n
    bits, or the 10-bit point function x1...x10: outcome 0 has mass
    (2^10 - 2)^2 and every other one mass 4, so no draw here sees them all."""
    rng = seeded_rng(key, 80)
    x = np.arange(1 << n)
    if kind == "random":
        return random_boolean_function(n, rng)
    if kind == "affine":
        a, c = int(rng.integers(0, 1 << n)), int(rng.integers(0, 2))
        return BooleanFunction(n, (np.bitwise_count(x & a) & 1) ^ c)
    if kind == "bent":
        return inner_product_function(n + (n & 1))
    if kind == "planted":
        return planted_boolean(n, rng)[0]
    return fn(10, [0] * 1023 + [1])


def _draw_set(f: BooleanFunction, key, width, count: int) -> tuple[int, list[int]]:
    out = BvSampler(f, key, width=width).draw(count)
    return int(out[0]), sorted(set(out.tolist()))


SET_COUNTS = [1, 2, 100, (1 << 12) - 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


@given(st.sampled_from(["random", "affine", "bent", "planted", "point"]), st.integers(1, 10),
       st.integers(0, 2**30), st.sampled_from(SET_COUNTS), st.data())
def test_sample_set_is_pivot_and_distinct_of_draw(kind, n, key, count, data):
    """For one key, sample_set gives the first outcome and the sorted distinct
    outcomes of draw, at full and truncated width."""
    f = _sample_set_function(kind, n, key)
    width = data.draw(st.sampled_from([None, f.n]) | st.integers(1, f.n))
    s = BvSampler(f, (key, 81), width=width)
    assert s.sample_set(count) == _draw_set(f, (key, 81), width, count)


def _counting_lookups(monkeypatch) -> list:
    """Patch BvSampler._lookup to record how many blocks each call yields."""
    blocks = []
    lookup = BvSampler._lookup

    def counted(self, u):
        blocks.append(0)
        for block in lookup(self, u):
            blocks[-1] += 1
            yield block

    monkeypatch.setattr(BvSampler, "_lookup", counted)
    return blocks


def test_set_blocks_schedule():
    """The first block holds about eight draws per outcome and at least 2^9,
    each next one eight times more up to _BLOCK, and the last one ends at
    the count."""
    assert list(_set_blocks(100_000, 32)) == [512, 4096, _BLOCK, _BLOCK, 29_856]
    assert list(_set_blocks(5000, 1)) == [512, 4096, 392]
    assert list(_set_blocks(5000, 256)) == [4096, 904]
    assert list(_set_blocks(70_000, 5000)) == [_BLOCK, _BLOCK, 4464]
    assert list(_set_blocks(300, 64)) == [300]
    assert list(_set_blocks(1, 1 << 20)) == [1]


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 3 * _BLOCK])
def test_sample_set_stops_once_saturated(count, monkeypatch):
    """A sample set draws and looks up the blocks of _set_blocks, and stops at
    the first one after which every outcome has shown, or scans every block
    when some outcome never shows; either way it is the draw's pivot and
    distinct set."""
    blocks = _counting_lookups(monkeypatch)
    # (function, outcomes its first block misses): one outcome, none missed;
    # 128 and 256 outcomes whose first blocks of 2^11 and 2^12 draws miss 25
    # and 38 (pinned seeds), so they saturate in a later block or never; the
    # point function, which never saturates
    cases = [(_sample_set_function("affine", 6, 1), 0)]
    for n, missed in ((7, 25), (8, 38)):
        cases.append((random_boolean_function(n, seeded_rng(0, 70)), missed))
    cases.append((_sample_set_function("point", 10, 0), None))
    for f, missed in cases:
        out = BvSampler(f, (71,)).draw(count).tolist()
        s = BvSampler(f, (71,))
        support = len(s.outcomes)
        seen = [len(set(out[:end])) for end in np.cumsum(list(_set_blocks(count, support)))]
        # the first saturating block, or every block
        scanned = seen.index(support) + 1 if support in seen else len(seen)
        if missed is None:
            assert seen[-1] < support
        else:
            assert support - seen[0] == missed, f.n
        del blocks[:]
        assert s.sample_set(count) == (out[0], sorted(set(out))), f.n
        assert blocks == [scanned], f.n


def _set_and_state(s: BvSampler, key, pre: int, count: int, full: bool):
    """(pivot, distinct, generator state, next draws) after `pre` 32-bit
    draws, which may leave a half-word buffered, and then either a sample set
    of `count` or a full draw of `count` from a fresh stream for `key`."""
    s._rng = seeded_rng(key)
    s._rng.integers(0, 1 << 32, size=pre, dtype=np.int64)
    if full:
        out = s.draw(count).tolist()
        got = out[0], sorted(set(out))
    else:
        got = s.sample_set(count)
    return got, s._rng.bit_generator.state, s.draw(3).tolist()


@given(st.one_of(st.integers(1, 16), st.integers(17, 18)),
       st.sampled_from(("random", "constant", "affine")), st.integers(0, 3),
       st.integers(0, 2**30), st.data())
def test_sample_set_leaves_the_stream_where_draw_does(n, kind, pre, key, data):
    """Around each of the first three block boundaries, a sample set gives the
    pivot, the distinct set, the whole generator state and the next output of
    a full draw, on the 32-bit stream (4^n <= 2^32) and the 64-bit one, with
    0 to 3 earlier half-word draws."""
    f = _extreme_or_random(n, kind, key)
    s = BvSampler(f, (key, 83), width=data.draw(st.integers(1, n)))
    ends = np.cumsum(list(_set_blocks(MAX_DRAWS, len(s.outcomes))))[:3].tolist()
    for count in sorted({1, 2, 3} | {end + d for end in ends for d in (-1, 0, 1)}):
        want = _set_and_state(s, (key, 83), pre, count, True)
        assert _set_and_state(s, (key, 83), pre, count, False) == want, count


def test_sample_set_charges_every_draw_and_keeps_the_stream(monkeypatch):
    """A sample set charges its whole count and moves the stream past all of
    it, also when it stops after the first block."""
    blocks = _counting_lookups(monkeypatch)
    f = _sample_set_function("affine", 6, 2)
    count = 2 * _BLOCK + 3
    led = QueryLedger()
    s, ref = BvSampler(f, (82,), led), BvSampler(f, (82,))
    assert s.sample_set(count)[1] == s.outcomes.tolist()
    assert blocks == [1] and led.quantum == count
    s.sample_set(5)
    assert led.quantum == count + 5
    ref.draw(count)
    ref.draw(5)
    assert s._rng.bit_generator.state == ref._rng.bit_generator.state
