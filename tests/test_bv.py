"""Measurement sampler: exact outcome law, determinism, query accounting."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bvattack import boolfn, bv
from bvattack.boolfn import (
    MAX_WIDTH,
    BooleanFunction,
    VectorFunction,
    _wht,
    random_boolean_function,
    random_vector_function,
    save_function,
    walsh_spectrum,
)
from bvattack.ciphers import ToyCipher, toy_zero_key_family
from bvattack.cli import main
from bvattack.experiments import (
    ALL_EXPERIMENTS,
    ExperimentConfig,
    inner_product_function,
    planted_boolean,
    run_experiment,
)
from bvattack.bv import (
    _BLOCK,
    MAX_DRAWS,
    BvSampler,
    QueryLedger,
    _set_blocks,
    component_samplers,
)
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


# Column counts on both sides of the run constant: with boolfn._RUN = 64 the
# low stages of 1, 3, 12 and 63 columns cover lo = 6, 5, 3 and 1 row bits on
# the transposed copy, and 64 or 65 columns run in place (lo = 0); rows from
# 2^1 to 2^18 give both parities of hi, and lo >= w below 2^lo rows.  At most
# 2^22 cells are made, so 63 to 65 columns stop at 2^15 or 2^16 rows.
_WHT_COLUMNS = (1, 3, 12, boolfn._RUN - 1, boolfn._RUN, boolfn._RUN + 1)


@pytest.mark.parametrize("cols", _WHT_COLUMNS)
def test_butterfly_matches_the_radix2_reference_on_both_layouts(cols):
    for w in range(1, 19):
        if cols << w > 1 << 22:
            break
        b = (1 - 2 * seeded_rng(38, w, cols).integers(0, 2, size=(1 << w, cols))).astype(
            np.int16 if w <= 14 else np.int32)
        want = wht_radix2(b.copy())
        assert _wht(b) is b
        assert np.array_equal(b, want), w


@pytest.mark.parametrize("dtype", _WHT_TYPES)
def test_butterfly_keeps_each_type_on_the_transposed_copy(dtype):
    # 3 columns (lo = 5) and 1-D arrays, up to the widest w whose 2^w-fold sum
    # of the largest entries the type still holds
    for w in range(1, min(18, np.iinfo(dtype).bits - 2) + 1):
        top = int(np.iinfo(dtype).max) >> w
        for shape in ((1 << w, 3), (1 << w,)):
            b = seeded_rng(39, w, len(shape)).integers(
                -top, top, size=shape, endpoint=True).astype(dtype)
            want = wht_radix2(b.copy())
            got = _wht(b)
            assert got is b and got.dtype == dtype
            assert np.array_equal(got, want), (w, shape)


def test_butterfly_reaches_the_int32_limit_of_an_18_bit_column():
    # the shape of attack-em's samplers: one 2^18-row int32 sign column, here
    # affine forms (-1)^(a . x ^ c), whose transforms are one entry +-2^18
    w = 18
    x = np.arange(1 << w)
    forms = [(0, 0), (0, 1), (1, 0), (1 << (w - 1), 1), ((1 << w) - 1, 0), (0x2d2d5, 1)]
    for a, c in forms:
        b = 1 - 2 * ((np.bitwise_count(x & a) & 1) ^ c).astype(np.int32).reshape(-1, 1)
        want = np.zeros(b.shape, dtype=np.int64)
        want[a, 0] = (1 - 2 * c) << w
        assert np.array_equal(wht_radix2(b.copy()), want)
        assert _wht(b) is b
        assert np.array_equal(b, want), (a, c)


def test_truncated_width_validation():
    f = random_boolean_function(4, seeded_rng(34))
    for width in (0, 5):
        with pytest.raises(ValueError, match="width"):
            BvSampler(f, (35,), width=width)


def test_non_integer_widths_and_seed_keys_are_refused():
    """A float width, translated or key part used to be truncated: width=1.5
    built a 1-bit sampler, translated=1.5 acted as 1 and seeded_rng(1.5) gave
    the stream of key (1,).  Each is refused before a draw is charged;
    numpy integers and bools stay integers, with the streams of their values."""
    f = random_boolean_function(4, seeded_rng(34))
    F = random_vector_function(4, 3, seeded_rng(39))
    led = QueryLedger()
    for kw in ({"width": 1.5}, {"width": 2.0}, {"translated": 1.5}, {"translated": 1.0}):
        with pytest.raises(TypeError):
            BvSampler(f, (35,), led, **kw)
        with pytest.raises(TypeError):
            next(component_samplers(F, 35, led, **kw))
    for key in ((1.5,), (2.0,), ((3, 0.5), 1), (np.float64(4),)):
        with pytest.raises(TypeError):
            seeded_rng(*key)
    # a float count used to charge the ledger 2.5 queries before numpy refused it
    s = BvSampler(f, (35,), led)
    for call in (s.draw, s.sample_set, led.add_quantum, led.add_classical):
        with pytest.raises(TypeError):
            call(2.5)
    assert led.snapshot() == {"quantum": 0, "classical": 0}
    want = BvSampler(f, (35, 1), width=2, translated=1).sample_set(9)
    assert BvSampler(f, (np.int64(35), True), width=np.uint8(2),
                     translated=np.int32(1)).sample_set(9) == want


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


def _set_after(s: BvSampler, key, pre: int, count: int, full: bool):
    """(pivot, distinct) after `pre` 32-bit draws, which may leave a half-word
    buffered, and then either a sample set of `count` or a full draw of
    `count` from a fresh stream for `key`."""
    s._rng = seeded_rng(key)
    s._rng.integers(0, 1 << 32, size=pre, dtype=np.int64)
    if full:
        out = s.draw(count).tolist()
        return out[0], sorted(set(out))
    return s.sample_set(count)


@given(st.one_of(st.integers(1, 16), st.integers(17, 18)),
       st.sampled_from(("random", "constant", "affine")), st.integers(0, 3),
       st.integers(0, 2**30), st.data())
def test_sample_set_equals_draw_around_block_boundaries(n, kind, pre, key, data):
    """Around each of the first three block boundaries, a sample set gives the
    pivot and the distinct set of a full draw, on the 32-bit stream
    (4^n <= 2^32) and the 64-bit one, with 0 to 3 earlier half-word draws."""
    f = _extreme_or_random(n, kind, key)
    s = BvSampler(f, (key, 83), width=data.draw(st.integers(1, n)))
    ends = np.cumsum(list(_set_blocks(MAX_DRAWS, len(s.outcomes))))[:3].tolist()
    for count in sorted({1, 2, 3} | {end + d for end in ends for d in (-1, 0, 1)}):
        want = _set_after(s, (key, 83), pre, count, True)
        assert _set_after(s, (key, 83), pre, count, False) == want, count


def test_sample_set_charges_every_draw(monkeypatch):
    """A sample set charges its whole count, also when it stops after the
    first block."""
    blocks = _counting_lookups(monkeypatch)
    f = _sample_set_function("affine", 6, 2)
    count = 2 * _BLOCK + 3
    led = QueryLedger()
    s = BvSampler(f, (82,), led)
    assert s.sample_set(count)[1] == s.outcomes.tolist()
    assert blocks == [1] and led.quantum == count
    s.sample_set(5)
    assert led.quantum == count + 5


# --- block builds: the samplers of a vector function's output bits -------------------

_KINDS = ("random", "constant", "affine")


def _block_function(m: int, kinds, key: int) -> VectorFunction:
    """An m-bit function with one output bit per entry of `kinds`, bit j
    random, constant or affine as kinds[j - 1]."""
    n = len(kinds)
    words = np.zeros(1 << m, dtype=np.int64)
    for j, kind in enumerate(kinds, 1):
        words |= _extreme_or_random(m, kind, key + j).table.astype(np.int64) << (n - j)
    return VectorFunction(m, n, words)


def _assert_blocks_equal_per_bit(F: VectorFunction, width: int, translated: int, key: int,
                                 count: int) -> None:
    """Each block-built sampler has the outcomes, cumulative masses, sample
    set, charge and generator state after it of BvSampler(F.component(j),
    (key, j), ledger, width, translated)."""
    led, want_led = QueryLedger(), QueryLedger()
    built = list(component_samplers(F, key, led, width, translated))
    assert len(built) == F.n
    for j, got in enumerate(built, 1):
        want = BvSampler(F.component(j), (key, j), want_led, width, translated)
        assert got.n == want.n == width
        assert got.outcomes.dtype == want.outcomes.dtype == np.int64
        assert got.outcomes.tolist() == want.outcomes.tolist(), j
        assert got._cum.tolist() == want._cum.tolist(), j
        assert got.sample_set(count) == want.sample_set(count), j
        assert got._rng.bit_generator.state == want._rng.bit_generator.state, j
        assert led.snapshot() == want_led.snapshot()


@given(st.integers(1, 9), st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
       st.integers(0, 2**30), st.data())
def test_block_built_samplers_equal_per_bit_builds(m, kinds, key, data):
    """Under cell budgets from one bit per block to all of them, so that the
    bits split across blocks of every size."""
    width = data.draw(st.integers(1, m))
    translated = data.draw(st.integers(0, MAX_WIDTH - m))
    budget = data.draw(st.integers(m - 1, m + len(kinds)))
    F = _block_function(m, kinds, key)
    with mock.patch.object(bv, "_BLOCK_CELLS", 1 << budget):
        _assert_blocks_equal_per_bit(F, width, translated, key, data.draw(st.integers(1, 600)))


@pytest.mark.parametrize("m, width", [
    (6, 6), (7, 6), (7, 7), (8, 7),  # int8 signs to width 6, int16 from 7
    (14, 14), (15, 14), (15, 15),  # int16 to width 14, int32 from 15; two blocks at m = 15
    (16, 14), (16, 15), (17, 13), (17, 14),  # m + width = 30 and 31: int32 and int64 sums
])
def test_block_builds_at_the_type_bounds(m, width):
    """At the default cell budget a constant bit puts 2^(m + width) on row 0
    and an affine bit puts +-2^width in its butterfly, with a random bit
    between them, untranslated and translated up to the cap."""
    F = _block_function(m, ("constant", "random", "affine"), 90)
    for translated in (0, MAX_WIDTH - m):
        _assert_blocks_equal_per_bit(F, width, translated, 91, 1 << 10)


def test_blocks_are_built_when_their_first_bit_is_asked_for(monkeypatch):
    """A block of k bits costs one butterfly, built when its first sampler
    is taken, so a search that stops early builds no later block."""
    calls = []
    real = bv._butterfly
    monkeypatch.setattr(bv, "_butterfly", lambda words, shifts, width:
                        calls.append(shifts.ravel().tolist()) or real(words, shifts, width))
    monkeypatch.setattr(bv, "_BLOCK_CELLS", 2 << 6)
    F = _block_function(6, _KINDS * 2 + ("random",), 92)
    built = component_samplers(F, 93, width=4)
    taken = []
    for _ in range(F.n):
        taken.append(next(built))
        assert len(calls) == (len(taken) + 1) // 2
    assert calls == [[6, 5], [4, 3], [2, 1], [0]]
    assert next(built, None) is None


# --- the premise of sample_set: each sampler serves one sample set -----------------


def test_every_sampler_serves_one_sample_set(monkeypatch, tmp_path):
    """In every experiment and every sampling CLI subcommand, each sampler
    (built by __init__ or a block build) gets exactly one sample_set call and
    no draw, so no caller reads the stream a sample set leaves behind."""
    # [sample sets, draws] per sampler built, and by id the one built last at
    # that id, since a freed sampler's id can be reused
    built, calls = [], {}

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            if name == "_fill":
                built.append([0, 0])
                calls[id(self)] = built[-1]
            else:
                calls[id(self)][name == "draw"] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for name in ("sample_set", "draw", "_fill"):
        monkeypatch.setattr(BvSampler, name, counted(name, getattr(BvSampler, name)))

    def served(what, run) -> None:
        del built[:]
        run()
        assert built and all(c == [1, 0] for c in built), (what, built)

    for which in ALL_EXPERIMENTS:
        served(which, lambda: run_experiment(ExperimentConfig.with_defaults(which, 7, trials=30)))
    paths = {name: str(tmp_path / f"{name}.txt") for name in ("bool", "vec", "em", "toy")}
    save_function(paths["bool"], planted_boolean(6, seeded_rng(94))[0])
    save_function(paths["vec"], random_vector_function(6, 3, seeded_rng(95)))
    assert main(["gen-cipher", "--kind", "even-mansour", "--n", "6", "--seed", "96",
                 "--out", paths["em"]]) == 0
    assert main(["gen-cipher", "--kind", "toy", "--n", "4", "--seed", "97", "--preset", "weak",
                 "--out", paths["toy"]]) == 0
    for argv in (["lsfind", paths["bool"]], ["lsfind", paths["vec"]],
                 ["distinguish-feistel", "--n", "5", "--target", "feistel", "--trials", "10"],
                 ["attack-em", paths["em"]], ["attack-diff", paths["toy"], "--q", "4"],
                 ["attack-smallprob", paths["toy"], "--q", "2", "--l", "2"],
                 ["attack-impossible", paths["toy"]]):
        served(argv[0], lambda: main(argv + ["--seed", "98"]))
