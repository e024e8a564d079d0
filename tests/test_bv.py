"""Measurement sampler: exact outcome law, determinism, query accounting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from bvattack.boolfn import BooleanFunction, _wht, random_boolean_function, walsh_spectrum
from bvattack.bv import _BLOCK, MAX_DRAWS, BvSampler, QueryLedger
from bvattack.rng import seeded_rng

from oracles import full_spectrum_draws, marginal_masses_direct, sample_distribution_direct

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
    assert led.quantum == 0


# --- truncated sampler: the exact marginal law of the leading bits ------------


# every support of at most 2^10 outcomes has an index table of at most 2^12
# entries, so a draw of 2^12 or more builds and uses one, and a smaller draw
# searches the cumulative masses
TABLE_DRAWS = 1 << 12


@given(st.integers(1, 10), st.integers(0, 2**30),
       st.one_of(st.integers(1, 300), st.integers(TABLE_DRAWS - 2, 3 * TABLE_DRAWS)))
def test_truncated_draws_are_full_draws_shifted(n, key, p):
    f = random_boolean_function(n, seeded_rng(key, 30))
    full = full_spectrum_draws(f, (key, 31), p)
    assert BvSampler(f, (key, 31)).draw(p).tolist() == full.tolist()
    for width in range(1, n + 1):
        s = BvSampler(f, (key, 31), width=width)
        assert s.n == width
        assert s.draw(p).tolist() == (full >> (n - width)).tolist(), width
        assert (s._index is not None) == (p >= TABLE_DRAWS), width


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


def test_truncated_width_validation():
    f = random_boolean_function(4, seeded_rng(34))
    for width in (0, 5):
        with pytest.raises(ValueError, match="width"):
            BvSampler(f, (35,), width=width)


def test_index_table_pinned_cases():
    cases = [
        # n = 1: one outcome; with 2n = 2 table bits u itself picks the bucket
        (fn(1, [0, 1]), lambda lo, shift, steps: shift == 0 and steps == 0),
        (fn(1, [1, 1]), lambda lo, shift, steps: shift == 0 and steps == 0),
        # three cumulative masses fall strictly inside one bucket
        (random_boolean_function(6, seeded_rng(0, 40)), lambda lo, shift, steps: steps == 3),
        # x1...x8: 255 masses of 4 crowd 16 to a bucket, more passes than the
        # binary search's 9 levels, so the draw keeps the binary search
        (fn(8, [0] * 255 + [1]), None),
    ]
    for f, shape in cases:
        s = BvSampler(f, (38,))
        count = TABLE_DRAWS + 5
        assert s.draw(count).tolist() == full_spectrum_draws(f, (38,), count).tolist(), f.n
        assert s._index == () if shape is None else shape(*s._index), f.n


def _top_bent(n: int) -> BooleanFunction:
    """x1 x2 + x3 x4 on the top four of n bits: the 16 outcomes are the
    multiples of 2^(n - 4), so the support is not arange."""
    x = np.arange(1 << n) >> (n - 4)
    return BooleanFunction(n, ((x >> 3) & (x >> 2) ^ (x >> 1) & x) & 1)


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_table_draws_across_block_boundaries(count):
    """A table draw maps u to outcomes block by block; every block, the
    short last one included, gives the full-spectrum reference's draws."""
    cases = [
        # the three-pass table, at full width
        (random_boolean_function(6, seeded_rng(0, 40)), None, lambda s: s._index[2] == 3),
        # the marginal law of the leading 5 of 9 bits
        (random_boolean_function(9, seeded_rng(0, 41)), 5, lambda s: s.n == 5),
        # 16 outcomes spaced 16 apart
        (_top_bent(8), None, lambda s: s.outcomes.tolist() == list(range(0, 256, 16))),
    ]
    for f, width, shape in cases:
        s = BvSampler(f, (42,), width=width)
        got = s.draw(count)
        full = full_spectrum_draws(f, (42,), count)
        assert got.tolist() == (full >> (f.n - s.n)).tolist(), f.n
        assert s._index and shape(s), f.n
