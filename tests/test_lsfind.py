"""Sampled structure searches: planted structures, honest No, accounting."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvattack.boolfn import (
    BooleanFunction,
    VectorFunction,
    random_boolean_function,
    random_vector_function,
)
from bvattack import bv
from bvattack.bv import BvSampler, QueryLedger
from bvattack.ciphers import ToyCipher, random_permutation, toy_zero_key_family
from bvattack.experiments import example_quadratic, inner_product_function, planted_boolean, planted_vector
from bvattack.lsfind import (
    _boolean_sets,
    _constancy,
    _solution_with,
    default_sample_count,
    find_boolean_structures,
    find_common_zero_structure,
    find_impossible_differential,
    find_vector_structures,
)
from bvattack.gf2 import AffineSolutionSet, Eliminator, LinearSystem, solve
from bvattack.rng import seeded_rng

from oracles import (
    TOY_SHAPES,
    chained_vector_search,
    chained_zero_search,
    constancy_direct,
    contains,
    members,
    per_bit_vector_search,
    per_bit_zero_search,
    slice_range,
    solve_affine_direct,
    toy_reduced_family,
)


def test_default_sample_count():
    assert default_sample_count(6) == 24
    assert default_sample_count(1) == 4


def test_quadratic_example_search():
    # x1 x2 + x3: the only structure is direction 001 with constant 1
    res = find_boolean_structures(example_quadratic(), seed=5)
    assert res.found
    assert res.smallest_candidate() == (0b001, 1)
    assert res.zero_set.is_trivial
    assert contains(res.one_set, 0b001)
    assert res.p == 12
    # no array field is kept, so results compare by value
    assert find_boolean_structures(example_quadratic(), seed=5) == res


@given(st.integers(2, 8), st.integers(0, 2**30))
def test_planted_structure_always_survives(n, key):
    """An exact structure satisfies every sampled constraint, so it can
    never be eliminated, whatever the draw."""
    f, a, i = planted_boolean(n, seeded_rng(key, 40))
    res = find_boolean_structures(f, seed=(key, 41))
    assert res.found
    target = res.zero_set if i == 0 else res.one_set
    assert contains(target, a)


def test_structure_free_function_says_no():
    # bent function, every direction balanced; at p = 4n survival odds are 2^-23
    f = inner_product_function(6)
    for t in range(20):
        res = find_boolean_structures(f, seed=(100, t))
        assert not res.found
        assert res.zero_set.is_trivial and res.one_set.is_trivial


def test_constant_function_degenerates_to_full_space():
    # constant f samples only w=0; every direction is a structure
    f = BooleanFunction(3, np.zeros(8, dtype=np.uint8))
    res = find_boolean_structures(f, seed=7)
    assert res.found
    assert res.zero_set.size == 8
    assert res.one_set.is_empty
    assert res.smallest_candidate() == (1, 0)


def _reference_function(kind: str, n: int, rng) -> BooleanFunction:
    """A random, affine, constant or bent (inner-product) function; bent
    ones round n up to even."""
    if kind == "bent":
        return inner_product_function(n + (n & 1))
    xs = np.arange(1 << n)
    if kind == "random":
        return random_boolean_function(n, rng)
    a = int(rng.integers(0, 1 << n)) if kind == "affine" else 0
    return BooleanFunction(n, (np.bitwise_count(xs & a) & 1) ^ int(rng.integers(0, 2)))


@given(st.sampled_from(["random", "affine", "constant", "bent"]), st.integers(1, 7),
       st.integers(0, 2**30), st.data())
def test_boolean_sets_equal_reference_solve(kind, n, key, data):
    """zero_set and one_set are the solutions of {a . w = 0} and {a . w = 1}
    over the samples, as the plain solve of all p rows finds them; a
    truncated width is solved by the split the impossible search uses."""
    f = _reference_function(kind, n, seeded_rng(key, 48))
    width = data.draw(st.none() | st.integers(1, f.n))
    p = data.draw(st.integers(1, 4 * f.n))
    w = f.n if width is None else width
    if width is None:
        res = find_boolean_structures(f, p=p, seed=(key, 49))
    else:
        res = _boolean_sets(BvSampler(f, (key, 49), width=w), w, p)
    ws = BvSampler(f, (key, 49), width=w).draw(p).tolist()
    assert len(ws) == p and all(0 <= s < 1 << w for s in ws)
    assert res.zero_set == solve(LinearSystem(w, tuple((s, 0) for s in ws)))
    assert res.one_set == solve(LinearSystem(w, tuple((s, 1) for s in ws)))
    assert res.found == (not (res.zero_set.is_trivial and res.one_set.is_trivial))


@given(st.sampled_from(["random", "affine", "constant", "bent", "planted"]), st.integers(1, 8),
       st.integers(0, 2**30), st.data())
def test_constancy_equals_elimination_over_every_difference(kind, n, key, data):
    """_constancy absorbs only the sampler's distinct samples, each XORed with
    its pivot; the rank, the pivot and both canonical sets must be those of
    eliminating w ^ w0 over all p samples of the same key's draw."""
    if kind == "planted":
        f = planted_boolean(n, seeded_rng(key, 51))[0]
    else:
        f = _reference_function(kind, n, seeded_rng(key, 51))
    width = data.draw(st.integers(1, f.n))
    # small draws fit in one sample-set block, draws from 2^12 on may span several
    p = data.draw(st.integers(1, 40) | st.integers(1 << 12, 1 << 13))
    ws = BvSampler(f, (key, 52), width=width).draw(p)
    cset, w0 = _constancy(width, BvSampler(f, (key, 52), width=width).sample_set(p))
    rank, pivot, rows = constancy_direct(width, ws)
    assert (cset.rank, w0) == (rank, pivot)
    for c in (0, 1):
        want = solve_affine_direct(width, [(r, 0) for r in rows] + [(pivot, c)])
        assert members(_solution_with(cset, w0, c)) == want, c


def test_boolean_search_stops_absorbing_at_full_rank(monkeypatch):
    """A bent 8-bit function yields all 256 outcomes; once the eliminator has
    full rank further rows change nothing, so at most one absorb per distinct
    sample is made."""
    calls = []
    absorb = Eliminator.absorb

    def counting(self, w, c=0):
        calls.append(w)
        absorb(self, w, c)

    monkeypatch.setattr(Eliminator, "absorb", counting)
    res = find_boolean_structures(inner_product_function(8), p=2**12, seed=50)
    assert len(np.unique(BvSampler(inner_product_function(8), (50,)).draw(2**12))) == 256
    assert not res.found
    assert len(calls) <= 256


def test_sample_count_validation():
    f = example_quadratic()
    with pytest.raises(ValueError):
        find_boolean_structures(f, p=0, seed=1)
    with pytest.raises(ValueError):
        find_vector_structures(VectorFunction(2, 2, np.arange(4)), p=-3, seed=1)


def test_non_integer_sample_counts_and_widths_are_refused():
    """find_vector_structures(F, p=2.7) used to search, charge and report
    p = 2.  Every search refuses a float p or solve_width before the ledger
    moves, and reads a numpy integer as its value."""
    f, F = example_quadratic(), random_vector_function(4, 3, seeded_rng(51))
    led = QueryLedger()
    bad = [(find_boolean_structures, f, {"p": 2.7}), (find_boolean_structures, f, {"p": 3.0})]
    for search in (find_vector_structures, find_common_zero_structure,
                   find_impossible_differential):
        bad.append((search, F, {"p": 2.7}))
    for search in (find_vector_structures, find_impossible_differential):
        bad.append((search, F, {"solve_width": 2.5}))
    for search, fn, kw in bad:
        with pytest.raises(TypeError):
            search(fn, seed=52, ledger=led, **kw)
    assert led.snapshot() == {"quantum": 0, "classical": 0}
    assert find_vector_structures(F, p=np.int64(3), seed=52, solve_width=np.uint8(2)) == \
        find_vector_structures(F, p=3, seed=52, solve_width=2)


def test_boolean_search_query_accounting():
    led = QueryLedger()
    find_boolean_structures(example_quadratic(), p=17, seed=3, ledger=led)
    assert led.quantum == 17
    assert led.classical == 0


@given(st.integers(2, 6), st.integers(0, 2**30))
def test_planted_vector_structure_in_intersection(n, key):
    F, a, alpha = planted_vector(n, n, seeded_rng(key, 42))
    res = find_vector_structures(F, seed=(key, 43))
    assert res.found
    assert contains(res.intersection, a)
    if res.a == a:
        assert res.alpha == alpha


def test_planted_vector_recovery_pinned():
    F, a, alpha = planted_vector(5, 5, seeded_rng(12345, 42))
    led = QueryLedger()
    res = find_vector_structures(F, p=40, seed=(12345, 43), ledger=led)
    assert (res.a, res.alpha) == (a, alpha)
    assert led.quantum == 40 * 5  # no early halt when a structure exists


def test_vector_search_early_halt_on_random_function():
    """A structureless component empties the intersection early; later
    components are never sampled."""
    rng = seeded_rng(2024, 1)
    F = VectorFunction(8, 8, rng.integers(0, 256, size=256, dtype=np.int64))
    led = QueryLedger()
    res = find_vector_structures(F, p=64, seed=(2024, 2), ledger=led)
    assert not res.found
    assert led.quantum == 64 * len(res.components)
    assert led.quantum < 64 * 8


def test_vector_alpha_reconstruction_bit_order():
    """alpha bit for component j lands at output position j (1 = MSB)."""
    table = np.array([0b00, 0b11, 0b11, 0b00], dtype=np.int64)  # F(x) = (x1^x2, x1^x2)
    F = VectorFunction(2, 2, table)
    res = find_vector_structures(F, p=12, seed=9)
    assert res.found
    # direction 11 fixes F; direction 01 and 10 flip both output bits
    assert contains(res.intersection, 0b11)
    if res.a in (0b01, 0b10):
        assert res.alpha == 0b11


def test_solve_width_truncation():
    """Joint (x || k) search restricted to the x half finds the x-direction."""
    T, a, alpha = planted_vector(4, 4, seeded_rng(777, 3))
    kb = 3
    xs = np.arange(1 << (4 + kb))
    x_part = xs >> kb
    k_part = xs & ((1 << kb) - 1)
    # G(x || k) = T(x) ^ (k << 1): exact x-direction (a || 0) survives truncation
    G = VectorFunction(4 + kb, 4, (T.table[x_part] ^ (k_part << 1)) & 0b1111)
    res = find_vector_structures(G, p=32, seed=(777, 4), solve_width=4)
    assert res.found
    assert res.width == 4
    assert contains(res.intersection, a)


def test_common_zero_structure_finds_period():
    """F(x) = P(x) ^ P(x ^ c) has period c with zero output difference."""
    for t, c in ((0, 0b1011), (1, 0b0001), (2, 0b1111)):
        perm = random_permutation(4, seeded_rng(55, t))
        xs = np.arange(16)
        F = VectorFunction(4, 4, perm[xs] ^ perm[xs ^ c])
        res = find_common_zero_structure(F, p=16, seed=(56, t))
        assert res.found
        assert contains(res.intersection, c)
        assert res.a == c  # pinned seeds: nothing smaller survives


def test_common_zero_rejects_bad_p():
    F = VectorFunction(2, 2, np.arange(4))
    with pytest.raises(ValueError):
        find_common_zero_structure(F, p=0, seed=1)


# --- the running eliminator against the chained reference -------------------


@given(st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**30), st.data())
def test_searches_equal_chained_reference(m, n, key, data):
    rng = seeded_rng(key, 44)
    planted = data.draw(st.booleans())
    F = planted_vector(m, n, rng)[0] if planted else random_vector_function(m, n, rng)
    p = data.draw(st.integers(1, 4 * m))
    width = data.draw(st.none() | st.integers(1, m))
    got = find_vector_structures(F, p=p, seed=(key, 45), solve_width=width)
    assert got == chained_vector_search(F, p, (key, 45), width)
    got = find_common_zero_structure(F, p=p, seed=(key, 46))
    assert got == chained_zero_search(F, p, (key, 46))


def _equal_to_per_bit(F, p, seed, width=None):
    """Both block-built searches of F against their per-bit references:
    equal results and equal ledgers.  Returns the two results."""
    out = []
    for search, ref, kw in ((find_vector_structures, per_bit_vector_search,
                             {"solve_width": width}),
                            (find_common_zero_structure, per_bit_zero_search, {})):
        led, want_led = QueryLedger(), QueryLedger()
        got = search(F, p, seed, led, **kw)
        assert got == ref(F, p, seed, want_led, **kw)
        assert led.snapshot() == want_led.snapshot()
        out.append(got)
    return out


@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**30), st.data())
def test_searches_equal_the_per_bit_reference(m, n, key, data):
    """Under cell budgets from one bit per block to all of them."""
    rng = seeded_rng(key, 52)
    planted = data.draw(st.booleans())
    F = planted_vector(m, n, rng)[0] if planted else random_vector_function(m, n, rng)
    p = data.draw(st.integers(1, 4 * m))
    width = data.draw(st.none() | st.integers(1, m))
    with mock.patch.object(bv, "_BLOCK_CELLS", 1 << data.draw(st.integers(m - 1, m + n))):
        _equal_to_per_bit(F, p, (key, 53), width)


@pytest.mark.parametrize("cells", [5, 7, 16])  # blocks of 1 and 2 bits of 2^6 cells, and all
def test_early_halts_equal_the_per_bit_reference(cells):
    """The common-zero search stops at full rank, and the vector search at a
    trivial bit (bit 3, bent) or at a full-rank intersection, before the last
    block: the same result at the same charge as per-bit builds."""
    x = np.arange(64)
    bent = ((x >> 5) & (x >> 2) ^ (x >> 4) & (x >> 1) ^ (x >> 3) & x) & 1
    words = random_vector_function(6, 6, seeded_rng(54)).table.astype(np.int64)
    words = words & 0b000111 | ((x >> 5) & 1) << 5 | ((x >> 4) & 1) << 4 | bent << 3
    with mock.patch.object(bv, "_BLOCK_CELLS", 1 << cells):
        vec, zero = _equal_to_per_bit(VectorFunction(6, 6, words), 24, (55,))
        assert [ev.trivial for ev in vec.components] == [False, False, True]
        assert zero.components_done < 6 and not zero.found
        vec, zero = _equal_to_per_bit(random_vector_function(6, 6, seeded_rng(56)), 6, (57,))
        assert len(vec.components) < 6 and not vec.components[-1].trivial and not vec.found
        assert zero.components_done < 6 and not zero.found


def test_trivial_component_stays_out_of_the_intersection():
    """Component 1 (x1 x2) leaves {a : a1 = a2 = 0}; component 2 (bent) is
    trivial, and the reported intersection is that of component 1 alone."""
    x = np.arange(16)
    c1 = (x >> 3) & (x >> 2) & 1
    c2 = c1 ^ ((x >> 1) & x & 1)
    F = VectorFunction(4, 2, (c1 << 1) | c2)
    led = QueryLedger()
    res = find_vector_structures(F, p=32, seed=(3, 47), ledger=led)
    assert [ev.trivial for ev in res.components] == [False, True]
    assert not res.found and led.quantum == 64
    assert res.intersection == AffineSolutionSet(4, False, 0, (0b0010, 0b0001))
    assert res == chained_vector_search(F, 32, (3, 47))


@pytest.mark.parametrize("preset,n,rounds", TOY_SHAPES)
@settings(max_examples=3)
@given(st.integers(0, 2**30), st.data())
def test_searches_on_the_zero_key_slice_equal_the_keyed_family(preset, n, rounds, key, data):
    """The searches read G0 = G(x || 0 || k') and answer, field for field and
    at the same charge, what they answer on G when G's samplers draw over
    G0's range (slice_range)."""
    pub = ToyCipher.generate(n, preset, seed=(key, 48), rounds=rounds).public
    p = data.draw(st.integers(1, 8 * n))
    j = data.draw(st.integers(1, n))
    runs = []
    for F, key_bits in ((toy_reduced_family(pub), n), (toy_zero_key_family(pub), 0)):
        ledgers = [QueryLedger() for _ in range(3)]
        with slice_range(key_bits):
            runs.append((
                find_vector_structures(F, p, (key, 49), ledgers[0], n),
                _boolean_sets(BvSampler(F.component(j), (key, 50), ledgers[1], n), n, p),
                find_impossible_differential(F, p, (key, 51), ledgers[2], solve_width=n),
                [led.snapshot() for led in ledgers],
            ))
    assert runs[1] == runs[0]
