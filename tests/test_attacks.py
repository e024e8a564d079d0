"""End-to-end attack drivers graded against the generated secrets."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvattack.attacks import (
    InsufficientDataError,
    KeyCounterTable,
    differential_attack,
    differential_match_counts,
    distinguish_feistel,
    impossible_attack,
    impossible_certificate_valid,
    key_fraction_meeting,
    rank_last_round_keys,
    recover_em_key,
    small_probability_attack,
)
from bvattack.boolfn import VectorFunction, derivative_table, random_vector_function
from bvattack import bv
from bvattack.bv import QueryLedger
from bvattack.ciphers import (
    EvenMansour,
    Feistel3,
    OracleFunction,
    ToyCipher,
    random_permutation,
    toy_zero_key_family,
)
from bvattack.experiments import planted_vector
from bvattack.lsfind import ImpossibleCertificate, default_sample_count, find_impossible_differential
from bvattack.rng import seeded_rng

from oracles import (
    TOY_SHAPES,
    certificate_valid_direct,
    chained_impossible_search,
    differential_attack_full_family,
    impossible_attack_full_family,
    key_match_counts_direct,
    keyed_match_counts_direct,
    slice_range,
    small_probability_attack_full_family,
    toy_reduced_family,
)

TRIALS = 30


# --- Feistel distinguisher ------------------------------------------------------


def test_distinguisher_accepts_real_feistel():
    n = 5
    for t in range(TRIALS):
        fe = Feistel3.random(n, seed=(300, t))
        rep = distinguish_feistel(fe.encrypt_table(), seed=(301, t))
        assert rep.verdict
        assert rep.queries == {"quantum": n * (n + 1), "classical": 2}
        assert rep.s0 != rep.s1


def test_distinguisher_candidate_is_true_period():
    n = 5
    for t in range(TRIALS):
        fe = Feistel3.random(n, seed=(302, t))
        rep = distinguish_feistel(fe.encrypt_table(), seed=(303, t))
        want = (1 << n) | (int(fe.p1[rep.s0]) ^ int(fe.p1[rep.s1]))
        assert rep.candidate == want


def test_distinguisher_rejects_random_permutation():
    n = 5
    for t in range(TRIALS):
        perm = VectorFunction(2 * n, 2 * n,
                              random_permutation(2 * n, seeded_rng(304, t)))
        rep = distinguish_feistel(perm, seed=(305, t))
        assert not rep.verdict
        # either nothing survived (no classical spend) or the collision
        # check killed the candidate (two classical queries)
        q = rep.queries
        assert q["quantum"] % (n + 1) == 0
        assert q["classical"] == (0 if rep.candidate is None else 2)


def test_distinguisher_validates_block_shape():
    with pytest.raises(ValueError):
        distinguish_feistel(VectorFunction(3, 3, np.arange(8)), seed=1)  # odd width
    with pytest.raises(ValueError):
        distinguish_feistel(VectorFunction(4, 2, np.zeros(16, dtype=np.int64)), seed=1)


# --- Even-Mansour -----------------------------------------------------------------


def test_em_recovery_exact_over_trials():
    n = 6
    for t in range(TRIALS):
        em = EvenMansour.random(n, seed=(310, t))
        rep = recover_em_key(em.perm_table(), em.encrypt_table(), seed=(311, t))
        assert rep.found and rep.k1 == em.k1
        assert rep.queries == {"quantum": n * n, "classical": 0}
        assert rep.candidates >= 2  # 0 and k1 both survive every sample


def test_em_recovery_custom_p_accounting():
    em = EvenMansour.random(5, seed=312)
    rep = recover_em_key(em.perm_table(), em.encrypt_table(), seed=313, p=3)
    assert rep.p == 3
    assert rep.queries["quantum"] % 3 == 0


def test_em_zero_key_degenerates():
    """k1 = 0 makes the difference oracle constant; the full space survives
    and the smallest nonzero report is spurious.  Documented limitation."""
    em = EvenMansour(4, random_permutation(4, seeded_rng(314)), k1=0, k2=0x7)
    rep = recover_em_key(em.perm_table(), em.encrypt_table(), seed=315)
    assert rep.found
    assert rep.k1 == 1
    assert rep.candidates == 16


# --- shared ranking machinery -------------------------------------------------------


def test_rank_keys_matches_direct_oracle():
    tc = ToyCipher.generate(4, "weak", seed=320)
    led = QueryLedger()
    oracle = OracleFunction(tc.encrypt_table(), led)
    rng = seeded_rng(321)
    counter = rank_last_round_keys(oracle, tc.public.inverse_last(), a=3, alpha=3,
                                   pairs=6, rng=rng)
    # reconstruct the same plaintexts: same seed stream, same selection logic
    rng2 = seeded_rng(321)
    xs = np.arange(16)
    reps = xs[xs < (xs ^ 3)]
    plain = rng2.choice(reps, size=6, replace=False).astype(np.int64)
    want = key_match_counts_direct(4, tc.encrypt_table().table,
                                   tc.public.inverse_last(), 3, 3, plain.tolist())
    assert list(counter.counts) == want
    assert led.classical == 12  # two texts per pair
    assert counter.rate(counter.argmax()) == Fraction(max(want), 6)


def test_rank_keys_needs_pairs():
    tc = ToyCipher.generate(4, "weak", seed=322)
    oracle = OracleFunction(tc.encrypt_table())
    with pytest.raises(InsufficientDataError):
        rank_last_round_keys(oracle, tc.public.inverse_last(), 3, 3, 0, seeded_rng(1))


def test_rank_keys_checks_the_differential_before_querying():
    """A zero direction (pairs {x, x} carry no difference) or a word outside
    the n bits is refused before any pair is charged."""
    tc = ToyCipher.generate(4, "weak", seed=322)
    oracle = OracleFunction(tc.encrypt_table())
    for a, alpha in ((0, 3), (16, 3), (-1, 3), (3, 16), (3, -1)):
        with pytest.raises(ValueError, match="key ranking needs"):
            rank_last_round_keys(oracle, tc.public.inverse_last(), a, alpha, 8, seeded_rng(1))
        assert oracle.ledger.snapshot() == {"quantum": 0, "classical": 0}, (a, alpha)
    rank_last_round_keys(oracle, tc.public.inverse_last(), 15, 0, 8, seeded_rng(1))
    assert oracle.ledger.classical == 16


# --- differential attack ---------------------------------------------------------------


def test_differential_attack_recovers_planted():
    for t in range(TRIALS):
        tc = ToyCipher.generate(4, "weak", seed=(330, t))
        rep = differential_attack(tc.public, tc.encrypt_table(), seed=(331, t), q=4)
        assert rep.found
        assert (rep.a, rep.alpha) == (3, 3)
        assert rep.recovered_last_key == tc.last_key
        assert rep.queries["quantum"] == rep.p * tc.n
        assert rep.queries["classical"] == 2 * rep.pairs


def test_differential_attack_honest_no_on_strong():
    tc = ToyCipher.generate(4, "strong", seed=332)
    rep = differential_attack(tc.public, tc.encrypt_table(), seed=333, q=4)
    assert not rep.found
    assert rep.a is None and rep.recovered_last_key is None
    assert rep.queries["classical"] == 0


def test_differential_attack_validation():
    tc = ToyCipher.generate(4, "weak", seed=334)
    with pytest.raises(ValueError):
        differential_attack(tc.public, tc.encrypt_table(), seed=1, q=0)
    with pytest.raises(InsufficientDataError):
        differential_attack(tc.public, tc.encrypt_table(), seed=1, q=4, pairs=0)


def test_differential_attack_refuses_zero_pairs_before_tabulating(monkeypatch):
    # strong: the search would answer No, so only an early check refuses it
    from bvattack.ciphers import ToyCipherPublic

    calls = []
    build = ToyCipherPublic._keyed_rounds  # behind both G and its slice G0

    def counted(self, first_keys):
        calls.append(self)
        return build(self, first_keys)

    monkeypatch.setattr(ToyCipherPublic, "_keyed_rounds", counted)
    for preset, seed in (("weak", 334), ("strong", 332)):
        tc = ToyCipher.generate(4, preset, seed=seed)
        for pairs in (0, -1):
            with pytest.raises(InsufficientDataError):
                differential_attack(tc.public, tc.encrypt_table(), seed=333, q=4, pairs=pairs)
    assert calls == []


def test_match_counts_against_manual_loop():
    tc = ToyCipher.generate(3, "strong", seed=335)
    pub = tc.public
    a, alpha = 0b101, 0b010
    counts = differential_match_counts(toy_reduced_family(pub), a, alpha)
    y = pub.reduced_encrypt_all_keys()
    for k in range(1 << pub.key_bits):
        manual = sum(1 for x in range(8) if int(y[x ^ a, k]) ^ int(y[x, k]) == alpha)
        assert int(counts[k]) == manual


def test_key_fraction_for_planted_weak_differential():
    # the weak pairing keeps difference 3 -> 3 through every key
    tc = ToyCipher.generate(4, "weak", seed=336)
    G = toy_reduced_family(tc.public)
    assert key_fraction_meeting(G, 3, 3, Fraction(1)) == Fraction(1)
    # and no key does better than chance at an unrelated output difference
    assert key_fraction_meeting(G, 3, 5, Fraction(1)) == Fraction(0)


# --- small-probability attack -----------------------------------------------------------


def test_smallprob_attack_separates_right_key():
    for t in range(10):
        tc = ToyCipher.generate(4, "weak", seed=(340, t))
        rep = small_probability_attack(tc.public, tc.encrypt_table(),
                                       seed=(341, t), q=2, l=2)
        assert rep.found
        assert rep.a == 3
        assert rep.target_diff == 0b1100  # complement of the found difference
        assert rep.recovered_last_key == tc.last_key
        assert rep.counter.rate(tc.last_key) == 0
        wrong = [float(rep.counter.rate(s)) for s in range(16) if s != tc.last_key]
        assert 0.3 < sum(wrong) / len(wrong) < 0.7


def test_smallprob_query_accounting():
    tc = ToyCipher.generate(4, "weak", seed=342)
    rep = small_probability_attack(tc.public, tc.encrypt_table(), seed=343, q=2, l=2)
    assert rep.p == (4 ** 3) * 4 * 4
    assert rep.queries["quantum"] == rep.p * 4
    assert rep.queries["classical"] == 2 * rep.pairs
    assert rep.pairs == 4


def test_smallprob_validation():
    tc = ToyCipher.generate(4, "weak", seed=344)
    with pytest.raises(ValueError):
        small_probability_attack(tc.public, tc.encrypt_table(), seed=1, q=2, l=1)
    with pytest.raises(ValueError):
        small_probability_attack(tc.public, tc.encrypt_table(), seed=1, q=0, l=2)


# --- impossible differential -----------------------------------------------------------


def test_impossible_search_finds_planted_certificate():
    tc = ToyCipher.generate(4, "weak", seed=350)
    G = toy_reduced_family(tc.public)
    led = QueryLedger()
    cert = find_impossible_differential(G, seed=351, ledger=led, solve_width=4)
    assert cert is not None
    assert cert.j == 1  # first component already carries the planted relation
    assert cert.a == 3
    assert led.quantum == default_sample_count(4)  # stopped after one component
    assert impossible_certificate_valid(G, cert)


@given(st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**30), st.data())
def test_impossible_search_equals_chained_reference(m, n, key, data):
    rng = seeded_rng(key, 358)
    planted = data.draw(st.booleans())
    G = planted_vector(m, n, rng)[0] if planted else random_vector_function(m, n, rng)
    x_bits = data.draw(st.integers(1, m))
    p = data.draw(st.integers(1, 4 * x_bits))
    got = find_impossible_differential(G, p, (key, 359), solve_width=x_bits)
    assert got == chained_impossible_search(G, x_bits, p, (key, 359))


def test_impossible_search_on_toy_families_equals_chained_reference():
    for t, kind in enumerate(("weak", "strong", "weak", "strong")):
        G = toy_reduced_family(ToyCipher.generate(4, kind, seed=(360, t)).public)
        for p in (1, 3, 16):
            got = find_impossible_differential(G, p, (361, t), solve_width=4)
            assert got == chained_impossible_search(G, 4, p, (361, t))


def _impossible_equals_chained(G, x_bits, p, seed, family=None):
    """find_impossible_differential on G reports what the per-bit chained
    reference reports on `family` (G itself by default, else a family on
    more key bits drawing over G's range), and charges p quantum queries per
    output bit it searched."""
    led = QueryLedger()
    got = find_impossible_differential(G, p, seed, led, solve_width=x_bits)
    family = G if family is None else family
    with slice_range(family.m - G.m):
        assert got == chained_impossible_search(family, x_bits, p, seed)
    searched = G.n if got is None else got.j
    assert led.snapshot() == {"quantum": p * searched, "classical": 0}
    return got


@pytest.mark.parametrize("k", [1, 2, 6])  # output bits per block; 6 puts every bit in one
def test_impossible_search_blocks_equal_the_per_bit_reference(monkeypatch, k):
    """Built k output bits per butterfly, the search halts where per-bit
    builds halt, at their charge: at bit 1 of T8's slice G0 (m = 8, four
    bits), at bit 4 of a 6-bit function (inside the second block of two),
    or nowhere."""
    pub = ToyCipher.generate(4, "weak", seed=350).public
    G0 = toy_zero_key_family(pub)
    monkeypatch.setattr(bv, "_BLOCK_CELLS", k << G0.m)
    got = _impossible_equals_chained(G0, 4, 16, 351, toy_reduced_family(pub))
    assert got.j == 1

    x = np.arange(64)
    words = random_vector_function(6, 6, seeded_rng(362)).table.astype(np.int64)
    words = words & ~0b000100 | (np.bitwise_count(x & 0b101001) & 1) << 2
    monkeypatch.setattr(bv, "_BLOCK_CELLS", k << 6)
    got = _impossible_equals_chained(VectorFunction(6, 6, words), 6, 24, 363)
    assert got.j == 4
    got = _impossible_equals_chained(random_vector_function(6, 6, seeded_rng(364)), 6, 24, 365)
    assert got is None


def test_certificate_validity_against_manual_sweep():
    tc = ToyCipher.generate(4, "weak", seed=352)
    pub = tc.public
    y = pub.reduced_encrypt_all_keys()

    def manual(cert_j, cert_a, forbidden):
        for k in range(1 << pub.key_bits):
            for x in range(16):
                d = int(y[x ^ cert_a, k]) ^ int(y[x, k])
                if (d >> (4 - cert_j)) & 1 == forbidden:
                    return False
        return True

    for j, a, i in ((1, 3, 1), (1, 3, 0), (2, 3, 1), (1, 1, 0), (3, 5, 1)):
        cert = ImpossibleCertificate(j, a, i)
        assert impossible_certificate_valid(toy_reduced_family(pub), cert) == manual(j, a, i)


def test_impossible_attack_never_kills_true_key():
    for t in range(TRIALS):
        tc = ToyCipher.generate(4, "weak", seed=(353, t))
        rep = impossible_attack(tc.public, tc.encrypt_table(), seed=(354, t))
        assert rep.found and rep.certificate_valid
        assert tc.last_key in rep.alive


def test_impossible_attack_zero_pairs_keeps_everyone():
    tc = ToyCipher.generate(4, "weak", seed=355)
    rep = impossible_attack(tc.public, tc.encrypt_table(), seed=356, pairs=0)
    assert rep.found
    assert rep.alive == tuple(range(16))
    assert rep.queries["classical"] == 0


def test_impossible_attack_flags_bogus_certificate():
    """Starved of samples (p=1), the search returns junk on a strong cipher;
    the brute-force pre-check catches it and nothing is sieved."""
    tc = ToyCipher.generate(4, "strong", seed=31)
    rep = impossible_attack(tc.public, tc.encrypt_table(), seed=(32, 0), p=1)
    assert rep.found
    assert rep.certificate_valid is False
    assert rep.alive == tuple(range(16))
    assert rep.queries["classical"] == 0
    assert tc.last_key in rep.alive


def test_impossible_attack_tabulates_the_family_once(monkeypatch):
    from bvattack.ciphers import ToyCipherPublic

    calls = []
    build = ToyCipherPublic._keyed_rounds

    def counted(self, first_keys):
        calls.append((self, first_keys))
        return build(self, first_keys)

    monkeypatch.setattr(ToyCipherPublic, "_keyed_rounds", counted)
    tc = ToyCipher.generate(4, "weak", seed=355)
    rep = impossible_attack(tc.public, tc.encrypt_table(), seed=356)
    assert rep.certificate_valid
    # the slice G0 (k1 = 0), for the search and the certificate check alike
    assert calls == [(tc.public, 1)]


def _traced_peak(fn, *args) -> int:
    """Peak bytes traced while fn(*args) runs; numpy reports its buffers to
    tracemalloc, so this counts every table-sized temporary."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_keyed_family_sweeps_stay_within_two_tables():
    """The all-keys sweeps read G as its 2^n x 2^kb matrix of rows, so one
    gathered copy of G is the only table-sized array they build."""
    G = toy_reduced_family(ToyCipher.generate(6, "weak", seed=370).public)
    bound = 2 * G.table.nbytes
    assert _traced_peak(impossible_certificate_valid, G, ImpossibleCertificate(1, 3, 1)) <= bound
    assert _traced_peak(differential_match_counts, G, 3, 3) <= bound


def test_keyed_family_build_stays_within_two_tables():
    """The 24-bit family of the n = 8 toy cipher, built in uint8 words, makes
    no table-sized temporary beside the table it returns."""
    pub = ToyCipher.generate(8, "weak", seed=372).public
    G = toy_reduced_family(pub)
    assert G.table.dtype == np.uint8 and G.m == 24
    assert _traced_peak(toy_reduced_family, pub) <= 2 * G.table.nbytes


@given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 2**30), st.data())
def test_keyed_family_sweeps_match_oracles(n, rounds, key, data):
    """Match counts and certificate checks on the uint8 family agree with the
    per-cell references."""
    G = toy_reduced_family(ToyCipher.generate(n, "strong", seed=(key, 373), rounds=rounds).public)
    kb = G.m - n
    a = data.draw(st.integers(0, (1 << n) - 1))
    alpha = data.draw(st.integers(0, (1 << n) - 1))
    assert differential_match_counts(G, a, alpha).tolist() == keyed_match_counts_direct(
        G.table, n, kb, a, alpha)
    for j in range(1, n + 1):
        for forbidden in (0, 1):
            assert impossible_certificate_valid(G, ImpossibleCertificate(j, a, forbidden)) == \
                certificate_valid_direct(G.table, n, kb, j, a, forbidden)


def test_key_guess_blocks_leave_the_reports_unchanged(monkeypatch):
    """However the key-guess matrix is cut into blocks of guesses, the
    counters, the sieve and the ledgers come out the same."""
    import bvattack.attacks as attacks

    runs = []
    for cells in (attacks._GUESS_CELLS, 1, 3 * 40 + 1):
        monkeypatch.setattr(attacks, "_GUESS_CELLS", cells)
        tc = ToyCipher.generate(4, "weak", seed=374)
        runs.append((
            differential_attack(tc.public, tc.encrypt_table(), seed=375, q=4, pairs=40),
            small_probability_attack(tc.public, tc.encrypt_table(), seed=376, q=2, l=4),
            impossible_attack(tc.public, tc.encrypt_table(), seed=377, pairs=40),
        ))
    assert runs[0][0].found and runs[0][1].found and runs[0][2].certificate_valid
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_keyed_family_sweeps_reject_directions_outside_the_data_half():
    G = toy_reduced_family(ToyCipher.generate(4, "weak", seed=371).public)
    for a in (1 << 4, -1):
        with pytest.raises(ValueError, match="direction"):
            differential_match_counts(G, a, 3)
        with pytest.raises(ValueError, match="direction"):
            key_fraction_meeting(G, a, 3, Fraction(1, 2))
        with pytest.raises(ValueError, match="direction"):
            impossible_certificate_valid(G, ImpossibleCertificate(1, a, 1))


def test_keyed_family_sweeps_reject_alphas_outside_the_output(monkeypatch):
    """An alpha outside [0, 2^n) used to give all-zero counts (16 and -13)
    and a fraction of 1 (99 at threshold 0); it is refused, as key ranking
    refuses it, before any derivative table is made."""
    import bvattack.attacks

    G0 = toy_zero_key_family(ToyCipher.generate(4, "weak", seed=378).public)
    good = differential_match_counts(G0, 3, 15)

    def unreachable(*args):
        raise AssertionError("a derivative table was made")

    monkeypatch.setattr(bvattack.attacks, "derivative_table", unreachable)
    for alpha in (16, -13, 99, -1):
        with pytest.raises(ValueError, match=f"4-bit alpha, got {alpha}"):
            differential_match_counts(G0, 3, alpha)
        with pytest.raises(ValueError, match=f"4-bit alpha, got {alpha}"):
            key_fraction_meeting(G0, 3, alpha, Fraction(0))
    monkeypatch.undo()
    assert differential_match_counts(G0, 3, 15).tolist() == good.tolist()


def test_over_budget_arguments_fail_before_the_family_is_tabulated(monkeypatch):
    import bvattack.attacks

    def unreachable(public):
        raise AssertionError("keyed family tabulated before the budget check")

    tc = ToyCipher.generate(7, "weak", seed=372, rounds=3)
    etable = tc.encrypt_table()
    monkeypatch.setattr(bvattack.attacks, "toy_zero_key_family", unreachable)
    over = 1 << 23
    for attack, kw, what in ((small_probability_attack, {"q": 1, "l": 300}, "draw count"),
                             (differential_attack, {"q": 2, "p": over}, "draw count"),
                             (differential_attack, {"q": 2, "pairs": over}, "pair count"),
                             (impossible_attack, {"pairs": over}, "pair count")):
        with pytest.raises(ValueError, match=f"{what} .* per-call budget"):
            attack(tc.public, etable, seed=1, **kw)
    # within the budget, each attack reaches the trapped builder
    for attack, kw in ((small_probability_attack, {"q": 1, "l": 2}),
                       (differential_attack, {"q": 2}), (impossible_attack, {})):
        with pytest.raises(AssertionError, match="tabulated"):
            attack(tc.public, etable, seed=1, **kw)


def test_toy_attacks_reject_mismatched_etable():
    tc = ToyCipher.generate(4, "weak", seed=357)
    wide = ToyCipher.generate(5, "weak", seed=357).encrypt_table()
    for attack, kw in ((differential_attack, {"q": 2}),
                       (small_probability_attack, {"q": 2, "l": 2}),
                       (impossible_attack, {})):
        with pytest.raises(ValueError, match="etable maps 5 to 5 bits"):
            attack(tc.public, wide, seed=1, **kw)


def test_certificate_check_rejects_bits_it_cannot_certify(monkeypatch):
    """A certificate whose j is not an output bit of G, or whose forbidden
    value is not a bit, is refused before the sweep reads G."""
    import bvattack.attacks as attacks

    G = toy_reduced_family(ToyCipher.generate(4, "weak", seed=358).public)

    def unreachable(*args):
        raise AssertionError("the sweep ran on a malformed certificate")

    monkeypatch.setattr(attacks, "derivative_table", unreachable)
    for j, forbidden in ((0, 1), (-1, 0), (G.n + 1, 1), (1, 2), (1, -1), (G.n, 5)):
        with pytest.raises(ValueError, match="certificate needs"):
            impossible_certificate_valid(G, ImpossibleCertificate(j, 5, forbidden))


@pytest.mark.parametrize("preset,n,rounds", [s for s in TOY_SHAPES if s[1] <= 5])
def test_all_keys_checks_on_the_zero_key_slice_equal_the_keyed_family(preset, n, rounds):
    """Along a data difference, D_a G(x || k1 || k') = D_a G0(x ^ k1 || k'):
    G's per-key match counts are G0's repeated for every k1, so key fractions
    and certificate sweeps answer the same on G0 as on the whole family G."""
    pub = ToyCipher.generate(n, preset, seed=(390, n, rounds), rounds=rounds).public
    G, G0 = toy_reduced_family(pub), toy_zero_key_family(pub)
    fractions = set()
    for a in range(1 << n):
        # fixed output differences and one that key 0 shows at x = 0
        for alpha in {1, 3 % (1 << n), (1 << n) - 1, int(derivative_table(G0, a, n)[0, 0])}:
            counts = differential_match_counts(G0, a, alpha)
            assert np.array_equal(np.tile(counts, 1 << n),
                                  differential_match_counts(G, a, alpha)), (a, alpha)
            for threshold in (Fraction(1, 1 << n), Fraction(1, 2), Fraction(1)):
                f = key_fraction_meeting(G0, a, alpha, threshold)
                assert f == key_fraction_meeting(G, a, alpha, threshold), (a, alpha, threshold)
                fractions.add(f)
        for j in range(1, n + 1):
            for forbidden in (0, 1):
                cert = ImpossibleCertificate(j, a, forbidden)
                assert impossible_certificate_valid(G0, cert) == \
                    impossible_certificate_valid(G, cert), cert
    assert {Fraction(0), Fraction(1)} <= fractions
    if rounds > 2 and n > 3:  # keys that differ in k' also differ in their counts
        assert any(0 < f < 1 for f in fractions)


@pytest.mark.parametrize("which", ["T6", "T7", "T8"])
def test_toy_attacks_equal_their_full_family_references(which):
    """At the T6-T8 shapes, the attacks, which search the slice G0, report
    what searching the whole keyed family G over G0's range reports:
    the same draws, ledgers, counters and sieves, on Yes and No answers."""
    n, attack, reference, kws = {
        "T6": (4, differential_attack, differential_attack_full_family,
               ({"q": 4}, {"q": 4, "p": 3}, {"q": 2, "pairs": 40})),
        "T7": (6, small_probability_attack, small_probability_attack_full_family,
               ({"q": 6, "l": 6}, {"q": 1, "l": 2, "p": 5})),
        "T8": (4, impossible_attack, impossible_attack_full_family,
               ({}, {"p": 1}, {"pairs": 0}, {"pairs": 40})),
    }[which]
    found = set()
    for t, preset in enumerate(("weak", "weak", "weak", "strong")):
        tc = ToyCipher.generate(n, preset, seed=(380, int(which[1:]), t))
        for kw in kws:
            got = attack(tc.public, tc.encrypt_table(), seed=(381, t), **kw)
            assert got == reference(tc.public, tc.encrypt_table(), (381, t), **kw), (t, kw)
            found.add(got.found)
    assert found == {True, False}


def test_small_probability_no_report_charges_only_the_search():
    from bvattack.lsfind import find_vector_structures

    tc = ToyCipher.generate(4, "strong", seed=3)
    rep = small_probability_attack(tc.public, tc.encrypt_table(), seed=1, q=1, l=2)
    assert not rep.found
    assert (rep.a, rep.target_diff, rep.recovered_last_key, rep.counter) == (None,) * 4
    assert (rep.p, rep.pairs) == (4 ** 3 * 2 ** 2, 4)
    ledger = QueryLedger()
    find_vector_structures(toy_reduced_family(tc.public), p=rep.p, seed=1, ledger=ledger,
                           solve_width=4)
    assert rep.queries == ledger.snapshot()
    assert rep.queries["classical"] == 0


def test_attacks_refuse_non_integer_counts_before_any_query(monkeypatch):
    """recover_em_key(..., p=6.9) used to report p = 6, and a float q or l set
    small_probability_attack's default p, which was then truncated.  Each
    attack refuses a float p, pair count, q or l before the ledger moves."""
    charged = []
    for kind in ("quantum", "classical"):
        monkeypatch.setattr(QueryLedger, f"add_{kind}",
                            lambda self, count=1, kind=kind: charged.append((kind, count)))
    em = EvenMansour.random(5, seed=312)
    fe = Feistel3.random(3, seed=313)
    tc = ToyCipher.generate(4, "weak", seed=314)
    toy = (tc.public, tc.encrypt_table())
    for attack, args, kw in (
            (recover_em_key, (em.perm_table(), em.encrypt_table()), {"p": 6.9}),
            (distinguish_feistel, (fe.encrypt_table(),), {"p": 4.0}),
            (differential_attack, toy, {"q": 2, "p": 2.7}),
            (differential_attack, toy, {"q": 2, "pairs": 8.5}),
            (differential_attack, toy, {"q": 2.5}),
            (small_probability_attack, toy, {"q": 1.5, "l": 2}),
            (small_probability_attack, toy, {"q": 1, "l": 2.0}),
            (small_probability_attack, toy, {"q": 1, "l": 2, "p": 9.5}),
            (impossible_attack, toy, {"pairs": 1.5}),
            (impossible_attack, toy, {"p": 16.0})):
        with pytest.raises(TypeError):
            attack(*args, seed=315, **kw)
    assert charged == []
    assert recover_em_key(em.perm_table(), em.encrypt_table(), seed=315, p=np.int64(3)) == \
        recover_em_key(em.perm_table(), em.encrypt_table(), seed=315, p=3)


def test_key_counter_rate_refuses_keys_outside_the_table():
    # rate(-1) used to read the last key's count
    table = KeyCounterTable((1, 2, 3, 4), 2, 3)
    assert [table.rate(s) for s in range(4)] == [Fraction(s + 1, 6) for s in range(4)]
    for s in (-1, 4, -5):
        with pytest.raises(ValueError, match=f"got {s}"):
            table.rate(s)


def test_impossible_attack_validation():
    tc = ToyCipher.generate(4, "weak", seed=357)
    with pytest.raises(ValueError):
        impossible_attack(tc.public, tc.encrypt_table(), seed=1, pairs=-1)
    G = toy_reduced_family(tc.public)
    with pytest.raises(ValueError):
        find_impossible_differential(G, seed=1, solve_width=0)
    with pytest.raises(ValueError):
        find_impossible_differential(G, p=0, seed=1, solve_width=4)
