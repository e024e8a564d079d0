"""Cipher constructions, their planted weaknesses, and the file format."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvattack.boolfn import VectorFunction, vector_structures_exhaustive
from bvattack.bv import QueryLedger
from bvattack.ciphers import (
    CipherFile,
    EvenMansour,
    Feistel3,
    OracleFunction,
    ToyCipher,
    ToyCipherPublic,
    _round_keys,
    em_difference_oracle,
    feistel_branch_oracle,
    load_cipher,
    random_permutation,
    rotl1,
    rotr1,
    save_cipher,
    toy_reduced_family,
    weak_sbox,
)
from bvattack.rng import seeded_rng

from oracles import (
    feistel3_encrypt_direct,
    load_cipher_direct,
    reduced_encrypt_direct,
    toy_encrypt_direct,
    vector_structures_direct,
)


# --- oracle wrapper -----------------------------------------------------------


def test_oracle_function_accounting():
    led = QueryLedger()
    F = VectorFunction(2, 2, np.array([2, 0, 3, 1]))
    o = OracleFunction(F, led)
    assert o.classical(0) == 2
    assert o.classical_batch(np.array([1, 2, 3])).tolist() == [0, 3, 1]
    assert led.classical == 4
    assert led.quantum == 0


def test_rotations():
    assert rotl1(0b1001, 4) == 0b0011
    assert rotr1(0b0011, 4) == 0b1001
    assert rotr1(rotl1(0b0110, 4), 4) == 0b0110


# --- three-round Feistel --------------------------------------------------------


def test_feistel_golden_fixture():
    # frozen from seed 42 at first implementation; regression pin
    fe = Feistel3.random(4, seed=42)
    assert fe.p1[:4].tolist() == [10, 12, 7, 3]
    assert fe.encrypt(0x3, 0xA) == (2, 6)


def test_feistel_zero_round_functions_swap():
    # with P_i = 0 three rounds reduce to a single swap
    z = np.zeros(16, dtype=np.int64)
    fe = Feistel3(4, z, z, z)
    for left, right in ((0, 0), (3, 10), (15, 15), (7, 2)):
        assert fe.encrypt(left, right) == (right, left)


@given(st.integers(1, 5), st.integers(0, 2**30))
def test_feistel_decrypt_inverts(n, key):
    fe = Feistel3.random(n, seed=(key, 1))
    for block in range(1 << (2 * n)):
        left, right = block >> n, block & ((1 << n) - 1)
        assert fe.decrypt(*fe.encrypt(left, right)) == (left, right)


@given(st.integers(1, 4), st.integers(0, 2**30))
def test_feistel_table_matches_direct_oracle(n, key):
    fe = Feistel3.random(n, seed=(key, 2))
    table = fe.encrypt_table()
    assert (table.m, table.n) == (2 * n, 2 * n)
    for block in range(1 << (2 * n)):
        left, right = block >> n, block & ((1 << n) - 1)
        el, er = feistel3_encrypt_direct(n, fe.p1, fe.p2, fe.p3, left, right)
        assert int(table.table[block]) == (el << n) | er
        assert fe.encrypt(left, right) == (el, er)


@given(st.integers(2, 5), st.integers(0, 2**30), st.data())
def test_branch_oracle_period(n, key, data):
    """F(b, x) = F(b+1, x + P1(s0) + P1(s1)) for every input: the planted
    period of the distinguisher's oracle."""
    fe = Feistel3.random(n, seed=(key, 3))
    s0 = data.draw(st.integers(0, (1 << n) - 1))
    s1 = data.draw(st.integers(0, (1 << n) - 1).filter(lambda v: v != s0))
    F = feistel_branch_oracle(fe.encrypt_table(), s0, s1)
    period = (1 << n) | (int(fe.p1[s0]) ^ int(fe.p1[s1]))
    xs = np.arange(1 << (n + 1))
    assert np.array_equal(F.table[xs ^ period], F.table)
    assert (period, 0) in vector_structures_exhaustive(F)


def test_branch_oracle_value_identity():
    # F(b || x) equals the right encryption half with left input s_b
    fe = Feistel3.random(3, seed=77)
    F = feistel_branch_oracle(fe.encrypt_table(), s0=2, s1=5)
    for b, s in ((0, 2), (1, 5)):
        for x in range(8):
            assert F((b << 3) | x) == fe.encrypt(s, x)[1] ^ s


def test_feistel_validation():
    z = np.zeros(16, dtype=np.int64)
    with pytest.raises(ValueError):
        Feistel3(3, z, z, z)  # table length mismatch
    with pytest.raises(ValueError):
        feistel_branch_oracle(VectorFunction(4, 4, np.arange(16)), 1, 1)  # s0 == s1


def test_feistel_round_tables_follow_the_word_table_rule():
    z = np.zeros(8, dtype=np.int64)
    with pytest.raises(ValueError, match="fit in 3 output bits"):
        Feistel3(3, z, np.arange(8), np.arange(1, 9))
    with pytest.raises(ValueError, match="fit in 3 output bits"):
        Feistel3(3, z - 1, z, z)
    with pytest.raises(ValueError, match="2\\^3 entries"):
        Feistel3(3, z, z[:4], z)


class _UnreadTable:
    """A 2n-bit encryption table whose entries must not be read."""

    m = n = 8

    @property
    def table(self):
        raise AssertionError("a row was read before the constants were checked")


def test_branch_oracle_rejects_constants_outside_the_half_width():
    for s0, s1 in ((-1, 2), (16, 2), (2, -1), (2, 16), (-1, -1)):
        with pytest.raises(ValueError, match="4-bit words"):
            feistel_branch_oracle(_UnreadTable(), s0, s1)
    F = feistel_branch_oracle(VectorFunction(8, 8, np.arange(256)), 0, 15)
    assert (F.m, F.n) == (5, 4)


# --- Even-Mansour ----------------------------------------------------------------


SPEC_PERM = [0x6, 0x4, 0xC, 0x5, 0x0, 0x7, 0x2, 0xE,
             0x1, 0xF, 0x3, 0xD, 0x8, 0xA, 0x9, 0xB]


def test_em_fixture_difference_structure():
    # the worked 4-bit instance: k1 = 0xA is an exact period of E ^ P
    em = EvenMansour(4, np.array(SPEC_PERM, dtype=np.int64), k1=0xA, k2=0x3)
    F = em_difference_oracle(em.encrypt_table(), em.perm_table())
    assert (0xA, 0) in vector_structures_direct(F.table, 4, 4)
    xs = np.arange(16)
    assert np.array_equal(F.table[xs ^ 0xA], F.table)


@given(st.integers(1, 8), st.integers(0, 2**30))
def test_em_encrypt_definition(n, key):
    em = EvenMansour.random(n, seed=(key, 4))
    t = em.encrypt_table().table
    p = em.perm_table().table
    for x in range(1 << n):
        assert int(t[x]) == int(p[x ^ em.k1]) ^ em.k2


@given(st.integers(2, 8), st.integers(0, 2**30))
def test_em_difference_oracle_period(n, key):
    em = EvenMansour.random(n, seed=(key, 5))
    F = em_difference_oracle(em.encrypt_table(), em.perm_table())
    xs = np.arange(1 << n)
    assert em.k1 != 0  # default generation keeps the attack non-degenerate
    assert np.array_equal(F.table[xs ^ em.k1], F.table)


def test_em_zero_k1_only_when_allowed():
    ks = [EvenMansour.random(3, seed=(60, t)).k1 for t in range(60)]
    assert all(k >= 1 for k in ks)


def test_em_validation():
    with pytest.raises(ValueError):
        EvenMansour(2, np.array([0, 0, 1, 2]), 1, 0)  # not a bijection
    with pytest.raises(ValueError):
        EvenMansour(2, np.arange(4), 7, 0)  # k1 out of range
    with pytest.raises(ValueError):
        EvenMansour(2, np.array([0, 1, 2, 4]), 1, 0)  # distinct but not 2-bit words


def test_feistel_and_em_widths_checked_before_any_table(monkeypatch):
    from bvattack import ciphers

    def unreachable(*args, **kwargs):
        raise AssertionError("tables built before the width check")

    for builder in ("seeded_rng", "random_permutation"):
        monkeypatch.setattr(ciphers, builder, unreachable)
    for n in (0, 13):
        with pytest.raises(ValueError, match="2n must be"):
            Feistel3.random(n, seed=1)
        with pytest.raises(ValueError, match="2n must be"):
            Feistel3(n, None, None, None)
    for n in (0, 25, 30):
        with pytest.raises(ValueError, match="n must be"):
            EvenMansour.random(n, seed=1)
        with pytest.raises(ValueError, match="n must be"):
            EvenMansour(n, None, 1, 0)
    # the widest allowed shapes pass the check and reach the builders
    with pytest.raises(AssertionError):
        Feistel3.random(12, seed=1)
    with pytest.raises(AssertionError):
        EvenMansour.random(24, seed=1)


# --- keyed substitution cipher ----------------------------------------------------


def test_weak_sbox_planted_differential():
    """Pairing construction: input difference 3 always gives output
    difference 2^(n-1)+1, which the round rotation turns back into 3."""
    for n in (3, 4, 5, 6):
        s = weak_sbox(n, seed=(5, n))
        assert sorted(s.tolist()) == list(range(1 << n))
        alpha = (1 << (n - 1)) | 1
        for x in range(1 << n):
            assert int(s[x ^ 3]) ^ int(s[x]) == alpha
        assert rotl1(alpha, n) == 3


def test_weak_sbox_width_guard():
    with pytest.raises(ValueError):
        weak_sbox(2, seed=0)


def test_round_keys_msb_first():
    # master 0xAB over two 4-bit rounds: high nibble first
    assert _round_keys(0xAB, 4, 3) == [0xA, 0xB]
    assert _round_keys(0x1F2, 3, 4) == [0b111, 0b110, 0b010]


@given(st.integers(3, 5), st.sampled_from(["weak", "strong"]), st.integers(0, 2**30))
def test_toy_encrypt_matches_direct_oracle(n, preset, key):
    tc = ToyCipher.generate(n, preset, seed=(key, 6))
    table = tc.encrypt_table().table
    pub = tc.public
    for x in range(1 << n):
        want = toy_encrypt_direct(n, pub.rounds, pub.sbox, pub.last_sbox,
                                  tc.master_key, tc.last_key, x)
        assert int(table[x]) == want


@given(st.integers(3, 5), st.integers(0, 2**30))
def test_toy_decrypt_inverts(n, key):
    tc = ToyCipher.generate(n, "strong", seed=(key, 7))
    table = tc.encrypt_table().table
    for x in range(1 << n):
        assert tc.decrypt(int(table[x])) == x


def test_toy_golden_fixture():
    # frozen regression values for seed 9
    tc = ToyCipher.generate(4, "weak", seed=9)
    assert (tc.master_key, tc.last_key) == (0x18, 0x2)
    assert tc.encrypt_table().table[:4].tolist() == [0, 11, 4, 5]


@given(st.integers(3, 4), st.integers(0, 2**30))
def test_reduced_family_indexing(n, key):
    """G((x << kb) | k) is the keyed-rounds output for key k, input x."""
    tc = ToyCipher.generate(n, "weak", seed=(key, 8))
    pub = tc.public
    G = toy_reduced_family(pub)
    kb = pub.key_bits
    y = pub.reduced_encrypt_all_keys()
    for x in range(1 << n):
        for k in range(0, 1 << kb, 7):
            direct = toy_encrypt_direct(n, pub.rounds, pub.sbox, pub.last_sbox, k, 0, x)
            # drop the final substitution: y matrix holds the reduced value
            assert int(y[x, k]) == int(pub.inverse_last()[direct])
            assert G((x << kb) | k) == int(y[x, k])


@given(st.integers(3, 5), st.integers(2, 4), st.integers(0, 2**30), st.data())
def test_encrypt_table_is_a_column_of_the_all_keys_matrix(n, rounds, key, data):
    """The one-key walk of encrypt_table against the all-keys build."""
    pub = ToyCipher.generate(n, "strong", seed=(key, 9), rounds=rounds).public
    y = pub.reduced_encrypt_all_keys()
    for _ in range(5):
        k = data.draw(st.integers(0, (1 << pub.key_bits) - 1))
        s = data.draw(st.integers(0, (1 << n) - 1))
        table = ToyCipher(pub, "strong", 0, k, s).encrypt_table().table
        assert np.array_equal(table, pub.last_sbox[y[:, k]] ^ s)


@given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 2**30))
def test_keyed_family_matches_direct_rounds(n, rounds, key):
    """The all-keys family, in uint8 words, cell by cell against the rounds
    run per definition."""
    pub = ToyCipher.generate(n, "strong", seed=(key, 10), rounds=rounds).public
    G = toy_reduced_family(pub)
    kb = pub.key_bits
    assert G.table.dtype == np.uint8
    assert G.table.tolist() == [reduced_encrypt_direct(n, rounds, pub.sbox, k, x)
                                for x in range(1 << n) for k in range(1 << kb)]


def test_weak_family_has_exact_joint_structure():
    tc = ToyCipher.generate(4, "weak", seed=11)
    G = toy_reduced_family(tc.public)
    kb = tc.public.key_bits
    structures = vector_structures_exhaustive(G)
    assert ((3 << kb), 3) in structures


def test_toy_validation():
    s = np.arange(16, dtype=np.int64)
    with pytest.raises(ValueError):
        ToyCipherPublic(4, 1, s, s)  # rounds < 2
    bad = s.copy()
    bad[0] = 1
    with pytest.raises(ValueError):
        ToyCipherPublic(4, 3, bad, s)
    with pytest.raises(ValueError, match="last_sbox"):
        ToyCipherPublic(4, 3, s, s + 1)  # distinct, but 16 is not a 4-bit word
    with pytest.raises(ValueError):
        ToyCipher.generate(4, "odd-preset", seed=0)


def test_toy_public_compares_and_hashes_by_identity():
    a = ToyCipher.generate(4, "weak", seed=3).public
    b = ToyCipher.generate(4, "weak", seed=3).public
    assert a == a and a != b
    assert len({a, b}) == 2


def test_every_cipher_constructor_rejects_widths_below_one():
    s = np.arange(1, dtype=np.int64)
    for n in (0, -1):
        for build in (lambda: Feistel3.random(n, seed=1),
                      lambda: Feistel3(n, s, s, s),
                      lambda: EvenMansour.random(n, seed=1),
                      lambda: EvenMansour(n, s, 0, 0),
                      lambda: ToyCipher.generate(n, "weak", seed=1),
                      lambda: ToyCipher.generate(n, "strong", seed=1),
                      lambda: ToyCipher.generate(n, "strong", seed=1, rounds=2),
                      lambda: ToyCipherPublic(n, 3, s, s)):
            with pytest.raises(ValueError, match=r"must be in \[1, 24\]"):
                build()


@pytest.mark.parametrize("n, dtype", [(3, np.uint8), (8, np.uint8), (12, np.uint16)])
def test_cipher_tables_are_read_only_word_tables(n, dtype):
    """Round functions, permutation, S-boxes and the inverse last S-box are
    held in the n-bit word type, with the values they were built from."""
    tc = ToyCipher.generate(n, "strong", seed=(n, 30), rounds=2)
    em = EvenMansour.random(n, seed=(n, 31))
    fe = Feistel3.random(n, seed=(n, 32))
    assert fe.p1.tolist() == seeded_rng((n, 32), 1).integers(0, 1 << n, size=1 << n).tolist()
    assert em.perm.tolist() == random_permutation(n, seeded_rng((n, 31), 1)).tolist()
    assert tc.public.last_sbox.tolist() == random_permutation(n, seeded_rng((n, 30), 12)).tolist()
    for t in (tc.public.sbox, tc.public.last_sbox, em.perm, fe.p1, fe.p2, fe.p3):
        assert t.dtype == dtype and not t.flags.writeable
    inv = tc.public.inverse_last()
    assert inv.dtype == dtype
    assert inv[tc.public.last_sbox].tolist() == list(range(1 << n))


@pytest.mark.parametrize("preset", ["weak", "strong"])
def test_uint8_round_table_at_n8_equals_the_integer_rule(preset):
    """At n = 8 the S-box is uint8, so v << 1 drops the bit that rotl1 wraps
    round; the round table and the encryption table still equal the rule run
    on Python integers."""
    tc = ToyCipher.generate(8, preset, seed=33)
    pub = tc.public
    assert pub.sbox.dtype == np.uint8
    assert pub._round_table().tolist() == [reduced_encrypt_direct(8, 2, pub.sbox, 0, y)
                                           for y in range(256)]
    assert tc.encrypt_table().table.tolist() == [
        toy_encrypt_direct(8, pub.rounds, pub.sbox, pub.last_sbox, tc.master_key, tc.last_key, x)
        for x in range(256)]


# --- cipher files -------------------------------------------------------------------


def test_feistel_file_roundtrip(tmp_path):
    fe = Feistel3.random(3, seed=21)
    path = tmp_path / "fe.txt"
    save_cipher(path, fe, seed=21)
    cf = load_cipher(path)
    assert cf.kind == "feistel3"
    assert cf.params == {"n": 3, "seed": 21}
    assert cf.keys == {}
    for name, want in (("p1", fe.p1), ("p2", fe.p2), ("p3", fe.p3)):
        assert cf.table(name).table.tolist() == want.tolist()
    assert cf.table("etable").table.tolist() == fe.encrypt_table().table.tolist()


def test_feistel_challenge_file_hides_round_functions(tmp_path):
    fe = Feistel3.random(3, seed=22)
    path = tmp_path / "fe.txt"
    save_cipher(path, fe, include_secrets=False)
    cf = load_cipher(path)
    assert "p1" not in cf.tables and "p3" not in cf.tables
    assert cf.table("etable").table.tolist() == fe.encrypt_table().table.tolist()


def test_em_file_roundtrip(tmp_path):
    em = EvenMansour.random(5, seed=23)
    path = tmp_path / "em.txt"
    save_cipher(path, em)
    cf = load_cipher(path)
    assert cf.kind == "even-mansour"
    assert cf.keys == {"k1": em.k1, "k2": em.k2}
    assert cf.table("perm").table.tolist() == em.perm_table().table.tolist()


def test_toy_file_roundtrip_and_public(tmp_path):
    tc = ToyCipher.generate(4, "weak", seed=24)
    path = tmp_path / "toy.txt"
    save_cipher(path, tc)
    cf = load_cipher(path)
    assert cf.kind == "toy"
    assert cf.params["preset"] == "weak"
    assert cf.params["seed"] == 24
    assert cf.keys == {"k": tc.master_key, "s": tc.last_key}
    pub = cf.toy_public()
    assert pub.rounds == 3
    assert pub.sbox.tolist() == tc.public.sbox.tolist()
    assert pub.last_sbox.tolist() == tc.public.last_sbox.tolist()


def test_toy_tuple_seed_kept_out_of_header(tmp_path):
    tc = ToyCipher.generate(4, "weak", seed=(1, 2))
    path = tmp_path / "toy.txt"
    save_cipher(path, tc)
    cf = load_cipher(path)
    assert "seed" not in cf.params


def test_challenge_file_hides_keys(tmp_path):
    tc = ToyCipher.generate(4, "weak", seed=25)
    path = tmp_path / "toy.txt"
    save_cipher(path, tc, include_secrets=False)
    cf = load_cipher(path)
    assert cf.keys == {}
    assert cf.toy_public() is not None  # public info still complete


def test_toy_public_on_wrong_kind(tmp_path):
    em = EvenMansour.random(3, seed=26)
    path = tmp_path / "em.txt"
    save_cipher(path, em)
    with pytest.raises(ValueError):
        load_cipher(path).toy_public()


def test_load_cipher_errors(tmp_path):
    cases = {
        "noheader.txt": "table etable m=2 n=2\n0 1 2 3\n",
        "badkind.txt": "cipher rot13 n=2\ntable etable m=2 n=2\n0 1 2 3\n",
        "no_n.txt": "cipher toy r=3\ntable etable m=2 n=2\n0 1 2 3\n",
        "notable.txt": "cipher even-mansour n=2\nkeys k1=0x1 k2=0x0\n",
        "short.txt": "cipher even-mansour n=2\ntable etable m=2 n=2\n0 1 2\n",
        "junk.txt": "cipher even-mansour n=2\nwhat is this\ntable etable m=2 n=2\n0 1 2 3\n",
        "no_shape.txt": "cipher even-mansour n=2\ntable etable n=2\n0 1 2 3\n",
        "long.txt": "cipher even-mansour n=2\ntable etable m=2 n=2\n0 1 2 3\n0\n",
    }
    for name, text in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError):
            load_cipher(p)
    no_r = tmp_path / "no_r.txt"
    no_r.write_text("cipher toy n=2\n" + "".join(
        f"table {name} m=2 n=2\n0 1 2 3\n" for name in ("sbox", "last_sbox", "etable")))
    with pytest.raises(ValueError):
        load_cipher(no_r).toy_public()
    wide = tmp_path / "wide.txt"
    wide.write_text("cipher even-mansour n=2\ntable etable m=99 n=2\n0 1 2 3\n")
    with pytest.raises(ValueError, match="input width"):  # before 2^m entries are counted
        load_cipher(wide)


def test_em_file_text(tmp_path):
    """Header, keys line, then the perm and etable sections as word blocks."""
    path = tmp_path / "em.txt"
    save_cipher(path, EvenMansour(2, [2, 0, 3, 1], k1=1, k2=3), seed=5)
    assert path.read_text() == ("cipher even-mansour n=2 seed=5\nkeys k1=0x1 k2=0x3\n"
                                "table perm m=2 n=2\n2 0 3 1\n"
                                "table etable m=2 n=2\n3 1 2 0\n")


def test_cipher_file_accessors(tmp_path):
    em = EvenMansour.random(3, seed=27)
    path = tmp_path / "em.txt"
    save_cipher(path, em)
    cf = load_cipher(path)
    assert cf.n == 3
    with pytest.raises(ValueError):
        cf.table("nonexistent")


@pytest.mark.parametrize("cipher", [Feistel3.random(2, seed=1), EvenMansour.random(3, seed=2),
                                    ToyCipher.generate(3, "weak", seed=3)],
                         ids=["feistel3", "even-mansour", "toy"])
def test_cipher_file_tables_fit_the_kind_and_header(tmp_path, cipher):
    """Each kind names its tables and binds them to the header n: n to n
    bits, and 2n to 2n for a Feistel etable; a header n that is not theirs
    or a table the kind does not name is refused, as the text reader refuses
    it."""
    path = tmp_path / "c.txt"
    save_cipher(path, cipher)
    text = path.read_text()
    assert load_cipher(path).n == cipher.n
    etable = text[text.index("table etable"):]
    # the first table's block made malformed, which its own reading refuses
    first = text.index("\n", text.index("table ")) + 1
    broken = text[:first] + "zz " + text[first:]
    path.write_text(broken)
    with pytest.raises(ValueError, match="table .*: (expected|invalid)"):
        load_cipher(path)
    # a misnamed or mis-sized table is refused before its block is read, so a
    # malformed block behind it gives the same error
    for edit, message in ((text.replace(f" n={cipher.n}", f" n={cipher.n + 1}", 1), " bits, not "),
                          (broken.replace(f" n={cipher.n}", f" n={cipher.n + 1}", 1), " bits, not "),
                          (text + etable.replace("table etable", "table extra", 1),
                           "table extra: a .* file has no such table"),
                          (text + "table extra m=24 n=24\nzz\n",
                           "table extra: a .* file has no such table")):
        path.write_text(edit)
        with pytest.raises(ValueError, match=message):
            load_cipher(path)
        with pytest.raises(ValueError, match=message):
            load_cipher_direct(path)


def test_even_mansour_view_checks_the_permutation(tmp_path):
    em = EvenMansour(2, [2, 0, 3, 1], k1=1, k2=3)
    path = tmp_path / "em.txt"
    save_cipher(path, em)
    perm, etable = load_cipher(path).even_mansour()
    assert perm.table.tolist() == [2, 0, 3, 1]
    assert etable.table.tolist() == em.encrypt_table().table.tolist()
    path.write_text(path.read_text().replace("\n2 0 3 1\n", "\n2 0 2 1\n"))
    with pytest.raises(ValueError, match="perm must be a bijection"):
        load_cipher(path).even_mansour()
    toy = tmp_path / "toy.txt"
    save_cipher(toy, ToyCipher.generate(3, "weak", seed=4))
    with pytest.raises(ValueError, match="not an Even-Mansour"):
        load_cipher(toy).even_mansour()


def _cipher_outcome(load, path):
    """What loading a cipher file gives: kind, header values, keys and
    tables, or the error's type and message."""
    try:
        cf = load(path)
    except (ValueError, IndexError) as exc:
        return type(exc).__name__, str(exc)
    tables = {name: (fn.m, fn.n, fn.table.tolist()) for name, fn in cf.tables.items()}
    return cf.kind, cf.params, cf.keys, tables


def _toy_file(tmp_path) -> bytes:
    path = tmp_path / "toy.cipher"
    save_cipher(path, ToyCipher.generate(3, "weak", seed=380))
    return path.read_bytes()


_CIPHER_EDITS = {
    "canonical": lambda b: b,
    "blank lines": lambda b: b"\n \n" + b.replace(b"\n", b"\n\t\n"),
    "crlf": lambda b: b.replace(b"\n", b"\r\n"),
    "cr": lambda b: b.replace(b"\n", b"\r"),
    "keys last": lambda b: b.split(b"\n", 2)[0] + b"\n" + b.split(b"\n", 2)[2]
    + b.split(b"\n", 2)[1] + b"\n",
    "trailing spaces": lambda b: b.replace(b"\n", b"  \n"),
    "indented table line": lambda b: b.replace(b"\ntable etable", b"\n table etable"),
    "unexpected line": lambda b: b.replace(b"\nkeys", b"\nwhat is this\nkeys"),
    "line under keys": lambda b: b.replace(b"\ntable", b"\n0 1\ntable", 1),
    "nameless table": lambda b: b.replace(b"table etable m=3 n=3", b"table"),
    "bare table word": lambda b: b.replace(b"table etable m=3 n=3", b"table \t "),
    "no-break space table word": lambda b: b.replace(b"table etable m=3 n=3", b"table \xc2\xa0"),
    "unit separator table word": lambda b: b.replace(b"table etable m=3 n=3", b"table \x1f"),
    "both table word": lambda b: b.replace(b"table etable m=3 n=3", b"table \xc2\xa0\x1f"),
    "0x and plus": lambda b: b.replace(b" 1 ", b" 0x1 ").replace(b" 2 ", b" +2 "),
    "arabic digit": lambda b: b.replace(b" 3 ", " \u0663 ".encode()),
    "file separator": lambda b: b.replace(b"\ntable", b"\x1ctable"),
    "vertical tab": lambda b: b.replace(b"\n", b"\x0b", 3),
    "invalid utf-8": lambda b: b.replace(b" 5 ", b" \xff "),
    "no etable": lambda b: b[:b.index(b"table etable")],
    "missing token": lambda b: b[:-3] + b"\n",
}


@pytest.mark.parametrize("edit", list(_CIPHER_EDITS))
def test_load_cipher_reads_as_the_text_reader(tmp_path, edit):
    """Cut up as bytes or, for any other file, decoded as text, a cipher file
    loads as the whole-text reader loads it, errors included."""
    path = tmp_path / "edited.cipher"
    path.write_bytes(_CIPHER_EDITS[edit](_toy_file(tmp_path)))
    want = _cipher_outcome(load_cipher_direct, path)
    assert _cipher_outcome(load_cipher, path) == want
    if edit == "canonical":
        assert want[0] == "toy"


@given(st.integers(0, 10**6), st.integers(0, 10**6),
       st.binary(max_size=3) | st.sampled_from([b"\r", b"\x0b", b"\x1e", b"\xc2\x85", b"\n\n",
                                                 b"\ntable x m=1 n=1\n", b"\nkeys k=1\n"]))
def test_edited_cipher_file_reads_as_the_text_reader(tmp_path_factory, i, j, insert):
    """Any span of a saved cipher file replaced by a few bytes loads as the
    whole-text reader loads the edited file."""
    tmp = tmp_path_factory.mktemp("edit")
    data = _toy_file(tmp)
    i, j = sorted((i % (len(data) + 1), j % (len(data) + 1)))
    path = tmp / "edited.cipher"
    path.write_bytes(data[:i] + insert + data[j:])
    assert _cipher_outcome(load_cipher, path) == _cipher_outcome(load_cipher_direct, path)
