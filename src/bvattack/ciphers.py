"""Toy block ciphers and the oracle plumbing the attacks run against.

Three constructions:

* Feistel3: a 3-round Feistel network on 2n-bit blocks with independent
  uniformly random round functions (not permutations).
* EvenMansour: E(x) = P(x ^ k1) ^ k2 for a public random permutation P.
* ToyCipher: an iterated n-bit cipher with rounds-1 keyed S-box rounds
  followed by an unkeyed whitening round c = T(y) ^ s; the "weak" preset
  plants a probability-one differential, the "strong" preset uses a random
  S-box.

Secrets are derived from explicit seeds.  Attack code only sees published
artifacts (encryption tables, public permutations, algorithm descriptions);
the OracleFunction wrapper charges the query ledger on every classical read.

Every table a cipher holds (round functions, the permutation, the S-boxes
and the inverse last S-box) is a read-only word table that VectorFunction
checked and narrowed: uint8 up to 8 bits, uint16 up to 16, uint32 above.
Every constructor rejects a width n < 1 before it builds any table.

Cipher files are plain text: a `cipher <kind> key=value...` header line, an
optional `keys ...` line (omitted in challenge files), then one
`table <name> m=.. n=..` line per table followed by the table's entries as a
boolfn word block.  They round-trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boolfn import (
    MAX_WIDTH,
    VectorFunction,
    _check_width,
    _read_sections,
    format_word_block,
    parse_word_block,
)
from .bv import QueryLedger
from .rng import seeded_rng

__all__ = [
    "OracleFunction",
    "random_permutation",
    "rotl1",
    "rotr1",
    "Feistel3",
    "feistel_branch_oracle",
    "EvenMansour",
    "em_difference_oracle",
    "weak_sbox",
    "ToyCipher",
    "ToyCipherPublic",
    "toy_zero_key_family",
    "CipherFile",
    "save_cipher",
    "load_cipher",
]


class OracleFunction:
    """Query-counted black-box view of a vector function.

    Every classical read charges the ledger once; quantum access goes through
    BvSampler with the same ledger, which charges per measurement.
    """

    __slots__ = ("fn", "ledger")

    def __init__(self, fn: VectorFunction, ledger: QueryLedger | None = None) -> None:
        self.fn = fn
        self.ledger = ledger if ledger is not None else QueryLedger()

    def classical(self, x: int) -> int:
        self.ledger.add_classical(1)
        return int(self.fn.table[x])

    def classical_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        self.ledger.add_classical(int(xs.size))
        return self.fn.table[xs]


def random_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random bijection on n-bit words, as an int64 table."""
    return rng.permutation(1 << n).astype(np.int64)


def rotl1(v: int, n: int) -> int:
    return ((v << 1) | (v >> (n - 1))) & ((1 << n) - 1)


def rotr1(v: int, n: int) -> int:
    return ((v >> 1) | ((v & 1) << (n - 1))) & ((1 << n) - 1)


def _bijection(t, n: int, name: str) -> np.ndarray:
    """t as a read-only n-bit word table, checked to be a bijection on n-bit words."""
    arr = np.asarray(t)
    if arr.shape != (1 << n,) or not np.array_equal(np.sort(arr), np.arange(1 << n)):
        raise ValueError(f"{name} must be a bijection on n-bit words")
    return VectorFunction(n, n, arr).table


# ---------------------------------------------------------------------------
# 3-round Feistel


class Feistel3:
    """Three-round Feistel network on 2n-bit blocks, L in the high bits.

    One round maps (L, R) to (R ^ P_i(L), L); with all-zero round functions
    the cipher is the halves swap (L, R) -> (R, L).
    """

    __slots__ = ("n", "p1", "p2", "p3")

    def __init__(self, n: int, p1, p2, p3) -> None:
        _check_width(2 * n, "Feistel block width 2n")
        self.n = n
        self.p1, self.p2, self.p3 = (VectorFunction(n, n, t).table for t in (p1, p2, p3))

    @classmethod
    def random(cls, n: int, seed) -> "Feistel3":
        _check_width(2 * n, "Feistel block width 2n")  # before any table is built
        rounds = [
            seeded_rng(seed, i).integers(0, 1 << n, size=1 << n, dtype=np.int64)
            for i in (1, 2, 3)
        ]
        return cls(n, *rounds)

    def encrypt(self, left: int, right: int) -> tuple[int, int]:
        for p in (self.p1, self.p2, self.p3):
            left, right = right ^ int(p[left]), left
        return left, right

    def decrypt(self, left: int, right: int) -> tuple[int, int]:
        for p in (self.p3, self.p2, self.p1):
            left, right = right, left ^ int(p[right])
        return left, right

    def encrypt_table(self) -> VectorFunction:
        """The whole cipher as a 2n -> 2n table, block packed as L || R."""
        n = self.n
        mask = (1 << n) - 1
        xs = np.arange(1 << (2 * n))
        left, right = xs >> n, xs & mask
        for p in (self.p1, self.p2, self.p3):
            left, right = right ^ p[left], left
        return VectorFunction(2 * n, 2 * n, (left << n) | right)


def feistel_branch_oracle(encrypt: VectorFunction, s0: int, s1: int) -> VectorFunction:
    """The distinguisher's derived oracle F(b || x) = right(E(s_b, x)) ^ s_b.

    Built from the published 2n-bit encryption table alone.  When E is a
    3-round Feistel network, F(b, x) = P2(x ^ P1(s_b)), so
    (1 || P1(s0) ^ P1(s1)) is an exact period of F.
    """
    if encrypt.m != encrypt.n or encrypt.n % 2:
        raise ValueError("expected a table on 2n-bit blocks")
    n = encrypt.n // 2
    if not (0 <= s0 < (1 << n) and 0 <= s1 < (1 << n)):
        raise ValueError(f"left-half constants must be {n}-bit words, got {s0} and {s1}")
    if s0 == s1:
        raise ValueError("left-half constants must differ")
    mask = (1 << n) - 1
    xs = np.arange(1 << n)
    rows = [(encrypt.table[(s << n) | xs] & mask) ^ s for s in (s0, s1)]
    return VectorFunction(n + 1, n, np.concatenate(rows))


# ---------------------------------------------------------------------------
# Even-Mansour


class EvenMansour:
    """E(x) = P(x ^ k1) ^ k2 for a public random permutation P.

    k1 = 0 makes E ^ P constant, so every direction is a period and the key
    recovery has no signal; the generator therefore draws k1 nonzero.
    """

    __slots__ = ("n", "perm", "k1", "k2")

    def __init__(self, n: int, perm, k1: int, k2: int) -> None:
        _check_width(n, "n")
        arr = _bijection(perm, n, "perm")
        if not (0 <= k1 < (1 << n) and 0 <= k2 < (1 << n)):
            raise ValueError("keys must be n-bit words")
        self.n = n
        self.perm = arr
        self.k1 = k1
        self.k2 = k2

    @classmethod
    def random(cls, n: int, seed) -> "EvenMansour":
        _check_width(n, "n")  # before the permutation is drawn
        perm = random_permutation(n, seeded_rng(seed, 1))
        rng = seeded_rng(seed, 2)
        k1 = int(rng.integers(1, 1 << n))
        k2 = int(rng.integers(0, 1 << n))
        return cls(n, perm, k1, k2)

    def perm_table(self) -> VectorFunction:
        return VectorFunction(self.n, self.n, self.perm)

    def encrypt_table(self) -> VectorFunction:
        xs = np.arange(1 << self.n)
        return VectorFunction(self.n, self.n, self.perm[xs ^ self.k1] ^ self.k2)


def em_difference_oracle(etable: VectorFunction, perm: VectorFunction) -> VectorFunction:
    """F(x) = E(x) ^ P(x); k1 is an exact period of F with zero output shift."""
    if etable.m != perm.m or etable.n != perm.n or etable.m != etable.n:
        raise ValueError("encryption and permutation tables must share one n")
    return VectorFunction(etable.m, etable.n, etable.table ^ perm.table)


# ---------------------------------------------------------------------------
# iterated toy cipher


def weak_sbox(n: int, seed: int) -> np.ndarray:
    """Random bijection with the exact structure S(x ^ 3) = S(x) ^ alpha,
    where alpha = rotr1(3) = 2^(n-1) + 1.

    Inputs pair up as {x, x ^ 3} and map onto output pairs {y, y ^ alpha}
    with a random pairing and orientation.  The round function's rotation
    carries alpha back to 3, so the keyed round chain has a probability-one
    differential 3 -> 3 under every round key.
    """
    if n < 3:
        raise ValueError("weak S-box needs n >= 3 so that 3 and rotr1(3) differ")
    a_star = 3
    alpha = rotr1(a_star, n)
    reps_in = [x for x in range(1 << n) if x < x ^ a_star]
    reps_out = [y for y in range(1 << n) if y < y ^ alpha]
    rng = seeded_rng(seed, 71)
    pairing = rng.permutation(len(reps_in))
    orient = rng.integers(0, 2, size=len(reps_in))
    sbox = np.zeros(1 << n, dtype=np.int64)
    for idx, x in enumerate(reps_in):
        y = reps_out[int(pairing[idx])] ^ (alpha if orient[idx] else 0)
        sbox[x] = y
        sbox[x ^ a_star] = y ^ alpha
    return sbox


def _round_keys(master, n: int, rounds: int) -> list:
    # round i takes the i-th n-bit slice of master (an int), most significant first
    kb = (rounds - 1) * n
    return [(master >> (kb - i * n)) & ((1 << n) - 1) for i in range(1, rounds)]


def _check_toy_shape(n: int, rounds: int) -> None:
    """A word width n, at least one keyed round, and the n * rounds-bit keyed
    family that the attacks sample (through its slice G0) within the table cap."""
    _check_width(n, "n")
    if rounds < 2:
        raise ValueError("need at least one keyed round plus the final round")
    if n * rounds > MAX_WIDTH:
        raise ValueError(f"n * rounds = {n * rounds} is beyond the {MAX_WIDTH}-bit table cap")


@dataclass(frozen=True, eq=False)
class ToyCipherPublic:
    """Attacker's view of the toy cipher: the algorithm without its keys.

    Compared and hashed by identity: its fields are arrays.
    """

    n: int
    rounds: int
    sbox: np.ndarray
    last_sbox: np.ndarray

    def __post_init__(self) -> None:
        _check_toy_shape(self.n, self.rounds)
        for name in ("sbox", "last_sbox"):
            object.__setattr__(self, name, _bijection(getattr(self, name), self.n, name))

    @property
    def key_bits(self) -> int:
        return (self.rounds - 1) * self.n

    def inverse_last(self) -> np.ndarray:
        inv = np.empty_like(self.last_sbox)
        inv[self.last_sbox] = np.arange(1 << self.n)
        return inv

    def _round_table(self) -> np.ndarray:
        """y -> rotl1(S(y)) as one table, in the S-box's n-bit word type (at
        n = 8 the bit that v << 1 drops from a uint8 word is masked off anyway)."""
        return rotl1(self.sbox, self.n)

    def reduced_encrypt_all_keys(self) -> np.ndarray:
        """Matrix Y[x, k] = value of the keyed rounds on x under key k, in the
        n-bit word type.  With R[v, c] = rotl1(S(v ^ c)), the first keyed round
        is R itself (rows x, columns k_1), and each later one maps every cell v
        to the whole row R[v], one column per value of its round key.  So the
        matrix grows by rows gathered from R, and the last gather is the only
        family-sized array the build makes.  Only tests read it whole; the toy
        paths read its k1 = 0 columns (toy_zero_key_family)."""
        return self._keyed_rounds(1 << self.n)

    @cached_property
    def _zero_key_family(self) -> VectorFunction:
        # built on first use and kept: read-only, like the public algorithm
        return VectorFunction(self.key_bits, self.n, self._keyed_rounds(1).reshape(-1))

    def _keyed_rounds(self, first_keys: int) -> np.ndarray:
        """The columns of reduced_encrypt_all_keys whose first round key is
        below first_keys: the same gathers, from the first columns of R."""
        round_fn = self._round_table()
        v = np.arange(1 << self.n, dtype=round_fn.dtype)
        r = round_fn[v[:, None] ^ v]
        y = r[:, :first_keys]
        for _ in range(self.rounds - 2):
            y = np.take(r, y, axis=0)
        return y.reshape(1 << self.n, -1)


def toy_zero_key_family(public: ToyCipherPublic) -> VectorFunction:
    """G0(x || k') = G(x || 0 || k'), 2^n times smaller than the keyed family
    G(x || k) = keyed rounds of x under key k (data bits on top) that the
    differential searches target; it is the attacker's own model of the
    cipher, so building it costs no oracle queries.  The first keyed round
    XORs k1 into the data, so G(x || k1 || k') = G0(x ^ k1 || k'): the searches
    sample G from G0 with translated = n, and the all-keys checks read G0, as
    D_a G takes G0's derivative values under every k1.  Built once per public
    algorithm, so T6's key-coverage check reads the table its attack built."""
    return public._zero_key_family


class ToyCipher:
    """A concrete toy cipher instance: public algorithm plus secret keys.

    Keyed round i computes y = rotl1(S(y ^ k_i)); the final round whitens
    with an independent bijection, c = T(y) ^ s.  T independent of S matters:
    if the final bijection were S itself, the planted structure of the weak
    preset would commute through T^-1 for every wrong key guess and key
    counting would see no contrast.
    """

    __slots__ = ("public", "preset", "seed", "master_key", "last_key")

    def __init__(self, public: ToyCipherPublic, preset: str, seed: int,
                 master_key: int, last_key: int) -> None:
        if not 0 <= master_key < (1 << public.key_bits):
            raise ValueError("master key out of range")
        if not 0 <= last_key < (1 << public.n):
            raise ValueError("last-round key out of range")
        self.public = public
        self.preset = preset
        self.seed = seed
        self.master_key = master_key
        self.last_key = last_key

    @classmethod
    def generate(cls, n: int, preset: str = "weak", seed=0, rounds: int = 3) -> "ToyCipher":
        _check_toy_shape(n, rounds)  # before any table is built
        if preset == "weak":
            sbox = weak_sbox(n, seed)
        elif preset == "strong":
            sbox = random_permutation(n, seeded_rng(seed, 11))
        else:
            raise ValueError(f"unknown preset {preset!r}")
        last = random_permutation(n, seeded_rng(seed, 12))
        public = ToyCipherPublic(n, rounds, sbox, last)
        rng = seeded_rng(seed, 13)
        master = int(rng.integers(0, 1 << public.key_bits))
        s = int(rng.integers(0, 1 << n))
        return cls(public, preset, seed, master, s)

    @property
    def n(self) -> int:
        return self.public.n

    @property
    def rounds(self) -> int:
        return self.public.rounds

    def encrypt_table(self) -> VectorFunction:
        round_fn = self.public._round_table()
        y = np.arange(1 << self.n, dtype=round_fn.dtype)
        for k in _round_keys(self.master_key, self.n, self.rounds):
            y = round_fn[y ^ k]
        return VectorFunction(self.n, self.n, self.public.last_sbox[y] ^ self.last_key)

    def decrypt(self, c: int) -> int:
        n = self.n
        inv_last = self.public.inverse_last()
        inv_s = np.empty_like(self.public.sbox)
        inv_s[self.public.sbox] = np.arange(1 << n)
        y = int(inv_last[c ^ self.last_key])
        for ki in reversed(_round_keys(self.master_key, n, self.rounds)):
            y = rotr1(y, n)
            y = int(inv_s[y]) ^ ki
        return y


# ---------------------------------------------------------------------------
# cipher files


@dataclass
class CipherFile:
    """Parsed cipher file: header params, optional keys, named tables."""

    kind: str
    params: dict
    keys: dict
    tables: dict

    @property
    def n(self) -> int:
        return self.params["n"]

    def table(self, name: str) -> VectorFunction:
        if name not in self.tables:
            raise ValueError(f"cipher file is missing table {name!r}")
        return self.tables[name]

    def even_mansour(self) -> tuple[VectorFunction, VectorFunction]:
        """(perm, etable) of an Even-Mansour file, perm checked to be a
        bijection as EvenMansour checks it."""
        if self.kind != "even-mansour":
            raise ValueError(f"not an Even-Mansour cipher file (kind={self.kind!r})")
        perm = self.table("perm")
        _bijection(perm.table, self.n, "perm")
        return perm, self.table("etable")

    def toy_public(self) -> ToyCipherPublic:
        if self.kind != "toy":
            raise ValueError(f"not a toy cipher file (kind={self.kind!r})")
        if "r" not in self.params:
            raise ValueError("toy cipher file header must carry r=<rounds>")
        return ToyCipherPublic(self.n, self.params["r"],
                               self.table("sbox").table, self.table("last_sbox").table)


# The tables of each kind of file, each as a multiple k of the header n: the
# table maps k * n bits to k * n bits.
_TABLE_WIDTHS = {
    "feistel3": {"p1": 1, "p2": 1, "p3": 1, "etable": 2},
    "even-mansour": {"perm": 1, "etable": 1},
    "toy": {"sbox": 1, "last_sbox": 1, "etable": 1},
}
_KINDS = tuple(_TABLE_WIDTHS)
_FEISTEL_SECRETS = ("p1", "p2", "p3")  # round functions, left out of challenge files


def _header_params(cipher) -> tuple[str, dict, dict, dict]:
    """(kind, params, keys, tables-as-VectorFunction) for a cipher object."""
    if isinstance(cipher, Feistel3):
        n = cipher.n
        tabs = {name: VectorFunction(n, n, t)
                for name, t in zip(_FEISTEL_SECRETS, (cipher.p1, cipher.p2, cipher.p3))}
        tabs["etable"] = cipher.encrypt_table()
        return "feistel3", {"n": n}, {}, tabs
    if isinstance(cipher, EvenMansour):
        tabs = {"perm": cipher.perm_table(), "etable": cipher.encrypt_table()}
        return "even-mansour", {"n": cipher.n}, {"k1": cipher.k1, "k2": cipher.k2}, tabs
    if isinstance(cipher, ToyCipher):
        n = cipher.n
        tabs = {
            "sbox": VectorFunction(n, n, cipher.public.sbox),
            "last_sbox": VectorFunction(n, n, cipher.public.last_sbox),
            "etable": cipher.encrypt_table(),
        }
        params = {"n": n, "r": cipher.rounds, "preset": cipher.preset}
        if isinstance(cipher.seed, int):
            params["seed"] = cipher.seed
        return "toy", params, {"k": cipher.master_key, "s": cipher.last_key}, tabs
    raise TypeError(f"cannot save object of type {type(cipher).__name__}")


def save_cipher(path, cipher, seed: int | None = None, include_secrets: bool = True) -> None:
    """Write a cipher file; challenge files drop the keys line and, for
    Feistel, the round-function tables."""
    kind, params, keys, tabs = _header_params(cipher)
    if seed is not None:
        params["seed"] = seed
    head = " ".join([f"cipher {kind}"] + [f"{k}={v}" for k, v in params.items()])
    if include_secrets and keys:
        head += "\nkeys " + " ".join(f"{k}={v:#x}" for k, v in keys.items())
    with open(path, "wb") as fh:
        fh.write(f"{head}\n".encode())
        for name, fn in tabs.items():
            if include_secrets or name not in _FEISTEL_SECRETS:
                fh.write(f"table {name} m={fn.m} n={fn.n}\n".encode())
                fh.write(format_word_block(fn.table, fn.n))


def _parse_kv(tokens, what: str, want_ints, required=()) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"{what}: malformed token {tok!r}")
        k, v = tok.split("=", 1)
        if k in want_ints:
            out[k] = int(v, 0)
        else:
            out[k] = v
    for k in required:
        if k not in out:
            raise ValueError(f"{what}: missing {k}=")
    return out


def _first_line(block) -> str | None:
    """The first non-blank line of a block, right-stripped, or None."""
    return next((ln.rstrip() for ln in str(block, "utf-8").splitlines() if ln.strip()), None)


def load_cipher(path) -> CipherFile:
    """Read a cipher file written by save_cipher.  A `table` line owns the
    lines after it, up to the next `keys` or `table` line, as its word block,
    and each table must be one its kind names, at the shape that the header's
    n gives it in `_TABLE_WIDTHS`, which is checked before the block is read."""
    sections = _read_sections(path, ("keys ", "table "))
    if not sections or not sections[0][0].rstrip().startswith("cipher "):
        raise ValueError(f"{path}: expected a 'cipher ...' header line")
    _, kind, *head = sections[0][0].split()
    if kind not in _KINDS:
        raise ValueError(f"{path}: unknown cipher kind {kind!r}")
    params = _parse_kv(head, f"{path} header", {"n", "r", "seed"}, ("n",))

    keys: dict = {}
    tables: dict = {}
    for line, block in sections:
        word, *toks = line.split()
        if word == "table":
            what = f"{path} table {toks[0]}"
            shape = _parse_kv(toks[1:], what, {"m", "n"}, ("m", "n"))
            m, n = shape["m"], shape["n"]
            # the widths, then the table's name and shape, before its block
            _check_width(m, f"{what}: input width")
            _check_width(n, f"{what}: output width")
            k = _TABLE_WIDTHS[kind].get(toks[0])
            if k is None:
                raise ValueError(f"{what}: a {kind} file has no such table")
            if m != k * params["n"] or n != m:
                raise ValueError(f"{what}: {toks[0]} maps {m} to {n} bits, not {k * params['n']} "
                                 f"to {k * params['n']} as a {kind} file of n={params['n']}")
            tables[toks[0]] = VectorFunction(m, n, parse_word_block(block, m, n, what))
        elif (extra := _first_line(block)) is not None:  # the header and keys own no lines
            raise ValueError(f"{path}: unexpected line {extra!r}")
        elif word == "keys":
            keys = _parse_kv(toks, f"{path} keys", {"k1", "k2", "k", "s"})
    if "etable" not in tables:
        raise ValueError(f"{path}: cipher file must carry the encryption table")
    return CipherFile(kind, params, keys, tables)
