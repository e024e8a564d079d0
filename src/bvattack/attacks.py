"""End-to-end attack drivers.

Every driver owns a QueryLedger, draws all randomness from explicit seed
streams, and returns a frozen report.  A failed search is a verdict carried
in the report, not an exception; malformed arguments raise.

Seed stream layout within one attack: (seed, 0) feeds the attacker's own
classical choices (constants, probe points, plaintext pairs) and (seed, j)
feeds the measurement sampler of output bit j, so streams never collide.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import VectorFunction, _entry, derivative_table
from .bv import QueryLedger, check_draw_budget
from .ciphers import (
    OracleFunction,
    ToyCipherPublic,
    em_difference_oracle,
    feistel_branch_oracle,
    toy_zero_key_family,
)
from .lsfind import (
    ImpossibleCertificate,
    find_common_zero_structure,
    find_impossible_differential,
    find_vector_structures,
    search_shape,
)
from .rng import seeded_rng

__all__ = [
    "InsufficientDataError",
    "FeistelDistinguishReport",
    "distinguish_feistel",
    "EmKeyRecoveryReport",
    "recover_em_key",
    "KeyCounterTable",
    "rank_last_round_keys",
    "DifferentialAttackReport",
    "differential_attack",
    "differential_match_counts",
    "key_fraction_meeting",
    "SmallProbabilityReport",
    "small_probability_attack",
    "impossible_certificate_valid",
    "ImpossibleSieveReport",
    "impossible_attack",
]


class InsufficientDataError(ValueError):
    """Raised when an attack phase is asked to work from zero observations."""


# ---------------------------------------------------------------------------
# 3-round Feistel distinguisher


@dataclass(frozen=True)
class FeistelDistinguishReport:
    verdict: bool
    candidate: int | None
    s0: int
    s1: int
    probe: int | None
    p: int
    queries: dict


def distinguish_feistel(encrypt: VectorFunction, seed, p: int | None = None) -> FeistelDistinguishReport:
    """Decide whether a 2n-bit cipher behaves like a 3-round Feistel network.

    Builds the branch-difference oracle F from two distinct left-half
    constants, searches for a direction along which every output bit of F is
    constant (p samples per bit, default n + 1), then confirms the smallest
    candidate with two classical queries at a random probe.  Verdict True
    means the collision check passed.
    """
    if encrypt.m != encrypt.n or encrypt.n % 2:
        raise ValueError("expected a cipher table on 2n-bit blocks")
    n = encrypt.n // 2
    p = n + 1 if p is None else operator.index(p)

    rng = seeded_rng(seed, 0)
    s0 = int(rng.integers(0, 1 << n))
    s1 = (s0 + 1 + int(rng.integers(0, (1 << n) - 1))) % (1 << n)

    ledger = QueryLedger()
    F = feistel_branch_oracle(encrypt, s0, s1)
    res = find_common_zero_structure(F, p=p, seed=seed, ledger=ledger)
    if not res.found:
        return FeistelDistinguishReport(False, None, s0, s1, None, p, ledger.snapshot())

    oracle = OracleFunction(F, ledger)
    u = int(rng.integers(0, 1 << (n + 1)))
    same = oracle.classical(u) == oracle.classical(u ^ res.a)
    return FeistelDistinguishReport(bool(same), res.a, s0, s1, u, p, ledger.snapshot())


# ---------------------------------------------------------------------------
# Even-Mansour key recovery


@dataclass(frozen=True)
class EmKeyRecoveryReport:
    found: bool
    k1: int | None
    candidates: int
    p: int
    queries: dict


def recover_em_key(perm: VectorFunction, etable: VectorFunction, seed,
                   p: int | None = None) -> EmKeyRecoveryReport:
    """Recover the pre-whitening key of E(x) = P(x ^ k1) ^ k2.

    F = E ^ P has exact period k1, so k1 survives every zero-direction
    system; the smallest nonzero survivor is returned after p samples per
    output bit (default n, n^2 quantum queries total).  k2 then follows from
    one classical query, which is left to the caller so the quantum query
    count stays pure.
    """
    F = em_difference_oracle(etable, perm)
    n = F.n
    p = n if p is None else operator.index(p)
    ledger = QueryLedger()
    res = find_common_zero_structure(F, p=p, seed=seed, ledger=ledger)
    k1 = res.a if res.found else None
    return EmKeyRecoveryReport(res.found, k1, res.intersection.size, p, ledger.snapshot())


# ---------------------------------------------------------------------------
# differential key recovery (shared pieces)


@dataclass(frozen=True)
class KeyCounterTable:
    """Per-key match counters; rates are exact rationals."""

    counts: tuple[int, ...]
    pairs: int
    checks_per_pair: int

    def rate(self, s: int) -> Fraction:
        return Fraction(_entry(self.counts, s), self.pairs * self.checks_per_pair)

    def argmax(self) -> int:
        """Key with the most matches; ties go to the smallest key."""
        return int(np.argmax(np.asarray(self.counts)))

    def argmin(self) -> int:
        return int(np.argmin(np.asarray(self.counts)))


def _pair_plaintexts(n: int, a: int, pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Plaintexts whose pairs {x, x ^ a} carry difference a.

    Distinct pair representatives while they last (disjoint pairs give
    independent per-pair evidence); falls back to iid uniform once more
    pairs are requested than the 2^(n-1) that exist.
    """
    check_draw_budget(pairs, "pair count")
    xs = np.arange(1 << n)
    reps = xs[xs < (xs ^ a)]
    if pairs <= len(reps):
        return rng.choice(reps, size=pairs, replace=False).astype(np.int64)
    return rng.integers(0, 1 << n, size=pairs, dtype=np.int64)


def _toy_search(public: ToyCipherPublic, etable: VectorFunction, seed, p: int | None,
                pairs: int, search) -> tuple[int, VectorFunction, QueryLedger, object]:
    """The search phase of a toy attack: p resolved for a search over the n data
    bits, p and the pair count checked against the per-call budget, the
    encryption table checked to map n-bit blocks, and only then the slice G0
    of the keyed family G(x || k) at first round key 0, which `search` reads
    with translated = n to sample G itself.  Returns (p, G0, ledger, result)."""
    n = public.n
    _, p = search_shape(n, n, p)
    check_draw_budget(p)
    check_draw_budget(pairs, "pair count")
    if (etable.m, etable.n) != (n, n):
        raise ValueError(f"etable maps {etable.m} to {etable.n} bits, not {n} to {n}")
    G0 = toy_zero_key_family(public)
    ledger = QueryLedger()
    return p, G0, ledger, search(G0, p, seed, ledger, solve_width=n, translated=n)


# Cells per block of the key-guess matrix, unless one guess alone has more
# pairs (up to MAX_DRAWS): at most 2 MiB of int64 indices c ^ s, while the
# differences are n-bit words, 256 KiB at n <= 8.  The default pair counts,
# at most 8n, put all 2^n guesses of n <= 8 bits in one block.
_GUESS_CELLS = 1 << 18


def _guess_differences(oracle: OracleFunction, inv_last: np.ndarray, a: int, pairs: int,
                       rng: np.random.Generator, reduce) -> np.ndarray:
    """Query `pairs` plaintext pairs with difference a, then reduce the
    (guesses x pairs) matrix D[s, i] of the pairs' one-round partial
    decryption differences under final-round key guess s to one value per
    guess: reduce maps blocks of consecutive guesses, at most _GUESS_CELLS
    cells (at least one guess), to their values."""
    n = oracle.fn.n
    xs = _pair_plaintexts(n, a, pairs, rng)
    c1 = oracle.classical_batch(xs)
    c2 = oracle.classical_batch(xs ^ a)
    step = max(1, _GUESS_CELLS // pairs)
    values = []
    for lo in range(0, 1 << n, step):
        s = np.arange(lo, min(lo + step, 1 << n))[:, None]
        d = inv_last[c1 ^ s]
        d ^= inv_last[c2 ^ s]
        values.append(reduce(d))
    return np.concatenate(values)


def _check_pairs(pairs: int) -> None:
    if pairs < 1:
        raise InsufficientDataError("key counting needs at least one plaintext pair")


def rank_last_round_keys(oracle: OracleFunction, inv_last: np.ndarray, a: int, alpha: int,
                         pairs: int, rng: np.random.Generator) -> KeyCounterTable:
    """Whole-word key counting: for each final-round key guess s, count the
    pairs whose one-round partial decryption difference equals alpha, once a
    nonzero n-bit a and an n-bit alpha are checked (before any query)."""
    _check_pairs(pairs)
    top = 1 << oracle.fn.n
    if not (0 < a < top and 0 <= alpha < top):
        raise ValueError(f"key ranking needs a nonzero n-bit a and n-bit alpha, got {a}, {alpha}")
    counts = _guess_differences(oracle, inv_last, a, pairs, rng,
                                lambda d: np.count_nonzero(d == alpha, axis=1))
    return KeyCounterTable(tuple(counts.tolist()), pairs, 1)


@dataclass(frozen=True)
class DifferentialAttackReport:
    found: bool
    a: int | None
    alpha: int | None
    recovered_last_key: int | None
    counter: KeyCounterTable | None
    p: int
    pairs: int
    q: int
    queries: dict


def differential_attack(public: ToyCipherPublic, etable: VectorFunction, seed,
                        q: int, p: int | None = None,
                        pairs: int | None = None) -> DifferentialAttackReport:
    """Two-phase differential key recovery against the toy cipher.

    Phase one samples the keyed-rounds family G(x || k) over data and key
    jointly (the attacker's own model of the public algorithm, drawn from its
    slice G0 at k1 = 0; each measurement still costs one quantum query) and
    solves for a data-half difference whose output difference is constant
    for most keys.  Phase two queries the real encryption table on `pairs`
    pairs with that difference and ranks final-round keys by exact match
    count.  q is the key-coverage target 1 - 1/q; it is recorded for
    verification and does not change the defaults.
    """
    q = operator.index(q)
    if q < 1:
        raise ValueError(f"coverage parameter q must be positive, got {q}")
    n = public.n
    pairs = 8 * n if pairs is None else operator.index(pairs)
    _check_pairs(pairs)  # before the search, whatever it answers
    p, _, ledger, res = _toy_search(public, etable, seed, p, pairs, find_vector_structures)
    if not res.found:
        return DifferentialAttackReport(False, None, None, None, None, p, pairs, q,
                                        ledger.snapshot())

    oracle = OracleFunction(etable, ledger)
    counter = rank_last_round_keys(oracle, public.inverse_last(), res.a, res.alpha,
                                   pairs, seeded_rng(seed, 0))
    return DifferentialAttackReport(True, res.a, res.alpha, counter.argmax(), counter,
                                    p, pairs, q, ledger.snapshot())


def differential_match_counts(G: VectorFunction, a: int, alpha: int) -> np.ndarray:
    """Exhaustive per-key counts of x with F_k(x ^ a) = F_k(x) ^ alpha, over
    a keyed family G(x || k) with G.n data bits (on a toy slice G0, those of
    the keys 0 || k', which every first round key k1 repeats), once alpha is
    checked to be an n-bit word (before any table is made)."""
    if not 0 <= alpha < 1 << G.n:
        raise ValueError(f"differential counts need an {G.n}-bit alpha, got {alpha}")
    d = derivative_table(G, a, G.n)
    counts = np.zeros(d.shape[1], dtype=np.int64)
    for row in d:  # one row at a time, so no table-sized comparison exists
        counts += row == alpha
    return counts


def key_fraction_meeting(G: VectorFunction, a: int, alpha: int,
                         threshold: Fraction) -> Fraction:
    """Exact fraction of keys of the keyed family G (or of its slice G0, the
    same fraction) whose differential probability meets the threshold."""
    counts = differential_match_counts(G, a, alpha)
    num, den = threshold.numerator, threshold.denominator
    good = int(np.count_nonzero(counts * den >= num * (1 << G.n)))
    return Fraction(good, len(counts))


# ---------------------------------------------------------------------------
# small-probability differential key recovery


@dataclass(frozen=True)
class SmallProbabilityReport:
    found: bool
    a: int | None
    target_diff: int | None
    recovered_last_key: int | None
    counter: KeyCounterTable | None
    p: int
    l: int
    q: int
    pairs: int
    queries: dict


def small_probability_attack(public: ToyCipherPublic, etable: VectorFunction, seed,
                             q: int, l: int, p: int | None = None) -> SmallProbabilityReport:
    """Key recovery from a differential that almost never happens.

    Phase one is the same joint search as the plain differential attack but
    run with p = n^3 l^2 q^2 samples per bit, sharp enough that the found
    output difference fails on at most a 1/(2l) fraction of inputs for most
    keys.  The counted target is the bitwise complement of that difference;
    the right final-round key therefore shows per-bit match rate below 1/l
    while wrong keys sit near 1/2, so keys are ranked by ascending rate
    lambda_s = C_s / (n l^2) over l^2 pairs.
    """
    q, l = operator.index(q), operator.index(l)
    if l < 2:
        raise ValueError(f"l must be at least 2 for any rate contrast, got {l}")
    if q < 1:
        raise ValueError(f"coverage parameter q must be positive, got {q}")
    n = public.n
    p = (n ** 3) * (l ** 2) * (q ** 2) if p is None else p
    pairs = l * l
    p, _, ledger, res = _toy_search(public, etable, seed, p, pairs, find_vector_structures)
    if not res.found:
        return SmallProbabilityReport(False, None, None, None, None, p, l, q, pairs,
                                      ledger.snapshot())
    b = res.alpha ^ ((1 << n) - 1)

    # bitwise_count gives uint8 counts of at most n, so n - count cannot wrap
    counts = _guess_differences(OracleFunction(etable, ledger), public.inverse_last(), res.a,
                                pairs, seeded_rng(seed, 0),
                                lambda d: (n - np.bitwise_count(d ^ b)).sum(axis=1))
    counter = KeyCounterTable(tuple(counts.tolist()), pairs, n)
    return SmallProbabilityReport(True, res.a, b, counter.argmin(), counter,
                                  p, l, q, pairs, ledger.snapshot())


# ---------------------------------------------------------------------------
# impossible differential


def impossible_certificate_valid(G: VectorFunction, cert: ImpossibleCertificate) -> bool:
    """Exhaustive sweep of the keyed family G (or of its slice G0, the same
    derivative values) over every plaintext and key: the certified derivative
    bit must never take the forbidden value."""
    if not 1 <= cert.j <= G.n or cert.forbidden not in (0, 1):
        raise ValueError(f"certificate needs j in [1, {G.n}] and a forbidden bit, "
                         f"got j={cert.j}, forbidden={cert.forbidden}")
    d = derivative_table(G, cert.a, G.n)
    d &= 1 << (G.n - cert.j)  # in place: the certified bit, or 0
    return not d.any() if cert.forbidden else bool(d.all())


@dataclass(frozen=True)
class ImpossibleSieveReport:
    found: bool
    certificate: ImpossibleCertificate | None
    certificate_valid: bool | None
    alive: tuple[int, ...]
    pairs: int
    p: int
    queries: dict


def impossible_attack(public: ToyCipherPublic, etable: VectorFunction, seed,
                      pairs: int | None = None, p: int | None = None) -> ImpossibleSieveReport:
    """Certificate search plus final-round key sieve.

    The search reads the slice G0 of the keyed family at k1 = 0.  A found
    certificate is then brute-force checked over every plaintext and key
    against the same G0, the attacker's own model of the keyed rounds; a
    bogus one is flagged and no sieving happens, so the true key can never be
    ruled out by a bad certificate.  With a valid certificate, any key guess
    whose partial decryption shows the forbidden bit on some pair is
    eliminated.  pairs=0 skips sieving and leaves every key alive.
    """
    n = public.n
    pairs = 4 * n if pairs is None else operator.index(pairs)
    if pairs < 0:
        raise ValueError(f"pairs cannot be negative, got {pairs}")
    p, G0, ledger, cert = _toy_search(public, etable, seed, p, pairs,
                                      find_impossible_differential)
    all_keys = tuple(range(1 << n))
    if cert is None:
        return ImpossibleSieveReport(False, None, None, all_keys, pairs, p, ledger.snapshot())

    valid = impossible_certificate_valid(G0, cert)
    if not valid or pairs == 0:
        return ImpossibleSieveReport(True, cert, valid, all_keys, pairs, p, ledger.snapshot())

    shows = _guess_differences(OracleFunction(etable, ledger), public.inverse_last(), cert.a,
                               pairs, seeded_rng(seed, 0),
                               lambda d: (((d >> (n - cert.j)) & 1) == cert.forbidden).any(axis=1))
    alive = tuple(np.flatnonzero(~shows).tolist())
    return ImpossibleSieveReport(True, cert, True, alive, pairs, p, ledger.snapshot())
