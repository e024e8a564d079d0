"""Independent brute-force reference implementations used by the tests.

Everything here is written the slow, obvious way on purpose: plain Python
loops, direct definitional sums, exhaustive scans.  No fast transforms, no
packed elimination, no shared code with the package under test.  Frozen
expected values in the tests were computed with these.

The exceptions are the radix-2 butterfly, the text readers of table files,
the full-spectrum sampler and the chained searches at the end.  The
butterfly makes one stage per bit, the reference for the package's radix-4
passes and for the samplers' masses.  The readers decode a file whole and
split it into lines, as the package read files before it cut them up as
bytes; they share the containers, the width check and the key=value parsing.
The sampler draws from the squared coefficients of the package's
`walsh_spectrum` over the whole support, as the reference that the truncated
(marginal-law) sampler must equal draw for draw.  The chained searches
replay the package's own sampler streams through per-component `solve` and
pairwise `intersect`, as the reference that the per-bit eliminator searches
must equal field for field.  The per-bit searches are the vector and
common-zero searches as they were before their samplers came in blocks: one
`BvSampler` per output bit, built on `VectorFunction.component`, as the
reference that the block builds must equal in result and charge, also
where a search stops early.  The whole keyed family G of a toy cipher is the
package's all-keys matrix as one function, checked cell by cell against
`reduced_encrypt_direct`; the package itself reads only its slice G0.  The
full-family toy attacks run the package's searches on G, not on G0, with
G's samplers drawing over G0's range (`slice_range`), and then rank or sieve
the keys by plain loops.
"""

import re
from contextlib import contextmanager
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from unittest import mock

import numpy as np

from bvattack.attacks import (
    DifferentialAttackReport,
    ImpossibleSieveReport,
    KeyCounterTable,
    SmallProbabilityReport,
)
from bvattack.boolfn import (
    MAX_WIDTH,
    BooleanFunction,
    VectorFunction,
    _check_width,
    walsh_spectrum,
)
from bvattack.bv import BvSampler, QueryLedger
from bvattack.ciphers import _KINDS, CipherFile, _parse_kv
from bvattack.gf2 import Eliminator, LinearSystem, constancy_set, dot, intersect, solve
from bvattack.lsfind import (
    ComponentEvidence,
    ImpossibleCertificate,
    VectorStructureResult,
    ZeroStructureResult,
    _absorb_samples,
    _constancy,
    find_impossible_differential,
    find_vector_structures,
    search_shape,
)
from bvattack.rng import seeded_rng


def parity(x: int) -> int:
    return bin(x).count("1") & 1


def walsh_coefficient_direct(table, n: int, w: int) -> int:
    """2^n times the normalized coefficient, by the definitional sum."""
    total = 0
    for x in range(1 << n):
        total += (-1) ** (int(table[x]) ^ parity(w & x))
    return total


def walsh_spectrum_direct(table, n: int) -> list:
    return [walsh_coefficient_direct(table, n, w) for w in range(1 << n)]


def sample_distribution_direct(table, n: int) -> list:
    """Exact outcome distribution of one measurement as Fractions."""
    out = []
    for w in range(1 << n):
        c = walsh_coefficient_direct(table, n, w)
        out.append(Fraction(c * c, 4 ** n))
    return out


def marginal_masses_direct(table, n: int, width: int) -> list:
    """Squared integer coefficients summed over each leading width-bit prefix:
    the mass of measuring a w whose top `width` bits are d, times 4^n."""
    out = [0] * (1 << width)
    for w in range(1 << n):
        out[w >> (n - width)] += walsh_coefficient_direct(table, n, w) ** 2
    return out


def derivative_value_counts(table, n: int, a: int) -> tuple[int, int]:
    """(#x with f(x+a)=f(x), #x with f(x+a)=f(x)+1)."""
    zeros = ones = 0
    for x in range(1 << n):
        if int(table[x ^ a]) ^ int(table[x]):
            ones += 1
        else:
            zeros += 1
    return zeros, ones


def boolean_structures_direct(table, n: int) -> tuple[list, list]:
    """All directions with constant derivative, split by the constant."""
    u0, u1 = [], []
    for a in range(1 << n):
        zeros, ones = derivative_value_counts(table, n, a)
        if ones == 0:
            u0.append(a)
        elif zeros == 0:
            u1.append(a)
    return u0, u1


def vector_structures_direct(table, m: int, n: int) -> list:
    """All (a, alpha) with F(x+a) = F(x) + alpha everywhere."""
    out = []
    for a in range(1 << m):
        alpha = int(table[a]) ^ int(table[0])
        if all(int(table[x ^ a]) ^ int(table[x]) == alpha for x in range(1 << m)):
            out.append((a, alpha))
    return out


def solve_affine_direct(width: int, constraints) -> list:
    """All x satisfying every x . w = c, by trying all 2^width points."""
    out = []
    for x in range(1 << width):
        if all(parity(x & w) == c for w, c in constraints):
            out.append(x)
    return out


def members(s) -> list:
    """Every member of the AffineSolutionSet s in ascending order: offset ^
    the XOR of each of the 2^k subsets of its k basis vectors; [] if empty."""
    if s.is_empty:
        return []
    out = []
    for pick in range(1 << len(s.basis)):
        v = s.offset
        for i, b in enumerate(s.basis):
            if (pick >> i) & 1:
                v ^= b
        out.append(v)
    return sorted(out)


def contains(s, v: int) -> bool:
    """Whether v is a member of the AffineSolutionSet s, by enumeration."""
    return v in members(s)


def constancy_direct(width: int, ws) -> tuple[int, int, list]:
    """(rank, w0, rows) of the rows w ^ w0 over every sample w in draw order,
    w0 the first sample: plain elimination on each row's highest set bit,
    duplicates and all, so the rows span the space the samples' differences
    from w0 span."""
    w0 = int(ws[0])
    rows = {}
    for w in ws:
        v = int(w) ^ w0
        while v:
            top = v.bit_length() - 1
            if top not in rows:
                rows[top] = v
                break
            v ^= rows[top]
    assert all(r < 1 << width for r in rows.values())
    return len(rows), w0, list(rows.values())


def restricted_mass_direct(table, n: int, a: int, i: int) -> int:
    """Sum of squared (scaled) coefficients over {w : w . a = i}."""
    total = 0
    for w in range(1 << n):
        if parity(w & a) == i:
            c = walsh_coefficient_direct(table, n, w)
            total += c * c
    return total


def feistel3_encrypt_direct(n: int, p1, p2, p3, left: int, right: int):
    """Three rounds of (L, R) -> (R + P(L), L), straight from the rule."""
    for rf in (p1, p2, p3):
        left, right = right ^ int(rf[left]), left
    return left, right


def toy_encrypt_direct(n: int, rounds: int, sbox, last_sbox, master: int,
                       last_key: int, x: int, rotate=None) -> int:
    """Keyed rounds then the final whitened substitution, per definition."""
    kb = (rounds - 1) * n
    y = x
    for i in range(1, rounds):
        ki = (master >> (kb - i * n)) & ((1 << n) - 1)
        y = int(sbox[y ^ ki])
        y = ((y << 1) | (y >> (n - 1))) & ((1 << n) - 1)
    return int(last_sbox[y]) ^ last_key


def key_match_counts_direct(n: int, etable, inv_last, a: int, alpha: int,
                            plain_xs) -> list:
    """Per-key-guess count of pairs whose one-round partial decryption
    difference equals alpha."""
    counts = []
    for s in range(1 << n):
        c = 0
        for x in plain_xs:
            y1 = int(inv_last[int(etable[x]) ^ s])
            y2 = int(inv_last[int(etable[x ^ a]) ^ s])
            if y1 ^ y2 == alpha:
                c += 1
        counts.append(c)
    return counts


def hex_lines_direct(words, bits: int) -> list:
    """Word-block lines one word at a time: ceil(bits/4) hex digits per word,
    16 words per line (without the line ends)."""
    digits = max(1, (bits + 3) // 4)
    toks = [format(int(w), f"0{digits}x") for w in words]
    return [" ".join(toks[i:i + 16]) for i in range(0, len(toks), 16)]


def parse_word_block_direct(lines, m: int, bits: int, what: str) -> np.ndarray:
    """Word-block lines one token at a time through int(t, 16): the package's
    per-token parser, widths taken as already checked."""
    count = 1 << m
    toks = " ".join(lines).split()
    if len(toks) != count:
        raise ValueError(f"{what}: expected {count} entries, got {len(toks)}")
    try:
        vals = np.fromiter(map(int, toks, repeat(16)), dtype=np.int64, count=count)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    except OverflowError:
        vals = None  # an entry beyond int64 fits no table width
    if vals is None or vals.min() < 0 or vals.max() >= (1 << bits):
        raise ValueError(f"{what}: an entry does not fit in {bits} bits")
    return vals


def load_function_direct(path):
    """load_function as a text reader: the file decoded whole, its non-blank
    lines, the first one the header, the rest through the per-token parser."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty function file")
    head = lines[0].strip()
    m = re.match(r"^boolfn n=(\d+)$", head)
    if m:
        n = int(m.group(1))
        _check_width(n, f"{path}: input width")
        return BooleanFunction(n, parse_word_block_direct(lines[1:], n, 1, str(path)))
    m = re.match(r"^vecfn m=(\d+) n=(\d+)$", head)
    if m:
        mm, n = int(m.group(1)), int(m.group(2))
        _check_width(mm, f"{path}: input width")
        _check_width(n, f"{path}: output width")
        return VectorFunction(mm, n, parse_word_block_direct(lines[1:], mm, n, str(path)))
    raise ValueError(f"{path}: unrecognized header {head!r}")


def load_cipher_direct(path) -> CipherFile:
    """load_cipher as a text reader: the file decoded whole, its non-blank
    lines right-stripped; a `table` line owns the lines up to the next `keys`
    or `table` line, and its block goes through the per-token parser."""
    lines = [ln.rstrip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("cipher "):
        raise ValueError(f"{path}: expected a 'cipher ...' header line")
    _, kind, *head = lines[0].split()
    if kind not in _KINDS:
        raise ValueError(f"{path}: unknown cipher kind {kind!r}")
    params = _parse_kv(head, f"{path} header", {"n", "r", "seed"}, ("n",))
    keys, tables = None, {}
    marks = [i for i, ln in enumerate(lines) if ln.startswith(("keys ", "table "))]
    for i, end in zip([0, *marks], [*marks, len(lines)]):
        word, *toks = lines[i].split()
        if word == "table":
            what = f"{path} table {toks[0]}"
            if toks[0] in tables:
                raise ValueError(f"{what}: the file repeats this table")
            shape = _parse_kv(toks[1:], what, {"m", "n"}, ("m", "n"))
            m, n = shape["m"], shape["n"]
            _check_width(m, f"{what}: input width")
            _check_width(n, f"{what}: output width")
            names = {"feistel3": ("p1", "p2", "p3", "etable"), "even-mansour": ("perm", "etable"),
                     "toy": ("sbox", "last_sbox", "etable")}[kind]
            if toks[0] not in names:
                raise ValueError(f"{what}: a {kind} file has no such table")
            width = params["n"] * (2 if (kind, toks[0]) == ("feistel3", "etable") else 1)
            if (m, n) != (width, width):
                raise ValueError(f"{what}: {toks[0]} maps {m} to {n} bits, not {width} to {width} "
                                 f"as a {kind} file of n={params['n']}")
            tables[toks[0]] = VectorFunction(
                m, n, parse_word_block_direct(lines[i + 1:end], m, n, what))
        elif end > i + 1:
            raise ValueError(f"{path}: unexpected line {lines[i + 1]!r}")
        elif word == "keys":
            if keys is not None:
                raise ValueError(f"{path}: the file repeats its keys line")
            keys = _parse_kv(toks, f"{path} keys", {"k1", "k2", "k", "s"})
    if "etable" not in tables:
        raise ValueError(f"{path}: cipher file must carry the encryption table")
    return CipherFile(kind, params, keys or {}, tables)


def reduced_encrypt_direct(n: int, rounds: int, sbox, master: int, x: int) -> int:
    """The keyed rounds y -> rotl1(S(y ^ k_i)) on x, per definition, without
    the final substitution."""
    kb = (rounds - 1) * n
    y = x
    for i in range(1, rounds):
        y = int(sbox[y ^ ((master >> (kb - i * n)) & ((1 << n) - 1))])
        y = ((y << 1) | (y >> (n - 1))) & ((1 << n) - 1)
    return y


def toy_reduced_family(public) -> VectorFunction:
    """G(x || k) = keyed rounds of x under key k, data bits on top: the whole
    keyed family, 2^n times the package's slice G0 = toy_zero_key_family."""
    return VectorFunction(public.n + public.key_bits, public.n,
                          public.reduced_encrypt_all_keys().reshape(-1))


@contextmanager
def slice_range(key_bits: int):
    """Every sampler built in the block draws over a range 4^key_bits times
    narrower: its cumulative masses are shifted right by 2 * key_bits, once
    the dropped bits are checked to be zero.  G's masses are 4^n times G0's
    (G's marginal law is G0's), so at key_bits = n a sampler on a component
    of G has the cumulative masses, draws and stream of the sampler on the
    same component of G0."""
    fill = BvSampler._fill

    def narrowed(self, *args):
        fill(self, *args)
        assert not (self._cum & ((1 << 2 * key_bits) - 1)).any()
        self._cum >>= 2 * key_bits

    with mock.patch.object(BvSampler, "_fill", narrowed):
        yield


def keyed_match_counts_direct(table, n: int, kb: int, a: int, alpha: int) -> list:
    """Per key k of a keyed family G(x || k), the number of data words x
    with G(x ^ a || k) ^ G(x || k) = alpha."""
    return [sum(1 for x in range(1 << n)
                if int(table[((x ^ a) << kb) | k]) ^ int(table[(x << kb) | k]) == alpha)
            for k in range(1 << kb)]


def certificate_valid_direct(table, n: int, kb: int, j: int, a: int, forbidden: int) -> bool:
    """Whether bit j (1 = most significant of n) of G(x ^ a || k) ^ G(x || k)
    avoids the value `forbidden` for every x and k."""
    return all(((int(table[((x ^ a) << kb) | k]) ^ int(table[(x << kb) | k])) >> (n - j)) & 1
               != forbidden for x in range(1 << n) for k in range(1 << kb))


def wht_radix2(b: np.ndarray) -> np.ndarray:
    """The integer Walsh butterfly one radix-2 stage per bit, along axis 0 of
    b, in place (b is returned): each stage h turns the rows r and r + h of
    every 2h-row block into their sum and difference.  This was the package's
    butterfly before its radix-4 passes, which must equal it entry for entry."""
    h = 1
    while h < len(b):
        v = b.reshape(-1, 2 * h, *b.shape[1:])
        x, y = v[:, :h], v[:, h:]
        left = x.copy()
        x += y
        np.subtract(left, y, out=y)
        h *= 2
    return b


def walsh_spectrum_int64(table) -> np.ndarray:
    """The integer Walsh spectrum as the package computed it before spectra
    shared the samplers' narrow butterfly: int64 signs 1 - 2 f(x) through
    the radix-2 butterfly."""
    return wht_radix2(1 - 2 * np.asarray(table, dtype=np.int64))


def butterfly_sampler_direct(table, n: int, width: int) -> tuple:
    """(outcomes, cumulative masses) of the marginal law of the leading
    `width` bits, from an int64 Walsh butterfly: the signs +-1 as 2^width
    rows of 2^(n - width) columns; a row's mass is its sum of squares times
    2^(n - width)."""
    b = wht_radix2((1 - 2 * np.asarray(table, dtype=np.int64)).reshape(1 << width, -1))
    masses = (b * b).sum(axis=1) << (n - width)
    support = np.flatnonzero(masses)
    return support, np.cumsum(masses[support])


def row_masses_einsum(table, width: int, cols: int = 1 << 12) -> np.ndarray:
    """Each of the 2^width rows' sum of squares, unshifted, in int64: the
    int64 butterfly and an int64 einsum, `cols` columns at a time so that a
    2^24-entry table needs no full-size int64 copy."""
    t = np.asarray(table).reshape(1 << width, -1)
    masses = np.zeros(1 << width, dtype=np.int64)
    for start in range(0, t.shape[1], cols):
        b = wht_radix2(1 - 2 * t[:, start:start + cols].astype(np.int64))
        masses += np.einsum("ij,ij->i", b, b, dtype=np.int64)
    return masses


def marginal_draws_direct(table, n: int, width: int, seed_key, count: int) -> np.ndarray:
    """`count` outcomes of the marginal law: uniform integers from the
    sampler's seeded stream, searched against the reference cumulative masses."""
    outcomes, cum = butterfly_sampler_direct(table, n, width)
    u = seeded_rng(seed_key).integers(0, int(cum[-1]), size=count, dtype=np.int64)
    return outcomes[np.searchsorted(cum, u, side="right")]


def chi_square_statistic(observed, expected) -> float:
    """Plain chi-square over cells with nonzero expectation."""
    stat = 0.0
    for o, e in zip(observed, expected):
        if e > 0:
            stat += (o - e) ** 2 / e
    return stat


def full_spectrum_draws(f, seed_key: tuple, count: int) -> np.ndarray:
    """`count` outcomes of the full n-bit measurement: uniform integers from
    the sampler's seeded stream, searched against the cumulative W[w]^2."""
    coeffs = walsh_spectrum(f)
    support = np.flatnonzero(coeffs)
    cum = np.cumsum(coeffs[support] ** 2)
    u = seeded_rng(seed_key).integers(0, 4 ** f.n, size=count, dtype=np.int64)
    return support[np.searchsorted(cum, u, side="right")]


def chained_vector_search(F, p: int, seed, solve_width=None) -> VectorStructureResult:
    """find_vector_structures as a chain: each output bit's constancy set,
    intersected pairwise; stops at the first trivial set, before a trivial
    component enters the intersection."""
    width = F.m if solve_width is None else solve_width
    comps = []
    inter = Eliminator(width).solution()
    found = True
    for j in range(1, F.n + 1):
        ws = BvSampler(F.component(j), (seed, j)).draw(p) >> (F.m - width)
        cset, pivot = constancy_set(width, [int(w) for w in ws])
        comps.append(ComponentEvidence(j, pivot, cset.size, cset.is_trivial))
        if cset.is_trivial:
            found = False
            break
        inter = intersect(inter, cset)
        if inter.is_trivial:
            found = False
            break
    a = alpha = None
    if found:
        a = inter.smallest_nonzero()
        alpha = 0
        for ev in comps:
            alpha |= parity(a & ev.pivot) << (F.n - ev.j)
    return VectorStructureResult(found, a, alpha, width, inter, tuple(comps), p)


def chained_zero_search(F, p: int, seed) -> ZeroStructureResult:
    """find_common_zero_structure as a chain of per-bit solves and pairwise
    intersects, stopping once only 0 survives."""
    inter = Eliminator(F.m).solution()
    done = 0
    for j in range(1, F.n + 1):
        ws = BvSampler(F.component(j), (seed, j)).draw(p)
        done = j
        inter = intersect(inter, solve(LinearSystem(F.m, tuple((int(w), 0) for w in ws))))
        if inter.is_trivial:
            return ZeroStructureResult(False, None, inter, done, p)
    return ZeroStructureResult(True, inter.smallest_nonzero(), inter, done, p)


def per_bit_vector_search(F, p=None, seed=0, ledger=None,
                          solve_width=None) -> VectorStructureResult:
    """find_vector_structures with one sampler built per output bit, from
    F.component(j), and the package's running eliminator."""
    width, p = search_shape(F.m, solve_width, p)
    comps = []
    elim = Eliminator(width)
    for j in range(1, F.n + 1):
        sampler = BvSampler(F.component(j), (seed, j), ledger, width)
        cset, pivot = _constancy(width, sampler.sample_set(p))
        comps.append(ComponentEvidence(j, pivot, 1 << (width - cset.rank), cset.rank == width))
        if comps[-1].trivial:
            break
        for row in cset.rows.values():
            elim.absorb(*row)
        if elim.rank == width:
            break
    found = not comps[-1].trivial and elim.rank < width
    inter = elim.solution()
    a = alpha = None
    if found:
        a = inter.smallest_nonzero()
        alpha = 0
        for ev in comps:
            alpha |= dot(a, ev.pivot) << (F.n - ev.j)
    return VectorStructureResult(found, a, alpha, width, inter, tuple(comps), p)


def per_bit_zero_search(F, p=None, seed=0, ledger=None) -> ZeroStructureResult:
    """find_common_zero_structure with one sampler built per output bit, from
    F.component(j), and the package's running eliminator."""
    _, p = search_shape(F.m, None, p)
    elim = Eliminator(F.m)
    for j in range(1, F.n + 1):
        _absorb_samples(elim, BvSampler(F.component(j), (seed, j), ledger).sample_set(p)[1])
        if elim.rank == F.m:
            break
    found = elim.rank < F.m
    inter = elim.solution()
    return ZeroStructureResult(found, inter.smallest_nonzero() if found else None, inter, j, p)


def chained_impossible_search(G, x_bits: int, p: int, seed) -> ImpossibleCertificate | None:
    """find_impossible_differential as per-bit draws and two solves per bit:
    a nonzero solution of {a . w = 0} forbids the derivative value 1, one of
    {a . w = 1} forbids 0; the first bit with either gives the smallest, and
    None when no bit has one."""
    for j in range(1, G.n + 1):
        ws = BvSampler(G.component(j), (seed, j), width=x_bits).draw(p).tolist()
        cands = []
        for c in (0, 1):
            a = solve(LinearSystem(x_bits, tuple((w, c) for w in ws))).smallest_nonzero()
            if a is not None:
                cands.append((a, 1 - c))
        if cands:
            return ImpossibleCertificate(j, *min(cands))
    return None


# Every toy cipher shape of n <= 7 and rounds <= 4 within the table cap
# (the weak S-box needs n >= 3), as (preset, n, rounds).
TOY_SHAPES = [(preset, n, rounds) for preset in ("weak", "strong")
              for n in range(3 if preset == "weak" else 2, 8)
              for rounds in range(2, min(4, MAX_WIDTH // n) + 1)]


def _pair_differences_direct(public, etable, a: int, pairs: int, seed) -> list:
    """Per final-round key guess s, the partial decryption differences
    T^-1(c ^ s) ^ T^-1(c' ^ s) of the attack's pairs {x, x ^ a}: distinct
    representatives x < x ^ a drawn from stream (seed, 0) while they last,
    uniform x after that."""
    n = public.n
    rng = seeded_rng(seed, 0)
    reps = np.array([x for x in range(1 << n) if x < x ^ a], dtype=np.int64)
    if pairs <= len(reps):
        xs = rng.choice(reps, size=pairs, replace=False).tolist()
    else:
        xs = rng.integers(0, 1 << n, size=pairs, dtype=np.int64).tolist()
    inv, e = public.inverse_last(), etable.table
    return [[int(inv[int(e[x]) ^ s]) ^ int(inv[int(e[x ^ a]) ^ s]) for x in xs]
            for s in range(1 << n)]


def differential_attack_full_family(public, etable, seed, q: int, p=None, pairs=None):
    """differential_attack with its search on the whole keyed family G."""
    n = public.n
    p, pairs = (4 * n if p is None else p), (8 * n if pairs is None else pairs)
    ledger = QueryLedger()
    with slice_range(n):
        res = find_vector_structures(toy_reduced_family(public), p, seed, ledger, n)
    if not res.found:
        return DifferentialAttackReport(False, None, None, None, None, p, pairs, q,
                                        ledger.snapshot())
    diffs = _pair_differences_direct(public, etable, res.a, pairs, seed)
    ledger.add_classical(2 * pairs)
    counts = [sum(d == res.alpha for d in row) for row in diffs]
    best = max(range(1 << n), key=counts.__getitem__)  # ties: the smallest key
    return DifferentialAttackReport(True, res.a, res.alpha, best,
                                    KeyCounterTable(tuple(counts), pairs, 1),
                                    p, pairs, q, ledger.snapshot())


def small_probability_attack_full_family(public, etable, seed, q: int, l: int, p=None):
    """small_probability_attack with its search on the whole keyed family G."""
    n = public.n
    p, pairs = (n ** 3 * l ** 2 * q ** 2 if p is None else p), l * l
    ledger = QueryLedger()
    with slice_range(n):
        res = find_vector_structures(toy_reduced_family(public), p, seed, ledger, n)
    if not res.found:
        return SmallProbabilityReport(False, None, None, None, None, p, l, q, pairs,
                                      ledger.snapshot())
    b = res.alpha ^ ((1 << n) - 1)
    diffs = _pair_differences_direct(public, etable, res.a, pairs, seed)
    ledger.add_classical(2 * pairs)
    counts = [sum(n - bin(d ^ b).count("1") for d in row) for row in diffs]
    best = min(range(1 << n), key=counts.__getitem__)
    return SmallProbabilityReport(True, res.a, b, best, KeyCounterTable(tuple(counts), pairs, n),
                                  p, l, q, pairs, ledger.snapshot())


def impossible_attack_full_family(public, etable, seed, pairs=None, p=None):
    """impossible_attack with its search on the whole keyed family G, the
    certificate checked by certificate_valid_direct."""
    n = public.n
    p, pairs = (4 * n if p is None else p), (4 * n if pairs is None else pairs)
    G = toy_reduced_family(public)
    ledger = QueryLedger()
    with slice_range(n):
        cert = find_impossible_differential(G, p, seed, ledger, solve_width=n)
    every = tuple(range(1 << n))
    if cert is None:
        return ImpossibleSieveReport(False, None, None, every, pairs, p, ledger.snapshot())
    valid = certificate_valid_direct(G.table, n, public.key_bits, cert.j, cert.a, cert.forbidden)
    if not valid or pairs == 0:
        return ImpossibleSieveReport(True, cert, valid, every, pairs, p, ledger.snapshot())
    diffs = _pair_differences_direct(public, etable, cert.a, pairs, seed)
    ledger.add_classical(2 * pairs)
    alive = tuple(s for s in every
                  if all((d >> (n - cert.j)) & 1 != cert.forbidden for d in diffs[s]))
    return ImpossibleSieveReport(True, cert, True, alive, pairs, p, ledger.snapshot())
