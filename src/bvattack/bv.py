"""Distribution-exact simulation of the Bernstein-Vazirani subroutine.

Running the BV circuit on a boolean f and measuring yields the string w with
probability S_f(w)^2.  Squared integer Walsh coefficients are dyadic masses
summing to exactly 4^n, so one uniform integer u from [0, 4^n), mapped to the
first outcome whose cumulative mass exceeds u, reproduces the measurement law
with no floating point anywhere.  One sample costs one quantum query to f.

A draw and a sample set find each outcome the same way, by a binary search
over the cumulative masses.  A draw works through u in blocks of 2^15 and
writes each block's outcomes back over u, so the uniforms' own array is the
only full-length one it makes.

A search needs only the first outcome (its pivot) and the set of distinct
outcomes, so `sample_set` marks hits on the support indices instead of
writing outcomes back, and draws its uniforms in growing blocks: it stops
after the first block that leaves every outcome hit, since later draws cannot
change the set.  The uniforms range over [0, 4^n), a power of two, so numpy's
bounded draw never rejects and blocks of any sizes give the values of one
call.  The ledger is charged the whole `count`; the stream is left after the
last block drawn, since each sampler serves one sample set.

With width < n only the leading `width` bits of w are drawn, from their exact
marginal law: a butterfly along the 2^width data rows of the table, then each
row's sum of squares shifted left by n - width (Parseval on the key axis).
These masses still sum to 4^n and truncation keeps the support's order, so the
same uniform draws yield exactly the full draws shifted right by n - width.

A family F(z || k) = f(z ^ c(k)) on n + t bits, whose t key bits k only
translate f's input (c is any map to n-bit words, such as the toy cipher's
first round key: G(x || k1 || k') = G0(x ^ k1 || k')), has f's marginal law:
a translation multiplies each Walsh coefficient by a sign, so each of F's 2^t
columns per column of f carries f's squared row spectrum.  F's row masses are
2^t times f's and its Parseval shift is n + t - width, so with `translated=t`
the sampler built on f shifts by n - width + 2t and gives F's cumulative
masses, uniforms, draws and stream, from a table 2^t times smaller.

The vector, common-zero and impossible searches read the output bits of an
m-bit F, so `component_samplers` builds their samplers k bits at a time,
k = max(1, 2^16 / 2^m) from a cell budget: one shift of F's word table gives
the block's bits, one butterfly transforms their k sign tables along the
shared data axis, and each bit's support, cumulative masses and stream
(seed, j) are made as in `BvSampler`, itself a block of one.  Small
butterflies cost mostly their numpy calls, so every default-shape search
(m <= 12) is one block, while 18-bit tables stay one bit per block.  A block
is built when its first bit is asked for and a bit is charged when drawn, so
a search that stops early builds and charges what per-bit builds would.
"""

from __future__ import annotations

import operator

import numpy as np

from .boolfn import MAX_WIDTH, BooleanFunction, VectorFunction, _NO_SHIFT, _butterfly
from .rng import seeded_rng

__all__ = ["MAX_DRAWS", "QueryLedger", "BvSampler", "check_draw_budget",
           "component_samplers"]

# Per-call budget on draws and plaintext pairs: a draw's uniforms and a
# key-ranking phase's pairs are count-sized int64 arrays, 32 MiB at 2^22.  A
# sample set holds at most _BLOCK uniforms, so for it the budget guards no
# array; T7 asks 6^7 = 279,936 draws per bit at its default n = 6, and 9^7 at
# n = 9 exceeds it.
MAX_DRAWS = 1 << 22


def check_draw_budget(count: int, what: str = "draw count") -> None:
    """Reject a count outside [0, MAX_DRAWS], or not an integer, before
    anything of that size exists or any query is charged."""
    if not 0 <= operator.index(count) <= MAX_DRAWS:
        raise ValueError(f"{what} {count} is outside the per-call budget [0, {MAX_DRAWS}]")


class QueryLedger:
    """Running totals of oracle uses, split by access type."""

    __slots__ = ("quantum", "classical")

    def __init__(self) -> None:
        self.quantum = 0
        self.classical = 0

    def add_quantum(self, count: int = 1) -> None:
        if operator.index(count) < 0:
            raise ValueError("query count cannot be negative")
        self.quantum += count

    def add_classical(self, count: int = 1) -> None:
        if operator.index(count) < 0:
            raise ValueError("query count cannot be negative")
        self.classical += count

    def snapshot(self) -> dict:
        return {"quantum": self.quantum, "classical": self.classical}

    def __repr__(self) -> str:
        return f"QueryLedger(quantum={self.quantum}, classical={self.classical})"


# A lookup maps uniforms to outcomes at most this many at a time, so its index
# array is 256 KiB; a draw writes each block's outcomes back over its
# uniforms.  The block size barely moves the binary search: on a 2-core Xeon
# VM (2 MiB L2 per core), median of 40 T7-shaped draws of 279,936 from 49
# outcomes, uniforms included: 11.1 ms in blocks of 2^12 or 2^15, 10.6 ms at
# 2^17, 11.9 ms as one block.
_BLOCK = 1 << 15

# A sample set draws its first block at about eight uniforms per outcome and at
# least 2^9 (each of T7's sample sets at n = 6 showed its 31 or 32 outcomes
# within 335), then blocks eight times larger up to _BLOCK, so the check for
# unseen outcomes after a block costs at most an eighth of the block's lookup.
def _set_blocks(count: int, support: int):
    """The sizes of the blocks in which a sample set draws `count` uniforms."""
    size = min(_BLOCK, 1 << max(9, support.bit_length() + 3))
    while count > 0:
        yield min(size, count)
        count -= size
        size = min(8 * size, _BLOCK)


# A block build transforms the signs of at most this many table cells (or one
# output bit's, when that is more) in one butterfly.  Best of five in-process
# runs on a 2-core VM, budget 2^10 / 2^13 / 2^16 / 2^19: T5 (8 bits of 2^8
# cells) 315 / 273 / 293 / 336 ms, T7 (6 bits of 2^12) 124 / 112 / 110 / 118
# ms (both timed before _wht ran its short strides on a transposed copy), an
# 18-bit recover_em_key 64 / 66 / 64 / 121 ms; 2^13 to 2^16 read alike within
# the VM's noise, and 2^19 puts two 18-bit tables in a block.
_BLOCK_CELLS = 1 << 16


def _sampler_shape(n: int, width: int | None, translated: int) -> tuple[int, int]:
    """(width, shift) of a sampler over an n-bit function: width defaults to n
    and lies in [1, n], and the cumulative masses are shifted left by
    n - width + 2 * translated; a width or translated that is not an integer
    is refused, not truncated."""
    width = n if width is None else operator.index(width)
    if not 1 <= width <= n:
        raise ValueError(f"width must be in [1, {n}], got {width}")
    translated = operator.index(translated)
    if not 0 <= translated <= MAX_WIDTH - n:
        raise ValueError(f"translated must be in [0, {MAX_WIDTH - n}] for a {n}-bit "
                         f"function under the {MAX_WIDTH}-bit cap, got {translated}")
    return width, n - width + 2 * translated


class BvSampler:
    """Measurement-outcome sampler for one boolean function: one Walsh
    transform (over the leading `width` bits only) when built, then one binary
    search over the support per draw, applied block by block.  draw writes
    each block's outcomes in place; sample_set only marks them, drawing block
    by block until saturated.
    translated = t samples the family that translates f's input by t key
    bits, whose law is f's (see above).  `component_samplers` builds the
    samplers of a vector function's output bits, a block per butterfly."""

    __slots__ = ("n", "outcomes", "ledger", "_cum", "_rng")

    def __init__(self, f: BooleanFunction, seed_key, ledger: QueryLedger | None = None,
                 width: int | None = None, translated: int = 0) -> None:
        width, shift = _sampler_shape(f.n, width, translated)
        rows = _butterfly(f.table.reshape(1 << width, 1, -1), _NO_SHIFT, width)
        self._fill(rows, f.n, width, shift, seed_key, ledger)

    def _fill(self, rows: np.ndarray, n: int, width: int, shift: int, seed_key,
              ledger: QueryLedger | None) -> None:
        """Set the outcomes, cumulative masses, stream and ledger of the sampler
        whose transformed signs are `rows`, 2^width rows of 2^(n - width)."""
        # A row's sum of squares is at most 2^(n + width), which a constant
        # function reaches, so the einsum sums in int32 when n + width <= 30
        # (2-core VM: 0.12 against 0.22 ms in int64 at n = 18, width 6).  At
        # width == n each row is one entry and its square is its mass, which
        # the einsum took longer to give (the whole build at n = 18: 13.1-13.5
        # ms with it, 8.0-8.1 ms without); so the support is found on the
        # narrow entries themselves, and only its entries are squared, in
        # int64 (2^18 entries: 3.2-3.8 ms against 4.2-6.2 ms for squaring all
        # and searching the squares).
        if width == n:
            col = rows[:, 0]
            support = (col != 0).nonzero()[0]
            masses = np.square(col[support], dtype=np.int64)
        else:
            masses = np.einsum("ij,ij->i", rows, rows,
                               dtype=np.int32 if n + width <= 30 else np.int64)
            support = masses.nonzero()[0]
            masses = masses[support]
        self.n = width
        self.outcomes = support.astype(np.int64, copy=False)
        self._cum = np.cumsum(masses, dtype=np.int64)
        self._cum <<= shift
        self._rng = seeded_rng(seed_key)
        self.ledger = ledger

    def draw(self, count: int = 1) -> np.ndarray:
        """Sample `count` outcomes; charges one quantum query per outcome."""
        total = self._charge(count)
        u = self._rng.integers(0, total, size=count, dtype=np.int64)
        # u < cum[-1], so every index lies in [0, len(outcomes)) and "clip"
        # clips nothing; it lets take write into `out` unbuffered, as "raise"
        # does not
        for ub, i in self._lookup(u[start:start + _BLOCK] for start in range(0, count, _BLOCK)):
            np.take(self.outcomes, i, out=ub, mode="clip")
        return u

    def sample_set(self, count: int) -> tuple[int, list[int]]:
        """(first outcome, distinct outcomes ascending) of draw(count), at the
        same charge of `count` quantum queries.  The uniforms are drawn in the
        blocks of `_set_blocks`, and drawing stops, leaving the stream there,
        after the first block that leaves every support outcome hit, since
        later blocks cannot change the set."""
        if count == 0:
            raise ValueError("a sample set needs at least one sample, or its pivot is undefined")
        total = self._charge(count)
        hit = np.zeros(len(self.outcomes), dtype=bool)
        # hit.all() costs O(support), at most one block's lookup
        saturable = len(hit) <= _BLOCK
        blocks = (self._rng.integers(0, total, size=k, dtype=np.int64)
                  for k in _set_blocks(count, len(hit)))
        first = None
        for ub, i in self._lookup(blocks):
            if first is None:
                first = int(i[0])
            hit[i] = True
            if saturable and hit.all():
                break
        return int(self.outcomes[first]), self.outcomes[hit].tolist()

    def _charge(self, count: int) -> int:
        """Check `count` against the budget, charge it as `count` quantum
        queries, and return the uniforms' range 4^n, a power of two."""
        check_draw_budget(count)
        if self.ledger is not None:
            self.ledger.add_quantum(count)
        return int(self._cum[-1])

    def _lookup(self, blocks):
        """Yield (ub, i) per block ub of uniforms: the block and the support
        index of each one's outcome, the first whose cumulative mass exceeds
        it."""
        for ub in blocks:
            yield ub, np.searchsorted(self._cum, ub, side="right")


def component_samplers(F: VectorFunction, seed, ledger: QueryLedger | None = None,
                       width: int | None = None, translated: int = 0):
    """Yield BvSampler(F.component(j), (seed, j), ledger, width, translated)
    for j = 1, ..., F.n, equal to it in outcomes, cumulative masses and
    stream, with no component table made.  The samplers are built in blocks
    of k output bits, k from the cell budget _BLOCK_CELLS: one shift of the
    word table gives the block's bits, and one butterfly transforms them.  A
    block is built when its first sampler is asked for, so a search that
    stops early builds no later block."""
    width, shift = _sampler_shape(F.m, width, translated)
    k = max(1, _BLOCK_CELLS >> F.m)
    words = F.table.reshape(1 << width, 1, -1)
    c = words.shape[2]
    for first in range(1, F.n + 1, k):
        js = range(first, min(first + k, F.n + 1))
        rows = _butterfly(words, np.array([[F.n - j] for j in js], words.dtype), width)
        for b, j in enumerate(js):
            sampler = BvSampler.__new__(BvSampler)
            sampler._fill(rows[:, b * c:(b + 1) * c], F.m, width, shift, (seed, j), ledger)
            yield sampler
