"""Distribution-exact simulation of the Bernstein-Vazirani subroutine.

Running the BV circuit on a boolean f and measuring yields the string w with
probability S_f(w)^2.  Squared integer Walsh coefficients are dyadic masses
summing to exactly 4^n, so one uniform integer u from [0, 4^n), mapped to the
first outcome whose cumulative mass exceeds u, reproduces the measurement law
with no floating point anywhere.  One sample costs one quantum query to f.

A draw finds that outcome by a binary search over the cumulative masses, or,
once it is large enough to repay the build, through an index table over the
top bits of u (the guide table of Chen and Asau, 1974): u's bucket gives the
first outcome that can hold it, and a few passes step on past every
cumulative mass at or below u.  Both find the same outcome for every u, so
the table changes the speed of a draw, never its result.  A table draw works
through u in cache-sized blocks with reused buffers and writes the outcomes
back over u, so the uniforms' own array is the only full-length one it makes.

A search needs only the first outcome (its pivot) and the set of distinct
outcomes, so `sample_set` marks hits on the support indices instead of
writing outcomes back, and draws its uniforms in growing blocks: it stops
after the first block that leaves every outcome hit, since later draws cannot
change the set.  The uniforms range over [0, 4^n), a power of two, so numpy's
bounded draw never rejects: each uniform takes one 64-bit PCG64 output when
4^n > 2^32, and one 32-bit half of an output (the buffered half first) when
4^n <= 2^32.  So blocks of any sizes give the values of one call, and the
stream jumps past the undrawn tail (PCG64's O(log k) `advance`) to exactly
where `draw(count)` leaves it.  The ledger is charged the whole `count`.

With width < n only the leading `width` bits of w are drawn, from their exact
marginal law: a butterfly along the 2^width data rows of the table, then each
row's sum of squares shifted left by n - width (Parseval on the key axis).
These masses still sum to 4^n and truncation keeps the support's order, so the
same uniform draws yield exactly the full draws shifted right by n - width.
"""

from __future__ import annotations

import numpy as np

from .boolfn import BooleanFunction, _wht
from .rng import seeded_rng

__all__ = ["MAX_DRAWS", "QueryLedger", "BvSampler", "check_draw_budget"]

# Per-call budget on draws and plaintext pairs, 32 MiB per int64 array: twice
# the largest default shape, T7 at n = 8 with 2^21 draws per output bit.
MAX_DRAWS = 1 << 22


def check_draw_budget(count: int, what: str = "draw count") -> None:
    """Reject a count outside [0, MAX_DRAWS] before anything of that size exists."""
    if not 0 <= count <= MAX_DRAWS:
        raise ValueError(f"{what} {count} is outside the per-call budget [0, {MAX_DRAWS}]")


class QueryLedger:
    """Running totals of oracle uses, split by access type."""

    __slots__ = ("quantum", "classical")

    def __init__(self) -> None:
        self.quantum = 0
        self.classical = 0

    def add_quantum(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("query count cannot be negative")
        self.quantum += count

    def add_classical(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("query count cannot be negative")
        self.classical += count

    def snapshot(self) -> dict:
        return {"quantum": self.quantum, "classical": self.classical}

    def __repr__(self) -> str:
        return f"QueryLedger(quantum={self.quantum}, classical={self.classical})"


# A draw builds the index table only if it takes at least one draw per entry
# and at least 2^12 draws.  Measured on a 2-core VM with the blocked draw below
# (medians of 200, table build included): below 2^11 draws one binary search
# per draw beat building and using the table at every support size up to 256;
# at 2^12 the table won from 4 outcomes on (112 against 119 us) and lost only
# at 2 (108 against 96 us); from 2^13 on it won at every size up to 1024.  One
# draw per entry also keeps the intp table no larger than the draw's own int64
# array.
_MIN_TABLE_DRAW_BITS = 12

# A lookup maps uniforms to outcomes at most this many at a time, through three
# buffers (about 0.5 MiB together at this size) that stay in cache across the
# table lookup and its correction passes; a draw writes each block's outcomes
# back over its uniforms.  Measured on a 2-core VM (2 MiB L2), median of 40
# T7-shaped draws of 279,936 from 64 outcomes, uniforms included: 2.8 ms in
# blocks of 2^12, 2.3 ms at 2^15, 3.3 ms at 2^17, 5.8 ms as one block.
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


def _index_table(cum: np.ndarray, bits: int) -> tuple:
    """Index table over the top `bits` bits of u in [0, cum[-1]), a power of two.

    Returns (lo, shift, steps): bucket b = u >> shift starts at b << shift,
    lo[b] = #{cum <= b << shift} is the first outcome any u in it can map to,
    and steps is the most cum entries strictly inside one bucket, so `steps`
    passes of idx += u >= cum[idx] reach the outcome the binary search finds.
    Returns () when steps exceeds the binary search's depth.
    """
    shift = int(cum[-1]).bit_length() - 1 - bits
    # cum <= b << shift exactly when ceil(cum / 2^shift) <= b; lo is intp, the
    # gathers' own index type, so no gather casts its indices first
    first = np.bincount(-(-cum >> shift), minlength=(1 << bits) + 1)[: 1 << bits]
    lo = np.cumsum(first, dtype=np.intp)
    inner = cum[cum & ((1 << shift) - 1) != 0] >> shift
    steps = int(np.bincount(inner).max(initial=0))
    return (lo, shift, steps) if steps <= len(cum).bit_length() else ()


class BvSampler:
    """Measurement-outcome sampler for one boolean function: one Walsh
    transform (over the leading `width` bits only) when built, then per draw
    of `count` outcomes either a binary search over the support for each, or,
    from 2^12 draws and one per table entry on, the index table, built by the
    first such draw and kept, applied block by block.  draw writes each
    block's outcomes in place; sample_set only marks them, drawing block by
    block until saturated, and then moves the stream past the rest."""

    __slots__ = ("n", "outcomes", "ledger", "_cum", "_rng", "_bits", "_index")

    def __init__(self, f: BooleanFunction, seed_key, ledger: QueryLedger | None = None,
                 width: int | None = None) -> None:
        width = f.n if width is None else int(width)
        if not 1 <= width <= f.n:
            raise ValueError(f"width must be in [1, {f.n}], got {width}")
        # Every butterfly entry lies in [-2^width, 2^width]: each starts as a
        # sign +-1, and each of the width stages maps a pair (x, y) to
        # (x + y, x - y), which at most doubles the largest magnitude (a
        # constant column reaches 2^width).  So int8 holds width <= 6, int16
        # width <= 14, and int32 the rest up to the 24-bit cap; a square, at
        # most 4^width, fits int16, int32 and int64 in turn.
        narrow = 0 if width <= 6 else 1 if width <= 14 else 2
        t = f.table.astype((np.int8, np.int16, np.int32)[narrow])
        t *= -2
        t += 1
        rows = _wht(t.reshape(1 << width, -1))
        # A row's sum of squares is at most 2^(n + width), which a constant
        # function reaches, so the einsum sums in int32 when n + width <= 30
        # (2-core VM: 0.12 against 0.22 ms in int64 at n = 18, width 6).  At
        # width == n each row is one entry and its square is its mass, which
        # the einsum took longer to give (the whole build at n = 18: 13.1-13.5
        # ms with it, 8.0-8.1 ms without).
        if width == f.n:
            masses = np.square(rows.ravel(), dtype=(np.int16, np.int32, np.int64)[narrow])
        else:
            masses = np.einsum("ij,ij->i", rows, rows,
                               dtype=np.int32 if f.n + width <= 30 else np.int64)
        support = np.flatnonzero(masses)
        self.n = width
        self.outcomes = support.astype(np.int64)
        self._cum = np.cumsum(masses[support], dtype=np.int64) << (f.n - width)
        self._rng = seeded_rng(seed_key)
        self.ledger = ledger
        # about four buckets per outcome, at most one per value of u
        self._bits = min((len(support) - 1).bit_length() + 2, 2 * f.n)
        self._index = None

    def draw(self, count: int = 1) -> np.ndarray:
        """Sample `count` outcomes; charges one quantum query per outcome."""
        total = self._charge(count)
        u = self._rng.integers(0, total, size=count, dtype=np.int64)
        for ub, i in self._lookup(u[start:start + _BLOCK] for start in range(0, count, _BLOCK)):
            np.take(self.outcomes, i, out=ub, mode="clip")
        return u

    def sample_set(self, count: int) -> tuple[int, list[int]]:
        """(first outcome, distinct outcomes ascending) of draw(count), at the
        same charge of `count` quantum queries and with the stream left where
        draw(count) leaves it.  The uniforms are drawn in the blocks of
        `_set_blocks`, and drawing stops after the first block that leaves
        every support outcome hit, since later blocks cannot change the set;
        the stream then moves past the undrawn rest."""
        if count == 0:
            raise ValueError("a sample set needs at least one sample, or its pivot is undefined")
        total = self._charge(count)
        hit = np.zeros(len(self.outcomes), dtype=bool)
        # hit.all() costs O(support), at most one block's lookup
        saturable = len(hit) <= _BLOCK
        blocks = (self._rng.integers(0, total, size=k, dtype=np.int64)
                  for k in _set_blocks(count, len(hit)))
        first = None
        drawn = 0
        for ub, i in self._lookup(blocks):
            if first is None:
                first = int(i[0])
            hit[i] = True
            drawn += len(ub)
            if saturable and hit.all():
                break
        self._skip(count - drawn, total)
        return int(self.outcomes[first]), self.outcomes[hit].tolist()

    def _charge(self, count: int) -> int:
        """Check `count` against the budget, charge it as `count` quantum
        queries, build the index table first if a draw that large repays it,
        and return the uniforms' range 4^n, a power of two."""
        check_draw_budget(count)
        if self._index is None and count >= 1 << max(self._bits, _MIN_TABLE_DRAW_BITS):
            self._index = _index_table(self._cum, self._bits)
        if self.ledger is not None:
            self.ledger.add_quantum(count)
        return int(self._cum[-1])

    def _skip(self, rest: int, total: int) -> None:
        """Move the stream past `rest` uniforms from [0, total) without drawing
        them, to where drawing them would leave it: `rest` 64-bit outputs when
        total > 2^32, else `rest` 32-bit halves, the buffered half first."""
        if rest == 0:
            return
        bits = self._rng.bit_generator
        if total > 1 << 32:
            # advance clears the 32-bit buffer, which 64-bit draws leave alone
            kept = bits.state
            bits.advance(rest)
            state = bits.state
            state.update(has_uint32=kept["has_uint32"], uinteger=kept["uinteger"])
            bits.state = state
            return
        if bits.state["has_uint32"]:
            self._rng.integers(0, total, size=1, dtype=np.int64)
            rest -= 1
        full, odd = divmod(rest, 2)
        if full > 1:
            # advance also zeroes the buffer's stale upper half, which the last
            # whole output, drawn for real below, writes back
            bits.advance(full - 1)
            rest = 2 + odd
        self._rng.integers(0, total, size=rest, dtype=np.int64)

    def _lookup(self, blocks):
        """Yield (ub, i) per block ub of uniforms: the block and the support
        index of each one's outcome.  i is a buffer that a later block
        overwrites, so it is used before the generator resumes; the buffers
        grow to the largest block yet."""
        if not self._index:
            for ub in blocks:
                yield ub, np.searchsorted(self._cum, ub, side="right")
            return
        lo, shift, steps = self._index
        size = 0
        for ub in blocks:
            k = len(ub)
            if k > size:
                size = k
                idx, word, ge = np.empty(k, np.intp), np.empty(k, np.int64), np.empty(k, bool)
            # c holds each u's bucket, then the cumulative mass at its index
            i, c, g = idx[:k], word[:k], ge[:k]
            # every index lies in [0, len(cum)), so "clip" clips nothing; it
            # lets take write into `out` unbuffered, as "raise" does not
            np.right_shift(ub, shift, out=c)
            np.take(lo, c, out=i, mode="clip")
            # cum rises strictly and u < cum[-1], so idx stops at the answer
            for _ in range(steps):
                np.take(self._cum, i, out=c, mode="clip")
                i += np.greater_equal(ub, c, out=g)
            yield ub, i
