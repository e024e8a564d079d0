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

A family F(z || k) = f(z ^ c(k)) on n + t bits, whose t key bits k only
translate f's input (c is any map to n-bit words, such as the toy cipher's
first round key: G(x || k1 || k') = G0(x ^ k1 || k')), has f's marginal law:
a translation multiplies each Walsh coefficient by a sign, so each of F's 2^t
columns per column of f carries f's squared row spectrum.  F's row masses are
2^t times f's and its Parseval shift is n + t - width, so with `translated=t`
the sampler built on f shifts by n - width + 2t and gives F's cumulative
masses, uniforms, draws and stream, from a table 2^t times smaller.
"""

from __future__ import annotations

import numpy as np

from .boolfn import MAX_WIDTH, BooleanFunction, _wht
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


class BvSampler:
    """Measurement-outcome sampler for one boolean function: one Walsh
    transform (over the leading `width` bits only) when built, then one binary
    search over the support per draw, applied block by block.  draw writes
    each block's outcomes in place; sample_set only marks them, drawing block
    by block until saturated, and then moves the stream past the rest.
    translated = t samples the family that translates f's input by t key
    bits, whose law is f's (see above)."""

    __slots__ = ("n", "outcomes", "ledger", "_cum", "_rng")

    def __init__(self, f: BooleanFunction, seed_key, ledger: QueryLedger | None = None,
                 width: int | None = None, translated: int = 0) -> None:
        width = f.n if width is None else int(width)
        if not 1 <= width <= f.n:
            raise ValueError(f"width must be in [1, {f.n}], got {width}")
        translated = int(translated)
        if not 0 <= translated <= MAX_WIDTH - f.n:
            raise ValueError(f"translated must be in [0, {MAX_WIDTH - f.n}] for a {f.n}-bit "
                             f"function under the {MAX_WIDTH}-bit cap, got {translated}")
        # Every butterfly entry lies in [-2^width, 2^width]: each starts as a
        # sign +-1, and each of the width stages maps a pair (x, y) to
        # (x + y, x - y), which at most doubles the largest magnitude (a
        # constant column reaches 2^width); the temporaries of _wht's radix-4
        # passes hold values after one stage, so they keep the same bound.  So
        # int8 holds width <= 6, int16 width <= 14, and int32 the rest up to
        # the 24-bit cap; a square, at most 4^width, fits int16, int32 and
        # int64 in turn.
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
        self.outcomes = support.astype(np.int64, copy=False)
        self._cum = np.cumsum(masses[support], dtype=np.int64)
        self._cum <<= f.n - width + 2 * translated
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
        queries, and return the uniforms' range 4^n, a power of two."""
        check_draw_budget(count)
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
        index of each one's outcome, the first whose cumulative mass exceeds
        it."""
        for ub in blocks:
            yield ub, np.searchsorted(self._cum, ub, side="right")
