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

# A table draw maps u to outcomes this many draws at a time, through three
# block-sized buffers (about 0.5 MiB together) that stay in cache across the
# lookup and the correction passes, and writes each block's outcomes back over
# its uniforms.  Measured on a 2-core VM (2 MiB L2), median of 40 T7-shaped
# draws of 279,936 from 64 outcomes, uniforms included: 2.8 ms in blocks of
# 2^12, 2.3 ms at 2^15, 3.3 ms at 2^17, 5.8 ms as one block.
_BLOCK = 1 << 15


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
    first such draw and kept, and applied block by block in place."""

    __slots__ = ("n", "outcomes", "ledger", "_cum", "_rng", "_bits", "_index")

    def __init__(self, f: BooleanFunction, seed_key, ledger: QueryLedger | None = None,
                 width: int | None = None) -> None:
        width = f.n if width is None else int(width)
        if not 1 <= width <= f.n:
            raise ValueError(f"width must be in [1, {f.n}], got {width}")
        # int32 holds every entry: a sum of 2^width signs, and the table cap
        # keeps 2^width <= 2^24 < 2^31.  A row's sum of squares, at most
        # 2^(n + width) <= 2^48, is accumulated in int64.
        rows = _wht((1 - 2 * f.table.astype(np.int32)).reshape(1 << width, -1))
        masses = np.einsum("ij,ij->i", rows, rows, dtype=np.int64) << (f.n - width)
        support = np.flatnonzero(masses)
        self.n = width
        self.outcomes = support.astype(np.int64)
        self._cum = np.cumsum(masses[support], dtype=np.int64)
        self._rng = seeded_rng(seed_key)
        self.ledger = ledger
        # about four buckets per outcome, at most one per value of u
        self._bits = min((len(support) - 1).bit_length() + 2, 2 * f.n)
        self._index = None

    def draw(self, count: int = 1) -> np.ndarray:
        """Sample `count` outcomes; charges one quantum query per outcome."""
        check_draw_budget(count)
        total = int(self._cum[-1])
        u = self._rng.integers(0, total, size=count, dtype=np.int64)
        if self._index is None and count >= 1 << max(self._bits, _MIN_TABLE_DRAW_BITS):
            self._index = _index_table(self._cum, self._bits)
        if self.ledger is not None:
            self.ledger.add_quantum(count)
        if not self._index:
            return self.outcomes[np.searchsorted(self._cum, u, side="right")]
        lo, shift, steps = self._index
        size = min(count, _BLOCK)
        idx, word, ge = np.empty(size, np.intp), np.empty(size, np.int64), np.empty(size, bool)
        for start in range(0, count, _BLOCK):
            ub = u[start:start + _BLOCK]
            k = len(ub)
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
            np.take(self.outcomes, i, out=ub, mode="clip")
        return u
