"""Distribution-exact simulation of the Bernstein-Vazirani subroutine.

Running the BV circuit on a boolean f and measuring yields the string w with
probability S_f(w)^2.  Squared integer Walsh coefficients are dyadic masses
summing to exactly 4^n, so one uniform integer draw from [0, 4^n) plus a
binary search over the cumulative masses reproduces the measurement law with
no floating point anywhere.  One sample costs one quantum query to f.

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


class BvSampler:
    """Measurement-outcome sampler for one boolean function: one Walsh
    transform (over the leading `width` bits only) when built, then a binary
    search over the support per draw."""

    __slots__ = ("n", "outcomes", "ledger", "draws", "_cum", "_rng")

    def __init__(self, f: BooleanFunction, seed_key, ledger: QueryLedger | None = None,
                 width: int | None = None) -> None:
        width = f.n if width is None else int(width)
        if not 1 <= width <= f.n:
            raise ValueError(f"width must be in [1, {f.n}], got {width}")
        rows = _wht((1 - 2 * f.table.astype(np.int64)).reshape(1 << width, -1))
        masses = np.einsum("ij,ij->i", rows, rows) << (f.n - width)
        support = np.flatnonzero(masses)
        self.n = width
        self.outcomes = support.astype(np.int64)
        self._cum = np.cumsum(masses[support], dtype=np.int64)
        self._rng = seeded_rng(seed_key)
        self.ledger = ledger
        self.draws = 0

    def draw(self, count: int = 1) -> np.ndarray:
        """Sample `count` outcomes; charges one quantum query per outcome."""
        check_draw_budget(count)
        total = int(self._cum[-1])
        u = self._rng.integers(0, total, size=count, dtype=np.int64)
        idx = np.searchsorted(self._cum, u, side="right")
        self.draws += count
        if self.ledger is not None:
            self.ledger.add_quantum(count)
        return self.outcomes[idx]

