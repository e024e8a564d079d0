"""Exact linear algebra over GF(2) on word-packed bit vectors.

A width-w bit vector (b_1, ..., b_w) is packed into the integer
sum_i b_i * 2^(w-i): coordinate 1 is the most significant bit, so
lexicographic order on bit strings coincides with integer order.

Affine solution sets are kept canonical: the basis is in reduced row echelon
form with each vector's leading bit as its pivot, sorted descending, and the
offset has every pivot bit clear.  Equal sets therefore have equal
representations, and the offset of a non-empty set is its smallest member.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "MAX_SYSTEM_WIDTH",
    "dot",
    "LinearSystem",
    "AffineSolutionSet",
    "Eliminator",
    "solve",
    "constraints_of",
    "intersect",
    "constancy_set",
]

MAX_SYSTEM_WIDTH = 64


def dot(u: int, v: int) -> int:
    """GF(2) inner product of two packed bit vectors."""
    return (u & v).bit_count() & 1


def _check_vector(v: int, width: int) -> None:
    if not 0 <= v < (1 << width):
        raise ValueError(f"bit vector {v:#x} does not fit in width {width}")


@dataclass(frozen=True)
class LinearSystem:
    """Constraints x . w = c over GF(2), all of one width.

    Duplicate or redundant rows are harmless; a row (0, 1) makes the system
    unsatisfiable.
    """

    width: int
    constraints: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_SYSTEM_WIDTH:
            raise ValueError(f"width must be in [1, {MAX_SYSTEM_WIDTH}], got {self.width}")
        rows = tuple((int(w), int(c)) for w, c in self.constraints)
        for w, c in rows:
            _check_vector(w, self.width)
            if c not in (0, 1):
                raise ValueError(f"constraint value must be a bit, got {c}")
        object.__setattr__(self, "constraints", rows)


@dataclass(frozen=True)
class AffineSolutionSet:
    """The set offset ^ span(basis), or the empty set.

    Canonical form is enforced at construction (see module docstring), so two
    equal sets always compare equal as dataclasses.
    """

    width: int
    is_empty: bool
    offset: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_SYSTEM_WIDTH:
            raise ValueError(f"width must be in [1, {MAX_SYSTEM_WIDTH}], got {self.width}")
        object.__setattr__(self, "basis", tuple(int(b) for b in self.basis))
        object.__setattr__(self, "offset", int(self.offset))
        if self.is_empty:
            if self.offset != 0 or self.basis:
                raise ValueError("empty set must carry offset 0 and an empty basis")
            return
        _check_vector(self.offset, self.width)
        pivots = []
        for b in self.basis:
            _check_vector(b, self.width)
            if b == 0:
                raise ValueError("basis vectors must be nonzero")
            pivots.append(b.bit_length() - 1)
        if len(set(pivots)) != len(pivots):
            raise ValueError("duplicate pivot: basis is not in echelon form")
        if list(self.basis) != sorted(self.basis, reverse=True):
            raise ValueError("basis must be sorted descending")
        for b, p in zip(self.basis, pivots):
            mask = 1 << p
            if (self.offset & mask) or any(other != b and (other & mask) for other in self.basis):
                raise ValueError("pivot bit set outside its own basis vector")

    @classmethod
    def empty(cls, width: int) -> "AffineSolutionSet":
        return cls(width, True, 0, ())

    @property
    def size(self) -> int:
        """Number of members; 0 for the empty set."""
        return 0 if self.is_empty else 1 << len(self.basis)

    @property
    def is_trivial(self) -> bool:
        """True when the set contains no nonzero vector."""
        return self.is_empty or (self.offset == 0 and not self.basis)

    def smallest_nonzero(self) -> int | None:
        """Smallest nonzero member in lexicographic (= numeric) order."""
        if self.is_empty:
            return None
        if self.offset:
            return self.offset
        if self.basis:
            return min(self.basis)
        return None


class Eliminator:
    """Incremental Gaussian elimination over GF(2).

    Constraints x . w = c are absorbed one at a time and kept as one row per
    pivot, the row's lowest set bit; a row that reduces to (0, 1) makes the
    system inconsistent.  A homogeneous system is down to {0} once
    rank == width.
    """

    __slots__ = ("width", "rows", "consistent")

    def __init__(self, width: int) -> None:
        # a width that is not an integer is refused here, not inside absorb
        width = operator.index(width)
        if not 1 <= width <= MAX_SYSTEM_WIDTH:
            raise ValueError(f"width must be in [1, {MAX_SYSTEM_WIDTH}], got {width}")
        self.width = width
        self.rows: dict[int, tuple[int, int]] = {}
        self.consistent = True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def absorb(self, w: int, c: int = 0) -> None:
        """Add the constraint x . w = c, for a w of `width` bits and a bit c;
        anything else is refused before a row is stored (a wider w would
        count towards rank == width without cutting the solution set)."""
        if w >> self.width or c not in (0, 1):
            raise ValueError(f"constraint ({w}, {c}) needs a {self.width}-bit vector and a bit")
        rows = self.rows
        while w:
            p = (w & -w).bit_length() - 1
            row = rows.get(p)
            if row is None:
                rows[p] = (w, c)
                return
            w ^= row[0]
            c ^= row[1]
        if c:
            self.consistent = False

    def solution(self) -> AffineSolutionSet:
        """The solution set of the rows absorbed so far, in canonical form.

        Free coordinates are zero in the offset and one at a time in the
        generators; a pivot sits below every other bit of its row, so each
        generator's leading bit is its own free coordinate.
        """
        width = self.width
        if not self.consistent:
            return AffineSolutionSet.empty(width)
        rows = dict(self.rows)
        # clear each pivot from the rows below it, highest pivot first
        for p in sorted(rows, reverse=True):
            wp, cp = rows[p]
            for q, (wq, cq) in rows.items():
                if q < p and (wq >> p) & 1:
                    rows[q] = (wq ^ wp, cq ^ cp)
        offset = 0
        for p, (_, c) in rows.items():
            offset |= c << p
        basis = []
        for f in reversed(range(width)):
            if f not in rows:
                v = 1 << f
                for p, (w, _) in rows.items():
                    if (w >> f) & 1:
                        v |= 1 << p
                basis.append(v)
        return AffineSolutionSet(width, False, offset, tuple(basis))


def solve(system: LinearSystem) -> AffineSolutionSet:
    """Gaussian elimination; returns the full solution set in canonical form."""
    e = Eliminator(system.width)
    for w, c in system.constraints:
        e.absorb(w, c)
    return e.solution()


def constraints_of(s: AffineSolutionSet) -> LinearSystem:
    """A linear system whose solution set is exactly s."""
    if s.is_empty:
        return LinearSystem(s.width, ((0, 1),))
    ortho = solve(LinearSystem(s.width, tuple((b, 0) for b in s.basis)))
    rows = tuple((y, dot(y, s.offset)) for y in ortho.basis)
    return LinearSystem(s.width, rows)


def intersect(s1: AffineSolutionSet, s2: AffineSolutionSet) -> AffineSolutionSet:
    """Set intersection, computed by stacking both defining systems."""
    if s1.width != s2.width:
        raise ValueError(f"width mismatch: {s1.width} vs {s2.width}")
    a = constraints_of(s1)
    b = constraints_of(s2)
    return solve(LinearSystem(s1.width, a.constraints + b.constraints))


def constancy_set(width: int, samples: Iterable[int]) -> tuple[AffineSolutionSet, int]:
    """Vectors a with a . w constant over all samples w, plus the pivot sample.

    Encoded as the solutions of {a . (w ^ w0) = 0} where w0 is the first
    sample; for any member a the constant bit equals dot(a, w0).
    """
    ws = [int(w) for w in samples]
    if not ws:
        raise ValueError("constancy_set needs at least one sample")
    w0 = ws[0]
    for w in ws:
        _check_vector(w, width)
    rows = tuple((w ^ w0, 0) for w in ws[1:])
    return solve(LinearSystem(width, rows)), w0
