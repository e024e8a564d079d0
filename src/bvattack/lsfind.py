"""Linear-structure search from Bernstein-Vazirani measurement samples.

Every measurement outcome w of the BV circuit on f satisfies a hard
constraint for any exact structure a of f: the spectrum support lies in
{w : a . w = i} when f(x ^ a) = f(x) ^ i for all x.  Sampling p outcomes and
solving the resulting linear systems therefore yields candidate structures;
spurious candidates survive each extra sample with probability bounded by
the function's structure-free differential uniformity.

Sample streams are keyed (seed,) for a single boolean function and (seed, j)
for output bit j of a vector function, so runs replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, VectorFunction
from .bv import BvSampler, QueryLedger
from .gf2 import AffineSolutionSet, Eliminator, dot

__all__ = [
    "default_sample_count",
    "solve_zero_one",
    "BooleanStructureResult",
    "ComponentEvidence",
    "VectorStructureResult",
    "ZeroStructureResult",
    "find_boolean_structures",
    "find_vector_structures",
    "find_common_zero_structure",
]


def default_sample_count(width: int) -> int:
    """Default samples per output bit: 4 bits of evidence per unknown.

    Large enough that a direction with survival probability <= 2/3 per sample
    outlives all draws with probability well under 2^-width.
    """
    return 4 * width


def _absorb_samples(e: Eliminator, ws: np.ndarray, c: int = 0) -> Eliminator:
    """Absorb a row (w, c) per distinct sample w; p can be huge, the
    distinct samples are few."""
    for w in np.unique(ws).tolist():
        e.absorb(w, c)
    return e


def solve_zero_one(width: int, samples: np.ndarray) -> tuple[AffineSolutionSet, AffineSolutionSet]:
    """The solution sets of {a . w = 0} and of {a . w = 1} over every sample w."""
    zero, one = (_absorb_samples(Eliminator(width), samples, c).solution() for c in (0, 1))
    return zero, one


@dataclass(frozen=True)
class BooleanStructureResult:
    """Outcome of the single-output search."""

    found: bool
    zero_set: AffineSolutionSet
    one_set: AffineSolutionSet
    samples: tuple[int, ...]
    p: int
    queries: int

    def smallest_candidate(self) -> tuple[int, int] | None:
        """Smallest nonzero candidate and its derivative value, or None."""
        best = None
        for i, s in ((0, self.zero_set), (1, self.one_set)):
            a = s.smallest_nonzero()
            if a is not None and (best is None or a < best[0]):
                best = (a, i)
        return best


@dataclass(frozen=True)
class ComponentEvidence:
    """Per-output-bit record kept by the vector searches."""

    j: int
    pivot: int
    set_size: int
    trivial: bool


@dataclass(frozen=True)
class VectorStructureResult:
    found: bool
    a: int | None
    alpha: int | None
    width: int
    intersection: AffineSolutionSet
    components: tuple[ComponentEvidence, ...]
    p: int
    queries: int


@dataclass(frozen=True)
class ZeroStructureResult:
    found: bool
    a: int | None
    intersection: AffineSolutionSet
    components_done: int
    p: int
    queries: int


def find_boolean_structures(
    f: BooleanFunction,
    p: int | None = None,
    seed: int = 0,
    ledger: QueryLedger | None = None,
) -> BooleanStructureResult:
    """Search for linear structures of a single boolean function.

    Takes p measurement samples (default 4n) and solves the two candidate
    systems {a . w = 0} and {a . w = 1} exactly.  found is False only when
    neither system has a nonzero solution; an inconsistent one-system just
    yields the empty set.  A constant f makes every sample 0, so the zero
    system degenerates to the full space; that is a correct answer, not an
    error.
    """
    p = default_sample_count(f.n) if p is None else int(p)
    if p < 1:
        raise ValueError(f"sample count must be positive, got {p}")
    ws = BvSampler(f, (seed,), ledger).draw(p)
    samples = tuple(int(w) for w in ws)
    zero_set, one_set = solve_zero_one(f.n, ws)
    found = not (zero_set.is_trivial and one_set.is_trivial)
    return BooleanStructureResult(found, zero_set, one_set, samples, p, p)


def find_vector_structures(
    F: VectorFunction,
    p: int | None = None,
    seed: int = 0,
    ledger: QueryLedger | None = None,
    solve_width: int | None = None,
) -> VectorStructureResult:
    """Search for a joint structure (a, alpha) of a vector function.

    Output bit j contributes the set of directions whose dot product with
    every one of its p samples is constant; candidates are the intersection
    over bits.  The loop halts as soon as any per-bit set or the running
    intersection is trivial, so the query count is at most n * p.

    solve_width < m truncates samples to their leading solve_width bits and
    searches directions of that width only.  This is how an attack targets
    the data half of a combined (data || key) input.  p defaults to
    4 * effective width.
    """
    width = F.m if solve_width is None else int(solve_width)
    if not 1 <= width <= F.m:
        raise ValueError(f"solve_width must be in [1, {F.m}], got {solve_width}")
    p = default_sample_count(width) if p is None else int(p)
    if p < 1:
        raise ValueError(f"sample count must be positive, got {p}")
    shift = F.m - width

    comps: list[ComponentEvidence] = []
    elim = Eliminator(width)
    queries = 0
    found = True
    for j in range(1, F.n + 1):
        ws = BvSampler(F.component(j), (seed, j), ledger).draw(p)
        queries += p
        trunc = ws >> shift
        pivot = int(trunc[0])
        cset = _absorb_samples(Eliminator(width), trunc ^ pivot)
        comps.append(ComponentEvidence(j, pivot, 1 << (width - cset.rank), cset.rank == width))
        if comps[-1].trivial:
            found = False
            break
        for row in cset.rows.values():
            elim.absorb(*row)
        if elim.rank == width:
            found = False
            break

    inter = elim.solution()
    a = alpha = None
    if found:
        a = inter.smallest_nonzero()
        alpha = 0
        for ev in comps:
            alpha |= dot(a, ev.pivot) << (F.n - ev.j)
    return VectorStructureResult(found, a, alpha, width, inter, tuple(comps), p, queries)


def find_common_zero_structure(
    F: VectorFunction,
    p: int | None = None,
    seed: int = 0,
    ledger: QueryLedger | None = None,
) -> ZeroStructureResult:
    """Search for a direction along which every output bit is constant-zero.

    This is the shift-period search used by the distinguisher and the key
    recovery: per output bit the system is {a . w = 0} over its samples, and
    the sets are intersected with early exit once only 0 survives.
    """
    p = default_sample_count(F.m) if p is None else int(p)
    if p < 1:
        raise ValueError(f"sample count must be positive, got {p}")

    elim = Eliminator(F.m)
    queries = 0
    done = 0
    found = True
    for j in range(1, F.n + 1):
        ws = BvSampler(F.component(j), (seed, j), ledger).draw(p)
        queries += p
        done = j
        _absorb_samples(elim, ws)
        if elim.rank == F.m:
            found = False
            break

    inter = elim.solution()
    a = inter.smallest_nonzero() if found else None
    return ZeroStructureResult(found, a, inter, done, p, queries)
