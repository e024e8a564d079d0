"""Linear-structure search from Bernstein-Vazirani measurement samples.

Every measurement outcome w of the BV circuit on f satisfies a hard
constraint for any exact structure a of f: the spectrum support lies in
{w : a . w = i} when f(x ^ a) = f(x) ^ i for all x.  Sampling p outcomes and
solving the resulting linear systems therefore yields candidate structures;
spurious candidates survive each extra sample with probability bounded by
the function's structure-free differential uniformity.

Every output bit is solved one way: one eliminator over a . (w ^ w0) = 0 for
the distinct samples w and the first sample w0 holds the directions with
a . w constant.  The sampler's `sample_set` returns just that pair, so the p
samples themselves are never written out.  The boolean search splits the
eliminator by the row (w0, 0) or (w0, 1), the vector search intersects it
across output bits.

Sample streams are keyed (seed,) for a single boolean function and (seed, j)
for output bit j of a vector function, so runs replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolfn import BooleanFunction, VectorFunction
from .bv import BvSampler, QueryLedger
from .gf2 import AffineSolutionSet, Eliminator, dot

__all__ = [
    "default_sample_count",
    "search_shape",
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


def search_shape(m: int, width: int | None, p: int | None) -> tuple[int, int]:
    """(width, p) of a search over an m-bit input: width defaults to m and
    must lie in [1, m], p defaults to 4 * width and must be positive."""
    w = m if width is None else int(width)
    if not 1 <= w <= m:
        raise ValueError(f"solve_width must be in [1, {m}], got {width}")
    p = default_sample_count(w) if p is None else int(p)
    if p < 1:
        raise ValueError(f"sample count must be positive, got {p}")
    return w, p


def _absorb_samples(e: Eliminator, distinct: list[int], w0: int = 0) -> Eliminator:
    """Absorb a row (w ^ w0, 0) per distinct sample w, ascending in w, until
    full rank: a homogeneous system stays consistent, so later rows change
    nothing, and the order of the rows changes only the rows, not their span."""
    for w in distinct:
        e.absorb(w ^ w0)
        if e.rank == e.width:
            break
    return e


def _constancy(width: int, samples: tuple[int, list[int]]) -> tuple[Eliminator, int]:
    """The eliminator over a . (w ^ w0) = 0 for every sample w, and the pivot
    w0, from a sampler's (pivot, distinct samples) pair: its members a have
    a . w = a . w0 for every sample."""
    w0, distinct = samples
    return _absorb_samples(Eliminator(width), distinct, w0), w0


def _solution_with(e: Eliminator, w: int, c: int) -> AffineSolutionSet:
    """The solution set of e's rows plus the row a . w = c; e is left as is."""
    ext = Eliminator(e.width)
    ext.rows.update(e.rows)
    ext.absorb(w, c)
    return ext.solution()


@dataclass(frozen=True)
class BooleanStructureResult:
    """Outcome of the single-output search.  The p draws are not kept
    (BvSampler(f, (seed,), width=width) replays them), so results compare by value."""

    found: bool
    zero_set: AffineSolutionSet
    one_set: AffineSolutionSet
    p: int

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


@dataclass(frozen=True)
class ZeroStructureResult:
    found: bool
    a: int | None
    intersection: AffineSolutionSet
    components_done: int
    p: int


def find_boolean_structures(
    f: BooleanFunction,
    p: int | None = None,
    seed: int = 0,
    ledger: QueryLedger | None = None,
    solve_width: int | None = None,
) -> BooleanStructureResult:
    """Search for linear structures of a single boolean function.

    Takes p measurement samples (default 4 * width) and solves the two
    candidate systems {a . w = 0} and {a . w = 1} exactly.  found is False
    only when neither system has a nonzero solution; an inconsistent
    one-system just yields the empty set.  A constant f makes every sample 0,
    so the zero system degenerates to the full space; that is a correct
    answer, not an error.  solve_width < n searches directions of the
    leading solve_width input bits, as in find_vector_structures.
    """
    width, p = search_shape(f.n, solve_width, p)
    cset, w0 = _constancy(width, BvSampler(f, (seed,), ledger, width).sample_set(p))
    zero_set, one_set = _solution_with(cset, w0, 0), _solution_with(cset, w0, 1)
    found = not (zero_set.is_trivial and one_set.is_trivial)
    return BooleanStructureResult(found, zero_set, one_set, p)


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

    solve_width < m samples the leading solve_width bits of each outcome
    from their exact marginal law and searches directions of that width
    only: how an attack targets the data half of a (data || key) input.
    p defaults to 4 * effective width.
    """
    width, p = search_shape(F.m, solve_width, p)
    comps: list[ComponentEvidence] = []
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
    _, p = search_shape(F.m, None, p)
    elim = Eliminator(F.m)
    for j in range(1, F.n + 1):
        _absorb_samples(elim, BvSampler(F.component(j), (seed, j), ledger).sample_set(p)[1])
        if elim.rank == F.m:
            break

    found = elim.rank < F.m
    inter = elim.solution()
    a = inter.smallest_nonzero() if found else None
    return ZeroStructureResult(found, a, inter, j, p)
