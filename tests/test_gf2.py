"""Exact GF(2) solver tests against a try-every-point oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvattack.gf2 import (
    MAX_SYSTEM_WIDTH,
    AffineSolutionSet,
    Eliminator,
    LinearSystem,
    constancy_set,
    constraints_of,
    dot,
    intersect,
    solve,
)

from oracles import contains, members, parity, solve_affine_direct


def brute_members(width, constraints):
    return solve_affine_direct(width, constraints)


# --- small pinned cases -----------------------------------------------------


def test_dot_matches_parity_oracle():
    for u in range(16):
        for v in range(16):
            assert dot(u, v) == parity(u & v)


def test_homogeneous_pair_width3():
    # x.110=0 and x.011=0 leave exactly {000, 111}
    s = solve(LinearSystem(3, ((0b110, 0), (0b011, 0))))
    assert not s.is_empty
    assert s.offset == 0
    assert s.basis == (0b111,)
    assert members(s) == [0b000, 0b111]


def test_inconsistent_system_is_empty():
    # x.1=0 and x.1=1 cannot both hold
    s = solve(LinearSystem(1, ((1, 0), (1, 1))))
    assert s.is_empty
    assert members(s) == []
    assert not contains(s, 0) and not contains(s, 1)


def test_zero_row_with_one_is_unsatisfiable():
    s = solve(LinearSystem(4, ((0, 1),)))
    assert s.is_empty


def test_empty_system_is_full_space():
    s = solve(LinearSystem(3, ()))
    assert s.size == 8
    assert members(s) == list(range(8))


def test_affine_system_offset_is_smallest_member():
    # x.100=1 over width 3: solutions are 100..111
    s = solve(LinearSystem(3, ((0b100, 1),)))
    assert s.offset == min(members(s))
    assert members(s) == [4, 5, 6, 7]


def test_constancy_set_example():
    # samples {10, 01}: x must satisfy x.(11)=0, so {00, 11}
    s, pivot = constancy_set(2, [0b10, 0b01])
    assert pivot == 0b10
    assert members(s) == [0b00, 0b11]


def test_constancy_of_single_sample_is_full_space():
    s, pivot = constancy_set(3, [0b101])
    assert s.size == 8
    assert pivot == 0b101


def test_constancy_rejects_empty():
    with pytest.raises(ValueError):
        constancy_set(3, [])


def test_width_bounds():
    with pytest.raises(ValueError):
        LinearSystem(MAX_SYSTEM_WIDTH + 1, ())
    with pytest.raises(ValueError):
        LinearSystem(0, ())
    with pytest.raises(ValueError):
        LinearSystem(2, ((4, 0),))  # vector outside width


def test_absorb_refuses_rows_outside_the_width_and_non_bit_constants():
    """On width 3, absorbing 8, 16 and 32 used to reach rank == width while
    solution() stayed the whole space, and absorb(1, 2) failed only later,
    in solution(); both are refused before a row is stored."""
    e = Eliminator(3)
    for w, c in ((8, 0), (16, 0), (32, 1), (-1, 0), (1, 2), (1, -1), (0, 3)):
        with pytest.raises(ValueError, match=f"\\({w}, {c}\\) needs a 3-bit vector and a bit"):
            e.absorb(w, c)
    assert (e.rank, e.consistent) == (0, True)
    assert e.solution().size == 8
    e.absorb(7, 1)
    e.absorb(0, 0)
    assert e.solution() == solve(LinearSystem(3, ((7, 1),)))


def test_eliminator_refuses_a_width_that_is_not_an_integer():
    """Eliminator(3.0) used to be built and fail only in absorb, on a float
    shift; a float width is refused at construction, and an integer width of
    any integer type is read as a Python int."""
    for width in (3.0, 2.5, "3"):
        with pytest.raises(TypeError):
            Eliminator(width)
    e = Eliminator(np.int64(3))
    assert type(e.width) is int and e.width == 3
    e.absorb(5, 1)
    assert e.solution() == solve(LinearSystem(3, ((5, 1),)))


# --- randomized agreement with the brute-force oracle -----------------------

systems = st.integers(min_value=1, max_value=8).flatmap(
    lambda w: st.tuples(
        st.just(w),
        st.lists(
            st.tuples(st.integers(0, (1 << w) - 1), st.integers(0, 1)),
            max_size=12,
        ),
    )
)


@given(systems)
def test_solve_matches_brute_force(case):
    width, rows = case
    s = solve(LinearSystem(width, tuple(rows)))
    expect = brute_members(width, rows)
    if not expect:
        assert s.is_empty
    else:
        assert members(s) == expect


@given(systems, systems)
def test_intersect_matches_brute_force(c1, c2):
    w = max(c1[0], c2[0])
    rows1 = [(v, b) for v, b in c1[1]]
    rows2 = [(v, b) for v, b in c2[1]]
    s1 = solve(LinearSystem(w, tuple(rows1)))
    s2 = solve(LinearSystem(w, tuple(rows2)))
    both = intersect(s1, s2)
    expect = brute_members(w, rows1 + rows2)
    if not expect:
        assert both.is_empty
    else:
        assert members(both) == expect


@given(systems, systems)
def test_intersect_commutes(c1, c2):
    w = max(c1[0], c2[0])
    s1 = solve(LinearSystem(w, tuple(c1[1])))
    s2 = solve(LinearSystem(w, tuple(c2[1])))
    assert intersect(s1, s2) == intersect(s2, s1)


@given(systems)
def test_intersect_idempotent(case):
    w, rows = case
    s = solve(LinearSystem(w, tuple(rows)))
    assert intersect(s, s) == s


@given(systems, systems, systems)
def test_intersect_associative(c1, c2, c3):
    w = max(c1[0], c2[0], c3[0])
    s1, s2, s3 = (solve(LinearSystem(w, tuple(c[1]))) for c in (c1, c2, c3))
    assert intersect(intersect(s1, s2), s3) == intersect(s1, intersect(s2, s3))


@given(systems)
def test_eliminator_row_by_row_matches_solve(case):
    """After every absorbed row the running solution is that of the prefix."""
    width, rows = case
    e = Eliminator(width)
    for k, (w, c) in enumerate(rows, 1):
        e.absorb(w, c)
        s = e.solution()
        assert s == solve(LinearSystem(width, tuple(rows[:k])))
        expect = brute_members(width, rows[:k])
        assert e.consistent == bool(expect)
        if expect:
            assert members(s) == expect
            assert e.rank + len(s.basis) == width


@given(systems)
def test_constraints_roundtrip(case):
    """Re-solving the emitted constraints reproduces the same set."""
    w, rows = case
    s = solve(LinearSystem(w, tuple(rows)))
    again = solve(constraints_of(s))
    assert again == s


@given(systems)
def test_canonical_form_invariants(case):
    w, rows = case
    s = solve(LinearSystem(w, tuple(rows)))
    if s.is_empty:
        assert s.offset == 0 and s.basis == ()
        return
    assert list(s.basis) == sorted(s.basis, reverse=True)
    pivots = [b.bit_length() - 1 for b in s.basis]
    assert len(set(pivots)) == len(pivots)
    for b, p in zip(s.basis, pivots):
        assert (s.offset >> p) & 1 == 0
        for other in s.basis:
            if other != b:
                assert (other >> p) & 1 == 0


@given(st.integers(1, 8), st.data())
def test_constancy_membership(width, data):
    samples = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=10))
    s, pivot = constancy_set(width, samples)
    for x in range(1 << width):
        const = len({parity(x & w) for w in samples}) == 1
        assert contains(s, x) == const


def test_point_and_full_constructors():
    p = AffineSolutionSet(4, False, 0b1010, ())
    assert members(p) == [0b1010]
    f = Eliminator(2).solution()
    assert members(f) == [0, 1, 2, 3]
    e = AffineSolutionSet.empty(5)
    assert e.is_trivial and e.is_empty
