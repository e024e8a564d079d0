"""Byte-identical reports rest on numpy's streams staying as they are: the
SeedSequence hash of a key and the bounded integer draws.  numpy promises no
stream compatibility across versions, so a few raw values are pinned here; a
numpy that changes a stream fails this named test first."""

import numpy as np

from bvattack.rng import seeded_rng


def test_seed_sequence_state_is_pinned():
    state = np.random.SeedSequence(entropy=[7, 1]).generate_state(4)
    assert state.tolist() == [369571992, 1544939151, 3514839603, 1195211032]


def test_bounded_draws_are_pinned():
    u16, u32, u40 = (seeded_rng(7).integers(0, 1 << bits, size=4, dtype=np.int64)
                     for bits in (16, 32, 40))
    assert u16.tolist() == [61925, 40966, 44838, 58799]
    assert u32.tolist() == [4058335883, 2684764585, 2938530453, 3853503932]
    assert u40.tolist() == [687299734001, 986497006767, 852875435924, 247617924053]
    # a power-of-two range below 2^32 keeps the top bits of one 32-bit draw,
    # which the sampler's block draws rely on
    assert u16.tolist() == (u32 >> 16).tolist()
    assert int(seeded_rng(7, 1).integers(0, 1 << 16)) == 57033
