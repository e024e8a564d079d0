"""Deterministic RNG streams.

Every random draw in the package comes from a PCG64 generator seeded by an
explicit tuple of non-negative integers, so independent components (trials,
cipher pieces, per-component samplers) get independent, reproducible streams.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["seeded_rng", "flat_key"]


def flat_key(*parts) -> tuple[int, ...]:
    """Flatten ints and nested int tuples, at any depth, into one rng key tuple;
    a part that is not an integer (a float, whole or not) is refused."""
    out: list[int] = []
    for p in parts:
        if isinstance(p, (tuple, list)):
            out.extend(flat_key(*p))
        else:
            out.append(operator.index(p))
    return tuple(out)


def seeded_rng(*key) -> np.random.Generator:
    """PCG64 stream for an integer key tuple; equal keys give equal streams."""
    parts = flat_key(*key)
    if not parts:
        raise ValueError("rng key must not be empty")
    if any(k < 0 for k in parts):
        raise ValueError(f"rng key parts must be non-negative, got {key}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=list(parts))))
