"""SplitMix64 hashing: stateless, counter-based randomness.

One 64-bit mixing function serves every stream in the simulator that
must not depend on the order in which it is consumed: fault fates
(:mod:`repro.congest.faults`) hash ``(seed, round, edge, kind, index)``
and walk hops (:func:`repro.walks.batched.walk_uniforms`) hash
``(node key, draw index)``.  A draw is a pure function of its
coordinates, so the per-message and the vectorized execution paths
reach identical values however they batch the work.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GOLDEN", "MASK64", "mix64_array", "mix64_int"]

MASK64 = (1 << 64) - 1
#: SplitMix64's state increment (the 64-bit golden ratio).
GOLDEN = 0x9E3779B97F4A7C15


_INCREMENT = np.uint64(GOLDEN)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_MULTIPLIERS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer for 1-d uint64 arrays: output
    ``i`` of the generator seeded with ``s`` is
    ``mix64_array(s + i * GOLDEN)``.  Elementwise ufuncs on arrays wrap
    silently (only numpy *scalar* arithmetic warns on overflow), so no
    ``errstate`` context is needed."""
    z = values + _INCREMENT
    z = (z ^ (z >> _SHIFTS[0])) * _MULTIPLIERS[0]
    z = (z ^ (z >> _SHIFTS[1])) * _MULTIPLIERS[1]
    return z ^ (z >> _SHIFTS[2])


def mix64_int(value: int) -> int:
    """Scalar splitmix64 finalizer in pure Python ints (identical to
    :func:`mix64_array` mod 2**64, without numpy scalar overhead)."""
    z = (value + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)
