"""The package-wide PRNG contract.

Every random choice flows from numpy's PCG64 generator, seeded explicitly.
A Monte Carlo trial with seed ``s`` draws its data from stream ``(s, 0)``
and its audit sampling from stream ``(s, 1)``, so two audit methods run on
the same trial see identical data and identical draw randomness, and a
trial's results depend on its seed alone, not on the trial count or the
order trials run in.  Golden tests pin this generator; do not substitute
platform defaults.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Seed = int | Sequence[int]


def make_rng(seed: Seed) -> np.random.Generator:
    """PCG64 generator from an integer seed or an entropy tuple.

    Tuples name derived streams, e.g. (trial_seed, 0) for data generation
    and (trial_seed, 1) for audit sampling.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
