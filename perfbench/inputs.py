"""Seeded inputs: the relabeling permutations the workloads apply.

Pure Python, independent of a6k3, so that the same seed gives the same
inputs whatever the program under test does.
"""

from __future__ import annotations

import random


def relabelings(workload: str, seed: int, degrees):
    """Endless stream of point relabelings, as image lists.

    The i-th permutation acts on `degrees[i % len(degrees)]` points, matching
    the round-robin order in which the workload takes its groups.
    """
    rng = random.Random(f"{workload}:{seed}")
    while True:
        for degree in degrees:
            images = list(range(degree))
            rng.shuffle(images)
            yield images
