"""Deterministic seed fan-out.

Every random stream in an experiment is derived from one master seed and a
fixed stream tag (plus optional extra path components such as client id and
round index) through numpy's SeedSequence hash. Two runs with equal master
seeds therefore reproduce each other exactly, and no stream can collide
with another.
"""

from __future__ import annotations

import numpy as np

STREAM_PARTITION = 1
STREAM_INIT = 2
STREAM_DELAY = 3
STREAM_TRAIN = 5
STREAM_DATA = 6
STREAM_HOLDOUT = 7
STREAM_FLIP = 8


def child_seed(master: int, *path: int) -> int:
    """Hash (master, *path) into one 32-bit seed via np.random.SeedSequence."""
    seq = np.random.SeedSequence([int(master), *(int(p) for p in path)])
    return int(seq.generate_state(1)[0])
