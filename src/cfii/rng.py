"""Deterministic, splittable random streams.

All stochastic routines draw from a counter-based Philox generator keyed by
the user seed plus an explicit integer path, so every context, replication,
or optimizer restart gets its own independent stream.  Results are therefore
identical whether tasks run serially or in parallel, and repeated runs with
the same seed are bit-identical.

Path conventions used inside the package (first path element, then the
sub-path a caller passes on):

    1  binary-outcome sampling; `cfii certify` uses (1, j) for context j
       (0 the endpoint, 1..k the segments)
    2  classifier training/evaluation draws
    3  maximum-likelihood RMSE replications; `cfii rmse` uses (3, i) for
       grid point i
    4  witness Monte Carlo contexts: (4, 0) for the endpoint, (4, 1 + j)
       for segment j
    5  adversary restarts: (5, r) for restart r
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Return a Philox generator for the stream `(seed, *path)`.

    Distinct paths give statistically independent streams; the same
    `(seed, path)` always reproduces the same sequence.  The seed and each
    path element must be integral values: 3, np.int64(3) and 3.0 name the
    same stream, and 1.5 is refused rather than truncated.
    """
    ss = np.random.SeedSequence(
        entropy=require_integral(seed, "seed"),
        spawn_key=tuple(require_integral(p, "path element") for p in path))
    key = ss.generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def require_integral(value, name: str) -> int:
    """`value` as an int when it is an integral value (an int, a numpy
    integer or an integral float); ValueError otherwise."""
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{name} must be an integral value, got {value!r}")
    return int(value)
