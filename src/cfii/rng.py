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
    path element must be integral values >= 0: 3, np.int64(3) and 3.0 name
    the same stream, and 1.5 is refused rather than truncated.
    """
    # Philox keys itself with the sequence's generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=require_integral(seed, "seed"),
        spawn_key=tuple(require_integral(p, "path element") for p in path))))


def require_integral(value, name: str, lo: int = 0,
                     hi: int | None = None) -> int:
    """The count `value` as an int when it is an integral value (an int, a
    numpy integer or an integral float) in [lo, hi], hi None meaning
    2**63 - 1, the largest int64; ValueError naming `name` otherwise."""
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{name} must be an integral value, got {value!r}")
    top = 2 ** 63 - 1 if hi is None else hi
    if not lo <= value <= top:
        bounds = (f"be >= {lo}" if hi is None and value < lo
                  else f"lie in [{lo}, {top}]")
        raise ValueError(f"{name} must {bounds}, got {int(value)}")
    return int(value)


def require_real(value, name: str, lo: float = -np.inf, hi: float = np.inf,
                 bounds: str = "[]"):
    """`value` as a float, or an array of them as a float array, when each
    entry is a finite real number between lo and hi, each end closed ("["
    or "]") or open ("(" or ")") as `bounds` marks it; ValueError naming
    `name` and the first bad entry otherwise.  An infinite end is open."""
    if type(value) is float and (lo < value < hi or (value - value == 0.0 and (
            value == lo and bounds[0] == "[" or value == hi and bounds[1] == "]"))):
        return value  # the scalar fast path: NaN and inf fail both tests
    values = np.asarray(value)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be a real value, got {value!r}")
    values = values.astype(float, copy=False)
    ok = np.isfinite(values)
    if lo > -np.inf:
        ok &= values > lo if bounds[0] == "(" else values >= lo
    if hi < np.inf:
        ok &= values < hi if bounds[1] == ")" else values <= hi
    if not ok.all():
        ends = "(" if lo == -np.inf else bounds[0], ")" if hi == np.inf else bounds[1]
        raise ValueError(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, "
                         f"got {values[~ok][0]}")
    return values if values.ndim else float(values)
