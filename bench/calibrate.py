"""A fixed reference job that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth or more over minutes, longer than any run. Wall times of two runs made
minutes apart therefore differ by more than a change to the program would.
The reference job below is run after every op. Its time tracks the machine's
speed: its adjacent runs bracket the op, and the op's wall time is scaled by
``REFERENCE_S`` over their mean. The scaled times are seconds at the
reference speed, the speed at which the job takes ``REFERENCE_S``.

The job belongs to the benchmark, not to groupfx, so a change to the program
cannot change it. Its three parts mirror the kinds of work the ops do: large
array draws with per-group sums (the DGP), batched small solves (the fits),
and CSV text written and parsed row by row in Python (export and ingest).
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# median time of one reference job on a 2 vCPU Intel Xeon, numpy 2.4
REFERENCE_S = 0.08

_GROUPS = 2_000
_UNITS = 200


def _draws(rng) -> float:
    n = np.full(_GROUPS, _UNITS)
    gi = np.repeat(np.arange(_GROUPS), n)
    x = rng.standard_normal(gi.size)
    p = 1.0 / (1.0 + np.exp(-(0.5 * x + 0.1 * gi / _GROUPS)))
    d = rng.random(gi.size) < p
    y = x + d * rng.standard_normal(gi.size)
    return float(np.bincount(gi, weights=y).sum() + np.bincount(gi, weights=d).sum())


def _solves(rng) -> float:
    a = rng.standard_normal((_GROUPS, 3, 3))
    a = a @ a.transpose(0, 2, 1) + 3.0 * np.eye(3)
    b = rng.standard_normal((_GROUPS, 3))
    total = 0.0
    for _ in range(10):
        s = np.linalg.solve(a, b[..., None])[..., 0]
        total += float(np.einsum("gkl,gl->g", a, s).sum())
    return total


def _csv_text(rng) -> float:
    vals = rng.standard_normal((3_000, 3)).tolist()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["group", "a", "b", "c"])
    for i, row in enumerate(vals):
        writer.writerow([f"g{i % 997}"] + [repr(v) for v in row])
    buf.seek(0)
    sums: dict = {}
    for row in csv.DictReader(buf):
        sums[row["group"]] = sums.get(row["group"], 0.0) + float(row["a"]) + float(row["c"])
    return sum(sums.values())


def reference_job() -> float:
    """Run the job once; return its wall time in seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240328)
    _draws(rng)
    _solves(rng)
    _csv_text(rng)
    return time.perf_counter() - start
