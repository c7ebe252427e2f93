"""Linear moment systems for group-level parameters.

A group parameter theta is defined implicitly by E[h1(D) - h2(D) theta] = 0,
where h1 maps a unit's data to a k-vector and h2 to a k x k matrix. This module
holds the per-unit containers, the builders for the two concrete designs used
throughout (a difference regression with a binary event, and its instrumented
variant), and the solver that turns averaged moments into theta.

Conventions fixed here and relied on everywhere else:

* theta is ordered (intercept, effect).
* averages are computed by left-to-right summation in storage order, so that
  recomputing them from an exported file reproduces them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence

import numpy as np

from .exceptions import EmptyGroupError, InvalidInputError

DEFAULT_RANK_TOL = 1e-10


def _require_finite(name: str, value: np.ndarray | float) -> None:
    if not np.all(np.isfinite(value)):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")


def as_columns(x) -> np.ndarray:
    """``x`` as a float array, a vector taken as one column."""
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def block_means(values, n) -> np.ndarray:
    """Means over consecutive blocks of sizes ``n`` along axis 0.

    Each block is summed left to right in storage order (np.add.reduceat;
    plain .sum() may pairwise), so averaging the same rows again, from any
    source, reproduces the means bit for bit. Every block must be nonempty.
    """
    n = np.asarray(n)
    starts = np.concatenate([[0], np.cumsum(n)[:-1]]).astype(int)
    sums = np.add.reduceat(values, starts, axis=0)
    return sums / n.reshape(n.shape + (1,) * (sums.ndim - 1))


def _compensated_mean(values: np.ndarray) -> np.ndarray:
    """Neumaier-compensated mean over axis 0, still left to right."""
    total = np.zeros(values.shape[1:])
    carry = np.zeros(values.shape[1:])
    for row in values:
        t = total + row
        # compensate with whichever operand dominated the rounding
        carry = carry + np.where(
            np.abs(total) >= np.abs(row), (total - t) + row, (row - t) + total
        )
        total = t
    return (total + carry) / values.shape[0]


@dataclass(frozen=True)
class UnitMoment:
    """Moment contribution of a single unit.

    Parameters
    ----------
    h1 : ndarray, shape (k,)
        Constant part of the moment, in units of the outcome equation.
    h2 : ndarray, shape (k, k)
        Coefficient of theta; an outer product for regression designs, a
        cross product of instruments and regressors for IV designs.
    """

    h1: np.ndarray
    h2: np.ndarray

    def __post_init__(self) -> None:
        h1 = np.asarray(self.h1, dtype=float)
        h2 = np.asarray(self.h2, dtype=float)
        if h1.ndim != 1:
            raise InvalidInputError(f"h1 must be a vector, got shape {h1.shape}")
        k = h1.shape[0]
        if k < 1:
            raise InvalidInputError("moment dimension k must be at least 1")
        if h2.shape != (k, k):
            raise InvalidInputError(
                f"h2 must be {k}x{k} to match h1, got shape {h2.shape}"
            )
        _require_finite("h1", h1)
        _require_finite("h2", h2)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)

    @property
    def k(self) -> int:
        return self.h1.shape[0]


@dataclass(frozen=True)
class GroupSample:
    """All unit moments of one group, stored as stacked arrays.

    ``h1s`` has shape (n_g, k) and ``h2s`` shape (n_g, k, k); row i is unit i
    in observation order. Construct from :class:`UnitMoment` objects via
    :meth:`from_units` or pass the arrays directly.
    """

    group_id: str
    h1s: np.ndarray
    h2s: np.ndarray

    def __post_init__(self) -> None:
        h1s = np.asarray(self.h1s, dtype=float)
        h2s = np.asarray(self.h2s, dtype=float)
        if h1s.ndim != 2 or h2s.ndim != 3:
            raise InvalidInputError("h1s must be (n, k) and h2s (n, k, k)")
        n, k = h1s.shape
        if h2s.shape != (n, k, k):
            raise InvalidInputError(
                f"h2s shape {h2s.shape} inconsistent with h1s shape {h1s.shape}"
            )
        if n < 1:
            raise EmptyGroupError(f"group {self.group_id!r} has no units")
        _require_finite("h1s", h1s)
        _require_finite("h2s", h2s)
        object.__setattr__(self, "h1s", h1s)
        object.__setattr__(self, "h2s", h2s)

    @classmethod
    def from_units(cls, group_id: str, units: Iterable[UnitMoment]) -> "GroupSample":
        units = list(units)
        if not units:
            raise EmptyGroupError(f"group {group_id!r} has no units")
        k = units[0].k
        for u in units:
            if u.k != k:
                raise InvalidInputError(
                    f"group {group_id!r} mixes moment dimensions {k} and {u.k}"
                )
        return cls(
            group_id=str(group_id),
            h1s=np.stack([u.h1 for u in units]),
            h2s=np.stack([u.h2 for u in units]),
        )

    @property
    def n_g(self) -> int:
        return self.h1s.shape[0]

    @property
    def k(self) -> int:
        return self.h1s.shape[1]

    @property
    def units(self) -> list[UnitMoment]:
        return [UnitMoment(self.h1s[i], self.h2s[i]) for i in range(self.n_g)]


@dataclass(frozen=True)
class MomentAverages:
    """Within-group arithmetic means of the unit moments."""

    H1: np.ndarray
    H2: np.ndarray

    @property
    def k(self) -> int:
        return self.H1.shape[0]


def moment_layout(dy, e, z=None, reduce=None) -> tuple[np.ndarray, np.ndarray]:
    """Unit moments of the difference regression and its instrumented variant.

    Instruments (1, z) are crossed with regressors (1, e), so a unit
    contributes h1 = (dy, z dy) and h2 = [[1, e], [z, z e]]; the difference
    design is the case z = e, and e and z may be any finite reals. Inputs
    broadcast: scalars give one unit, equal-length columns a stack of units.

    ``reduce``, when given, maps each unit-level column to group-level values
    (for example within-group means) as soon as the column is formed, so that
    averaging many units holds one product column at a time and never a
    per-unit stack. The constant entry is set to exactly 1, the mean of a
    constant. Returns (h1, h2) with shapes (..., 2) and (..., 2, 2).
    """
    if z is None:
        z = e
    if reduce is None:
        reduce = np.asarray
    m_y = reduce(dy)
    h1 = np.empty(np.shape(m_y) + (2,))
    h2 = np.empty(np.shape(m_y) + (2, 2))
    h1[..., 0] = m_y
    h1[..., 1] = reduce(z * dy)
    h2[..., 0, 0] = 1.0
    h2[..., 0, 1] = reduce(e)
    h2[..., 1, 0] = reduce(z)
    h2[..., 1, 1] = reduce(z * e)
    return h1, h2


def group_averages(n, dy, e, z=None) -> tuple[np.ndarray, np.ndarray]:
    """Group means of the unit moments over consecutive blocks of sizes ``n``."""
    return moment_layout(dy, e, z, reduce=partial(block_means, n=n))


def group_samples(ids: Sequence[str], n, dy, e, z=None) -> list[GroupSample]:
    """Per-group samples from unit columns stored in consecutive blocks of sizes ``n``.

    The unit moments are laid out once over the whole columns and then split
    at the block boundaries.
    """
    h1, h2 = moment_layout(dy, e, z)
    cuts = np.cumsum(n)[:-1]
    return [
        GroupSample(group_id=gid, h1s=a, h2s=b)
        for gid, a, b in zip(ids, np.split(h1, cuts), np.split(h2, cuts))
    ]


def build_did_unit(delta_y: float, e: float) -> UnitMoment:
    """Moment contribution of one unit in the difference regression.

    The unit's outcome change ``delta_y`` is regressed on a constant and the
    event ``e``; theta is (intercept, effect).
    """
    return build_iv_unit(delta_y, e, e)


def build_iv_unit(delta_y: float, e: float, z: float) -> UnitMoment:
    """Moment contribution of one unit in the instrumented difference regression.

    Instruments (1, z) are crossed with regressors (1, e); theta remains
    (intercept, effect) and h2 is generally asymmetric. With z identical to e
    this reduces exactly to :func:`build_did_unit`.
    """
    _require_finite("delta_y", delta_y)
    _require_finite("e", e)
    _require_finite("z", z)
    return UnitMoment(*moment_layout(float(delta_y), float(e), float(z)))


def average_moments(sample: GroupSample, compensated: bool = False) -> MomentAverages:
    """Exact arithmetic means of a group's unit moments.

    Summation is left-to-right in storage order, making the result
    deterministic for a given unit ordering (and reproducible after an
    export/ingest round trip). Reordering units moves the result only at the
    floating-point reassociation level. ``compensated`` switches to Kahan
    accumulation for last-bit accuracy on badly scaled data; it is off by
    default so that golden values stay stable.
    """
    if sample.n_g < 1:
        raise EmptyGroupError(f"group {sample.group_id!r} has no units")
    if compensated:
        return MomentAverages(
            H1=_compensated_mean(sample.h1s), H2=_compensated_mean(sample.h2s)
        )
    H1, H2 = stack_averages([sample])
    return MomentAverages(H1=H1[0], H2=H2[0])


def stack_averages(samples: Sequence[GroupSample]) -> tuple[np.ndarray, np.ndarray]:
    """Within-group averages of several samples, stacked to (G, k) and (G, k, k)."""
    n = [s.n_g for s in samples]
    return (
        block_means(np.concatenate([s.h1s for s in samples]), n),
        block_means(np.concatenate([s.h2s for s in samples]), n),
    )


def nonsingular(H2: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Which of the (..., k, k) matrices count as invertible.

    A matrix is singular when its smallest singular value does not exceed
    ``rank_tol`` times its largest (the finite-precision stand-in for the
    population invertibility event). A ``rank_tol`` of zero demands a strictly
    positive smallest singular value.
    """
    if rank_tol < 0:
        raise InvalidInputError(f"rank_tol must be nonnegative, got {rank_tol}")
    svals = np.linalg.svd(np.asarray(H2, dtype=float), compute_uv=False)
    return svals[..., -1] > rank_tol * svals[..., 0]


def design_singular(A: np.ndarray, X: np.ndarray, rank_tol: float) -> bool:
    """Rank test of a moment matrix A built from regressor rows X.

    Rows and columns of A are divided by the root mean square of the matching
    column of X first, so the decision does not depend on the units of the
    columns, and exact collinearity stays exact. A zero column is singular.
    """
    rms = np.sqrt(np.mean(X * X, axis=0))
    if np.any(rms == 0.0):
        return True
    return not nonsingular(A / np.outer(rms, rms), rank_tol)


def solve_theta(
    avgs: MomentAverages, rank_tol: float = DEFAULT_RANK_TOL
) -> Optional[np.ndarray]:
    """Solve H2 theta = H1 for theta, or report a singular system.

    Returns None when :func:`nonsingular` rejects H2; callers map None to
    omega = 0.
    """
    H1 = np.asarray(avgs.H1, dtype=float)
    H2 = np.asarray(avgs.H2, dtype=float)
    _require_finite("H1", H1)
    _require_finite("H2", H2)
    if not nonsingular(H2, rank_tol):
        return None
    return np.linalg.solve(H2, H1)
