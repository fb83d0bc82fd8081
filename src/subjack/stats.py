"""Built-in statistics: a per-row feature map plus a smooth reducer.

Every statistic is the pair (phi, g): phi turns an (m, p) batch of rows into
an (m, q) feature matrix whose column means feed g, and g maps moment vectors
to the scalar of interest. g and its domain predicate broadcast over any
leading axes, with moments on the last axis. g_mean is g as the jackknife
applies it to a batch of subsample means (see Statistic.g_mean).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Statistic:
    name: str
    q: int
    columns: tuple[int, ...]
    phi: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], np.ndarray]
    # g over an (m, q) batch of subsample means, rounding each row exactly as g
    # on that row alone as a 1-d point; None means g itself. It is the single
    # home of one rounding quirk: g on a 1-d point computes on numpy scalars,
    # where x**2 is libm pow, while over an array x**2 is np.square (x * x), and
    # the two differ in the last bit for some x. Only kurt's v**2 meets it (see
    # stat_kurtosis). If g is rewritten with IEEE basic operations only (v * v),
    # the two paths agree by construction and this field can go.
    g_mean: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.g_mean is None:
            object.__setattr__(self, "g_mean", self.g)

    def validate_columns(self, col_count: int) -> None:
        for col in self.columns:
            if col >= col_count:
                raise ValueError(
                    f"statistic {self.name!r} needs column {col}, "
                    f"dataset has {col_count}"
                )


def _always(m: np.ndarray) -> np.ndarray:
    return np.ones(m.shape[:-1], dtype=bool)


def stat_mean(col: int = 0) -> Statistic:
    """Mean of one column; g is affine, so jackknife debiasing is a no-op."""

    def phi(rows):
        return np.ascontiguousarray(rows[:, col : col + 1], dtype=np.float64)

    def g(m):
        return m[..., 0]

    return Statistic(f"mean:{col}", 1, (col,), phi, g, _always)


def _phi_powers(col: int, top: int):
    def phi(rows):
        x = rows[:, col]
        out = np.empty((rows.shape[0], top), dtype=np.float64)
        out[:, 0] = x
        for j in range(1, top):
            out[:, j] = out[:, j - 1] * x
        return out

    return phi


def stat_variance(col: int = 0) -> Statistic:
    """Population-style variance m2 - m1^2 of one column."""

    def g(m):
        return m[..., 1] - m[..., 0] ** 2

    return Statistic(f"var:{col}", 2, (col,), _phi_powers(col, 2), g, _always)


def stat_sd(col: int = 0) -> Statistic:
    """Standard deviation sqrt(m2 - m1^2); defined only for positive variance."""

    def g(m):
        return np.sqrt(m[..., 1] - m[..., 0] ** 2)

    def in_domain(m):
        return m[..., 1] - m[..., 0] ** 2 > 0

    return Statistic(f"sd:{col}", 2, (col,), _phi_powers(col, 2), g, in_domain)


def stat_kurtosis(col: int = 0) -> Statistic:
    """Raw kurtosis (Gaussian = 3) from the first four moments of one column."""

    def _central(m):
        m1, m2, m3, m4 = m[..., 0], m[..., 1], m[..., 2], m[..., 3]
        v = m2 - m1**2
        mu4 = m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4
        return v, mu4

    def g(m):
        v, mu4 = _central(m)
        return mu4 / v**2

    def g_mean(m):
        # v**2 on each numpy scalar of v is libm pow, as in g on one 1-d point;
        # unlike a Python float's **, it overflows to inf instead of raising
        v, mu4 = _central(m)
        return mu4 / np.array([x**2 for x in v])

    def in_domain(m):
        v, _ = _central(m)
        return v > 0

    return Statistic(
        f"kurt:{col}", 4, (col,), _phi_powers(col, 4), g, in_domain, g_mean=g_mean
    )


def stat_correlation(col_a: int, col_b: int) -> Statistic:
    """Pearson correlation of two distinct columns via five cross moments."""
    if col_a == col_b:
        raise ValueError("columns must differ")

    def phi(rows):
        xa = rows[:, col_a]
        xb = rows[:, col_b]
        out = np.empty((rows.shape[0], 5), dtype=np.float64)
        out[:, 0] = xa
        out[:, 1] = xb
        out[:, 2] = xa * xa
        out[:, 3] = xb * xb
        out[:, 4] = xa * xb
        return out

    def _centrals(m):
        va = m[..., 2] - m[..., 0] ** 2
        vb = m[..., 3] - m[..., 1] ** 2
        cov = m[..., 4] - m[..., 0] * m[..., 1]
        return va, vb, cov

    def g(m):
        va, vb, cov = _centrals(m)
        return cov / np.sqrt(va * vb)

    def in_domain(m):
        va, vb, _ = _centrals(m)
        return (va > 0) & (vb > 0)

    return Statistic(f"corr:{col_a},{col_b}", 5, (col_a, col_b), phi, g, in_domain)


_REGISTRY: dict[str, tuple[Callable[..., Statistic], int]] = {
    "mean": (stat_mean, 1),
    "var": (stat_variance, 1),
    "sd": (stat_sd, 1),
    "kurt": (stat_kurtosis, 1),
    "corr": (stat_correlation, 2),
}

_SPEC_RE = re.compile(r"^([a-z]+)(?::(\d+(?:,\d+)*))?$")


def parse_statistic(spec: str) -> Statistic:
    """Parse 'name[:col[,col]]' (e.g. mean:0, corr:0,1) into a Statistic."""
    if not isinstance(spec, str):
        raise ValueError(f"statistic spec must be a string, got {spec!r}")
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise ValueError(f"malformed statistic spec {spec!r}")
    name, cols_text = m.groups()
    if name not in _REGISTRY:
        raise ValueError(f"unknown statistic {name!r} (choose from {sorted(_REGISTRY)})")
    builder, arity = _REGISTRY[name]
    cols = [int(c) for c in cols_text.split(",")] if cols_text else list(range(arity))
    if len(cols) != arity:
        raise ValueError(f"statistic {name!r} takes {arity} column(s), got {len(cols)}")
    return builder(*cols)
