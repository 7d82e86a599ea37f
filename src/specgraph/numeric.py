"""Floating-point spectra with exact integer eigenvalues, plus spectral counting.

Eigenvalues come from ``np.linalg.eigvalsh``; the ones that are integers
are confirmed on the integer characteristic polynomial and printed exactly.

The eigenvalue-counting operations count every finite threshold exactly on
the integer characteristic polynomial (Descartes' rule of signs, exact
because an adjacency charpoly is real-rooted), a float at its exact dyadic
value, because the structural arguments count eigenvalues relative to -1 and
0 and must not depend on numeric error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import ParameterError
from .exact import charpoly
from .graphs import Graph, adjacency_tensor, induced_subgraph
from .polynomials import real_rooted_counts

CLUSTER_TOL = 1e-7
SNAP_TOL = 1e-9
INTERLACING_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class NumericSpectrum:
    """Eigenvalues sorted descending; `clustered` groups them within CLUSTER_TOL."""

    values: tuple[float, ...]

    def clustered(self) -> tuple[tuple[float, int], ...]:
        """Multiset view: (representative value, multiplicity), descending."""
        out: list[tuple[float, int]] = []
        group: list[float] = []
        for v in self.values:
            if group and abs(group[-1] - v) > CLUSTER_TOL:
                out.append((sum(group) / len(group), len(group)))
                group = []
            group.append(v)
        if group:
            out.append((sum(group) / len(group), len(group)))
        return tuple(out)


def eigenvalues(g: Graph) -> NumericSpectrum:
    """Spectrum of the adjacency matrix, descending, with integer eigenvalues exact.

    ``np.linalg.eigvalsh`` gives the values.  For each integer c within 1e-9
    of some value, the charpoly's exact multiplicity of c (Descartes' rule of
    signs) says how many of them are c: that many of the nearest values
    become ``float(c)``.  LAPACK's backward stability puts every copy of c
    within about 1e-12, so none is missed, and integer eigenvalues print the
    same under any labelling.  Order cap: that of ``charpoly``.
    """
    poly = charpoly(g)
    values = np.linalg.eigvalsh(adjacency_tensor(g.order, [g.bits])[0]).tolist()
    near: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        if abs(v - round(v)) <= SNAP_TOL:
            near.setdefault(round(v), []).append(i)
    for c, idx in near.items():
        _, at = real_rooted_counts(poly.coeffs, c)
        for i in sorted(idx, key=lambda i: abs(values[i] - c))[:at]:
            values[i] = float(c)
    return NumericSpectrum(tuple(sorted(values, reverse=True)))


Threshold = Union[int, float, Fraction]


def _counts(g: Graph, a: Threshold) -> tuple[int, int]:
    """(eigenvalues of g above a, multiplicity of a), exact at every finite
    threshold: a float is a dyadic rational, and Fraction(a) is its value."""
    if (isinstance(a, bool) or not isinstance(a, (int, float, Fraction))
            or isinstance(a, float) and not math.isfinite(a)):
        raise ParameterError(f"a threshold must be a finite int, float or Fraction, got {a!r}")
    return real_rooted_counts(charpoly(g).coeffs, Fraction(a) if isinstance(a, float) else a)


def count_leq(g: Graph, a: Threshold) -> int:
    """Eigenvalues of g that are <= a, counted exactly."""
    above, _ = _counts(g, a)
    return g.order - above


def count_geq(g: Graph, a: Threshold) -> int:
    """Eigenvalues of g that are >= a, counted exactly."""
    above, at = _counts(g, a)
    return above + at


def verify_interlacing(g: Graph, subset: Iterable[int]) -> bool:
    """Check the interlacing inequalities between g and its induced subgraph.

    With full eigenvalues l_1 >= ... >= l_n and subgraph eigenvalues
    m_1 >= ... >= m_k: l_{n-k+i} - tol <= m_i <= l_i + tol for every i,
    where tol is INTERLACING_TOL.
    """
    vs = sorted(set(subset))
    if not vs:
        raise ParameterError("subset must be nonempty")
    if vs[0] < 0 or vs[-1] >= g.order:
        raise ParameterError("subset indices out of range")
    full = eigenvalues(g).values
    sub = eigenvalues(induced_subgraph(g, vs)).values
    n, k = len(full), len(sub)
    return all(
        full[n - k + i] - INTERLACING_TOL <= sub[i] <= full[i] + INTERLACING_TOL
        for i in range(k)
    )

