"""Floating-point spectra via cyclic Jacobi rotations, plus spectral counting.

Integer and Fraction thresholds in the eigenvalue-counting operations are
counted exactly on the integer characteristic polynomial (Descartes' rule of
signs, exact because an adjacency charpoly is real-rooted), because the
structural arguments count eigenvalues relative to -1 and 0 and must not
depend on numeric error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import ParameterError
from .exact import ClosedFormSpectrum, charpoly
from .graphs import Graph, induced_subgraph
from .polynomials import real_rooted_counts

JACOBI_OFFDIAG_TOL = 1e-12
CLUSTER_TOL = 1e-7
_MAX_SWEEPS = 100


def jacobi_eigenvalues(matrix) -> list[float]:
    """All eigenvalues of a dense symmetric matrix, ascending.

    Cyclic Jacobi sweeps; converged when every off-diagonal magnitude drops
    below 1e-12.  Plenty accurate and robust at the orders used here (<= 64).
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ParameterError("matrix must be symmetric")
    n = a.shape[0]
    if n == 1:
        return [float(a[0, 0])]
    for _ in range(_MAX_SWEEPS):
        off = np.max(np.abs(a - np.diag(np.diag(a))))
        if off < JACOBI_OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < JACOBI_OFFDIAG_TOL:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.hypot(1.0, theta))
                if theta < 0:
                    t = -t
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise ArithmeticError("Jacobi iteration failed to converge")
    return sorted(float(x) for x in np.diag(a))


@dataclass(frozen=True)
class NumericSpectrum:
    """Eigenvalues sorted descending, with a clustering tolerance for multiplicities."""

    values: tuple[float, ...]
    tolerance: float = CLUSTER_TOL

    @property
    def order(self) -> int:
        return len(self.values)

    def clustered(self) -> tuple[tuple[float, int], ...]:
        """Multiset view: (representative value, multiplicity), descending."""
        out: list[tuple[float, int]] = []
        group: list[float] = []
        for v in self.values:
            if group and abs(group[-1] - v) > self.tolerance:
                out.append((sum(group) / len(group), len(group)))
                group = []
            group.append(v)
        if group:
            out.append((sum(group) / len(group), len(group)))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "values": list(self.values),
            "clustered": [[v, m] for v, m in self.clustered()],
        }


def eigenvalues(g: Graph) -> NumericSpectrum:
    """Spectrum of the adjacency matrix, descending."""
    vals = jacobi_eigenvalues(g.adjacency_rows())
    return NumericSpectrum(tuple(sorted(vals, reverse=True)))


def closed_walk_count(g: Graph, k: int) -> int:
    """trace(A^k): closed walks of length k, exact integer arithmetic."""
    if k < 1:
        raise ParameterError("walk length must be >= 1")
    n = g.order
    rows = g.adjacency_rows()
    power = rows
    for _ in range(k - 1):
        power = [[sum(power[i][l] * rows[l][j] for l in range(n)) for j in range(n)]
                 for i in range(n)]
    return sum(power[i][i] for i in range(n))


Threshold = Union[int, float, Fraction]


def count_leq(g: Graph, a: Threshold) -> int:
    """Eigenvalues of g that are <= a; exact when a is an integer or Fraction."""
    if isinstance(a, (int, Fraction)) and not isinstance(a, bool):
        above, _ = real_rooted_counts(charpoly(g), a)
        return g.order - above
    return sum(1 for v in eigenvalues(g).values if v <= a)


def count_geq(g: Graph, a: Threshold) -> int:
    """Eigenvalues of g that are >= a; exact when a is an integer or Fraction."""
    if isinstance(a, (int, Fraction)) and not isinstance(a, bool):
        above, at = real_rooted_counts(charpoly(g), a)
        return above + at
    return sum(1 for v in eigenvalues(g).values if v >= a)


def verify_interlacing(g: Graph, subset: Iterable[int], tol: float = 1e-8) -> bool:
    """Check the interlacing inequalities between g and its induced subgraph.

    With full eigenvalues l_1 >= ... >= l_n and subgraph eigenvalues
    m_1 >= ... >= m_k: l_{n-k+i} - tol <= m_i <= l_i + tol for every i.
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
        full[n - k + i] - tol <= sub[i] <= full[i] + tol
        for i in range(k)
    )


def match_closed_form(g: Graph, cf: ClosedFormSpectrum, tol: float = 1e-8) -> bool:
    """True iff the closed form's values match the numeric spectrum elementwise."""
    if cf.order != g.order:
        raise ParameterError(
            f"closed form has {cf.order} eigenvalues, graph has order {g.order}")
    expected = cf.values_float()
    actual = sorted(eigenvalues(g).values)
    return all(abs(e - a) <= tol for e, a in zip(expected, actual))
