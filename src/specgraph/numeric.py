"""Floating-point spectra with exact integer eigenvalues, plus spectral counting.

Eigenvalues come from ``np.linalg.eigvalsh``; the ones that are integers
are confirmed on the integer characteristic polynomial and printed exactly.

Integer and Fraction thresholds in the eigenvalue-counting operations are
counted exactly on the integer characteristic polynomial (Descartes' rule of
signs, exact because an adjacency charpoly is real-rooted), because the
structural arguments count eigenvalues relative to -1 and 0 and must not
depend on numeric error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import ParameterError
from .exact import ClosedFormSpectrum, charpoly
from .graphs import Graph, induced_subgraph
from .polynomials import real_rooted_counts

CLUSTER_TOL = 1e-7
SNAP_TOL = 1e-9


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
    """Spectrum of the adjacency matrix, descending, with integer eigenvalues exact.

    ``np.linalg.eigvalsh`` gives the values.  For each integer c within 1e-9
    of some value, the charpoly's exact multiplicity of c (Descartes' rule of
    signs) says how many of them are c: that many of the nearest values
    become ``float(c)``.  LAPACK's backward stability puts every copy of c
    within about 1e-12, so none is missed, and integer eigenvalues print the
    same under any labelling.  Order cap: that of ``charpoly``.
    """
    poly = charpoly(g)
    values = np.linalg.eigvalsh(np.array(g.adjacency_rows(), dtype=float)).tolist()
    near: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        if abs(v - round(v)) <= SNAP_TOL:
            near.setdefault(round(v), []).append(i)
    for c, idx in near.items():
        _, at = real_rooted_counts(poly, c)
        for i in sorted(idx, key=lambda i: abs(values[i] - c))[:at]:
            values[i] = float(c)
    return NumericSpectrum(tuple(sorted(values, reverse=True)))


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
