"""Brute-force enumeration of small triangular matrices.

This is the ground-truth side of the oracle tests: matrices are generated
cell by cell with budget pruning and the statistics are read off the actual
arrays, with no generating functions involved.  Feasible for size <= 8 or so;
the tests compare the resulting histograms against series coefficients.

An entry of value v > 0 can be any of weight(v) indistinguishable-by-value
copies, so every enumerated value-matrix carries the product of its entry
multiplicities as a weight.  For the self-dual family mirrored cell pairs
share one copy choice and contribute their multiplicity once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .families import LambdaSpec, _check_budget, canonical_family

Matrix = Tuple[Tuple[int, ...], ...]

# The largest size enumerate_matrices searches: row-fishburn/all has 237,348
# matrices at size 8 (3.7 s, 228 MB) and 2,612,681 at size 9 (38 s, 2.7 GB).
_SIZE_CAP = 8

ORACLE_STATS = ("first_row", "diagonal", "ones", "twos", "dimension")


@dataclass(frozen=True)
class OracleMatrix:
    entries: Matrix
    weight: int = 1

    def statistic(self, stat: str) -> int:
        m = self.entries
        if stat == "first_row":
            return sum(m[0])
        if stat == "diagonal":
            return sum(m[i][i] for i in range(len(m)))
        if stat == "ones":
            return sum(row.count(1) for row in m)
        if stat == "twos":
            return sum(row.count(2) for row in m)
        if stat == "dimension":
            return len(m)
        raise ValueError(f"unknown statistic {stat!r}; expected one of {ORACLE_STATS}")


def persymmetry(matrix: Matrix) -> bool:
    """True when the matrix equals its reflection in the anti-diagonal."""
    d = len(matrix)
    return all(
        matrix[i][j] == matrix[d - 1 - j][d - 1 - i]
        for i in range(d)
        for j in range(d)
    )


def _upper_cells(dim: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _fill(dim: int, values: Tuple[int, ...], total: int) -> Iterator[List[List[int]]]:
    """All upper-triangular dim x dim matrices with positive entries drawn
    from `values`, entry sum `total`, and no all-zero row."""
    cells = _upper_cells(dim)
    mat = [[0] * dim for _ in range(dim)]

    def rows_still_empty_after(pos: int) -> int:
        # row index of cells[pos] and beyond: rows from cells[pos][0]+1 are untouched
        return dim - cells[pos][0] - 1

    def rec(pos: int, budget: int, row_has: bool) -> Iterator[List[List[int]]]:
        if pos == len(cells):
            if budget == 0:
                yield mat
            return
        i, j = cells[pos]
        last_in_row = j == dim - 1
        # minimum still needed: one per untouched row, plus this row if empty
        floor = rows_still_empty_after(pos) + (0 if row_has else 1)
        if budget < floor:
            return
        for v in (0, *values):
            if v > budget:
                break
            if v == 0 and last_in_row and not row_has:
                continue
            mat[i][j] = v
            nxt_has = (row_has or v > 0) if not last_in_row else False
            yield from rec(pos + 1, budget - v, nxt_has)
            mat[i][j] = 0

    yield from rec(0, total, False)


def _weight(mat: List[List[int]], spec: LambdaSpec) -> int:
    w = 1
    for row in mat:
        for v in row:
            if v:
                w *= spec.weight(v)
    return w


def _self_dual_weight(mat: List[List[int]], spec: LambdaSpec) -> int:
    d = len(mat)
    w = 1
    for i in range(d):
        for j in range(i, d):
            v = mat[i][j]
            if v and i + j <= d - 1:
                w *= spec.weight(v)
    return w


def enumerate_matrices(
    family: str, spec: LambdaSpec, size: int, dim: Optional[int] = None
) -> List[OracleMatrix]:
    """Every matrix of the family with the given entry sum, with weights.

    Exhaustive search, for an int size from 1 to 8 (``_SIZE_CAP``); any
    other size raises ValueError before the search.  `dim` restricts to one
    dimension; by default all dimensions 1..size are produced.
    """
    family = canonical_family(family)
    if not isinstance(size, int) or isinstance(size, bool) or not 1 <= size <= _SIZE_CAP:
        raise ValueError(f"size must be a positive int up to {_SIZE_CAP}, got {size!r}")
    values = tuple(v for v in range(1, size + 1) if spec.weight(v) > 0)
    dims = range(1, size + 1) if dim is None else (dim,)
    out: List[OracleMatrix] = []
    for d in dims:
        for mat in _fill(d, values, size):
            if family == "row-fishburn":
                out.append(OracleMatrix(tuple(map(tuple, mat)), _weight(mat, spec)))
                continue
            cols_ok = all(any(mat[i][j] for i in range(j + 1)) for j in range(d))
            if not cols_ok:
                continue
            frozen = tuple(map(tuple, mat))
            if family == "fishburn":
                out.append(OracleMatrix(frozen, _weight(mat, spec)))
            elif persymmetry(frozen):
                out.append(OracleMatrix(frozen, _self_dual_weight(mat, spec)))
    return out


def histogram(matrices: List[OracleMatrix], stat: str) -> Dict[int, int]:
    """Weighted counts keyed by statistic value (zero-count keys omitted)."""
    out: Dict[int, int] = {}
    for m in matrices:
        k = m.statistic(stat)
        out[k] = out.get(k, 0) + m.weight
    return out


def ascent_counts(n: int) -> Tuple[int, ...]:
    """The number of ascent sequences of each length 0..n, by dynamic
    programming over (ascents so far, last value); no generating function.

    An ascent sequence starts at 0 and each later value lies in
    0..1 + (ascents before it).  Its counts are the Fishburn numbers.  n is
    an int within the series budget (500), as for the series builders.
    """
    _check_budget(n)
    counts = [1]
    # rows[a][x]: sequences of the current length with a ascents ending at x
    rows = [[1]]
    for length in range(1, n + 1):
        counts.append(sum(map(sum, rows)))
        if length == n:
            break
        new = [[0] * (a + 1) for a in range(len(rows) + 1)]
        for a, row in enumerate(rows):
            total, below = sum(row), 0  # below: sequences ending below y
            for y, x in enumerate(row + [0]):  # the next value y <= a + 1
                if y <= a:
                    new[a][y] += total - below  # y <= last: no ascent
                new[a + 1][y] += below  # y > last: one more ascent
                below += x
        rows = new
    return tuple(counts)
