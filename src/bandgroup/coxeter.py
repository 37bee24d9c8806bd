"""Shared index combinatorics: band pairs, exponent matrices, partitions.

Strand indices are 1-based everywhere.  An exponent matrix ("Coxeter datum")
is a symmetric matrix of non-negative integers with zero diagonal; the entry
0 stands for "no relation", the role the symbol infinity plays in most of
the Coxeter-group literature.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator


class ScopeError(ValueError):
    """An input matrix falls outside the scope a verification family supports."""


@dataclass(frozen=True, order=True)
class BandPair:
    """An unordered pair of strands {i, j}, stored with i < j."""

    i: int
    j: int

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ValueError(f"band pair needs 1 <= i < j, got ({self.i}, {self.j})")

    @staticmethod
    def of(a: int, b: int) -> BandPair:
        """Build a pair from two distinct indices in either order."""
        if a == b:
            raise ValueError(f"band pair needs two distinct strands, got {a} twice")
        return BandPair(min(a, b), max(a, b))

    def indices(self) -> tuple[int, int]:
        return (self.i, self.j)

    def __str__(self) -> str:
        return f"{self.i}.{self.j}"


def commutes_in_brn(tau: BandPair, sigma: BandPair) -> bool:
    """Whether the bands on tau and sigma commute in the braid group.

    True exactly when (k-i)(k-j)(l-i)(l-j) > 0 for tau = (i, j) and
    sigma = (k, l): the four indices are distinct and the two intervals are
    nested or disjoint.  Pairs sharing an index give product 0, interleaved
    pairs give a negative product.  This is also the commutation predicate
    of the right-angled presentation built on band pairs.
    """
    i, j = tau.i, tau.j
    k, l = sigma.i, sigma.j
    return (k - i) * (k - j) * (l - i) * (l - j) > 0


def crossing(tau: BandPair, sigma: BandPair) -> bool:
    """Whether two pairs on four distinct indices interleave.

    In the sorted order of the four numbers, tau's indices sit either in
    both even or both odd positions exactly when the pairs cross.  Raises
    for pairs sharing an index; callers wanting the braid commutation test
    should use commutes_in_brn instead.

    >>> crossing(BandPair(1, 3), BandPair(2, 4))
    True
    >>> crossing(BandPair(1, 4), BandPair(2, 3))
    False
    """
    if {tau.i, tau.j} & {sigma.i, sigma.j}:
        raise ValueError(f"crossing needs four distinct indices, got {tau} and {sigma}")
    return not commutes_in_brn(tau, sigma)


@dataclass(frozen=True)
class CoxeterDatum:
    """A symmetric matrix of non-negative integer exponents, zero diagonal."""

    n: int
    m: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("strand count must be at least 1")
        if len(self.m) != self.n or any(len(row) != self.n for row in self.m):
            raise ValueError(f"matrix must be {self.n}x{self.n}")
        for a in range(self.n):
            if self.m[a][a] != 0:
                raise ValueError(f"diagonal entry m[{a + 1}][{a + 1}] must be 0")
            for b in range(a + 1, self.n):
                if self.m[a][b] != self.m[b][a]:
                    raise ValueError(f"matrix not symmetric at ({a + 1}, {b + 1})")
                if self.m[a][b] < 0:
                    raise ValueError(f"negative entry at ({a + 1}, {b + 1})")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> CoxeterDatum:
        m = tuple(tuple(int(x) for x in row) for row in rows)
        return CoxeterDatum(len(m), m)

    @staticmethod
    def constant(n: int, value: int) -> CoxeterDatum:
        """The matrix with every off-diagonal entry equal to `value`."""
        rows = tuple(
            tuple(0 if a == b else value for b in range(n)) for a in range(n)
        )
        return CoxeterDatum(n, rows)

    @staticmethod
    def from_entries(n: int, entries: dict[tuple[int, int], int]) -> CoxeterDatum:
        """Build from a sparse {(i, j): m_ij} map; missing entries are 0."""
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in entries.items():
            rows[i - 1][j - 1] = v
            rows[j - 1][i - 1] = v
        return CoxeterDatum.from_rows(rows)

    def entry(self, pair: BandPair) -> int:
        return self.m[pair.i - 1][pair.j - 1]

    def entry_at(self, i: int, j: int) -> int:
        return self.m[i - 1][j - 1]

    def is_large_type(self) -> bool:
        """Every off-diagonal entry is 0 or at least 3."""
        return all(
            self.m[a][b] == 0 or self.m[a][b] >= 3
            for a in range(self.n)
            for b in range(a + 1, self.n)
        )

    def is_partition_type(self) -> bool:
        """Entries all 1 or 2, with the 1-entries forming a transitive relation."""
        try:
            matrix_to_partition(self)
        except ValueError:
            return False
        return True

    def band_pairs(self) -> list[BandPair]:
        """All pairs with a nonzero exponent, in lexicographic order."""
        return [
            BandPair(a + 1, b + 1)
            for a in range(self.n)
            for b in range(a + 1, self.n)
            if self.m[a][b] != 0
        ]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": [list(row) for row in self.m]}


@dataclass(frozen=True)
class Partition:
    """A partition of {1..n} into disjoint non-empty parts."""

    n: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for part in self.parts:
            if not part:
                raise ValueError("empty part")
            if list(part) != sorted(part):
                raise ValueError(f"part {part} not sorted")
            for x in part:
                if not 1 <= x <= self.n:
                    raise ValueError(f"element {x} outside 1..{self.n}")
                if x in seen:
                    raise ValueError(f"element {x} appears in two parts")
                seen.add(x)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise ValueError(f"elements {missing} not covered")
        if list(self.parts) != sorted(self.parts, key=lambda p: p[0]):
            raise ValueError("parts must be sorted by least element")

    @staticmethod
    def of(n: int, parts: Iterable[Iterable[int]]) -> Partition:
        sorted_parts = [tuple(sorted(p)) for p in parts]
        if any(not p for p in sorted_parts):
            raise ValueError("empty part")
        return Partition(n, tuple(sorted(sorted_parts, key=lambda p: p[0])))

    @staticmethod
    def singletons(n: int) -> Partition:
        return Partition(n, tuple((k,) for k in range(1, n + 1)))

    @staticmethod
    def single_block(n: int) -> Partition:
        return Partition(n, (tuple(range(1, n + 1)),))

    def part_of(self, x: int) -> tuple[int, ...]:
        for part in self.parts:
            if x in part:
                return part
        raise ValueError(f"{x} outside 1..{self.n}")

    def same_part(self, a: int, b: int) -> bool:
        return b in self.part_of(a)

    def induced(self) -> Partition:
        """The partition of {1..n-1} obtained by deleting the element n."""
        if self.n < 2:
            raise ValueError("cannot delete from a partition of a single element")
        parts = [tuple(x for x in part if x != self.n) for part in self.parts]
        return Partition.of(self.n - 1, [p for p in parts if p])

    def with_singleton(self) -> Partition:
        """Extend to a partition of {1..n+1} where n+1 forms its own part."""
        return Partition(self.n + 1, self.parts + ((self.n + 1,),))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "parts": [list(p) for p in self.parts]}

    def __str__(self) -> str:
        return "|".join(",".join(str(x) for x in p) for p in self.parts)


def set_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {1..n}, enumerated via restricted growth strings."""
    if n == 0:
        return
    code = [0] * n

    def rec(pos: int, top: int) -> Iterator[Partition]:
        if pos == n:
            blocks: list[list[int]] = [[] for _ in range(top + 1)]
            for idx, b in enumerate(code):
                blocks[b].append(idx + 1)
            yield Partition.of(n, blocks)
            return
        for b in range(top + 2):
            code[pos] = b
            yield from rec(pos + 1, max(top, b))

    yield from rec(1, 0)


def partition_to_matrix(p: Partition) -> CoxeterDatum:
    """Exponent 1 inside a part, 2 across parts."""
    rows = [
        [0 if a == b else (1 if p.same_part(a + 1, b + 1) else 2) for b in range(p.n)]
        for a in range(p.n)
    ]
    return CoxeterDatum.from_rows(rows)


def matrix_to_partition(m: CoxeterDatum) -> Partition:
    """Recover the partition whose classes are linked by entries equal to 1.

    Inverse of partition_to_matrix.  Rejects matrices with entries outside
    {1, 2} or whose 1-entries are not transitive, naming the witness.
    """
    n = m.n
    for a in range(n):
        for b in range(a + 1, n):
            if m.m[a][b] not in (1, 2):
                raise ValueError(
                    f"entry m[{a + 1}][{b + 1}] = {m.m[a][b]} is not 1 or 2"
                )
    for i, j, k in itertools.combinations(range(n), 3):
        trips = [(i, j, k), (j, k, i), (k, i, j)]
        for a, b, c in trips:
            if m.m[a][b] == 1 and m.m[b][c] == 1 and m.m[a][c] == 2:
                raise ValueError(
                    f"transitivity fails: m[{a + 1}][{b + 1}] = m[{b + 1}][{c + 1}] = 1 "
                    f"but m[{a + 1}][{c + 1}] = 2"
                )
    parts: list[list[int]] = []
    assigned: dict[int, int] = {}
    for x in range(1, n + 1):
        if x in assigned:
            continue
        block = [x]
        assigned[x] = len(parts)
        for y in range(x + 1, n + 1):
            if m.entry_at(x, y) == 1:
                block.append(y)
                assigned[y] = len(parts)
        parts.append(block)
    return Partition.of(n, parts)


# -- JSON file formats consumed by the command line tool ---------------------
#
# Matrix:    {"n": 3, "m": [[0, 3, 3], [3, 0, 3], [3, 3, 0]]}
# Partition: {"n": 3, "parts": [[1, 2], [3]]}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_object(text: str, what: str, key: str) -> tuple[int, list[list[int]]]:
    """Parse {"n": <int>, key: <list of integer lists>}, checking the schema."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{what} file must hold a JSON object")
    for name in ("n", key):
        if name not in data:
            raise ValueError(f"{what} file has no {name!r} key")
    if not _is_int(data["n"]):
        raise ValueError(f"{what} 'n' must be an integer, got {data['n']!r}")
    rows = data[key]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in rows
    ):
        raise ValueError(f"{what} {key!r} must be a list of integer lists")
    return data["n"], rows


def matrix_from_json(text: str) -> CoxeterDatum:
    n, rows = _load_object(text, "matrix", "m")
    datum = CoxeterDatum.from_rows(rows)
    if datum.n != n:
        raise ValueError(f"declared n={n} but matrix is {datum.n}x{datum.n}")
    return datum


def partition_from_json(text: str) -> Partition:
    n, parts = _load_object(text, "partition", "parts")
    return Partition.of(n, parts)
