"""Right Hurwitz actions of braid words on n-tuples of group elements.

Three coefficient systems are supported: the free group on t_1..t_n, the
universal Coxeter group on involutive s_1..s_n, and a user-supplied finite
permutation realization.  A positive step at position j replaces
(e_j, e_{j+1}) by (e_j e_{j+1} e_j^-1, e_j) in every group; the negative
step is the inverse move.
Applying a braid word means applying its letters left to right, which makes
the whole thing a right action on tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .braid import ArtinWord, FreeWord, Permutation
from .coxword import CoxWord

__all__ = [
    "GroupContext",
    "GroupTuple",
    "hurwitz_step",
    "hurwitz_apply",
    "stabilizes",
]

Entry = Union[FreeWord, CoxWord, Permutation]

FREE = "free"
COXETER = "coxeter"
PERMUTATION = "perm"


@dataclass(frozen=True)
class GroupContext:
    """Which group the tuple entries live in.

    For permutation realizations the context carries the degree and the n
    designated permutations (the defining tuple of the realization); for
    Coxeter-style checks those should be involutions, which `permutations`
    enforces unless `involutive=False` is passed.
    """

    kind: str
    n: int
    degree: int | None = None
    images: tuple[Permutation, ...] | None = None

    @staticmethod
    def free(n: int) -> GroupContext:
        return GroupContext(FREE, n)

    @staticmethod
    def coxeter(n: int) -> GroupContext:
        return GroupContext(COXETER, n)

    @staticmethod
    def permutations(
        images: tuple[Permutation, ...], degree: int, involutive: bool = True
    ) -> GroupContext:
        for p in images:
            if p.degree != degree:
                raise ValueError(f"permutation degree {p.degree} != {degree}")
            if involutive and not p.is_involution():
                raise ValueError(f"realization image {p.cycle_string()} is not an involution")
        return GroupContext(PERMUTATION, len(images), degree, tuple(images))

    def defining_tuple(self) -> GroupTuple:
        """(t_1..t_n), (s_1..s_n), or the designated permutations."""
        if self.kind == FREE:
            entries: tuple[Entry, ...] = tuple(
                FreeWord.generator(i) for i in range(1, self.n + 1)
            )
        elif self.kind == COXETER:
            entries = tuple(CoxWord.single(i) for i in range(1, self.n + 1))
        elif self.kind == PERMUTATION:
            assert self.images is not None
            entries = self.images
        else:
            raise ValueError(f"unknown context kind {self.kind!r}")
        return GroupTuple(self, entries)


@dataclass(frozen=True)
class GroupTuple:
    context: GroupContext
    entries: tuple[Entry, ...]

    def __post_init__(self):
        if len(self.entries) != self.context.n:
            raise ValueError(
                f"tuple length {len(self.entries)} != context size {self.context.n}"
            )


def _conjugate(a: Entry, b: Entry) -> Entry:
    """a b a^-1."""
    if isinstance(a, Permutation):
        return a.after(b).after(a.inverse())
    return a * b * a.inverse()


def hurwitz_step(tup: GroupTuple, j: int, sign: int) -> GroupTuple:
    """One elementary twist at position j (1 <= j <= n-1)."""
    n = tup.context.n
    if not 1 <= j <= n - 1:
        raise IndexError(f"position {j} outside 1..{n - 1}")
    entries = list(tup.entries)
    a, b = entries[j - 1], entries[j]
    if sign > 0:
        entries[j - 1] = _conjugate(a, b)
        entries[j] = a
    else:
        entries[j - 1] = b
        entries[j] = _conjugate(b.inverse(), a)
    return GroupTuple(tup.context, tuple(entries))


def hurwitz_apply(tup: GroupTuple, w: ArtinWord) -> GroupTuple:
    """Apply a braid word letter by letter; a right action on tuples."""
    if w.n != tup.context.n:
        raise ValueError("braid word and tuple live on different strand counts")
    for k, sign in w.letters:
        tup = hurwitz_step(tup, k, sign)
    return tup


def stabilizes(tup: GroupTuple, w: ArtinWord) -> bool:
    """Whether the tuple returns to itself entrywise under the word."""
    return hurwitz_apply(tup, w).entries == tup.entries
