"""Right Hurwitz actions of braid words on n-tuples of group elements.

Three coefficient systems are supported: the free group on t_1..t_n, the
universal Coxeter group on involutive s_1..s_n, and a user-supplied finite
permutation realization.  A positive step at position j replaces
(e_j, e_{j+1}) by (e_j e_{j+1} e_j^-1, e_j) in every group; the negative
step is the inverse move.
Applying a braid word means applying its letters left to right, which makes
the whole thing a right action on tuples.  Free and Coxeter entries run on
the word kernel of `braid` (`_act`), bounded by MAX_IMAGE_LETTERS letters
per entry and letter indices up to MAX_STRANDS; permutations form a finite
group, so they are bounded already.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import _COX_TOKENS, _FREE_TOKENS, _NEG, _SELF, MAX_IMAGE_LETTERS, ArtinWord, FreeWord
from .braid import Permutation, _act, _decode, _encode, _format
from .coxword import CoxWord

__all__ = [
    "GroupContext",
    "GroupTuple",
    "hurwitz_step",
    "hurwitz_apply",
    "render_action",
    "stabilizes",
]

FREE = "free"
COXETER = "coxeter"
PERMUTATION = "perm"

# Per word context: the entry type, the letter-inversion table of the kernel
# and the text of each encoded letter.
_WORDS = {FREE: (FreeWord, _NEG, _FREE_TOKENS), COXETER: (CoxWord, _SELF, _COX_TOKENS)}


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
        if self.kind == PERMUTATION:
            assert self.images is not None
            return GroupTuple(self, self.images)
        if self.kind not in _WORDS:
            raise ValueError(f"unknown context kind {self.kind!r}")
        word_type = _WORDS[self.kind][0]
        return GroupTuple(self, tuple(word_type((i,)) for i in range(1, self.n + 1)))


@dataclass(frozen=True)
class GroupTuple:
    context: GroupContext
    entries: tuple[FreeWord | CoxWord | Permutation, ...]

    def __post_init__(self):
        if len(self.entries) != self.context.n:
            raise ValueError(
                f"tuple length {len(self.entries)} != context size {self.context.n}"
            )


def _conjugate(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The images of a b a^-1, which sends a(x) to a(b(x)), from those of a and b."""
    images = [0] * len(a)
    for ax, bx in zip(a, b):
        images[ax - 1] = a[bx - 1]
    return tuple(images)


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    images = [0] * len(a)
    for x, ax in enumerate(a, start=1):
        images[ax - 1] = x
    return tuple(images)


def _encoded(tup: GroupTuple) -> list:
    """The entries as the action takes them: words encoded, permutations as images."""
    if tup.context.kind == PERMUTATION:
        return [p.images for p in tup.entries]
    return [_encode(e.letters) for e in tup.entries]


def _act_on(tup: GroupTuple, w: ArtinWord) -> list:
    """The entries of tup acted on by w, in the form `_encoded` gives them."""
    if w.n != tup.context.n:
        raise ValueError("braid word and tuple live on different strand counts")
    entries = _encoded(tup)
    if tup.context.kind != PERMUTATION:
        neg = _WORDS[tup.context.kind][1]
        return _act(entries, w.letters, MAX_IMAGE_LETTERS, neg)
    for k, sign in w.letters:
        a, b = entries[k - 1], entries[k]
        if sign > 0:
            entries[k - 1], entries[k] = _conjugate(a, b), a
        else:
            entries[k - 1], entries[k] = b, _conjugate(_inverse(b), a)
    return entries


def hurwitz_apply(tup: GroupTuple, w: ArtinWord) -> GroupTuple:
    """Apply a braid word letter by letter; a right action on tuples."""
    entries = _act_on(tup, w)
    if tup.context.kind == PERMUTATION:
        return GroupTuple(tup.context, tuple(Permutation(x) for x in entries))
    word_type = _WORDS[tup.context.kind][0]
    return GroupTuple(tup.context, tuple(word_type(_decode(x)) for x in entries))


def hurwitz_step(tup: GroupTuple, j: int, sign: int) -> GroupTuple:
    """One elementary twist at position j (1 <= j <= n-1)."""
    n = tup.context.n
    if not 1 <= j <= n - 1:
        raise IndexError(f"position {j} outside 1..{n - 1}")
    return hurwitz_apply(tup, ArtinWord(n, ((j, sign),)))


def stabilizes(tup: GroupTuple, w: ArtinWord) -> bool:
    """Whether the tuple returns to itself entrywise under the word."""
    return _act_on(tup, w) == _encoded(tup)


def render_action(tup: GroupTuple, w: ArtinWord) -> tuple[list[str], bool]:
    """The entries of tup acted on by w as text, and whether w stabilizes tup.

    A word is its tokens (t2', s3) joined by spaces, or 1 when it is empty,
    rendered from its encoding, so an entry of millions of letters never
    becomes a tuple of integers.  A permutation is its cycle string.
    """
    entries = _act_on(tup, w)
    fixed = entries == _encoded(tup)
    if tup.context.kind == PERMUTATION:
        return [Permutation(x).cycle_string() for x in entries], fixed
    tokens = _WORDS[tup.context.kind][2]
    return [_format(x, tokens) for x in entries], fixed
