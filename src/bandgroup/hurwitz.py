"""Right Hurwitz actions of braid words on n-tuples of group elements.

Three coefficient systems are supported: the free group on t_1..t_n, the
universal Coxeter group on involutive s_1..s_n, and a user-supplied finite
permutation realization.  A positive step at position j replaces
(e_j, e_{j+1}) by (e_j e_{j+1} e_j^-1, e_j) in every group; the negative
step is the inverse move.
Applying a braid word means applying its letters left to right, which makes
the whole thing a right action on tuples.  `GroupContext.parse_tuple` parses
entries as the action takes them (words encoded for the kernel of `braid`,
`_act`), refusing word entries past MAX_IMAGE_LETTERS letters in all; the
kernel bounds each at as many, with letter indices up to MAX_STRANDS.
Permutations form a finite group, so they are bounded already.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import _COX_TOKENS, _FREE_TOKENS, _NEG, _SELF, MAX_IMAGE_LETTERS, ArtinWord, FreeWord
from .braid import Permutation, _act, _decode, _encode, _format_slices, _syllables, parse_cox_word
from .braid import parse_free_word
from .coxword import CoxWord

FREE = "free"
COXETER = "coxeter"
PERMUTATION = "perm"

# Per word context: the entry type, the parser of an entry's text, the
# letter-inversion table of the kernel and the text of each encoded letter.
_WORDS = {FREE: (FreeWord, parse_free_word, _NEG, _FREE_TOKENS),
          COXETER: (CoxWord, parse_cox_word, _SELF, _COX_TOKENS)}


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

    def parse_tuple(self, texts: list[str]) -> tuple:
        """Entries as the action takes them: words sharing MAX_IMAGE_LETTERS letters, or images."""
        if self.kind == PERMUTATION:
            return tuple(Permutation.parse(t, self.degree).images for t in texts)
        parse, left, entries = _WORDS[self.kind][1], MAX_IMAGE_LETTERS, []
        for text in texts:
            entries.append(parse(text, left))
            left -= len(entries[-1])
        return tuple(entries)


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


def _act_on(ctx: GroupContext, entries, w: ArtinWord) -> list:
    """The entries after w acts: encoded words, or permutations as image tuples."""
    if w.n != ctx.n:
        raise ValueError("braid word and tuple live on different strand counts")
    entries = list(entries)
    if ctx.kind in _WORDS:
        return _act(entries, _syllables(w.letters), MAX_IMAGE_LETTERS, _WORDS[ctx.kind][2])
    for k, sign in w.letters:
        a, b = entries[k - 1], entries[k]
        if sign > 0:
            entries[k - 1], entries[k] = _conjugate(a, b), a
        else:
            entries[k - 1], entries[k] = b, _conjugate(_inverse(b), a)
    return entries


def hurwitz_apply(tup: GroupTuple, w: ArtinWord) -> GroupTuple:
    """Apply a braid word letter by letter; a right action on tuples."""
    ctx, words = tup.context, _WORDS.get(tup.context.kind)
    after = _act_on(ctx, [_encode(e.letters) if words else e.images for e in tup.entries], w)
    return GroupTuple(ctx, tuple(words[0](_decode(x)) if words else Permutation(x) for x in after))


def render_action(ctx: GroupContext, entries: tuple, w: ArtinWord) -> tuple[list, bool]:
    """Entries from `GroupContext.parse_tuple` acted on by w, as text, and whether w fixes them.

    Each entry's text is an iterable of strings that join to it.  A word is
    its tokens (t2', s3) joined by spaces, or 1 when it is empty, rendered
    from its encoding in slices (`braid._format_slices`), so an entry of
    millions of letters never becomes a tuple of integers and its text is
    never held whole.  A permutation is its cycle string, which joins to
    itself.
    """
    after = _act_on(ctx, entries, w)
    fixed = after == list(entries)
    if ctx.kind == PERMUTATION:
        return [Permutation(x).cycle_string() for x in after], fixed
    return [_format_slices(x, _WORDS[ctx.kind][3]) for x in after], fixed
