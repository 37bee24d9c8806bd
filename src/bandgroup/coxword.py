"""Reduced words over involutive letters and their block combinatorics.

Elements of the universal Coxeter group (involutive generators, no other
relations) are represented by words with no two equal adjacent letters.
Everything here is about how powers of a band act on such words: the
action, the factorization of a word into maximal blocks over a two-letter
subalphabet, and the executable checks that blocks marked "critical" grow
under the action while the block pattern is preserved.

The action runs on the `bytes` encoding of the braid kernel, letter s_i
as the byte 128 + i and its own inverse, so letter indices go up to
MAX_STRANDS.  The images of the band's letters are built by the kernel's
Hurwitz move, `braid._act`, on the words s_1 .. s_k (`_band_images`), the
same move that acts on free and Coxeter tuples, and `_act_band`
substitutes them into a word.  The injectivity scan calls both on encoded
words directly, and `act_band_on_cox` encodes a `CoxWord` for them and
checks the result back in.  This module has no parser: `braid.parse_cox_word`
reads text into that encoding.  The braid's free action pushed through the
quotient t_i -> s_i, letter by letter, serves only as the tests' referee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .braid import _SELF, MAX_IMAGE_LETTERS, MAX_STRANDS, _act, _cancel, _decode, _encode, _too_long
from .coxeter import BandPair, commutes_in_brn, crossing


@dataclass(frozen=True)
class CoxWord:
    """A reduced word: letter indices with no two adjacent letters equal."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        for x in self.letters:
            if x < 1:
                raise ValueError(f"letter index {x} must be positive")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == b:
                raise ValueError("word has two equal adjacent letters")

    @staticmethod
    def single(i: int) -> CoxWord:
        return CoxWord((i,))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(f"s{x}" for x in self.letters) if self.letters else "1"


@dataclass(frozen=True)
class JkFactorization:
    """The unique splitting of a word along a two-letter subalphabet {j, k}.

    blocks[0] sep[0] blocks[1] sep[1] ... sep[-1] blocks[-1] re-assembles the
    word; every block uses letters j, k only (possibly empty) and every
    separator is a letter outside {j, k}.
    """

    j: int
    k: int
    blocks: tuple[tuple[int, ...], ...]
    separators: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.separators) + 1:
            raise ValueError("need exactly one more block than separators")
        for block in self.blocks:
            if any(x not in (self.j, self.k) for x in block):
                raise ValueError(f"block {block} uses letters outside {{{self.j}, {self.k}}}")
        if any(x in (self.j, self.k) for x in self.separators):
            raise ValueError("separator inside the block alphabet")

    @property
    def ell(self) -> int:
        """Number of separators."""
        return len(self.separators)


def jk_factorize(w: CoxWord, j: int, k: int) -> JkFactorization:
    """Split w into maximal {j, k}-blocks separated by the other letters."""
    if j == k:
        raise ValueError("need two distinct letters")
    blocks: list[tuple[int, ...]] = []
    separators: list[int] = []
    current: list[int] = []
    for x in w.letters:
        if x == j or x == k:
            current.append(x)
        else:
            blocks.append(tuple(current))
            separators.append(x)
            current = []
    blocks.append(tuple(current))
    return JkFactorization(j, k, tuple(blocks), tuple(separators))


LONG_BLOCK = 4  # a {j, k}-block of this many letters or more is long


def is_long(block: Sequence[int]) -> bool:
    """A block is long when it has at least LONG_BLOCK letters."""
    return len(block) >= LONG_BLOCK


def is_critical(f: JkFactorization, nu: int) -> bool:
    """Whether block nu of the factorization is critical.

    Criticality depends on the letters surrounding the block, so boundary
    blocks (nu = 0 or nu = ell) never qualify.  An interior block is
    critical when its neighbours are equal and its length is odd, or when
    its neighbours form a pair crossing {j, k} and its length is even.
    """
    if not 0 <= nu <= f.ell:
        raise IndexError(f"block index {nu} outside 0..{f.ell}")
    if nu == 0 or nu == f.ell:
        return False
    left, right = f.separators[nu - 1], f.separators[nu]
    if len(f.blocks[nu]) % 2 == 1:
        return left == right
    if left == right:
        return False
    return crossing(BandPair.of(left, right), BandPair.of(f.j, f.k))


def act_band_on_cox(w: CoxWord, tau: BandPair, m: int) -> CoxWord:
    """Image of a word under the m-th power of the band on tau.

    Letters outside [j, k] are fixed and the others map to their images
    under the Hurwitz move (see `_band_images`), joined by `_act_band`.  An
    image that passes MAX_IMAGE_LETTERS letters raises ImageLimitError, at
    most 4|m| + 1 letters after it does, and before any image is built when
    the image of a letter in [j, k], of 2|m| - 1 letters at least, would
    pass it; a word with no such letter is then its own image.  Letter
    indices go up to MAX_STRANDS.

    >>> act_band_on_cox(CoxWord((2, 4)), BandPair(1, 3), -1).letters
    (3, 1, 2, 1, 3, 4)
    """
    if tau.j > MAX_STRANDS:
        raise ValueError(f"letter indices above {MAX_STRANDS} are not supported")
    x = _encode(w.letters)
    moved = {y for y in x if 128 + tau.i <= y <= 128 + tau.j}
    if 2 * abs(m) - 1 > MAX_IMAGE_LETTERS:
        if len(x) > MAX_IMAGE_LETTERS or moved:
            raise _too_long(MAX_IMAGE_LETTERS)
        return w
    return CoxWord(_decode(_act_band(x, _band_images(tau.i, tau.j, m, moved), MAX_IMAGE_LETTERS)))


def _band_images(j: int, k: int, m: int, letters: Collection[int]) -> dict[int, bytes]:
    """The images of encoded letters in [j, k] under the m-th power of the band on (j, k).

    They are the words at the letters' places after the Hurwitz move of
    `braid._act` applies the syllable (j, k, m) to s_1 .. s_k.  The move
    reads s_j and s_k, so they are always given; any other letter not asked
    for is the empty word, which the move passes by.  The longest image,
    c s_x c^-1 with c = (s_j s_k)^m, has 4|m| + 1 letters.

    >>> {x - 128: _decode(w) for x, w in _band_images(1, 3, -2, (129, 130)).items()}
    {1: (3, 1, 3), 2: (3, 1, 3, 1, 2, 1, 3, 1, 3)}
    """
    words = [b""] * k
    for x in (*letters, 128 + j, 128 + k):
        words[x - 129] = bytes((x,))
    _act(words, ((j, k, m),), 4 * abs(m) + 1, _SELF)
    return {x: words[x - 129] for x in letters}


def _act_band(w: bytes, images: dict[int, bytes], limit: int) -> bytes:
    """The image of an encoded reduced word under the substitution of `images`.

    Each letter of w in `images` is replaced by its image and every other
    letter is fixed: with a `_band_images` table, that is the action of a
    band power.  For the band on (1, 3) and m = -2, s_1 goes to s_3 s_1 s_3
    and s_4 is fixed:

    >>> table = _band_images(1, 3, -2, (129,))
    >>> _decode(_act_band(_encode((4, 1)), table, 99))
    (4, 3, 1, 3)

    The images are joined left to right and letters cancel only where two
    of them meet (`braid._cancel`, each letter its own inverse).  Once the
    image of a prefix of w passes `limit` letters, ImageLimitError is
    raised; see `act_band_on_cox`.
    """
    out = bytearray()
    for x in w:
        image = images.get(x)
        if image is None:
            out.append(x)
        elif out and out[-1] == image[0]:
            n = _cancel(out, image, _SELF)
            del out[len(out) - n:]
            out += image[n:]
        else:
            out += image
        if len(out) > limit:
            raise _too_long(limit)
    return bytes(out)


def long_pairs(w: CoxWord) -> set[BandPair]:
    """All letter pairs {j, k} for which w has a long block, in one pass.

    In a reduced word a {j, k}-block of two letters or more alternates j
    and k, so it is a maximal stretch in which each letter repeats the one
    two places back; a stretch that reaches LONG_BLOCK letters adds its pair.
    """
    found = set()
    before = last = None
    run = 0
    for x in w.letters:
        if x == before:
            run += 1
            if run == LONG_BLOCK:
                found.add((last, x))
        else:
            run = 2
        before, last = last, x
    return {BandPair.of(j, k) for j, k in found}


def has_long_subword(w: CoxWord, j: int, k: int) -> bool:
    """Whether some maximal {j, k}-block of w is long."""
    return any({pair.i, pair.j} == {j, k} for pair in long_pairs(w))


# -- executable checks --------------------------------------------------------


@dataclass(frozen=True)
class PropCheckReport:
    """Outcome of one block-combinatorics check.

    status is "pass", "fail", or "precondition-violated"; failures carry a
    human-readable description of each violated clause.
    """

    check: str
    status: str
    detail: str = ""
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def check_prop_trans(w: CoxWord, tau: BandPair, m: int) -> PropCheckReport:
    """Check block preservation and growth under one band power.

    Hypothesis: no {j, k}-block of w has length exactly 2|m|.  Then the
    image word must factorize with the same separator sequence, and every
    critical block must stay critical with |old| + |new| >= 2|m|.
    """
    j, k = tau.i, tau.j
    f = jk_factorize(w, j, k)
    for nu, block in enumerate(f.blocks):
        if len(block) == 2 * abs(m):
            return PropCheckReport(
                "trans",
                "precondition-violated",
                f"block {nu} has length {len(block)} = 2|m|",
            )
    image = act_band_on_cox(w, tau, m)
    fi = jk_factorize(image, j, k)
    failures: list[str] = []
    if fi.separators != f.separators:
        failures.append(
            f"separators changed from {f.separators} to {fi.separators}"
        )
    else:
        for nu in range(1, f.ell):
            if not is_critical(f, nu):
                continue
            if not is_critical(fi, nu):
                failures.append(f"critical block {nu} lost criticality")
            if len(fi.blocks[nu]) + len(f.blocks[nu]) < 2 * abs(m):
                failures.append(
                    f"block {nu}: |image| + |source| = "
                    f"{len(fi.blocks[nu])} + {len(f.blocks[nu])} < {2 * abs(m)}"
                )
    if failures:
        return PropCheckReport("trans", "fail", f"image {image}", tuple(failures))
    return PropCheckReport("trans", "pass", f"image {image}")


def check_prop7(w: CoxWord, il: BandPair, m: int) -> PropCheckReport:
    """Classify the long blocks created by one band power.

    Requires |m| >= 3 and a source word with no long {i, l}-block.  Every
    long {j, k}-block of the image must then either sit on the band pair
    itself, or on a pair non-crossing with it for which the source already
    had a long block.
    """
    if abs(m) < 3:
        return PropCheckReport("seven", "precondition-violated", f"|m| = {abs(m)} < 3")
    source = long_pairs(w)
    if il in source:
        return PropCheckReport(
            "seven", "precondition-violated", f"source has a long {il} block"
        )
    image = act_band_on_cox(w, il, m)
    failures: list[str] = []
    for pair in sorted(long_pairs(image)):
        if pair == il:
            continue
        if commutes_in_brn(il, pair) and pair in source:
            continue
        failures.append(f"long {pair} block in image unexplained")
    if failures:
        return PropCheckReport("seven", "fail", f"image {image}", tuple(failures))
    return PropCheckReport("seven", "pass", f"image {image}")
