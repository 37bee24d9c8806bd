"""Reduced words over involutive letters and their block combinatorics.

Elements of the universal Coxeter group (involutive generators, no other
relations) are represented by words with no two equal adjacent letters.
Everything here is about how powers of a band act on such words: the closed
form of the action, the factorization of a word into maximal blocks over a
two-letter subalphabet, and the executable checks that blocks marked
"critical" grow under the action while the block pattern is preserved.

The action itself, `_act_band`, runs on the `bytes` encoding of the braid
kernel, letter s_i as the byte 128 + i and its own inverse, so letter
indices go up to MAX_STRANDS.  The injectivity scan calls it on encoded
words directly, `parse_cox_word` reads text straight into that encoding,
and `act_band_on_cox` encodes a `CoxWord` for it and checks the result
back in.  It is the one implementation of the action: the
braid's free action pushed through the quotient t_i -> s_i, the route it
is a closed form of, serves only as the tests' referee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .braid import _COX_LETTERS, _SELF, MAX_IMAGE_LETTERS, MAX_STRANDS, _cancel, _decode, _encode
from .braid import _index, _tokens, _too_long
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


def parse_cox_word(text: str, limit: int = MAX_IMAGE_LETTERS) -> bytes:
    """Parse space-separated `s<k>` tokens, at most `limit` of them, into a reduced word, encoded.

    Each letter cancels the top of the word so far when it equals it.  A
    letter index outside 1..MAX_STRANDS is refused at its token.
    """
    out, count = bytearray(), 0
    for token in _tokens(text):
        x = _COX_LETTERS.get(token)
        if x is None:
            if not token.startswith("s") or not token[1:].isdigit():
                raise ValueError(f"cannot parse Coxeter-word token {token!r}")
            x = 128 + _index(token[1:])
        if count == limit:
            raise ValueError(f"a Coxeter word may have at most {limit} letters")
        count += 1
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return bytes(out)


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


def act_band_on_cox(w: CoxWord, tau: BandPair, m: int, limit: int = MAX_IMAGE_LETTERS) -> CoxWord:
    """Image of a word under the m-th power of the band on tau.

    Letters outside [j, k] are fixed and the others map to their closed
    forms (see `_act_band`, which this encodes for).  An image that passes
    `limit` letters raises ImageLimitError, at most 4|m| + 1 letters after
    it does, and before c = (s_j s_k)^m is built when the image of a letter
    in [j, k], of 2|m| - 1 letters at least, would pass it; a word with no
    such letter is then its own image.  Letter indices go up to MAX_STRANDS.

    >>> act_band_on_cox(CoxWord((2, 4)), BandPair(1, 3), -1).letters
    (3, 1, 2, 1, 3, 4)
    """
    if tau.j > MAX_STRANDS:
        raise ValueError(f"letter indices above {MAX_STRANDS} are not supported")
    return CoxWord(_decode(_act_band(_encode(w.letters), tau.i, tau.j, m, limit)))


def _band_images(j: int, k: int, m: int, letters: Iterable[int]) -> dict[int, bytes]:
    """The images of encoded letters in [j, k] under the m-th power of the band on (j, k).

    The closed forms are those of `_act_band`, for m nonzero; c and c^-1
    are built once for all the letters asked for.

    >>> {x - 128: _decode(w) for x, w in _band_images(1, 3, -2, (129, 130)).items()}
    {1: (3, 1, 3), 2: (3, 1, 3, 1, 2, 1, 3, 1, 3)}
    """
    lo, hi = 128 + j, 128 + k
    c = bytes((lo, hi) if m > 0 else (hi, lo)) * abs(m)
    c_inv = c[::-1]
    images = {}
    for x in letters:
        if x == lo:
            images[x] = c + bytes((lo,)) if m > 0 else c[:-1]
        elif x == hi:
            images[x] = c_inv[1:] if m > 0 else bytes((hi,)) + c_inv
        else:
            images[x] = c + bytes((x,)) + c_inv
    return images


def _act_band(w: bytes, j: int, k: int, m: int, limit: int,
              images: dict[int, bytes] | None = None) -> bytes:
    """The image of an encoded reduced word under the m-th power of the band on (j, k).

    With c = (s_j s_k)^m, and (s_j s_k)^-1 = s_k s_j for negative m, the
    letters outside [j, k] are fixed, a letter s_x strictly between maps to
    c s_x c^-1, s_j to c s_j and s_k to s_k c^-1.  Reduced, those are slices
    of c and c^-1: s_j maps to c s_j for m > 0 and to c without its last
    letter for m < 0, s_k to c^-1 without its first letter for m > 0 and to
    s_k c^-1 for m < 0.  With c = (s_3 s_1)^2 for the band on (1, 3) and
    m = -2:

    >>> _decode(_act_band(_encode((1,)), 1, 3, -2, 99))
    (3, 1, 3)
    >>> _decode(_act_band(_encode((3,)), 1, 3, -2, 99))
    (3, 1, 3, 1, 3)

    The images are joined left to right and letters cancel only where two
    of them meet (`braid._cancel`, each letter its own inverse).  Once the
    image of a prefix of w passes `limit` letters, ImageLimitError is
    raised; see `act_band_on_cox`.  A caller that applies one nonzero
    power many times passes its `_band_images` table as `images`;
    otherwise the image of each letter is built when it is first met.
    """
    lo, hi = 128 + j, 128 + k
    if images is None:
        if not m or 2 * abs(m) - 1 > limit:
            if len(w) > limit or m and any(lo <= x <= hi for x in w):
                raise _too_long(limit)
            return w
        images = {}
    out = bytearray()
    for x in w:
        if x < lo or x > hi:
            out.append(x)
        else:
            image = images.get(x)
            if image is None:
                image = images[x] = _band_images(j, k, m, (x,))[x]
            if out and out[-1] == image[0]:
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
