"""Exact braid arithmetic on n strands.

Braid words are read as band syllables (i, j, e), the band powers a_ij^e,
one per token (`_read_braid`), and written out in the Artin generators
only for an `ArtinWord` (`parse_braid_word`), which the API and the
Hurwitz actions take.  Equality of braids is decided by the Dynnikov
coordinates of a family of loops, on which the braid group acts
faithfully by max/min updates linear in the word (Dynnikov, *On a
Yang-Baxter map and the Dehornoy ordering*, Russ. Math. Surveys 2002;
Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering Braids*, AMS 2008,
ch. XII): two words are one braid exactly when they give the same
coordinates.  The right action on a free group F_n, also faithful, is the
object of study of `free_image` and of the Hurwitz actions, and the test
referee of equality.

The images are built by right-composition, from the last factor back,
and the factor is the band syllable (i, j, e), the band power a_ij^e; an
Artin letter sigma_k^s is the syllable (k, k + 1, s), and a run of one
letter is one syllable.  A syllable rebuilds only the images of t_i ..
t_j in one closed-form step, as reduced products of images already built,
and letters cancel only where two factors meet.  That step is the Hurwitz
move (a, b) -> (a b a^-1, a) of all the band's Artin letters at once, and
one kernel, `_act`, runs it: for the free action here, for the Hurwitz
action of `hurwitz` on tuples of free or universal Coxeter words, and for
the band-power action on Coxeter words that the injectivity scan folds.
There `coxword._band_images` moves the words s_1 .. s_k by one syllable
to read off the letters' images, and `coxword._act_band` substitutes
them into a word, the images meeting through `_cancel`.  The words the
scan acts on are the images of a letter s_i, reflections u t u^-1 whose
reduced words are odd palindromes.  A band power sends one to another:
with v t' v^-1 the image of t, u t u^-1 goes to h t' h^-1 for h the
image of u times v, so the scan runs the action on the halves alone
(`raag._act_reflections`).

`BraidDecider` decides words of syllables: the band letters of a
relation, the syllables of the tokens of an `eq` query, or the runs of two
Artin words in `braid_equal`.  The decider first relabels a pair onto the
k strands it touches, in their order, and decides each relabelled pair
once, on k strands.  That is exact: the relations of Birman, Ko and Lee
(*A new approach to the word and conjugacy problems in the braid groups*,
Adv. Math. 1998) depend only on the order of the bands' endpoints, so
a_pq -> a_{s_p s_q} is a homomorphism from B_k to B_n, and it is
injective, since bands that all pass on one side of the strands
s_1 < .. < s_k lie in one disk around exactly their punctures.
So a relation on four strands out of forty is decided as one on strands
1 .. 4, and decided once however often it recurs.  Only the coordinates
take a syllable letter by letter.  Inside the kernel a reduced word is a
`bytes` object, letter i as the byte 128 + i and its inverse as 128 - i
for free words, or as itself for Coxeter words, so concatenation, slicing
and inversion run in C and letter indices, hence strands, are limited to
127.  One reader, `_read_word`, parses the text of free and of Coxeter
words straight into it (`parse_free_word`, `parse_cox_word`); at the API
boundary free words are `FreeWord`s, tuples of signed integers (+i for
t_i, -i for its inverse), always freely reduced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator

from .coxeter import BandPair


@dataclass(frozen=True)
class ArtinWord:
    """A word in the Artin generators sigma_1 .. sigma_{n-1} with signs."""

    n: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for k, s in self.letters:
            if not 1 <= k <= self.n - 1:
                raise ValueError(f"generator index {k} outside 1..{self.n - 1}")
            if s not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {s}")

    def __mul__(self, other: ArtinWord) -> ArtinWord:
        if self.n != other.n:
            raise ValueError("cannot concatenate words on different strand counts")
        return ArtinWord(self.n, self.letters + other.letters)

    def inverse(self) -> ArtinWord:
        return ArtinWord(self.n, tuple((k, -s) for k, s in reversed(self.letters)))

    def __pow__(self, e: int) -> ArtinWord:
        base = self if e >= 0 else self.inverse()
        return ArtinWord(self.n, base.letters * abs(e))

    def __len__(self) -> int:
        return len(self.letters)


def band_power(tau: BandPair, e: int, n: int) -> tuple[tuple[int, int], ...]:
    """The Artin letters of the band on tau raised to e, in closed form.

    The band is the conjugate c sigma_i c^-1 with c = sigma_{j-1} ...
    sigma_{i+1}, taking strand i over the intermediate strands; its power
    is c sigma_i^(+-1) c^-1 written out |e| times.  The choice of
    conjugating side is pinned down by the relation test suite: with this
    convention every defining relation of the band presentation holds.

    >>> [k * s for k, s in band_power(BandPair(1, 4), -1, 4)]
    [3, 2, -1, -2, -3]
    """
    i, j = tau.i, tau.j
    if j > n:
        raise ValueError(f"band {tau} does not fit on {n} strands")
    c = tuple((t, 1) for t in range(j - 1, i, -1))
    c_inv = tuple((t, -1) for t in range(i + 1, j))
    return (c + ((i, 1 if e >= 0 else -1),) + c_inv) * abs(e)


def band_to_artin(tau: BandPair, n: int) -> ArtinWord:
    """The band on strands (i, j) as a word in the Artin generators.

    >>> [k * s for k, s in band_to_artin(BandPair(1, 4), 4).letters]
    [3, 2, 1, -2, -3]
    """
    return ArtinWord(n, band_power(tau, 1, n))


# -- free words ---------------------------------------------------------------


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in t_1 .. t_n, as signed generator indices."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced")
        if any(x == 0 for x in self.letters):
            raise ValueError("letter index 0 is not allowed")

    def __len__(self) -> int:
        return len(self.letters)


# -- the word kernel ----------------------------------------------------------

# Letter indices the byte encoding holds; also the command line's strand bound.
MAX_STRANDS = 127
# Letters allowed in any one word the kernel builds for `free_image` and the
# Hurwitz action.  Images grow exponentially with word length.  At one byte
# per letter a word stays within 16 MiB and a query within a few such words,
# and a word too long for the action stops early instead of running for
# minutes.
MAX_IMAGE_LETTERS = 1 << 24
# Artin letters the coordinates may take, per side of a query inside
# `BraidDecider`, counted in closed form on the strands the pair touches.
# A longer side is refused with ImageLimitError before any coordinate is
# computed.  2^17 refuses `verify thm1` on the constant matrices with n = 4
# past entry 21845, as did building free images up to 2^17 letters.  The
# cost is the updates, 2(j - i - 1) + |e| for a_ij^e, times the bits of the
# coordinates: a side at the cap took 10 ms for a_14^21845 a_23^21845 (17
# bits), 0.16-0.35 s for seeded random words on 4, 16 or 127 strands and
# 1.46 s for (sigma_1 sigma_2^-1)^65536 (90,996 bits), in process (2 cores,
# Python 3.11.7).
_SIDE_LETTERS = 1 << 17
# Letters a parsed braid word may have.  Random words cost letters times
# bits on the coordinates: a pair of seeded random words of this length,
# on 4, 16 or 127 strands, took 2.4-3.5 ms in process (2 cores, Python
# 3.11.7), at 24 to 378 bits (1,423 bits for (sigma_1 sigma_2^-1)^1024).
MAX_WORD_LETTERS = 2048
# Letters `_cancel` compares in one step, as two integers.  Most junctions
# cancel fewer; a longer cancellation goes on by galloping.
_WINDOW = 64

# Letter-inversion tables: free words invert 128 + i <-> 128 - i, and
# Coxeter words leave every letter as it is.
_NEG = bytes((256 - b) % 256 for b in range(256))
_SELF = bytes(range(256))
# The text of each encoded letter and a space: t_i and t_i^-1, or s_i; and
# the encoded letter of each plain token: t_i, t_i' or s_i.
_INDICES = range(1, MAX_STRANDS + 1)
_FREE_TOKENS = {128 + i: f"t{i} " for i in _INDICES} | {128 - i: f"t{i}' " for i in _INDICES}
_COX_TOKENS = {128 + i: f"s{i} " for i in _INDICES}
_FREE_LETTERS = {f"t{i}": 128 + i for i in _INDICES} | {f"t{i}'": 128 - i for i in _INDICES}
_COX_LETTERS = {f"s{i}": 128 + i for i in _INDICES}


class ImageLimitError(ValueError):
    """A word built by an action, or a side given to the coordinates, would exceed its letters."""


def _too_long(limit: int) -> ImageLimitError:
    return ImageLimitError(f"a word exceeds {limit} letters; the braid word is too long")


def _check_strands(n: int) -> None:
    if n > MAX_STRANDS:
        raise ValueError(f"a braid may have at most {MAX_STRANDS} strands, got {n}")


def _encode(letters: tuple[int, ...]) -> bytes:
    """A reduced word of signed letter indices in the kernel's encoding."""
    if letters and max(map(abs, letters)) > MAX_STRANDS:
        raise ValueError(f"letter indices above {MAX_STRANDS} are not supported")
    return bytes(128 + x for x in letters)


def _decode(x: bytes) -> tuple[int, ...]:
    return tuple(b - 128 for b in x)


# Letters per slice of `_format_slices` (up to 256 KB of text), characters per slice of `_tokens`.
_SLICE = 1 << 16


def _format_slices(x: bytes, tokens: dict[int, str]) -> Iterator[str]:
    """An encoded word as text, "1" when it is empty, in slices of _SLICE letters.

    Each letter's token ends in a space, and the last slice drops the last
    one, so the slices join to the tokens separated by spaces; the text of
    a long word is never held whole.
    """
    if not x:
        yield "1"
    for start in range(0, len(x), _SLICE):
        text = x[start:start + _SLICE].decode("latin-1").translate(tokens)
        yield text if start + _SLICE < len(x) else text[:-1]


def _cancel(x: bytes, y: bytes, neg: bytes) -> int:
    """How many letters cancel where the reduced words x and y meet.

    The last c letters of x cancel the first c of y, a letter b against
    neg[b].  One comparison counts them within a window of _WINDOW letters:
    the inverted tail of x read as a little-endian integer and the head of
    y read as a big-endian one pair x[-1] with y[0] in their top bytes, so
    the leading zero bytes of their XOR are the letters that cancel.  Only
    a cancellation that fills the window goes on, by galloping, then
    bisecting, over slice comparisons.
    """
    if not (x and y) or neg[x[-1]] != y[0]:
        return 0
    lx, ly = len(x), len(y)
    limit = lx if lx < ly else ly
    c = limit if limit < _WINDOW else _WINDOW
    diff = int.from_bytes(x[-c:].translate(neg), "little") ^ int.from_bytes(y[:c], "big")
    if diff:
        return c - (diff.bit_length() + 7) // 8
    step = c
    while c < limit:
        hi = c + step if c + step < limit else limit
        if x[lx - hi:lx - c][::-1].translate(neg) != y[c:hi]:
            while hi - c > 1:
                mid = (c + hi) // 2
                if x[lx - mid:lx - c][::-1].translate(neg) == y[c:mid]:
                    c = mid
                else:
                    hi = mid
            break
        c = hi
        step *= 2
    return c


def _mul(x: bytes, y: bytes, neg: bytes) -> bytes:
    """The reduced product of two reduced words, either of them possibly empty."""
    if not (x and y) or neg[x[-1]] != y[0]:
        return x + y
    c = _cancel(x, y, neg)
    return x[:len(x) - c] + y[c:]


def _conj(g: bytes, g_inv: bytes, x: bytes, neg: bytes) -> bytes:
    """The reduced word of g x g^-1, given g and its inverse, built as (g x) g^-1.

    An empty g or x leaves x as it is.
    """
    if not (g and x):
        return x
    return _mul(_mul(g, x, neg), g_inv, neg)


def _power(p: bytes, q: int, limit: int, neg: bytes) -> bytes:
    """The reduced word of p^q, for a reduced word p and q >= 1.

    p is u c u^-1 with c cyclically reduced, u being what cancels where p
    meets itself, so p^q = u c^q u^-1 is one join.  In the universal
    Coxeter group c can be a single letter, its own inverse; then p^2 = 1.
    A power longer than `limit` letters raises ImageLimitError before it
    is built.
    """
    k = _cancel(p, p, neg)
    lp = len(p)
    if 2 * k >= lp:
        return p if q % 2 else b""
    if 2 * k + q * (lp - 2 * k) > limit:
        raise _too_long(limit)
    return p[:k] + p[k:lp - k] * q + p[lp - k:]


def _act(words: list[bytes], syllables, limit: int, neg: bytes) -> list[bytes]:
    """Apply the Hurwitz move of each band syllable in turn to a list of words.

    The syllable (i, j, e) is the band power a_ij^e, and the Artin letter
    sigma_k^s is the syllable (k, k + 1, s).  With a and b the words at
    positions i and j, the move keeps P = a b, which is built once.  Write
    e = s (2q + r) with s = +-1 and r = 0 or 1: r = 1 is the move of one
    Artin letter, (a, b) -> (a b a^-1, a) for s = 1 and (b, b^-1 a b) for
    s = -1, the moved word being the one reduced product P a^-1 or
    b^-1 P, and then both words are conjugated by P^(s q).  Every word
    strictly between i and j is conjugated by g = z b^-1, z being the new
    word at j.  This is the move of the band's Artin letters, one at a
    time and the last letter first:

    >>> x = [bytes((128 + m,)) for m in range(1, 5)]
    >>> letters = band_power(BandPair(1, 4), -3, 4)[::-1]
    >>> _act(list(x), [(1, 4, -3)], 99, _NEG) == _act(list(x), _syllables(letters), 99, _NEG)
    True

    The list is changed in place and returned.  A word longer than `limit`
    letters raises ImageLimitError.
    """
    for i, j, e in syllables:
        a, b = words[i - 1], words[j - 1]
        b_inv = b[::-1].translate(neg)
        p = _mul(a, b, neg)
        s = 1 if e > 0 else -1
        q, r = divmod(s * e, 2)
        if not r:
            x, z = a, b
        elif s > 0:
            x, z = _mul(p, a[::-1].translate(neg), neg), a
        else:
            x, z = b, _mul(b_inv, p, neg)
        if q:
            if s < 0:
                p = p[::-1].translate(neg)
            if q > 1:
                p = _power(p, q, limit, neg)
            p_inv = p[::-1].translate(neg)
            x, z = _conj(p, p_inv, x, neg), _conj(p, p_inv, z, neg)
        if len(x) > limit or len(z) > limit:
            raise _too_long(limit)
        words[i - 1], words[j - 1] = x, z
        if j - i > 1:
            g = _mul(z, b_inv, neg)
            g_inv = g[::-1].translate(neg)
            for m in range(i, j - 1):
                y = words[m] = _conj(g, g_inv, words[m], neg)
                if len(y) > limit:
                    raise _too_long(limit)
    return words


def _merge(syllables) -> tuple[tuple[int, int, int], ...]:
    """Band syllables with each run on one band (i, j) as one power, zero powers dropped.

    A run that cancels to the zero power is removed, and the syllables on
    either side of it may then merge in turn.

    >>> _merge([(1, 3, 2), (2, 3, 0), (1, 3, -1), (1, 2, 1), (1, 2, -1), (1, 3, 1)])
    ((1, 3, 2),)
    """
    out: list[tuple[int, int, int]] = []
    for i, j, e in syllables:
        if out and out[-1][0] == i and out[-1][1] == j:
            e += out[-1][2]
            if e:
                out[-1] = (i, j, e)
            else:
                out.pop()
        elif e:
            out.append((i, j, e))
    return tuple(out)


def _syllables(letters) -> tuple[tuple[int, int, int], ...]:
    """Artin letters as band syllables (k, k + 1, e), each run of sigma_k^+-1 as one power."""
    return _merge((k, k + 1, s) for k, s in letters)


def _free_images(w: ArtinWord) -> list[bytes]:
    """Images of t_1 .. t_n under the right action of w, as encoded words.

    The action of w = x_1 .. x_m is Psi_1 = phi_m o .. o phi_1, so
    Psi_k = Psi_{k+1} o phi_k, built from the last letter back.  phi_k
    moves only t_k and t_{k+1}, and Psi_k moves their images under
    Psi_{k+1} by the Hurwitz move of `_act`, one syllable per run of a
    letter.

    >>> w = ArtinWord(3, ((1, 1), (2, -1)))
    >>> [_decode(img) for img in _free_images(w)]
    [(1, 3, -1), (1,), (-3, 2, 3)]
    """
    _check_strands(w.n)
    generators = [bytes((128 + i,)) for i in range(1, w.n + 1)]
    return _act(generators, _syllables(reversed(w.letters)), MAX_IMAGE_LETTERS, _NEG)


def free_image(w: ArtinWord, i: int) -> FreeWord:
    """Image of the free generator t_i under the right action of w."""
    if not 1 <= i <= w.n:
        raise ValueError(f"free generator index {i} outside 1..{w.n}")
    return FreeWord(_decode(_free_images(w)[i - 1]))


def _relabel(u: tuple, v: tuple) -> tuple[int, tuple, tuple]:
    """The pair of words of syllables moved onto strands 1 .. k, in order.

    k is the number of strands u and v touch together, and the p-th of
    them, counted from the left, becomes strand p.

    >>> _relabel(((2, 5, 1), (3, 5, -2)), ((3, 5, -2), (2, 5, 1)))
    (3, ((1, 3, 1), (2, 3, -2)), ((2, 3, -2), (1, 3, 1)))
    """
    if not (u or v):
        return 0, u, v
    left, right, _ = zip(*u, *v)
    strands = sorted(set(left).union(right))
    k = len(strands)
    label = [0] * (strands[-1] + 1)
    for p, x in enumerate(strands, 1):
        label[x] = p
    return (k, tuple([(label[i], label[j], e) for i, j, e in u]),
            tuple([(label[i], label[j], e) for i, j, e in v]))


def _band_letters(i: int, j: int, e: int) -> int:
    """The Artin letters of the band power a_ij^e, in closed form."""
    return abs(e) * (2 * (j - i) - 1)


def _permutation(word: tuple, n: int) -> list[int]:
    """The images of 1 .. n under the permutation of a word of syllables.

    A band power a_ij^e permutes by the transposition (i j) when e is odd
    and trivially when it is even.
    """
    images = list(range(1, n + 1))
    for i, j, e in word:
        if e % 2:
            images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
    return images


def _dynnikov(word: tuple, k: int) -> list[int]:
    """The Dynnikov coordinates of the canonical loops moved by a word of syllables on k strands.

    The loops lie in a disk with k + 1 punctures, the last of which no
    letter moves, and start at (a_i, b_i) = (0, -1) for i = 1 .. k - 1.
    Each Artin letter updates two pairs by max and min, x+ = max(x, 0)
    and x- = min(x, 0) below, and the action is faithful (Dehornoy,
    Dynnikov, Rolfsen and Wiest, *Ordering Braids*, ch. XII), so two
    words are one braid exactly when they give the same coordinates.
    Loops cannot see a twist about the boundary, and on k punctures alone
    sigma_{k-1}^2 would fix them; the extra puncture makes both visible.
    The syllable (i, j, e) is g sigma_i^e g^-1 with g = sigma_{j-1} ..
    sigma_{i+1}, 2(j - i - 1) + |e| updates, applied in word order one at
    a time, with no list of them built:

        sigma_1^s on (a_1, b_1), z = a_1 + b_1+ or b_1+ - a_1:
          a_1' = s (-b_1 + z+),  b_1' = z
        sigma_i, i >= 2, on pairs i - 1 and i, c = a_{i-1} - a_i - b_i+ + b_{i-1}-:
          a_{i-1}' = a_{i-1} - b_{i-1}+ - (b_i+ + c)+,  b_{i-1}' = b_i + c-
          a_i' = a_i - b_i- - (b_{i-1}- - c)-,          b_i' = b_{i-1} - c-
        sigma_i^-1, d = a_{i-1} - a_i + b_i+ - b_{i-1}-:
          a_{i-1}' = a_{i-1} + b_{i-1}+ + (b_i+ - d)+,  b_{i-1}' = b_i - d+
          a_i' = a_i + b_i- + (b_{i-1}- + d)-,          b_i' = b_{i-1} + d+

    >>> _dynnikov(((1, 2, 2),), 2), _dynnikov(((1, 3, -1),), 3)
    ([1, 1], [1, -2, 0, 0])
    """
    # pair i at index i; index 0 is unused
    a, b = [0] * k, [-1] * k
    for i, j, e in word:
        s = 1 if e > 0 else -1
        letters = repeat((i, s), s * e)
        if j - i > 1:  # conjugated by sigma_{j-1} .. sigma_{i+1}
            letters = chain(zip(range(j - 1, i, -1), repeat(1)), letters,
                            zip(range(i + 1, j), repeat(-1)))
        for t, s in letters:
            if t == 1:
                x, y = a[1], b[1]
                z = (y if y > 0 else 0) + (x if s > 0 else -x)
                a[1], b[1] = s * (-y + (z if z > 0 else 0)), z
                continue
            x0, x1, y0, y1 = a[t - 1], a[t], b[t - 1], b[t]
            p0 = y0 if y0 > 0 else 0
            n0 = y0 if y0 < 0 else 0
            p1 = y1 if y1 > 0 else 0
            n1 = y1 if y1 < 0 else 0
            if s > 0:
                c = x0 - x1 - p1 + n0
                u, v = p1 + c, n0 - c
                c = c if c < 0 else 0
                a[t - 1] = x0 - p0 - (u if u > 0 else 0)
                a[t] = x1 - n1 - (v if v < 0 else 0)
                b[t - 1], b[t] = y1 + c, y0 - c
            else:
                d = x0 - x1 + p1 - n0
                u, v = p1 - d, n0 + d
                d = d if d > 0 else 0
                a[t - 1] = x0 + p0 + (u if u > 0 else 0)
                a[t] = x1 + n1 + (v if v < 0 else 0)
                b[t - 1], b[t] = y1 - d, y0 + d
    return a[1:] + b[1:]


class BraidDecider:
    """Exact equality of braids on any number of strands, for words of syllables.

    A word is a tuple of band syllables (i, j, e), each the band power
    a_ij^e, such as the band letters of a relation.  Each pair is first
    relabelled onto the k strands it touches, keeping their order, and
    decided there, once: the verdict is kept, so a relation that recurs on
    other strands with the same pattern is not decided again.  This is
    exact.  The map a_pq -> a_{s_p s_q} from B_k to B_n is a homomorphism,
    as the relations of Birman, Ko and Lee (Adv. Math. 1998) depend only
    on the order of the bands' endpoints, and it is injective, as every
    band on the strands s_1 < .. < s_k passes on the same side and so lies
    in one disk holding exactly their punctures.  It holds on to its
    verdicts as long as it lives: make one per verification call and let
    it go with the call.
    """

    def __init__(self):
        # relabelled pair -> whether it is one braid
        self._verdicts: dict[tuple[tuple, tuple], bool] = {}
        # what the decider did: coordinate updates, counted in closed form
        # per syllable, the bits of the largest coordinate, the relabelled
        # pairs it decided and those of them the permutations settled
        self.updates = self.bits = 0
        self.distinct = self.perm_rejections = 0

    def counters(self) -> dict[str, int]:
        """The decider's work so far, for a report's info."""
        return {"oracle_updates": self.updates, "oracle_bits": self.bits,
                "oracle_distinct": self.distinct, "oracle_perm_rejections": self.perm_rejections}

    def equal(self, u: tuple, v: tuple) -> bool:
        """Whether two words of syllables are the same braid.

        The pair is relabelled onto the k strands it touches and looked up
        among the pairs already decided.  A new pair is decided on k
        strands: equal words settle it first and unequal permutations
        next, as a cheap filter.  Then the Dynnikov coordinates of the two
        sides are compared (`_dynnikov`); the action is faithful, so equal
        coordinates settle equality.  A relabelled side of more than
        _SIDE_LETTERS Artin letters is refused with ImageLimitError before
        any coordinate is computed.
        """
        k, u, v = _relabel(u, v)
        verdict = self._verdicts.get((u, v))
        if verdict is None:
            verdict = self._verdicts[u, v] = self._decide(k, u, v)
            self.distinct += 1
        return verdict

    def _decide(self, k: int, u: tuple, v: tuple) -> bool:
        if u == v:
            return True
        if _permutation(u, k) != _permutation(v, k):
            self.perm_rejections += 1
            return False
        for word in (u, v):
            letters = sum(_band_letters(*syllable) for syllable in word)
            if letters > _SIDE_LETTERS:
                raise ImageLimitError(
                    f"a side has {letters} Artin letters on {k} strands, more than the "
                    f"{_SIDE_LETTERS} the Dynnikov coordinates are allowed")
        x, y = _dynnikov(u, k), _dynnikov(v, k)
        self.updates += sum(2 * (j - i - 1) + abs(e) for i, j, e in u + v)
        self.bits = max(self.bits, max(map(abs, x + y)).bit_length())
        return x == y


def braid_equal(u: ArtinWord, v: ArtinWord) -> bool:
    """Exact equality in the braid group on u.n strands.

    This is `BraidDecider.equal` on the words' runs of letters as
    syllables.  It refuses more than MAX_STRANDS strands, as `eq` does.
    """
    if u.n != v.n:
        raise ValueError("cannot compare words on different strand counts")
    _check_strands(u.n)
    return BraidDecider().equal(_syllables(u.letters), _syllables(v.letters))


# -- permutations -------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..d}, mapping i to images[i-1]."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def is_involution(self) -> bool:
        return all(self.images[y - 1] == x for x, y in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length at least 2, each starting at its minimum."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    @staticmethod
    def from_cycles(d: int, cycles: Iterable[Iterable[int]]) -> Permutation:
        """Compose cycles functionally, the rightmost cycle acting first.

        Composing with a cycle on the right changes the images of its own
        points only (x -> acc(next(x))), so each cycle costs its length.

        >>> Permutation.from_cycles(3, [(1, 2), (2, 3)]).images
        (2, 3, 1)
        """
        images = list(range(1, d + 1))
        for cyc in cycles:
            elems = list(cyc)
            moved = [images[b - 1] for b in elems[1:] + elems[:1]]
            for a, y in zip(elems, moved):
                images[a - 1] = y
        return Permutation(tuple(images))

    @staticmethod
    def parse(text: str, degree: int) -> Permutation:
        """Parse one-line cycle notation such as "(1 2)(3 4)" or "()"."""
        s = text.strip()
        if s in ("()", "id", ""):
            return Permutation.from_cycles(degree, ())
        if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\))+", s):
            raise ValueError(f"cannot parse permutation {text!r}")
        cycles = [
            [int(tok) for tok in re.split(r"[\s,]+", body.strip())]
            for body in re.findall(r"\(([^()]*)\)", s)
        ]
        for cyc in cycles:
            for x in cyc:
                if not 1 <= x <= degree:
                    raise ValueError(f"cycle entry {x} outside 1..{degree}")
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated entry in cycle {cyc}")
        return Permutation.from_cycles(degree, cycles)


def permutation_image(w: ArtinWord) -> Permutation:
    """The permutation underlying a braid word.

    Each generator maps to the adjacent transposition (k, k+1); letters are
    composed functionally with later letters innermost, so the image of a
    concatenation is the composition of the images.  A run of one letter
    is one syllable, whose parity is the run's.
    """
    return Permutation(tuple(_permutation(_syllables(w.letters), w.n)))


# -- textual syntax -----------------------------------------------------------

_TOKEN = re.compile(r"^(?:s(\d+)|a(\d+)\.(\d+))('?)(?:\^(-?\d+))?$")


def _read_braid(text: str, n: int) -> list[tuple[int, int, int]]:
    """Read whitespace-separated braid tokens as band syllables (i, j, e), one per token.

    `s<k>` is the Artin generator sigma_k, the syllable (k, k + 1, e), and
    `a<i>.<j>` the band on strands i < j, the syllable (i, j, e); a
    trailing apostrophe inverts and `^<e>` raises to an integer power, so
    "a1.3'^2" is (1, 3, -2).  No Artin letter is built.  Each token is
    checked in turn, a zero power included: its syntax, 1 <= i < j for a
    band, the MAX_WORD_LETTERS letters its expansion would bring the word
    to, then that the band fits on n strands or that k is in 1 .. n - 1.

    >>> _read_braid("s2 a1.3'^2 s1^0", 3)
    [(2, 3, 1), (1, 3, -2), (1, 2, 0)]
    """
    if n < 1:
        raise ValueError(f"a braid needs at least 1 strand, got {n}")
    # token -> syllable, for this word only: a repeated token skips the regex
    read: dict[str, tuple[int, int, int]] = {}
    out: list[tuple[int, int, int]] = []
    count = 0
    for token in text.split():
        syllable = read.get(token)
        if syllable is None:
            m = _TOKEN.match(token)
            if not m:
                raise ValueError(f"cannot parse braid token {token!r}")
            s_idx, band_i, band_j, prime, power = m.groups()
            e = int(power) if power is not None else 1
            if prime:
                e = -e
            if s_idx is None:
                syllable = (*BandPair(int(band_i), int(band_j)).indices(), e)
            else:
                syllable = (int(s_idx), int(s_idx) + 1, e)
            read[token] = syllable
        i, j, e = syllable
        count += _band_letters(i, j, e)
        if count > MAX_WORD_LETTERS:
            raise ValueError(f"a braid word may have at most {MAX_WORD_LETTERS} letters")
        if i < 1 or j > n:
            raise ValueError(f"band {i}.{j} does not fit on {n} strands" if token[0] == "a"
                             else f"generator index {i} outside 1..{n - 1}")
        out.append(syllable)
    return out


def parse_braid_word(text: str, n: int) -> ArtinWord:
    """Parse whitespace-separated braid tokens into Artin letters.

    The tokens are read as by `_read_braid`, so "a1.3'^2" means the square
    of the inverse band on strands 1 and 3, and each syllable is written
    out in letters by `band_power`, with nothing cancelled.  A word of more
    than MAX_WORD_LETTERS letters is refused before any of it is built.
    `eq` and `perm` take the syllables themselves.
    """
    return ArtinWord(n, tuple(chain.from_iterable(
        band_power(BandPair(i, j), e, n) for i, j, e in _read_braid(text, n))))


_SPACE = re.compile(r"\s")
# A word token outside its group's letter table: letter, index, prime and power.
_WORD_TOKEN = re.compile(r"([st])(\d+)('?)(?:\^(-?\d+))?")


def _tokens(text: str) -> Iterator[str]:
    """The tokens of text, split in slices that end at whitespace after _SLICE characters."""
    start = 0
    while start < len(text):
        space = _SPACE.search(text, start + _SLICE)
        stop = space.start() if space else len(text)
        yield from text[start:stop].split()
        start = stop


def _read_word(text: str, limit: int, involutive: bool) -> bytes:
    """Read word tokens into the reduced word, encoded: free words, or involutive ones.

    A plain token (t2, t2' or s2) is looked up in its group's letter table,
    any other goes through _WORD_TOKEN, where only a free word takes a prime
    or a power.  A single letter cancels the top of the word, a power is
    joined through `_cancel`.  A letter index outside 1..MAX_STRANDS, or the
    first token past `limit` letters before they cancel, is refused first.
    """
    kind, name, letters, neg = (("Coxeter", "s", _COX_LETTERS, _SELF) if involutive
                                else ("free", "t", _FREE_LETTERS, _NEG))
    out, count = bytearray(), 0
    for token in _tokens(text):
        x, e = letters.get(token), 1
        if x is None:
            m = _WORD_TOKEN.fullmatch(token)
            if not m or m[1] != name or (involutive and (m[3] or m[4])):
                raise ValueError(f"cannot parse {kind}-word token {token!r}")
            i = int(m[2])
            if i > MAX_STRANDS:
                raise ValueError(f"letter indices above {MAX_STRANDS} are not supported")
            if i < 1:
                raise ValueError("letter index 0 is not allowed")
            x = 128 - i if m[3] else 128 + i
            e = int(m[4] or 1)
            if e < 0:
                x, e = neg[x], -e
        count += e
        if count > limit:
            raise ValueError(f"a {kind} word may have at most {limit} letters")
        if e != 1:
            chunk = bytes((x,)) * e
            c = _cancel(out, chunk, neg)
            out[len(out) - c:] = chunk[c:]
        elif out and out[-1] == neg[x]:
            out.pop()
        else:
            out.append(x)
    return bytes(out)


def parse_free_word(text: str, limit: int = MAX_IMAGE_LETTERS) -> bytes:
    """Parse tokens like "t1 t2' t3^2" into the reduced free word, encoded (`_read_word`)."""
    return _read_word(text, limit, involutive=False)


def parse_cox_word(text: str, limit: int = MAX_IMAGE_LETTERS) -> bytes:
    """Parse tokens like "s1 s2 s1" into the reduced involutive word, encoded (`_read_word`)."""
    return _read_word(text, limit, involutive=True)
