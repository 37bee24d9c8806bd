"""Exact braid arithmetic on n strands.

Words in the Artin generators are the universal currency.  Equality of
braids is decided first through the faithful right action on a free group
F_n: two words are equal in the braid group exactly when they induce the
same endomorphism, i.e. the same tuple of images of the free generators.
Images can grow exponentially with word length, so once one outgrows a
fixed budget the query is handed to the Garside left normal form, which
is exact as well and polynomial in the word length.

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

`BraidDecider` decides words of syllables (the band letters of a
relation, say), and `braid_equal` is the same routine on the runs of two
Artin words.  The decider first relabels a pair onto the k strands it
touches, in their order, and decides each relabelled pair once, on k
strands, building the images of each relabelled word once while those it
keeps fit in MAX_IMAGE_LETTERS letters.  That is exact: the relations of
Birman, Ko and Lee (*A new approach to the word and conjugacy problems
in the braid groups*, Adv. Math. 1998) depend only on the order of the
bands' endpoints, so a_pq -> a_{s_p s_q} is a homomorphism from B_k to
B_n, and it is injective, since bands that all pass on one side of the
strands s_1 < .. < s_k lie in one disk around exactly their punctures.
So a relation on four strands out of forty is decided as one on strands
1 .. 4, and decided once however often it recurs.  Only the normal form
expands a syllable into Artin letters.  Inside the kernel a reduced word is a
`bytes` object, letter i as the byte 128 + i and its inverse as 128 - i
for free words, or as itself for Coxeter words, so concatenation, slicing
and inversion run in C and letter indices, hence strands, are limited to
127.  One reader, `_read_word`, parses the text of free and of Coxeter
words straight into it (`parse_free_word`, `parse_cox_word`); at the API
boundary free words are `FreeWord`s, tuples of signed integers (+i for
t_i, -i for its inverse), always freely reduced.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
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

# Letter indices the byte encoding holds, hence strands of the free action.
MAX_STRANDS = 127
# Letters allowed in any one word the kernel builds for `free_image` and the
# Hurwitz action.  Images grow exponentially with word length.  At one byte
# per letter a word stays within 16 MiB and a query within a few such words,
# and a word too long for the action stops early instead of running for
# minutes.  A `BraidDecider` keeps no more letters of images for the sides
# that recur.
MAX_IMAGE_LETTERS = 1 << 24
# Letters a free image may reach inside `braid_equal` before the query is
# handed to the normal form.  Images of the short words the verifier and
# the scanner compare stay far below it (a few thousand letters at most);
# past it the free action is slower than the normal form and its memory
# grows exponentially.
_HANDOVER_LETTERS = 1 << 17
# Artin letters the normal form may take, per side of a query.  A query
# handed over with a longer side, counted on the strands the pair touches,
# is refused with ImageLimitError, and a parsed braid word may have no more.
# The normal forms of a pair of seeded random words of this length, on 4,
# 16 or 127 strands, took at most about 5 s on a 2-core machine, and their
# cost grows about with the square of the letters (figures in CHANGES.md).
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
    """A word built by an action, or handed to the normal form, would exceed its letters."""


def _too_long(limit: int) -> ImageLimitError:
    return ImageLimitError(f"a word exceeds {limit} letters; the braid word is too long")


def _check_strands(n: int) -> None:
    if n > MAX_STRANDS:
        raise ValueError(f"the free action handles at most {MAX_STRANDS} strands, got {n}")


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


def _syllables(letters) -> tuple[tuple[int, int, int], ...]:
    """Artin letters as band syllables (k, k + 1, e), each run of sigma_k^+-1 as one power."""
    out: list[tuple[int, int, int]] = []
    for k, s in letters:
        if out and out[-1][0] == k:
            e = out[-1][2] + s
            if e:
                out[-1] = (k, k + 1, e)
            else:
                out.pop()
        else:
            out.append((k, k + 1, s))
    return tuple(out)


def _generators(n: int) -> list[bytes]:
    return [bytes((128 + i,)) for i in range(1, n + 1)]


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
    return _act(_generators(w.n), _syllables(reversed(w.letters)), MAX_IMAGE_LETTERS, _NEG)


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


class BraidDecider:
    """Exact equality in the braid group on n strands, for words of syllables.

    A word is a tuple of band syllables (i, j, e), each the band power
    a_ij^e, such as the band letters of a relation.  Each pair is first
    relabelled onto the k strands it touches, keeping their order, and
    decided there, once: the verdict is kept, so a relation that recurs on
    other strands with the same pattern is not decided again.  This is
    exact.  The map a_pq -> a_{s_p s_q} from B_k to B_n is a homomorphism,
    as the relations of Birman, Ko and Lee (Adv. Math. 1998) depend only
    on the order of the bands' endpoints, and it is injective, as every
    band on the strands s_1 < .. < s_k passes on the same side and so lies
    in one disk holding exactly their punctures.  The decider also keeps
    the free images of each relabelled word it builds, one tuple a word
    and MAX_IMAGE_LETTERS letters in all, so a side that recurs in another
    pair is not built again: the rotations of a (2, 2, m) triple in `sec4`
    share their long sides.  It holds on to verdicts and images as long
    as it lives: make one per verification call and let it go with the
    call.
    """

    def __init__(self, n: int):
        _check_strands(n)
        # (strands k, relabelled word) -> images of t_1 .. t_k under its
        # action, _kept letters in all
        self._images: dict[tuple[int, tuple], tuple[bytes, ...]] = {}
        self._kept = 0
        # relabelled pair -> whether it is one braid
        self._verdicts: dict[tuple[tuple, tuple], bool] = {}
        # what the decider did: syllable steps, normal-form handovers, the
        # longest image it built, the relabelled pairs it decided and those
        # of them the permutations settled
        self.steps = self.handovers = self.peak_letters = 0
        self.distinct = self.perm_rejections = 0

    def counters(self) -> dict[str, int]:
        """The decider's work so far, for a report's info."""
        return {"oracle_steps": self.steps, "oracle_handovers": self.handovers,
                "oracle_peak_letters": self.peak_letters, "oracle_distinct": self.distinct,
                "oracle_perm_rejections": self.perm_rejections}

    def equal(self, u: tuple, v: tuple) -> bool:
        """Whether two words of syllables are the same braid.

        The pair is relabelled onto the k strands it touches and looked up
        among the pairs already decided.  A new pair is decided on k
        strands: equal words settle it first and unequal permutations
        next, as a cheap filter.  Then the induced free-group endomorphisms
        are compared; the action is faithful, so agreement of all generator
        images settles equality.  When an image outgrows _HANDOVER_LETTERS,
        the left normal forms decide, unless a relabelled side has more
        than MAX_WORD_LETTERS Artin letters: then the query is refused
        with ImageLimitError before any letter is built.
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
        try:
            return self._images_of(u, k) == self._images_of(v, k)
        except ImageLimitError:
            for word in (u, v):
                letters = sum(_band_letters(*syllable) for syllable in word)
                if letters > MAX_WORD_LETTERS:
                    raise ImageLimitError(
                        f"a side has {letters} Artin letters on {k} strands, more than the "
                        f"{MAX_WORD_LETTERS} the normal form is allowed") from None
            self.handovers += 1
            return left_normal_form(_artin(u, k)) == left_normal_form(_artin(v, k))

    def _images_of(self, word: tuple, k: int) -> tuple[bytes, ...]:
        """The images of t_1 .. t_k under the word's action, kept while they fit."""
        images = self._images.get((k, word))
        if images is None:
            out = _generators(k)
            for syllable in reversed(word):
                _act(out, (syllable,), _HANDOVER_LETTERS, _NEG)
                self.steps += 1
                self.peak_letters = max(self.peak_letters, *map(len, out))
            images = tuple(out)
            letters = sum(map(len, images))
            if self._kept + letters <= MAX_IMAGE_LETTERS:
                self._kept += letters
                self._images[k, word] = images
        return images


def _artin(word: tuple, n: int) -> ArtinWord:
    """A word of syllables in Artin letters on n strands, the input of the normal form."""
    return ArtinWord(n, tuple(itertools.chain.from_iterable(
        band_power(BandPair(i, j), e, n) for i, j, e in word)))


def braid_equal(u: ArtinWord, v: ArtinWord) -> bool:
    """Exact equality in the braid group on u.n strands.

    This is `BraidDecider.equal` on the words' runs of letters as
    syllables.
    """
    if u.n != v.n:
        raise ValueError("cannot compare words on different strand counts")
    return BraidDecider(u.n).equal(_syllables(u.letters), _syllables(v.letters))


# -- the Garside normal form --------------------------------------------------
#
# A simple braid, a positive braid in which any two strands cross at most
# once, is a permutation tuple x of 0 .. n-1: x[p] is the strand, numbered
# by its starting position, that ends at position p.  Right multiplication
# by sigma_k swaps the positions k-1 and k, left multiplication the values
# k-1 and k.  The half twist Delta is the reversal, and conjugation by Delta
# is tau: sigma_i -> sigma_{n-i}.  References: ElRifai and Morton,
# "Algorithms for positive braids" (1994); Thurston, ch. 9 of Epstein et
# al., "Word Processing in Groups" (1992).


def _perm_inverse(x) -> list[int]:
    inv = [0] * len(x)
    for p, v in enumerate(x):
        inv[v] = p
    return inv


def _twist(x: tuple[int, ...]) -> tuple[int, ...]:
    """tau of a simple braid: Delta x Delta^-1."""
    top = len(x) - 1
    return tuple(top - v for v in reversed(x))


def _meet(xi: list[int], yi: list[int]) -> list[int]:
    """The greatest common left divisor of two simple braids.

    Each braid is given by the end position of every strand; the result is
    the meet's permutation tuple.  This is Thurston's merge sort: blocks of
    consecutive strands are merged, each already in the meet's order, and a
    strand of the upper block goes ahead of what is left of the lower block
    only if it ends ahead of all of it in both braids.  The first blocks
    are the longest runs of strands that one braid keeps in order, which
    the meet keeps in order too, or that both braids reverse, which the
    meet reverses.  O(n log n).
    """
    n = len(xi)
    runs = []
    lo = 0
    while lo < n:
        hi = lo + 1
        if hi < n and xi[lo] > xi[hi] and yi[lo] > yi[hi]:
            while hi < n and xi[hi - 1] > xi[hi] and yi[hi - 1] > yi[hi]:
                hi += 1
            runs.append(list(range(hi - 1, lo - 1, -1)))
        else:
            up_x = up_y = True
            while hi < n:
                up_x = up_x and xi[hi - 1] < xi[hi]
                up_y = up_y and yi[hi - 1] < yi[hi]
                if not (up_x or up_y):
                    break
                hi += 1
            runs.append(list(range(lo, hi)))
        lo = hi
    while len(runs) > 1:
        merged = []
        for t in range(1, len(runs), 2):
            low, high = runs[t - 1], runs[t]
            m = len(low)
            # the least end positions over low[i:] in either braid
            tail_x, tail_y = [0] * m, [0] * m
            mx = my = n
            for i in range(m - 1, -1, -1):
                if xi[low[i]] < mx:
                    mx = xi[low[i]]
                if yi[low[i]] < my:
                    my = yi[low[i]]
                tail_x[i], tail_y[i] = mx, my
            out: list[int] = []
            i = 0
            for r in high:
                xr, yr = xi[r], yi[r]
                while i < m and (xr > tail_x[i] or yr > tail_y[i]):
                    out.append(low[i])
                    i += 1
                out.append(r)
            out += low[i:]
            merged.append(out)
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0]


def _left_weight(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The left-weighted form (a c, c^-1 b) of the product of two simples.

    c is the meet of b with the complement a^-1 Delta of a; None when c is
    trivial, i.e. when Start(b) is inside Finish(a) already.
    """
    n = len(a)
    b_inv = _perm_inverse(b)
    if all(a[k - 1] > a[k] or b_inv[k - 1] < b_inv[k] for k in range(1, n)):
        return None
    c = _meet([n - 1 - v for v in a], b_inv)
    c_inv = _perm_inverse(c)
    return tuple(a[v] for v in c), tuple(c_inv[v] for v in b)


def left_normal_form(w: ArtinWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The left normal form Delta^p A_1 .. A_r of w, as (p, (A_1, .., A_r)).

    Each A_i is a simple braid other than 1 and Delta, as a permutation
    tuple, and every pair is left-weighted: Start(A_{i+1}) lies inside
    Finish(A_i).  Two words are equal braids exactly when their normal
    forms are equal.  Each sigma_k^-1 is written Delta^-1 (Delta sigma_k^-1)
    and every Delta^-1 is moved to the front through tau.  The positive
    factors are then inserted from the right, and each insertion makes the
    pairs left-weighted from the right end back, stopping at the first pair
    that already is.  A factor that becomes Delta joins the front, twisting
    the factors before it.

    >>> left_normal_form(ArtinWord(3, ((1, 1), (2, 1), (1, 1))))
    (1, ())
    >>> left_normal_form(ArtinWord(3, ((1, -1), (2, 1))))
    (-1, ((1, 2, 0), (0, 2, 1)))
    """
    n = w.n
    identity = tuple(range(n))
    delta = identity[::-1]
    negatives = sum(1 for _, s in w.letters if s < 0)
    remaining = negatives
    # The normal form so far, with the Deltas it pulled to the front kept
    # apart: factors[i] is stored as of the pull count stamps[i], and each
    # later pull from its right twists it once more.
    pulled = 0
    factors: list[tuple[int, ...]] = []
    stamps: list[int] = []
    # A word that repeats a pattern repeats its pair fixes.
    fixed_pairs: dict = {}
    for k, s in w.letters:
        if s < 0:
            remaining -= 1
        # sigma_k or Delta sigma_k^-1, through tau once per Delta^-1 after it
        if remaining % 2:
            k = n - k
        x = list(identity if s > 0 else delta)
        x[k - 1], x[k] = x[k], x[k - 1]
        right = tuple(x)
        if right == delta:
            pulled += 1
            continue
        if right == identity:
            continue
        j = len(factors)
        factors.append(right)
        stamps.append(pulled)
        while j:
            left = factors[j - 1]
            if (pulled - stamps[j - 1]) % 2:
                left = _twist(left)
            if (left, right) in fixed_pairs:
                pair = fixed_pairs[left, right]
            else:
                pair = fixed_pairs[left, right] = _left_weight(left, right)
            if pair is None:
                break
            left, right = pair
            factors[j], stamps[j] = right, pulled
            if left == delta:
                del factors[j - 1], stamps[j - 1]
                for i in range(j - 1, len(stamps)):
                    stamps[i] += 1
                pulled += 1
                break
            factors[j - 1], stamps[j - 1] = left, pulled
            right = left
            j -= 1
        if factors[-1] == identity:
            factors.pop()
            stamps.pop()
    return pulled - negatives, tuple(
        _twist(f) if (pulled - t) % 2 else f for f, t in zip(factors, stamps)
    )


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


def parse_braid_word(text: str, n: int) -> ArtinWord:
    """Parse whitespace-separated braid tokens.

    `s<k>` is an Artin generator, `a<i>.<j>` a band; a trailing apostrophe
    inverts and `^<e>` raises to an integer power, so "a1.3'^2" means the
    square of the inverse band on strands 1 and 3.  A word of more than
    MAX_WORD_LETTERS letters is refused before any of it is built.
    """
    if n < 1:
        raise ValueError(f"a braid needs at least 1 strand, got {n}")
    letters: list[tuple[int, int]] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse braid token {token!r}")
        s_idx, band_i, band_j, prime, power = m.groups()
        e = int(power) if power is not None else 1
        if prime:
            e = -e
        band = BandPair(int(band_i), int(band_j)) if s_idx is None else None
        i, j = band.indices() if band else (int(s_idx), int(s_idx) + 1)
        if len(letters) + _band_letters(i, j, e) > MAX_WORD_LETTERS:
            raise ValueError(f"a braid word may have at most {MAX_WORD_LETTERS} letters")
        if band:
            letters += band_power(band, e, n)
        else:
            letters += ArtinWord(n, ((i, 1 if e >= 0 else -1),)).letters * abs(e)
    return ArtinWord(n, tuple(letters))


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
