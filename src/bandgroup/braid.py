"""Exact braid arithmetic on n strands.

Words in the Artin generators are the universal currency.  Equality of
braids is decided through the faithful right action on a free group F_n:
two words are equal in the braid group exactly when they induce the same
endomorphism, i.e. the same tuple of images of the free generators.  No
normal forms are computed; all words stay exact.

The images are built by right-composition, from the last Artin letter
back: each letter rebuilds only the images of t_k and t_{k+1}, as reduced
products of images already built, and letters cancel only where two
factors meet.  Inside that kernel a reduced free word is a `bytes` object,
t_i as the byte 128 + i and t_i^-1 as 128 - i, so concatenation, slicing
and inversion run in C; this encoding limits the free action to at most
127 strands.  At the API boundary free words are `FreeWord`s, tuples of
signed integers (+i for t_i, -i for its inverse), always freely reduced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .coxeter import BandPair


@dataclass(frozen=True)
class ArtinWord:
    """A word in the Artin generators sigma_1 .. sigma_{n-1} with signs.

    Words are not kept freely reduced; free_reduce is available when wanted.
    """

    n: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for k, s in self.letters:
            if not 1 <= k <= self.n - 1:
                raise ValueError(f"generator index {k} outside 1..{self.n - 1}")
            if s not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {s}")

    @staticmethod
    def identity(n: int) -> ArtinWord:
        return ArtinWord(n, ())

    @staticmethod
    def generator(n: int, k: int, sign: int = 1) -> ArtinWord:
        return ArtinWord(n, ((k, sign),))

    def __mul__(self, other: ArtinWord) -> ArtinWord:
        if self.n != other.n:
            raise ValueError("cannot concatenate words on different strand counts")
        return ArtinWord(self.n, self.letters + other.letters)

    def inverse(self) -> ArtinWord:
        return ArtinWord(self.n, tuple((k, -s) for k, s in reversed(self.letters)))

    def __pow__(self, e: int) -> ArtinWord:
        base = self if e >= 0 else self.inverse()
        return ArtinWord(self.n, base.letters * abs(e))

    def free_reduce(self) -> ArtinWord:
        out: list[tuple[int, int]] = []
        for k, s in self.letters:
            if out and out[-1] == (k, -s):
                out.pop()
            else:
                out.append((k, s))
        return ArtinWord(self.n, tuple(out))

    def __len__(self) -> int:
        return len(self.letters)


def band_to_artin(tau: BandPair, n: int) -> ArtinWord:
    """Expand the band on strands (i, j) into Artin generators.

    The band is the conjugate sigma_{j-1} ... sigma_{i+1} sigma_i
    sigma_{i+1}' ... sigma_{j-1}', taking strand i over the intermediate
    strands.  The choice of conjugating side is pinned down by the relation
    test suite: with this convention every defining relation of the band
    presentation holds.

    >>> [k * s for k, s in band_to_artin(BandPair(1, 4), 4).letters]
    [3, 2, 1, -2, -3]
    """
    i, j = tau.i, tau.j
    if j > n:
        raise ValueError(f"band {tau} does not fit on {n} strands")
    letters = [(t, 1) for t in range(j - 1, i - 1, -1)]
    letters += [(t, -1) for t in range(i + 1, j)]
    return ArtinWord(n, tuple(letters))


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

    @staticmethod
    def generator(i: int) -> FreeWord:
        return FreeWord((i,))

    @staticmethod
    def from_letters(seq: Iterable[int]) -> FreeWord:
        """Reduce an arbitrary signed-letter sequence."""
        out: list[int] = []
        for x in seq:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return FreeWord(tuple(out))

    def inverse(self) -> FreeWord:
        return FreeWord(tuple(-x for x in reversed(self.letters)))

    def __mul__(self, other: FreeWord) -> FreeWord:
        return FreeWord.from_letters(self.letters + other.letters)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(generator index, sign) view of the letters."""
        return tuple((abs(x), 1 if x > 0 else -1) for x in self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class FreeEndo:
    """Images of the free generators t_1 .. t_n under a braid action."""

    n: int
    images: tuple[FreeWord, ...]

    @staticmethod
    def identity(n: int) -> FreeEndo:
        return FreeEndo(n, tuple(FreeWord.generator(i) for i in range(1, n + 1)))

    def image_of(self, i: int) -> FreeWord:
        return self.images[i - 1]

    def apply_to(self, word: FreeWord) -> FreeWord:
        """Substitute the images into a word, reducing as we go."""
        out: list[int] = []
        for x in word.letters:
            img = self.images[abs(x) - 1].letters
            if x < 0:
                img = tuple(-y for y in reversed(img))
            for y in img:
                if out and out[-1] == -y:
                    out.pop()
                else:
                    out.append(y)
        return FreeWord(tuple(out))

    def compose(self, later: FreeEndo) -> FreeEndo:
        """The endomorphism of `self's word followed by later's word`."""
        if self.n != later.n:
            raise ValueError("strand counts differ")
        return FreeEndo(self.n, tuple(later.apply_to(img) for img in self.images))


# -- the free action ----------------------------------------------------------

MAX_STRANDS = 127
# Letters allowed in any one free image.  Images grow exponentially with
# word length.  At one byte per letter an image stays within 16 MiB and a
# query within about n + 3 images, and a query too long for the oracle
# stops early instead of running for minutes.
MAX_IMAGE_LETTERS = 1 << 24

# Inverts one encoded letter: 128 + i <-> 128 - i.
_NEG = bytes((256 - b) % 256 for b in range(256))


class ImageLimitError(ValueError):
    """A free image would exceed MAX_IMAGE_LETTERS letters."""


def _check_strands(n: int) -> None:
    if n > MAX_STRANDS:
        raise ValueError(f"the free action handles at most {MAX_STRANDS} strands, got {n}")


def _inverse(x: bytes) -> bytes:
    return x[::-1].translate(_NEG)


def _mul(x: bytes, y: bytes) -> bytes:
    """The reduced product of two reduced words.

    Letters cancel only where x meets y; the number that cancel is found by
    galloping, then bisecting, over slice comparisons.  A letter and its
    inverse are the two bytes that sum to 256.  Both words must be
    non-empty, as every product the kernel forms is the image of a
    non-trivial element under an automorphism.
    """
    if x[-1] + y[0] != 256:
        return x + y
    lx = len(x)
    limit = min(lx, len(y))
    c, step = 1, 1  # the last c letters of x cancel the first c of y
    while c < limit:
        hi = min(c + step, limit)
        if x[lx - hi:lx - c][::-1].translate(_NEG) != y[c:hi]:
            while hi - c > 1:
                mid = (c + hi) // 2
                if x[lx - mid:lx - c][::-1].translate(_NEG) == y[c:mid]:
                    c = mid
                else:
                    hi = mid
            break
        c = hi
        step *= 2
    return x[:lx - c] + y[c:]


def _free_images(w: ArtinWord) -> list[bytes]:
    """Images of t_1 .. t_n under the right action of w, as encoded words.

    The action of w = x_1 .. x_m is Psi_1 = phi_m o .. o phi_1, so
    Psi_k = Psi_{k+1} o phi_k, built from the last letter back.  phi_k
    moves only t_k and t_{k+1}; with a = Psi_{k+1}(t_k) and
    b = Psi_{k+1}(t_{k+1}), sigma_k sends them to a b a^-1 and a, and
    sigma_k^-1 to b and b^-1 a b.

    >>> [[x - 128 for x in img] for img in _free_images(ArtinWord(3, ((1, 1), (2, -1))))]
    [[1, 3, -1], [1], [-3, 2, 3]]
    """
    _check_strands(w.n)
    images = [bytes((128 + i,)) for i in range(1, w.n + 1)]
    for k, s in reversed(w.letters):
        a, b = images[k - 1], images[k]
        if s > 0:
            new = _mul(_mul(a, b), _inverse(a))
            images[k - 1], images[k] = new, a
        else:
            new = _mul(_mul(_inverse(b), a), b)
            images[k - 1], images[k] = b, new
        if len(new) > MAX_IMAGE_LETTERS:
            raise ImageLimitError(
                f"a free image exceeds {MAX_IMAGE_LETTERS} letters; "
                "the word is too long for the free-action oracle"
            )
    return images


def _decode(x: bytes) -> FreeWord:
    return FreeWord(tuple(b - 128 for b in x))


def free_image(w: ArtinWord, i: int) -> FreeWord:
    """Image of the free generator t_i under the right action of w."""
    if not 1 <= i <= w.n:
        raise ValueError(f"free generator index {i} outside 1..{w.n}")
    return _decode(_free_images(w)[i - 1])


def artin_action_on_free(w: ArtinWord) -> FreeEndo:
    """The right action of w on (t_1, .., t_n)."""
    return FreeEndo(w.n, tuple(_decode(img) for img in _free_images(w)))


def braid_equal(u: ArtinWord, v: ArtinWord) -> bool:
    """Exact equality in the braid group on u.n strands.

    Decided by comparing the induced free-group endomorphisms; the action
    is faithful, so agreement of all generator images settles equality.
    The underlying permutations are compared first as a cheap filter.
    """
    if u.n != v.n:
        raise ValueError("cannot compare words on different strand counts")
    _check_strands(u.n)
    if u.letters == v.letters:
        return True
    if _permutation_list(u) != _permutation_list(v):
        return False
    return _free_images(u) == _free_images(v)


# -- permutations -------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..d}, mapping i to images[i-1]."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}")

    @staticmethod
    def identity(d: int) -> Permutation:
        return Permutation(tuple(range(1, d + 1)))

    @staticmethod
    def transposition(d: int, a: int, b: int) -> Permutation:
        images = list(range(1, d + 1))
        images[a - 1], images[b - 1] = b, a
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def after(self, inner: Permutation) -> Permutation:
        """Functional composition: (self.after(inner))(x) = self(inner(x))."""
        if self.degree != inner.degree:
            raise ValueError("degrees differ")
        return Permutation(tuple(self.images[y - 1] for y in inner.images))

    def inverse(self) -> Permutation:
        images = [0] * self.degree
        for x, y in enumerate(self.images, start=1):
            images[y - 1] = x
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

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
        """Compose cycles functionally, the rightmost cycle acting first."""
        acc = Permutation.identity(d)
        for cyc in cycles:
            elems = list(cyc)
            images = list(range(1, d + 1))
            for a, b in zip(elems, elems[1:] + elems[:1]):
                images[a - 1] = b
            acc = acc.after(Permutation(tuple(images)))
        return acc

    @staticmethod
    def parse(text: str, degree: int) -> Permutation:
        """Parse one-line cycle notation such as "(1 2)(3 4)" or "()"."""
        s = text.strip()
        if s in ("()", "id", ""):
            return Permutation.identity(degree)
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


def _permutation_list(w: ArtinWord) -> list[int]:
    images = list(range(1, w.n + 1))
    for k, _ in w.letters:
        images[k - 1], images[k] = images[k], images[k - 1]
    return images


def permutation_image(w: ArtinWord) -> Permutation:
    """The permutation underlying a braid word.

    Each generator maps to the adjacent transposition (k, k+1); letters are
    composed functionally with later letters innermost, so the image of a
    concatenation is the composition of the images.
    """
    return Permutation(tuple(_permutation_list(w)))


# -- textual syntax -----------------------------------------------------------

_TOKEN = re.compile(r"^(?:s(\d+)|a(\d+)\.(\d+))('?)(?:\^(-?\d+))?$")


def parse_braid_word(text: str, n: int) -> ArtinWord:
    """Parse whitespace-separated braid tokens.

    `s<k>` is an Artin generator, `a<i>.<j>` a band; a trailing apostrophe
    inverts and `^<e>` raises to an integer power, so "a1.3'^2" means the
    square of the inverse band on strands 1 and 3.
    """
    word = ArtinWord.identity(n)
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse braid token {token!r}")
        s_idx, band_i, band_j, prime, power = m.groups()
        if s_idx is not None:
            atom = ArtinWord.generator(n, int(s_idx))
        else:
            atom = band_to_artin(BandPair(int(band_i), int(band_j)), n)
        if prime:
            atom = atom.inverse()
        word = word * (atom ** int(power) if power is not None else atom)
    return word


def format_braid_word(w: ArtinWord) -> str:
    """Render as s-tokens, collapsing runs of one letter into powers."""
    parts: list[str] = []
    idx = 0
    letters = w.letters
    while idx < len(letters):
        k, s = letters[idx]
        run = 1
        while idx + run < len(letters) and letters[idx + run] == (k, s):
            run += 1
        token = f"s{k}" + ("'" if s < 0 else "")
        parts.append(token if run == 1 else f"{token}^{run}")
        idx += run
    return " ".join(parts)


_FREE_TOKEN = re.compile(r"^t(\d+)('?)(?:\^(-?\d+))?$")


def parse_free_word(text: str) -> FreeWord:
    """Parse tokens like "t1 t2' t3^2" into a reduced free word."""
    letters: list[int] = []
    for token in text.split():
        m = _FREE_TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse free-word token {token!r}")
        idx, prime, power = m.groups()
        x = -int(idx) if prime else int(idx)
        e = int(power) if power is not None else 1
        if e < 0:
            x, e = -x, -e
        letters.extend([x] * e)
    return FreeWord.from_letters(letters)


def format_free_word(w: FreeWord) -> str:
    if not w.letters:
        return "1"
    return " ".join(f"t{abs(x)}" + ("" if x > 0 else "'") for x in w.letters)
