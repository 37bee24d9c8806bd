"""Reduced words over involutive letters and their block combinatorics.

Elements of the universal Coxeter group (involutive generators, no other
relations) are represented by words with no two equal adjacent letters.
Everything here is about how powers of a band act on such words: the closed
form of the action on a single letter, the factorization of a word into
maximal blocks over a two-letter subalphabet, and the executable checks
that blocks marked "critical" grow under the action while the block pattern
is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .braid import ArtinWord, artin_action_on_free
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
    def empty() -> CoxWord:
        return CoxWord(())

    @staticmethod
    def single(i: int) -> CoxWord:
        return CoxWord((i,))

    def __mul__(self, other: CoxWord) -> CoxWord:
        return reduce_cox(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(f"s{x}" for x in self.letters) if self.letters else "1"


def reduce_cox(raw: Iterable[int]) -> CoxWord:
    """Delete adjacent equal pairs until none remain.

    Single-pair deletion is confluent here, so a one-pass stack reduction
    reaches the unique reduced word regardless of deletion order.

    >>> reduce_cox([1, 2, 2, 1]).letters
    ()
    >>> reduce_cox([1, 2, 2, 3]).letters
    (1, 3)
    """
    out: list[int] = []
    for x in raw:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return CoxWord(tuple(out))


def parse_cox_word(text: str) -> CoxWord:
    """Parse space-separated `s<k>` tokens into a reduced word."""
    letters: list[int] = []
    for token in text.split():
        if not token.startswith("s") or not token[1:].isdigit():
            raise ValueError(f"cannot parse Coxeter-word token {token!r}")
        letters.append(int(token[1:]))
    return reduce_cox(letters)


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

    def flatten(self) -> tuple[int, ...]:
        out: list[int] = list(self.blocks[0])
        for sep, block in zip(self.separators, self.blocks[1:]):
            out.append(sep)
            out.extend(block)
        return tuple(out)


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


def is_long(block: Sequence[int]) -> bool:
    """A block is long when it has at least four letters."""
    return len(block) >= 4


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


def _alternating(a: int, b: int, count: int) -> list[int]:
    return [a if t % 2 == 0 else b for t in range(count)]


def band_power_letter_action(i: int, tau: BandPair, m: int) -> CoxWord:
    """Closed form for the image of the letter s_i under the m-th band power.

    For the band on (j, k): letters outside [j, k] are fixed; s_j maps to
    (s_j s_k)^m s_j, a letter strictly between to its conjugate by
    (s_j s_k)^m, and s_k to s_k (s_j s_k)^-m.  Negative m uses
    (s_j s_k)^-1 = s_k s_j.  The result is returned reduced.
    """
    j, k = tau.i, tau.j
    if i < j or i > k:
        return CoxWord.single(i)

    def power(e: int) -> list[int]:
        if e >= 0:
            return _alternating(j, k, 2 * e)
        return _alternating(k, j, -2 * e)

    if i == j:
        return reduce_cox(power(m) + [j])
    if i == k:
        return reduce_cox([k] + power(-m))
    return reduce_cox(power(m) + [i] + power(-m))


def act_band_on_cox(w: CoxWord, tau: BandPair, m: int) -> CoxWord:
    """Image of a word under the m-th power of the band on tau.

    Each letter is replaced by its closed-form image and the concatenation
    is reduced; this agrees with pushing the expanded Artin word through
    the letterwise substitution rules.
    """
    out: list[int] = []
    for x in w.letters:
        for y in band_power_letter_action(x, tau, m).letters:
            if out and out[-1] == y:
                out.pop()
            else:
                out.append(y)
    return CoxWord(tuple(out))


def apply_artin_to_cox(w: CoxWord, braid: ArtinWord) -> CoxWord:
    """Act on a word through the free action and the quotient t_i -> s_i.

    A letter s_x with x <= braid.n goes to the free image of t_x with its
    signs dropped; letters above braid.n are fixed.  The concatenation is
    then reduced.  sigma_k thus substitutes s_k -> s_k s_{k+1} s_k and
    s_{k+1} -> s_k, composing left to right along the braid word.
    """
    images = artin_action_on_free(braid).images
    out: list[int] = []
    for x in w.letters:
        if x <= braid.n:
            out.extend(abs(y) for y in images[x - 1].letters)
        else:
            out.append(x)
    return reduce_cox(out)


def has_long_subword(w: CoxWord, j: int, k: int) -> bool:
    """Whether some maximal {j, k}-block of w has length at least four."""
    run = 0
    for x in w.letters:
        if x == j or x == k:
            run += 1
            if run >= 4:
                return True
        else:
            run = 0
    return False


def long_pairs(w: CoxWord) -> set[BandPair]:
    """All letter pairs {j, k} for which w has a long block."""
    present = sorted(set(w.letters))
    found: set[BandPair] = set()
    for a_idx in range(len(present)):
        for b_idx in range(a_idx + 1, len(present)):
            j, k = present[a_idx], present[b_idx]
            if has_long_subword(w, j, k):
                found.add(BandPair(j, k))
    return found


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
    if has_long_subword(w, il.i, il.j):
        return PropCheckReport(
            "seven", "precondition-violated", f"source has a long {il} block"
        )
    image = act_band_on_cox(w, il, m)
    failures: list[str] = []
    for pair in sorted(long_pairs(image)):
        if pair == il:
            continue
        if commutes_in_brn(il, pair) and has_long_subword(w, pair.i, pair.j):
            continue
        failures.append(f"long {pair} block in image unexplained")
    if failures:
        return PropCheckReport("seven", "fail", f"image {image}", tuple(failures))
    return PropCheckReport("seven", "pass", f"image {image}")
