"""Relation families on band-letter powers and their exact verification.

A relation is a pair of abstract words whose letters are (band pair,
exponent) factors; the letter (tau, e) expands to the band on tau raised
to e times the matrix entry of tau.  Each generator below yields one
family of relations for a class of exponent matrices, and checks its
input before it yields the first; verify_relations settles every
instance, as it comes, with the exact equality oracle.
The thm2, combing, rederivation and sec4 families read the matrix only
through `_tuples`, which hands them one tuple of strands at a time with
the entries on it, so each relation depends only on the matrix restricted
to its strands (past sec4's input checks, which read every entry).
The coset machinery rewrites a generator times a coset representative
into representative-times-subgroup-word form and certifies the rewriting
in the braid group.

Family tags follow the command-line vocabulary: thm1, thm2.i..v,
combing.i..iv, combing.derived.1..8, sec4.1, sec4.2, sec4.3a..3e, block.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .braid import (
    MAX_WORD_LETTERS,
    ArtinWord,
    BraidDecider,
    ImageLimitError,
    _permutation,
    band_power,
)
from .coxeter import (
    BandPair,
    CoxeterDatum,
    Partition,
    ScopeError,
    commutes_in_brn,
    partition_to_matrix,
)
from .report import RunReport

Letter = tuple[BandPair, int]
Word = tuple[Letter, ...]


@dataclass(frozen=True)
class Relation:
    """Two abstract band-letter words asserted equal, with provenance tag."""

    label: str
    indices: tuple[int, ...]
    lhs: Word
    rhs: Word

    def __post_init__(self):
        if self.lhs == self.rhs:
            raise ValueError(f"degenerate relation {self.label} {self.indices}")


def format_letter_word(word: Word) -> str:
    if not word:
        return "1"
    return " ".join(f"b{p}" if e == 1 else f"b{p}^{e}" for p, e in word)


def _band_syllables(word: Word, matrix: CoxeterDatum) -> tuple[tuple[int, int, int], ...]:
    """The band syllables (i, j, e * m_tau) of the letters (tau, e) of a word."""
    rows = matrix.m
    out = []
    for pair, e in word:
        i, j = pair.i, pair.j
        m = rows[i - 1][j - 1]
        if m == 0:
            raise ValueError(f"letter base {pair} has zero matrix entry")
        out.append((i, j, e * m))
    return tuple(out)


def expand_letter_word(word: Word, matrix: CoxeterDatum) -> ArtinWord:
    """Expand every letter (tau, e) to the band on tau raised to e * m_tau."""
    n = matrix.n
    return ArtinWord(n, tuple(itertools.chain.from_iterable(
        band_power(BandPair(i, j), e, n) for i, j, e in _band_syllables(word, matrix))))


class BandWordDecider:
    """Exact equality of words in band letters over one matrix, for one call.

    The letter (tau, e) is the band syllable (i, j, e m_tau), and words are
    decided as words of syllables, so a relation that recurs on other
    strands with the same pattern is decided once (see `BraidDecider`).
    Make one per verification call.
    """

    def __init__(self, matrix: CoxeterDatum):
        self._matrix = matrix
        self._braids = BraidDecider()

    def equal(self, u: Word, v: Word) -> bool:
        """Whether two words are the same braid; a pair the decider refuses is named."""
        matrix = self._matrix
        x, y = _band_syllables(u, matrix), _band_syllables(v, matrix)
        try:
            return self._braids.equal(x, y)
        except ImageLimitError as exc:
            raise ImageLimitError(
                f"{format_letter_word(u)} = {format_letter_word(v)}: {exc}") from None

    def permutation(self, word: Word) -> list[int]:
        """The images of 1 .. n under the permutation of the word's braid."""
        return _permutation(_band_syllables(word, self._matrix), self._matrix.n)

    def counters(self) -> dict[str, int]:
        """The oracle's work so far: see `BraidDecider.counters`."""
        return self._braids.counters()


def _inverse(word: Word) -> Word:
    return tuple((pair, -e) for pair, e in reversed(word))


def _rel(label: str, indices: tuple[int, ...], lhs: list[Letter], rhs: list[Letter]) -> Relation:
    return Relation(label, indices, tuple(lhs), tuple(rhs))


_ROTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # the cyclic orders of a triple


def _tuples(
    matrix: CoxeterDatum, size: int, last: bool = False
) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """Each increasing tuple s of `size` strands, with m the matrix on s.

    m[p][q] is the entry on strands s[p], s[q], so a relation built from s
    and m depends on the matrix only through its restriction to s.  With
    `last`, the strands come from 1..n-1 and strand n is appended to s.
    """
    n, rows = matrix.n, matrix.m
    tail = (n,) if last else ()
    for s in itertools.combinations(range(1, n + 1 - last), size):
        s += tail
        yield s, [[rows[x - 1][y - 1] for y in s] for x in s]


# -- generator families -------------------------------------------------------


def relations_thm1(matrix: CoxeterDatum) -> Iterator[Relation]:
    """Commutations between non-crossing band letters (large type only)."""
    if not matrix.is_large_type():
        raise ScopeError("thm1 relations need a large-type matrix (entries 0 or >= 3)")
    for tau, sigma in itertools.combinations(matrix.band_pairs(), 2):
        if commutes_in_brn(tau, sigma):
            yield _rel("thm1", tau.indices() + sigma.indices(),
                       [(tau, 1), (sigma, 1)], [(sigma, 1), (tau, 1)])


def relations_thm2(p: Partition) -> Iterator[Relation]:
    """The five relation families of the partition-type presentation."""
    matrix = partition_to_matrix(p)
    for (a, b, c, d), m in _tuples(matrix, 4):
        ad, bc = BandPair(a, d), BandPair(b, c)
        yield _rel("thm2.i", (a, b, c, d), [(ad, 1), (bc, 1)], [(bc, 1), (ad, 1)])
        cd, ab = BandPair(c, d), BandPair(a, b)
        yield _rel("thm2.i", (c, a, b, d), [(cd, 1), (ab, 1)], [(ab, 1), (cd, 1)])
        # conjugated commutation, with the double band as one letter
        i, j, k, l = a, b, c, d
        kl, jl, ik = BandPair(k, l), BandPair(j, l), BandPair(i, k)
        q = 1 if m[2][3] == 2 else 2
        yield _rel("thm2.ii", (i, j, k, l), [(jl, 1), (kl, q), (ik, 1), (kl, -q)],
                   [(kl, q), (ik, 1), (kl, -q), (jl, 1)])
    for s, m in _tuples(matrix, 3):
        a, b, c = s
        ab, ac, bc = BandPair(a, b), BandPair(a, c), BandPair(b, c)
        ms = (m[0][1], m[0][2], m[1][2])
        if ms == (2, 2, 2):
            yield _rel("thm2.iv", (a, b, c), [(ab, 1), (ac, 1), (bc, 1)],
                       [(bc, 1), (ab, 1), (ac, 1)])
            yield _rel("thm2.iv", (a, b, c), [(bc, 1), (ab, 1), (ac, 1)],
                       [(ac, 1), (bc, 1), (ab, 1)])
        elif ms == (1, 1, 1):
            yield _rel("thm2.v", (a, b, c), [(ab, 1), (ac, 1)], [(bc, 1), (ab, 1)])
            yield _rel("thm2.v", (a, b, c), [(bc, 1), (ab, 1)], [(ac, 1), (bc, 1)])
        else:
            for x, y, z in _ROTATIONS:
                if m[x][y] == 1 and m[x][z] == 2 and m[y][z] == 2:
                    i, j, k = s[x], s[y], s[z]
                    ij, ik, jk = BandPair.of(i, j), BandPair.of(i, k), BandPair.of(j, k)
                    yield _rel("thm2.iii", (i, j, k), [(ij, 1), (ik, 1)], [(jk, 1), (ij, 1)])
                    yield _rel("thm2.iii", (i, j, k), [(ij, 1), (ik, 1), (jk, 1)],
                               [(ik, 1), (jk, 1), (ij, 1)])


def relations_combing(p_prime: Partition) -> Iterator[Relation]:
    """Relations of the one-strand extension over a smaller partition group.

    p_prime partitions {1..n-1}; the extended group on n strands is
    generated by the doubled last-strand bands a_{in}^2 together with the
    b_{jk} for j < k < n.  Emits the four stated families plus the eight
    conjugation identities their derivation combs out.  Letters on a pair
    (i, n) have exponent interpreted through the extended matrix, where
    every m_in is 2.
    """
    matrix = partition_to_matrix(p_prime.with_singleton())
    for (i, j, k, n), m in _tuples(matrix, 3, last=True):
        ai, aj, ak = BandPair(i, n), BandPair(j, n), BandPair(k, n)
        ij, ik, jk = BandPair(i, j), BandPair(i, k), BandPair(j, k)
        # a_i^2 commutes with b_jk when i is outside or right of {j, k}
        yield _rel("combing.i", (i, j, k), [(ai, 1), (jk, 1)], [(jk, 1), (ai, 1)])
        yield _rel("combing.i", (i, j, k), [(ak, 1), (ij, 1)], [(ij, 1), (ak, 1)])
        yield _rel("combing.ii", (i, j, k), [(aj, 1), (ak, 1), (ik, 1), (ak, -1)],
                   [(ak, 1), (ik, 1), (ak, -1), (aj, 1)])
        yield _rel("combing.derived.1", (i, j, k), [(jk, 1), (ai, 1), (jk, -1)], [(ai, 1)])
        yield _rel("combing.derived.2", (i, j, k), [(ij, 1), (ak, 1), (ij, -1)], [(ak, 1)])
        if m[0][2] == 1:
            yield _rel("combing.derived.7", (i, j, k), [(ik, 1), (aj, 1), (ik, -1)],
                       [(ak, -1), (ai, 1), (aj, 1), (ai, -1), (ak, 1)])
        else:
            yield _rel("combing.derived.8", (i, j, k), [(ik, -1), (aj, 1), (ik, 1)],
                       [(ai, 1), (ak, 1), (ai, -1), (ak, -1), (aj, 1),
                        (ak, 1), (ai, 1), (ak, -1), (ai, -1)])
    for (i, j, n), m in _tuples(matrix, 2, last=True):
        ij, ai, aj = BandPair(i, j), BandPair(i, n), BandPair(j, n)
        if m[0][1] == 1:
            yield _rel("combing.iii", (i, j), [(ij, 1), (ai, 1)], [(aj, 1), (ij, 1)])
            yield _rel("combing.iii", (i, j), [(ij, 1), (ai, 1), (aj, 1)],
                       [(ai, 1), (aj, 1), (ij, 1)])
            yield _rel("combing.derived.3", (i, j), [(ij, 1), (ai, 1), (ij, -1)], [(aj, 1)])
            yield _rel("combing.derived.4", (i, j), [(ij, 1), (aj, 1), (ij, -1)],
                       [(aj, -1), (ai, 1), (aj, 1)])
        else:
            yield _rel("combing.iv", (i, j), [(aj, 1), (ij, 1), (ai, 1)],
                       [(ij, 1), (ai, 1), (aj, 1)])
            yield _rel("combing.iv", (i, j), [(ij, 1), (ai, 1), (aj, 1)],
                       [(ai, 1), (aj, 1), (ij, 1)])
            yield _rel("combing.derived.5", (i, j), [(ij, 1), (ai, 1), (ij, -1)],
                       [(aj, -1), (ai, 1), (aj, 1)])
            yield _rel("combing.derived.6", (i, j), [(ij, 1), (aj, 1), (ij, -1)],
                       [(aj, -1), (ai, -1), (aj, 1), (ai, 1), (aj, 1)])


def relations_sec4(matrix: CoxeterDatum) -> Iterator[Relation]:
    """Relation families for matrices with every entry at least 2.

    The triple families depend on the exponent pattern in cyclic order.
    For the (2, 2, odd) pattern only the two outer expressions of the
    source display are emitted: the middle one fails on letter counts and
    no third word with the forced letter multiset is braid-equal to them.
    """
    n = matrix.n
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if matrix.entry_at(a, b) < 2:
                raise ScopeError(
                    f"sec4 relations need every entry >= 2, got m[{a}][{b}] = {matrix.entry_at(a, b)}"
                )
    for j, k in itertools.combinations(range(1, n + 1), 2):
        m = matrix.entry_at(j, k)
        if m > MAX_WORD_LETTERS and any(
            matrix.entry_at(i, j) == matrix.entry_at(i, k) == 2
            for i in range(1, n + 1) if i not in (j, k)
        ):
            # the sec4.3 words of (i, j, k) have about m letters, each of at
            # least two Artin letters
            raise ValueError(f"sec4.3 words for m[{j}][{k}] = {m} would expand past "
                             f"{MAX_WORD_LETTERS} Artin letters")
    for (a, b, c, d), m in _tuples(matrix, 4):
        ab, cd = BandPair(a, b), BandPair(c, d)
        ad, bc = BandPair(a, d), BandPair(b, c)
        yield _rel("sec4.1", (a, b, c, d), [(ab, 1), (cd, 1)], [(cd, 1), (ab, 1)])
        yield _rel("sec4.1", (a, b, c, d), [(ad, 1), (bc, 1)], [(bc, 1), (ad, 1)])
        i, j, k, l = a, b, c, d
        jk = BandPair(j, k)
        if m[1][2] == 2:
            ik, jl = BandPair(i, k), BandPair(j, l)
            yield _rel("sec4.2", (i, j, k, l), [(ik, 1), (jk, 1), (jl, 1), (jk, -1)],
                       [(jk, 1), (jl, 1), (jk, -1), (ik, 1)])
    for s, m in _tuples(matrix, 3):
        for p, q, r in _ROTATIONS:
            i, j, k = s[p], s[q], s[r]
            x, y, z = BandPair.of(i, j), BandPair.of(i, k), BandPair.of(j, k)
            mx, my, mz = m[p][q], m[p][r], m[q][r]
            X, Y, Z = (x, 1), (y, 1), (z, 1)
            if mx == 2 and my == 2 and mz % 2 == 0:
                nu = mz // 2
                first = [X, Y] * (nu - 1) + [Z, X, Y]
                second = [Y] + [X, Y] * (nu - 1) + [Z, X]
                third = [X, Y] * nu + [Z]
                for lhs, rhs in itertools.combinations((first, second, third), 2):
                    yield _rel("sec4.3a", (i, j, k), lhs, rhs)
            elif mx == 2 and my == 2 and mz % 2 == 1:
                nu = (mz - 1) // 2
                first = [Y] + [X, Y] * (nu - 1) + [Z, X, Y]
                third = [Y] + [X, Y] * nu + [Z]
                yield _rel("sec4.3b", (i, j, k), first, third)
            if (mx, my) == (2, 3) and 3 <= mz <= 5:
                if mz == 3:
                    words = ([X, Z, X, Y, Z], [Z, X, Y, Z, X], [X, Y, Z, X, Y])
                else:
                    words = ([X, Y, Z] * (mz - 2), [Y, Z, X] * (mz - 2), [Z, X, Y] * (mz - 2))
                for lhs, rhs in itertools.combinations(words, 2):
                    yield _rel(f"sec4.3{'cde'[mz - 3]}", (i, j, k), lhs, rhs)


def relations_thm2_rederivations(p: Partition) -> Iterator[Relation]:
    """Relation instances supporting the one-strand-extension argument.

    These are the statements, in terms of the partition-type generators
    with the last strand distinguished, from which the combing families
    follow; each is a plain braid identity under the usual expansion.
    Sub-case letters record which membership pattern applies.
    """
    matrix = partition_to_matrix(p)
    for (i, j, k, n), m in _tuples(matrix, 3, last=True):
        bi, bk, ij, jk = BandPair(i, n), BandPair(k, n), BandPair(i, j), BandPair(j, k)
        yield _rel("thm2proof.1", (i, j, k), [(bi, 1), (jk, 1)], [(jk, 1), (bi, 1)])
        yield _rel("thm2proof.1", (i, j, k), [(bk, 1), (ij, 1)], [(ij, 1), (bk, 1)])
        bj, ik = BandPair(j, n), BandPair(i, k)
        q = 1 if m[2][3] == 2 else 2
        sub = "a" if q == 1 else "b"
        yield _rel(f"thm2proof.2{sub}", (i, j, k), [(bj, 1), (bk, q), (ik, 1), (bk, -q)],
                   [(bk, q), (ik, 1), (bk, -q), (bj, 1)])
    for (i, j, n), m in _tuples(matrix, 2, last=True):
        ij, bi, bj = BandPair(i, j), BandPair(i, n), BandPair(j, n)
        if m[0][1] == 1:
            if m[0][2] == 2:
                yield _rel("thm2proof.3a", (i, j), [(ij, 1), (bi, 1)], [(bj, 1), (ij, 1)])
                yield _rel("thm2proof.3a", (i, j), [(ij, 1), (bi, 1), (bj, 1)],
                           [(bi, 1), (bj, 1), (ij, 1)])
            else:
                yield _rel("thm2proof.3b", (i, j), [(ij, 1), (bi, 1)], [(bi, 1), (bj, 1)])
                yield _rel("thm2proof.3b", (i, j), [(bi, 1), (bj, 1)], [(bj, 1), (ij, 1)])
                yield _rel("thm2proof.3b", (i, j), [(ij, 1), (bi, 2)], [(bj, 2), (ij, 1)])
                yield _rel("thm2proof.3b", (i, j), [(ij, 1), (bi, 2), (bj, 2)],
                           [(bi, 2), (bj, 2), (ij, 1)])
        else:
            mi, mj = m[0][2], m[1][2]
            if (mi, mj) == (2, 2):
                yield _rel("thm2proof.4a", (i, j), [(bi, 1), (bj, 1), (ij, 1)],
                           [(bj, 1), (ij, 1), (bi, 1)])
                yield _rel("thm2proof.4a", (i, j), [(bi, 1), (bj, 1), (ij, 1)],
                           [(ij, 1), (bi, 1), (bj, 1)])
            elif (mi, mj) == (1, 2):
                yield _rel("thm2proof.4b", (i, j), [(bi, 1), (bj, 1), (ij, 1)],
                           [(bj, 1), (ij, 1), (bi, 1)])
                yield _rel("thm2proof.4b", (i, j), [(bi, 1), (bj, 1)], [(ij, 1), (bi, 1)])
                yield _rel("thm2proof.4b", (i, j), [(bi, 2), (bj, 1), (ij, 1)],
                           [(bj, 1), (ij, 1), (bi, 2)])
                yield _rel("thm2proof.4b", (i, j), [(bi, 2), (bj, 1), (ij, 1)],
                           [(ij, 1), (bi, 2), (bj, 1)])
            else:  # (2, 1)
                yield _rel("thm2proof.4c", (i, j), [(bj, 1), (ij, 1), (bi, 1)],
                           [(ij, 1), (bi, 1), (bj, 1)])
                yield _rel("thm2proof.4c", (i, j), [(bj, 1), (ij, 1)], [(bi, 1), (bj, 1)])
                yield _rel("thm2proof.4c", (i, j), [(bj, 2), (ij, 1), (bi, 1)],
                           [(ij, 1), (bi, 1), (bj, 2)])
                yield _rel("thm2proof.4c", (i, j), [(bj, 2), (ij, 1), (bi, 1)],
                           [(bi, 1), (bj, 2), (ij, 1)])


# -- verification -------------------------------------------------------------


def verify_relations(
    rels: Iterable[Relation], matrix: CoxeterDatum, tag: str = "verify"
) -> RunReport:
    """Decide both sides of every relation exactly, as words of band syllables.

    The relations are consumed once, as they come, so a generated family is
    decided in the memory of one relation plus the decider's and the report's.

    A relation that its permutations do not settle is decided by the
    Dynnikov coordinates of its sides, unless a side is past
    `braid._SIDE_LETTERS` Artin letters, counted on the strands the
    relation touches: then it is refused with ImageLimitError naming it
    (see `BraidDecider`).
    """
    report = RunReport(tag=tag)
    decider = BandWordDecider(matrix)
    for rel in rels:
        if decider.equal(rel.lhs, rel.rhs):
            report.add(rel.label, rel.indices, True)
        else:
            report.add(rel.label, rel.indices, False, "relation fails in the braid group",
                       format_letter_word(rel.lhs), format_letter_word(rel.rhs))
    report.info.update(decider.counters())
    return report


# -- coset rewriting ----------------------------------------------------------


def _coset_rewrite(g: BandPair, t: int, p: Partition) -> tuple[str, int, Word]:
    """Rewrite g times the coset representative for t, naming the case used.

    The representative for t in the class of n is the band letter on
    (t, n), with t = n naming the trivial coset.  Returns the case of the
    analysis, which names a family of `coset_table_check`, the target
    representative index t' and an explicit word `tail` over the subgroup
    generators (pairs below n, pairs (i, n) outside the class of n, and
    squares of pairs (i, n) inside it) with g . rep(t) = rep(t') . tail.
    """
    n = p.n
    in_i = set(p.part_of(n))
    if t != n and t not in in_i:
        raise ValueError(f"index {t} is not in the class of {n}")
    if g.j > n:
        raise ValueError(f"generator {g} does not fit on {n} strands")

    if t == n:
        if g.j == n and g.i in in_i:
            return "trivial", g.i, ()
        return "trivial", n, ((g, 1),)

    if g.j == n:
        i = g.i
        if i == t:
            return "1b", n, ((BandPair(t, n), 2),)
        if i < t:
            return ("1a" if i in in_i else "2a"), t, ((BandPair(i, t), 1),)
        if i in in_i:
            return "1c", t, ((BandPair(t, n), -2), (BandPair(t, i), 1), (BandPair(t, n), 2))
        return "2c", t, ((BandPair(i, n), 1), (BandPair(t, i), 1), (BandPair(i, n), -1))

    a, b = g.i, g.j
    if b < t or t < a:
        return "3a", t, ((g, 1),)
    if a == t:
        if b in in_i:
            return "3b", b, ((g, 1),)
        return "3d", t, ((BandPair(b, n), 1),)
    if b == t:
        if a in in_i:
            return "3c", a, ((BandPair(t, n), 2), (g, -1))
        return "3e", t, ((g, 1), (BandPair(a, n), 1), (g, -1))

    # a < t < b < n: conjugate the generator clear of the representative
    if b in in_i:
        case = "4e" if a in in_i else "4c"
        conjugator: Word = ((BandPair(b, n), 2),)
        h1: Word = ((BandPair(t, n), -2), (BandPair(t, b), 1), (BandPair(t, n), 2))
        shift: Word = h1 + h1
    else:
        case = "4a" if a in in_i else "4d" if p.same_part(a, b) else "4b"
        conjugator = ((BandPair(b, n), 1),)
        shift = ((BandPair(b, n), 1), (BandPair(t, b), 1), (BandPair(b, n), -1))
    return case, t, _inverse(shift) + conjugator + ((g, 1),) + _inverse(conjugator) + shift


def coset_table_check(p: Partition) -> RunReport:
    """Certify every (generator, coset) rewrite in the braid group.

    Checks the braid identity g . rep(t) = rep(t') . tail and that t'
    matches the permutation discriminant: the image of n under the
    permutation of the left-hand side.
    """
    matrix = partition_to_matrix(p)
    n = p.n
    report = RunReport(tag=f"cosets {p}")
    reps = sorted(set(p.part_of(n)))
    bands = [BandPair(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)]
    decider = BandWordDecider(matrix)
    for g in bands:
        for t in reps:
            case, t2, tail = _coset_rewrite(g, t, p)
            lhs: Word = ((g, 1),) + (((BandPair(t, n), 1),) if t != n else ())
            rhs: Word = (((BandPair(t2, n), 1),) if t2 != n else ()) + tail
            family = f"case.{case}"
            equal = decider.equal(lhs, rhs)
            discriminant = decider.permutation(lhs)[n - 1]
            if equal and discriminant == t2:
                report.add(family, g.indices() + (t,), True)
            else:
                message = f"g={g} t={t}: target {t2}, permutation sends n to {discriminant}"
                if not equal:
                    message += ", braid identity fails"
                report.add(family, g.indices() + (t,), False, message,
                           format_letter_word(lhs), format_letter_word(rhs))
    report.info["cosets"] = len(reps)
    report.info.update(decider.counters())
    return report


# -- block matrices -----------------------------------------------------------


def assemble_block_matrix(m1: CoxeterDatum, m2: CoxeterDatum) -> CoxeterDatum:
    """Block-diagonal matrix with zero cross entries."""
    n = m1.n + m2.n
    rows = [[0] * n for _ in range(n)]
    for a in range(m1.n):
        for b in range(m1.n):
            rows[a][b] = m1.m[a][b]
    for a in range(m2.n):
        for b in range(m2.n):
            rows[m1.n + a][m1.n + b] = m2.m[a][b]
    return CoxeterDatum.from_rows(rows)


def block_product_check(m1: CoxeterDatum, m2: CoxeterDatum) -> RunReport:
    """Every generator from one block commutes with every one from the other."""
    left = m1.band_pairs()
    right = [BandPair(tau.i + m1.n, tau.j + m1.n) for tau in m2.band_pairs()]
    rels = (_rel("block", tau.indices() + sigma.indices(), [(tau, 1), (sigma, 1)],
                 [(sigma, 1), (tau, 1)]) for tau in left for sigma in right)
    report = verify_relations(rels, assemble_block_matrix(m1, m2), tag=f"block {m1.n}+{m2.n}")
    report.info["left_generators"] = len(left)
    report.info["right_generators"] = len(right)
    return report


# -- export -------------------------------------------------------------------


def export_presentation(
    rels: Iterable[Relation], matrix: CoxeterDatum, fmt: str = "plain"
) -> Iterator[str]:
    """The lines of a deterministic text rendering, as they are produced.

    "plain" gives the generators, then one `lhs = rhs` line per relation in
    the b-token syntax; "gap-style" one relator word per line, uppercase
    marking inverses.  Relations come in the order the family yields them,
    `verify`'s order.  The first is drawn before this returns, so a family
    that refuses its input raises before any line exists.
    """
    if fmt == "plain":
        def render(rel: Relation) -> str:
            return f"{format_letter_word(rel.lhs)} = {format_letter_word(rel.rhs)}\n"
    elif fmt == "gap-style":
        def tokens(word: Word) -> list[str]:
            out = []
            for pair, e in word:
                name = f"B{pair}" if e < 0 else f"b{pair}"
                out.extend([name] * abs(e))
            return out

        def render(rel: Relation) -> str:
            return " ".join(tokens(rel.lhs) + tokens(_inverse(rel.rhs))) + "\n"
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    gens = " ".join(f"b{g}" for g in matrix.band_pairs())
    rels = iter(rels)
    head = [f"generators: {gens}\n", *map(render, itertools.islice(rels, 1))]
    return itertools.chain(head, map(render, rels))
