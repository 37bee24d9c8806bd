"""Relation families on band-letter powers and their exact verification.

A relation is a pair of abstract words whose letters are (band pair,
exponent) factors; the letter (tau, e) expands to the band on tau raised
to e times the matrix entry of tau.  Each generator function below emits
one family of relations for a class of exponent matrices; verify_relations
expands both sides and settles every instance with the exact equality
oracle.  The coset machinery rewrites a generator times a coset
representative into representative-times-subgroup-word form and certifies
the rewriting in the braid group.

Family tags follow the command-line vocabulary: thm1, thm2.i..v,
combing.i..iv, combing.derived.1..8, sec4.1, sec4.2, sec4.3a..3e, block.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .braid import ArtinWord, BraidDecider, band_power
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


def _expand_letter(letter: Letter, matrix: CoxeterDatum) -> tuple[tuple[int, int], ...]:
    """The Artin letters of (tau, e): the band on tau raised to e * m_tau."""
    pair, e = letter
    m = matrix.entry(pair)
    if m == 0:
        raise ValueError(f"letter base {pair} has zero matrix entry")
    return band_power(pair, e * m, matrix.n)


def expand_letter_word(word: Word, matrix: CoxeterDatum) -> ArtinWord:
    """Expand every letter (tau, e) to the band on tau raised to e * m_tau."""
    return ArtinWord(
        matrix.n, tuple(itertools.chain.from_iterable(_expand_letter(x, matrix) for x in word))
    )


class _Expansions(dict):
    """Band letter -> its Artin letters over one matrix, each expanded once."""

    def __init__(self, matrix: CoxeterDatum):
        super().__init__()
        self.matrix = matrix

    def __missing__(self, letter: Letter) -> tuple[tuple[int, int], ...]:
        block = self[letter] = _expand_letter(letter, self.matrix)
        return block


class BandWordDecider:
    """Exact equality of words in band letters over one matrix, for one call.

    Each letter is expanded once, and words are decided as words in blocks,
    one block per letter, so the free images of a common suffix of letters
    are built once (see `BraidDecider`).  Make one per verification call.
    """

    def __init__(self, matrix: CoxeterDatum):
        self._blocks = _Expansions(matrix)
        self._braids = BraidDecider(matrix.n)

    def _expand(self, word: Word) -> tuple:
        return tuple(map(self._blocks.__getitem__, word))

    def equal(self, u: Word, v: Word) -> bool:
        return self._braids.equal(self._expand(u), self._expand(v))

    def permutation(self, word: Word) -> list[int]:
        """The images of 1 .. n under the permutation of the word's braid."""
        return self._braids.permutation(self._expand(word))


def _rel(label: str, indices: tuple[int, ...], lhs: list[Letter], rhs: list[Letter]) -> Relation:
    return Relation(label, indices, tuple(lhs), tuple(rhs))


def _rotations(a: int, b: int, c: int) -> list[tuple[int, int, int]]:
    return [(a, b, c), (b, c, a), (c, a, b)]


# -- generator families -------------------------------------------------------


def relations_thm1(matrix: CoxeterDatum) -> list[Relation]:
    """Commutations between non-crossing band letters (large type only)."""
    if not matrix.is_large_type():
        raise ScopeError("thm1 relations need a large-type matrix (entries 0 or >= 3)")
    rels = []
    bands = matrix.band_pairs()
    for tau, sigma in itertools.combinations(bands, 2):
        if commutes_in_brn(tau, sigma):
            rels.append(
                _rel(
                    "thm1",
                    tau.indices() + sigma.indices(),
                    [(tau, 1), (sigma, 1)],
                    [(sigma, 1), (tau, 1)],
                )
            )
    return rels


def relations_thm2(p: Partition) -> list[Relation]:
    """The five relation families of the partition-type presentation."""
    matrix = partition_to_matrix(p)
    n = p.n
    rels: list[Relation] = []
    for a, b, c, d in itertools.combinations(range(1, n + 1), 4):
        ad, bc = BandPair(a, d), BandPair(b, c)
        rels.append(_rel("thm2.i", (a, b, c, d), [(ad, 1), (bc, 1)], [(bc, 1), (ad, 1)]))
        cd, ab = BandPair(c, d), BandPair(a, b)
        rels.append(_rel("thm2.i", (c, a, b, d), [(cd, 1), (ab, 1)], [(ab, 1), (cd, 1)]))
        # conjugated commutation, with the double band as one letter
        i, j, k, l = a, b, c, d
        kl, jl, ik = BandPair(k, l), BandPair(j, l), BandPair(i, k)
        q = 1 if matrix.entry(kl) == 2 else 2
        rels.append(
            _rel(
                "thm2.ii",
                (i, j, k, l),
                [(jl, 1), (kl, q), (ik, 1), (kl, -q)],
                [(kl, q), (ik, 1), (kl, -q), (jl, 1)],
            )
        )
    for a, b, c in itertools.combinations(range(1, n + 1), 3):
        ab, ac, bc = BandPair(a, b), BandPair(a, c), BandPair(b, c)
        ms = (matrix.entry(ab), matrix.entry(ac), matrix.entry(bc))
        if ms == (2, 2, 2):
            rels.append(
                _rel(
                    "thm2.iv",
                    (a, b, c),
                    [(ab, 1), (ac, 1), (bc, 1)],
                    [(bc, 1), (ab, 1), (ac, 1)],
                )
            )
            rels.append(
                _rel(
                    "thm2.iv",
                    (a, b, c),
                    [(bc, 1), (ab, 1), (ac, 1)],
                    [(ac, 1), (bc, 1), (ab, 1)],
                )
            )
        elif ms == (1, 1, 1):
            rels.append(_rel("thm2.v", (a, b, c), [(ab, 1), (ac, 1)], [(bc, 1), (ab, 1)]))
            rels.append(_rel("thm2.v", (a, b, c), [(bc, 1), (ab, 1)], [(ac, 1), (bc, 1)]))
        else:
            for i, j, k in _rotations(a, b, c):
                ij, ik, jk = BandPair.of(i, j), BandPair.of(i, k), BandPair.of(j, k)
                if (
                    matrix.entry(ij) == 1
                    and matrix.entry(ik) == 2
                    and matrix.entry(jk) == 2
                ):
                    rels.append(
                        _rel("thm2.iii", (i, j, k), [(ij, 1), (ik, 1)], [(jk, 1), (ij, 1)])
                    )
                    rels.append(
                        _rel(
                            "thm2.iii",
                            (i, j, k),
                            [(ij, 1), (ik, 1), (jk, 1)],
                            [(ik, 1), (jk, 1), (ij, 1)],
                        )
                    )
    return rels


def relations_combing(p_prime: Partition, n: int) -> list[Relation]:
    """Relations of the one-strand extension over a smaller partition group.

    p_prime partitions {1..n-1}; the extended group on n strands is
    generated by the doubled last-strand bands a_{in}^2 together with the
    b_{jk} for j < k < n.  Emits the four stated families plus the eight
    conjugation identities their derivation combs out.  Letters on a pair
    (i, n) have exponent interpreted through the extended matrix, where
    every m_in is 2.
    """
    if n != p_prime.n + 1:
        raise ValueError(f"partition of {{1..{p_prime.n}}} extends to {p_prime.n + 1} strands, not {n}")
    matrix = partition_to_matrix(p_prime.with_singleton())
    rels: list[Relation] = []

    def an(i: int) -> BandPair:
        return BandPair(i, n)

    for a, b, c in itertools.combinations(range(1, n), 3):
        # a_i^2 commutes with b_jk when i is outside or right of {j, k}
        rels.append(
            _rel("combing.i", (a, b, c), [(an(a), 1), (BandPair(b, c), 1)],
                 [(BandPair(b, c), 1), (an(a), 1)])
        )
        rels.append(
            _rel("combing.i", (a, b, c), [(an(c), 1), (BandPair(a, b), 1)],
                 [(BandPair(a, b), 1), (an(c), 1)])
        )
        i, j, k = a, b, c
        ik = BandPair(i, k)
        rels.append(
            _rel(
                "combing.ii",
                (i, j, k),
                [(an(j), 1), (an(k), 1), (ik, 1), (an(k), -1)],
                [(an(k), 1), (ik, 1), (an(k), -1), (an(j), 1)],
            )
        )
        jk = BandPair(j, k)
        rels.append(
            _rel("combing.derived.1", (i, j, k), [(jk, 1), (an(i), 1), (jk, -1)], [(an(i), 1)])
        )
        ij = BandPair(i, j)
        rels.append(
            _rel("combing.derived.2", (i, j, k), [(ij, 1), (an(k), 1), (ij, -1)], [(an(k), 1)])
        )
        if matrix.entry(ik) == 1:
            rels.append(
                _rel(
                    "combing.derived.7",
                    (i, j, k),
                    [(ik, 1), (an(j), 1), (ik, -1)],
                    [(an(k), -1), (an(i), 1), (an(j), 1), (an(i), -1), (an(k), 1)],
                )
            )
        else:
            rels.append(
                _rel(
                    "combing.derived.8",
                    (i, j, k),
                    [(ik, -1), (an(j), 1), (ik, 1)],
                    [(an(i), 1), (an(k), 1), (an(i), -1), (an(k), -1), (an(j), 1),
                     (an(k), 1), (an(i), 1), (an(k), -1), (an(i), -1)],
                )
            )
    for i, j in itertools.combinations(range(1, n), 2):
        ij = BandPair(i, j)
        if matrix.entry(ij) == 1:
            rels.append(
                _rel("combing.iii", (i, j), [(ij, 1), (an(i), 1)], [(an(j), 1), (ij, 1)])
            )
            rels.append(
                _rel(
                    "combing.iii",
                    (i, j),
                    [(ij, 1), (an(i), 1), (an(j), 1)],
                    [(an(i), 1), (an(j), 1), (ij, 1)],
                )
            )
            rels.append(
                _rel("combing.derived.3", (i, j), [(ij, 1), (an(i), 1), (ij, -1)], [(an(j), 1)])
            )
            rels.append(
                _rel(
                    "combing.derived.4",
                    (i, j),
                    [(ij, 1), (an(j), 1), (ij, -1)],
                    [(an(j), -1), (an(i), 1), (an(j), 1)],
                )
            )
        else:
            rels.append(
                _rel(
                    "combing.iv",
                    (i, j),
                    [(an(j), 1), (ij, 1), (an(i), 1)],
                    [(ij, 1), (an(i), 1), (an(j), 1)],
                )
            )
            rels.append(
                _rel(
                    "combing.iv",
                    (i, j),
                    [(ij, 1), (an(i), 1), (an(j), 1)],
                    [(an(i), 1), (an(j), 1), (ij, 1)],
                )
            )
            rels.append(
                _rel(
                    "combing.derived.5",
                    (i, j),
                    [(ij, 1), (an(i), 1), (ij, -1)],
                    [(an(j), -1), (an(i), 1), (an(j), 1)],
                )
            )
            rels.append(
                _rel(
                    "combing.derived.6",
                    (i, j),
                    [(ij, 1), (an(j), 1), (ij, -1)],
                    [(an(j), -1), (an(i), -1), (an(j), 1), (an(i), 1), (an(j), 1)],
                )
            )
    return rels


def relations_sec4(matrix: CoxeterDatum) -> list[Relation]:
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
    rels: list[Relation] = []
    for a, b, c, d in itertools.combinations(range(1, n + 1), 4):
        ab, cd = BandPair(a, b), BandPair(c, d)
        ad, bc = BandPair(a, d), BandPair(b, c)
        rels.append(_rel("sec4.1", (a, b, c, d), [(ab, 1), (cd, 1)], [(cd, 1), (ab, 1)]))
        rels.append(_rel("sec4.1", (a, b, c, d), [(ad, 1), (bc, 1)], [(bc, 1), (ad, 1)]))
        i, j, k, l = a, b, c, d
        jk = BandPair(j, k)
        if matrix.entry(jk) == 2:
            ik, jl = BandPair(i, k), BandPair(j, l)
            rels.append(
                _rel(
                    "sec4.2",
                    (i, j, k, l),
                    [(ik, 1), (jk, 1), (jl, 1), (jk, -1)],
                    [(jk, 1), (jl, 1), (jk, -1), (ik, 1)],
                )
            )
    for a, b, c in itertools.combinations(range(1, n + 1), 3):
        for i, j, k in _rotations(a, b, c):
            x, y, z = BandPair.of(i, j), BandPair.of(i, k), BandPair.of(j, k)
            mx, my, mz = matrix.entry(x), matrix.entry(y), matrix.entry(z)
            X, Y, Z = (x, 1), (y, 1), (z, 1)
            if mx == 2 and my == 2 and mz % 2 == 0:
                nu = mz // 2
                first = [X, Y] * (nu - 1) + [Z, X, Y]
                second = [Y] + [X, Y] * (nu - 1) + [Z, X]
                third = [X, Y] * nu + [Z]
                for lhs, rhs in itertools.combinations((first, second, third), 2):
                    rels.append(_rel("sec4.3a", (i, j, k), lhs, rhs))
            elif mx == 2 and my == 2 and mz % 2 == 1:
                nu = (mz - 1) // 2
                first = [Y] + [X, Y] * (nu - 1) + [Z, X, Y]
                third = [Y] + [X, Y] * nu + [Z]
                rels.append(_rel("sec4.3b", (i, j, k), first, third))
            if (mx, my, mz) == (2, 3, 3):
                words = ([X, Z, X, Y, Z], [Z, X, Y, Z, X], [X, Y, Z, X, Y])
                for lhs, rhs in itertools.combinations(words, 2):
                    rels.append(_rel("sec4.3c", (i, j, k), lhs, rhs))
            elif (mx, my, mz) == (2, 3, 4):
                words = ([X, Y, Z] * 2, [Y, Z, X] * 2, [Z, X, Y] * 2)
                for lhs, rhs in itertools.combinations(words, 2):
                    rels.append(_rel("sec4.3d", (i, j, k), lhs, rhs))
            elif (mx, my, mz) == (2, 3, 5):
                words = ([X, Y, Z] * 3, [Y, Z, X] * 3, [Z, X, Y] * 3)
                for lhs, rhs in itertools.combinations(words, 2):
                    rels.append(_rel("sec4.3e", (i, j, k), lhs, rhs))
    return rels


def relations_thm2_rederivations(p: Partition) -> list[Relation]:
    """Relation instances supporting the one-strand-extension argument.

    These are the statements, in terms of the partition-type generators
    with the last strand distinguished, from which the combing families
    follow; each is a plain braid identity under the usual expansion.
    Sub-case letters record which membership pattern applies.
    """
    matrix = partition_to_matrix(p)
    n = p.n
    rels: list[Relation] = []

    def bn(i: int) -> BandPair:
        return BandPair(i, n)

    for a, b, c in itertools.combinations(range(1, n), 3):
        rels.append(
            _rel("thm2proof.1", (a, b, c), [(bn(a), 1), (BandPair(b, c), 1)],
                 [(BandPair(b, c), 1), (bn(a), 1)])
        )
        rels.append(
            _rel("thm2proof.1", (a, b, c), [(bn(c), 1), (BandPair(a, b), 1)],
                 [(BandPair(a, b), 1), (bn(c), 1)])
        )
        i, j, k = a, b, c
        ik = BandPair(i, k)
        q = 1 if matrix.entry(bn(k)) == 2 else 2
        sub = "a" if q == 1 else "b"
        rels.append(
            _rel(
                f"thm2proof.2{sub}",
                (i, j, k),
                [(bn(j), 1), (bn(k), q), (ik, 1), (bn(k), -q)],
                [(bn(k), q), (ik, 1), (bn(k), -q), (bn(j), 1)],
            )
        )
    for i, j in itertools.combinations(range(1, n), 2):
        ij, bi, bj = BandPair(i, j), bn(i), bn(j)
        if matrix.entry(ij) == 1:
            if matrix.entry(bi) == 2:
                rels.append(_rel("thm2proof.3a", (i, j), [(ij, 1), (bi, 1)], [(bj, 1), (ij, 1)]))
                rels.append(
                    _rel("thm2proof.3a", (i, j), [(ij, 1), (bi, 1), (bj, 1)],
                         [(bi, 1), (bj, 1), (ij, 1)])
                )
            else:
                rels.append(_rel("thm2proof.3b", (i, j), [(ij, 1), (bi, 1)], [(bi, 1), (bj, 1)]))
                rels.append(_rel("thm2proof.3b", (i, j), [(bi, 1), (bj, 1)], [(bj, 1), (ij, 1)]))
                rels.append(_rel("thm2proof.3b", (i, j), [(ij, 1), (bi, 2)], [(bj, 2), (ij, 1)]))
                rels.append(
                    _rel("thm2proof.3b", (i, j), [(ij, 1), (bi, 2), (bj, 2)],
                         [(bi, 2), (bj, 2), (ij, 1)])
                )
        else:
            mi, mj = matrix.entry(bi), matrix.entry(bj)
            if (mi, mj) == (2, 2):
                rels.append(
                    _rel("thm2proof.4a", (i, j), [(bi, 1), (bj, 1), (ij, 1)],
                         [(bj, 1), (ij, 1), (bi, 1)])
                )
                rels.append(
                    _rel("thm2proof.4a", (i, j), [(bi, 1), (bj, 1), (ij, 1)],
                         [(ij, 1), (bi, 1), (bj, 1)])
                )
            elif (mi, mj) == (1, 2):
                rels.append(
                    _rel("thm2proof.4b", (i, j), [(bi, 1), (bj, 1), (ij, 1)],
                         [(bj, 1), (ij, 1), (bi, 1)])
                )
                rels.append(_rel("thm2proof.4b", (i, j), [(bi, 1), (bj, 1)], [(ij, 1), (bi, 1)]))
                rels.append(
                    _rel("thm2proof.4b", (i, j), [(bi, 2), (bj, 1), (ij, 1)],
                         [(bj, 1), (ij, 1), (bi, 2)])
                )
                rels.append(
                    _rel("thm2proof.4b", (i, j), [(bi, 2), (bj, 1), (ij, 1)],
                         [(ij, 1), (bi, 2), (bj, 1)])
                )
            else:  # (2, 1)
                rels.append(
                    _rel("thm2proof.4c", (i, j), [(bj, 1), (ij, 1), (bi, 1)],
                         [(ij, 1), (bi, 1), (bj, 1)])
                )
                rels.append(_rel("thm2proof.4c", (i, j), [(bj, 1), (ij, 1)], [(bi, 1), (bj, 1)]))
                rels.append(
                    _rel("thm2proof.4c", (i, j), [(bj, 2), (ij, 1), (bi, 1)],
                         [(ij, 1), (bi, 1), (bj, 2)])
                )
                rels.append(
                    _rel("thm2proof.4c", (i, j), [(bj, 2), (ij, 1), (bi, 1)],
                         [(bi, 1), (bj, 2), (ij, 1)])
                )
    return rels


# -- verification -------------------------------------------------------------


def verify_relations(
    rels: list[Relation], matrix: CoxeterDatum, tag: str = "verify"
) -> RunReport:
    """Expand both sides of every relation and decide them exactly."""
    start = time.perf_counter()
    report = RunReport(tag=tag)
    decider = BandWordDecider(matrix)
    for rel in rels:
        if decider.equal(rel.lhs, rel.rhs):
            report.add(rel.label, rel.indices, True)
        else:
            report.add(rel.label, rel.indices, False, "relation fails in the braid group",
                       format_letter_word(rel.lhs), format_letter_word(rel.rhs))
    report.wall_time = time.perf_counter() - start
    return report


# -- coset rewriting ----------------------------------------------------------


def _coset_case(g: BandPair, t: int, p: Partition) -> str:
    n = p.n
    in_i = set(p.part_of(n))
    if t == n:
        return "trivial"
    a, b = g.i, g.j
    if b == n:
        if a in in_i:
            return "1a" if a < t else ("1b" if a == t else "1c")
        return "2a" if a < t else "2c"
    if b < t or t < a:
        return "3a"
    if a == t:
        return "3b" if b in in_i else "3d"
    if b == t:
        return "3c" if a in in_i else "3e"
    if a in in_i and b not in in_i:
        return "4a"
    if a not in in_i and b in in_i:
        return "4c"
    if a in in_i and b in in_i:
        return "4e"
    return "4d" if p.same_part(a, b) else "4b"


def coset_rewrite(g: BandPair, t: int, p: Partition) -> tuple[int, Word]:
    """Rewrite g times the coset representative for t.

    The representative for t in the class of n is the band letter on
    (t, n), with t = n naming the trivial coset.  Returns the target
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

    def inv(word: Word) -> Word:
        return tuple((pair, -e) for pair, e in reversed(word))

    if t == n:
        if g.j == n and g.i in in_i:
            return g.i, ()
        return n, ((g, 1),)

    if g.j == n:
        i = g.i
        if i == t:
            return n, ((BandPair(t, n), 2),)
        if i < t:
            return t, ((BandPair(i, t), 1),)
        if i in in_i:
            return t, ((BandPair(t, n), -2), (BandPair(t, i), 1), (BandPair(t, n), 2))
        return t, ((BandPair(i, n), 1), (BandPair(t, i), 1), (BandPair(i, n), -1))

    a, b = g.i, g.j
    if b < t or t < a:
        return t, ((g, 1),)
    if a == t:
        if b in in_i:
            return b, ((g, 1),)
        return t, ((BandPair(b, n), 1),)
    if b == t:
        if a in in_i:
            return a, ((BandPair(t, n), 2), (g, -1))
        return t, ((g, 1), (BandPair(a, n), 1), (g, -1))

    # a < t < b < n: conjugate the generator clear of the representative
    if b in in_i:
        conjugator: Word = ((BandPair(b, n), 2),)
        h1: Word = ((BandPair(t, n), -2), (BandPair(t, b), 1), (BandPair(t, n), 2))
        shift: Word = h1 + h1
    else:
        conjugator = ((BandPair(b, n), 1),)
        shift = ((BandPair(b, n), 1), (BandPair(t, b), 1), (BandPair(b, n), -1))
    tail = inv(shift) + conjugator + ((g, 1),) + inv(conjugator) + shift
    return t, tail


def coset_table_check(p: Partition) -> RunReport:
    """Certify every (generator, coset) rewrite in the braid group.

    Checks the braid identity g . rep(t) = rep(t') . tail and that t'
    matches the permutation discriminant: the image of n under the
    permutation of the left-hand side.
    """
    start = time.perf_counter()
    matrix = partition_to_matrix(p)
    n = p.n
    report = RunReport(tag=f"cosets {p}")
    reps = sorted(set(p.part_of(n)))
    bands = [BandPair(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)]
    decider = BandWordDecider(matrix)
    for g in bands:
        for t in reps:
            t2, tail = coset_rewrite(g, t, p)
            lhs: Word = ((g, 1),) + (((BandPair(t, n), 1),) if t != n else ())
            rhs: Word = (((BandPair(t2, n), 1),) if t2 != n else ()) + tail
            family = f"case.{_coset_case(g, t, p)}"
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
    report.wall_time = time.perf_counter() - start
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
    start = time.perf_counter()
    combined = assemble_block_matrix(m1, m2)
    report = RunReport(tag=f"block {m1.n}+{m2.n}")
    left = m1.band_pairs()
    right = [BandPair(tau.i + m1.n, tau.j + m1.n) for tau in m2.band_pairs()]
    decider = BandWordDecider(combined)
    for tau in left:
        for sigma in right:
            indices = tau.indices() + sigma.indices()
            if decider.equal(((tau, 1), (sigma, 1)), ((sigma, 1), (tau, 1))):
                report.add("block", indices, True)
            else:
                report.add("block", indices, False,
                           f"cross-block letters {tau} and {sigma} do not commute")
    report.info["left_generators"] = len(left)
    report.info["right_generators"] = len(right)
    report.wall_time = time.perf_counter() - start
    return report


# -- export -------------------------------------------------------------------


def export_presentation(
    rels: list[Relation], matrix: CoxeterDatum, fmt: str = "plain"
) -> str:
    """Deterministic text rendering of a presentation.

    "plain" lists generators then one `lhs = rhs` line per relation in the
    b-token syntax; "gap-style" lists one relator word per line with
    uppercase marking inverses.  Output is byte-stable for fixed input.
    """
    gens = matrix.band_pairs()
    ordered = sorted(rels, key=lambda r: (r.label, r.indices))
    lines = ["generators: " + " ".join(f"b{g}" for g in gens)]
    if fmt == "plain":
        for rel in ordered:
            lines.append(f"{format_letter_word(rel.lhs)} = {format_letter_word(rel.rhs)}")
    elif fmt == "gap-style":
        def tokens(word: Word, invert: bool) -> list[str]:
            src = tuple((pair, -e) for pair, e in reversed(word)) if invert else word
            out = []
            for pair, e in src:
                name = f"B{pair}" if e < 0 else f"b{pair}"
                out.extend([name] * abs(e))
            return out

        for rel in ordered:
            lines.append(" ".join(tokens(rel.lhs, False) + tokens(rel.rhs, True)))
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return "\n".join(lines) + "\n"
