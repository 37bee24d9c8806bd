"""Expressions over commuting band letters and their normal forms.

An expression is a sequence of (band pair, nonzero exponent) factors.  Two
elementary moves act on expressions: merging or cancelling adjacent factors
with the same base (type I) and swapping adjacent factors whose bases
commute, i.e. are non-crossing with four distinct indices (type II).  An
expression no sequence of moves can shorten is reduced; `normalize` finds a
canonical reduced representative by greedy piling followed by picking the
lexicographically least ordering inside the commutation class.

Canonical expressions, the fixed points of `normalize`, are enumerated by
a depth-first recursion that decides each extension from two bitmasks over
the bases, without normalizing anything: the bases the prefix ends in and
the bases the lexicographic order forbids next.

The injectivity scan walks the canonical expressions up to a length and
exponent bound and checks the last-letter certificates of each: for every
base the expression ends in, the braid's action on the universal Coxeter
group must move the base's first letter.  A braid that moves a letter is
not 1, so a passing certificate also proves the braid nontrivial; the exact
equality oracle decides only expressions whose certificates all fail.  The
scan carries the letter images of each shorter prefix down the walk and
decides every level per parent: one index lookup per letter image finds
the parent's children with a failing certificate, and the rest are counted
from the parent's masks.  A letter image is a reflection, whose reduced
word is an odd palindrome, so the scan carries only its head, the encoded
word up to the centre, and the kernel acts on the half before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .braid import _SELF, ArtinWord, ImageLimitError, _check_strands, _mul
from .coxeter import BandPair, CoxeterDatum, ScopeError, commutes_in_brn
from .coxword import _act_band, _band_images
from .present import BandWordDecider, Letter, expand_letter_word, format_letter_word
from .report import RunReport

# Budget on (bases x 2 x max_exp)^max_len, the raw count of expressions an
# injectivity scan may enumerate; a scan past it is refused before it
# starts.  With entry 3 and max_exp at most 15, the scan takes 0.06 to
# 0.43 us per unit of this count (seven scans, n = 3 to 6, L = 2 or 3,
# counts of 2.7x10^4 to 9x10^4, medians of 7 in process, 2 cores, Python
# 3.11.7), so such a scan ends within about 45 ms.  The count does not
# bound the set-up, which grows with n^3 at L = 1: 0.55 s at n = 90 and
# 1.53 s at n = 124 (count 15,252, the most strands the letter budget
# admits with entry 3; medians of 4).  A letter image grows with
# exponent x entry, so larger ones cost more per unit; `MAX_SCAN_LETTERS`
# bounds the images.
MAX_SCAN_EXPRESSIONS = 100_000

# Budget on the image letters a scan builds: its band tables (see
# `_table_letters`), counted in closed form before the first expression,
# and the images under the walk's prefixes, counted as they are built.  A
# scan of one factor builds no prefix images, and its tables hold only the
# certified letters.  The tables grow with max_exp^2 x entry, so a scan
# within the expression budget can still hold billions of letters (n = 2,
# L = 1 at max_exp 50000), and a prefix image with the product of its
# factors' powers (on constant 1000 with n = 3, L = 3, B = 1 the walk
# would build 9.6x10^7 letters).  The count is of whole images, 2 |head| - 1
# letters for a reflection carried by its head (see `_act_reflections`),
# so it bounds the kernel's work, which walks at most the halves; the scan
# holds about half of them: the heads of the prefix images and of the
# index, and the tables whole only when it walks prefixes (a scan of one
# factor reads the heads of each table into the index and drops it).
# A letter is one byte: with entry 3, n = 2 and L = 1, the scan of the
# 6 max_exp (max_exp + 1) letters took 1.7 to 3.0 ms at max_exp 300 and
# 16 to 29 ms at 1181 (8.4x10^6 letters, the last that fits; medians of
# 15 to 30 in process, six runs), and the scan at 1181 peaked at 20.3 MB
# as a child process (2 cores, Python 3.11.7).
MAX_SCAN_LETTERS = 1 << 23


@dataclass(frozen=True)
class RaagExpression:
    """A sequence of band-letter powers with nonzero exponents."""

    factors: tuple[Letter, ...] = ()

    def __post_init__(self):
        for _, p in self.factors:
            if p == 0:
                raise ValueError("exponents must be nonzero")

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return format_letter_word(self.factors)


def _pile(factors: Iterable[Letter]) -> list[list]:
    """Greedy left piling: push each factor past commuting ones and merge.

    Scanning stops at the first non-commuting base or at a matching base;
    a matching base absorbs the exponent (and disappears on cancellation).
    One pass suffices: a factor blocked by some entry also blocks anything
    that could later delete that entry.
    """
    pile: list[list] = []
    for base, exp in factors:
        idx = len(pile) - 1
        target = -1
        while idx >= 0:
            other = pile[idx][0]
            if other == base:
                target = idx
                break
            if not commutes_in_brn(other, base):
                break
            idx -= 1
        if target < 0:
            pile.append([base, exp])
        else:
            s = pile[target][1] + exp
            if s == 0:
                del pile[target]
            else:
                pile[target][1] = s
    return pile


def normalize(w: RaagExpression) -> RaagExpression:
    """Canonical reduced form: pile, then lexicographically least ordering.

    The output length is minimal over everything reachable by type I/II
    moves, and expressions differing by type II moves normalize to the
    same result.
    """
    pile = _pile(w.factors)
    remaining = [(base, exp) for base, exp in pile]
    out: list[Letter] = []
    while remaining:
        best = -1
        for idx in range(len(remaining)):
            base = remaining[idx][0]
            if all(commutes_in_brn(remaining[p][0], base) for p in range(idx)):
                if best < 0 or base < remaining[best][0]:
                    best = idx
        out.append(remaining.pop(best))
    return RaagExpression(tuple(out))


def ends_in(w: RaagExpression, tau: BandPair) -> bool:
    """Whether type II moves alone can put a factor with base tau last.

    Equivalent test: the last occurrence of tau commutes past every later
    factor.  (An earlier occurrence can never pass a later one, since a
    base does not commute with itself.)
    """
    for idx in range(len(w.factors) - 1, -1, -1):
        if w.factors[idx][0] == tau:
            return all(
                commutes_in_brn(w.factors[later][0], tau)
                for later in range(idx + 1, len(w.factors))
            )
    return False


def expression_to_braid(w: RaagExpression, matrix: CoxeterDatum) -> ArtinWord:
    """Concatenate each band raised to (exponent times matrix entry)."""
    return expand_letter_word(w.factors, matrix)


def _commuting(bases: list[BandPair]) -> list[int]:
    """Per base, the mask of the bases commuting with it, bit k for bases[k].

    A base commutes with (i, j) when it lies left of i, right of j,
    strictly inside or strictly around it, so each mask is four unions of
    prefix or suffix ORs over the bases grouped by left and by right end.
    """
    n = max((beta.j for beta in bases), default=0)
    lefts, rights = [0] * (n + 2), [0] * (n + 2)
    for k, beta in enumerate(bases):
        lefts[beta.i] |= 1 << k
        rights[beta.j] |= 1 << k
    # upto[x]: the bases with that end at most x; down[x]: at least x
    upto_i, upto_j = list(accumulate(lefts, or_)), list(accumulate(rights, or_))
    down_i, down_j = (list(accumulate(ends[::-1], or_))[::-1] for ends in (lefts, rights))
    return [upto_j[i - 1] | down_i[j + 1] | down_i[i + 1] & upto_j[j - 1]
            | upto_i[i - 1] & down_j[j + 1] for i, j in map(BandPair.indices, bases)]


def _extensions(bases: list[BandPair]) -> Callable[[int, int], list[tuple[int, int, int]]]:
    """The extension rule of the canonical expressions over distinct `bases`.

    extend(ends, forbidden) lists (k, ends', forbidden') for each base
    bases[k] that may follow an expression, in list order.  A canonical
    expression is the lexicographic normal form of its trace (Anisimov and
    Knuth, *Inhomogeneous sorting*, 1979), so p·beta is canonical exactly
    when beta is in neither of two masks over the bases, bit k standing for
    bases[k]: E, the bases p ends in (beta in E merges), and F, those the
    lexicographic rule forbids next (below some factor of p that commutes
    with them and with every later factor, so they could move in front of
    it).  With C[beta] the bases commuting with beta and L[beta] those below
    it, E' = {beta} | (E & C[beta]) and F' = C[beta] & (F | L[beta]).
    """
    commuting = _commuting(bases)
    below, smaller = [0] * len(bases), 0
    for k in sorted(range(len(bases)), key=bases.__getitem__):
        below[k], smaller = smaller, smaller | 1 << k

    def extend(ends: int, forbidden: int) -> list[tuple[int, int, int]]:
        blocked = ends | forbidden
        return [(k, 1 << k | ends & commuting[k], commuting[k] & (forbidden | below[k]))
                for k in range(len(bases)) if not blocked >> k & 1]

    return extend


def canonical_expressions(
    bases: list[BandPair], max_len: int, max_exp: int
) -> Iterator[RaagExpression]:
    """All canonical reduced expressions with the given bounds.

    Those are the fixed points of `normalize`: the empty expression first,
    then depth first, each followed by its extensions by `_extensions`,
    bases in list order and exponents from -max_exp up.
    """
    exponents = [e for e in range(-max_exp, max_exp + 1) if e != 0]
    extend = _extensions(bases)

    def visit(factors: tuple[Letter, ...], ends: int,
              forbidden: int) -> Iterator[RaagExpression]:
        yield RaagExpression(factors)
        if len(factors) < max_len:
            for k, child_ends, child_forbidden in extend(ends, forbidden):
                for e in exponents:
                    yield from visit(factors + ((bases[k], e),), child_ends, child_forbidden)

    return visit((), 0, 0)


def _table_letters(matrix: CoxeterDatum, max_exp: int, held: Sequence[int]) -> int:
    """The letters of the scan's band tables, counted before any of them is built.

    The table of (beta, e) holds the image of each held letter s_x in
    [beta.i, beta.j] under (beta, e), for every base beta and every e in
    +-1 .. +-max_exp, as the Hurwitz move of `braid._act` builds it (see
    `coxword._band_images`).  With m = e times the entry of beta and
    c = (s_j s_k)^m, the reduced image is c s_x c^-1, of 4|m| + 1 letters,
    for x strictly between, and c s_j or s_k c^-1, of 2|m| + 1 or 2|m| - 1
    letters by the sign of m, for x = beta.i or x = beta.j.  Over both
    signs of e the ends give 4|m| a letter, and the |e| sum to
    max_exp (max_exp + 1).
    """
    weight = max_exp * (max_exp + 1)  # sum of |e| over the values of e
    total = 0
    for beta in matrix.band_pairs():
        entry = matrix.entry_at(beta.i, beta.j)
        for x in held:
            if x in (beta.i, beta.j):
                total += 2 * entry * weight
            elif beta.i < x < beta.j:
                total += 4 * entry * weight + 2 * max_exp
    return total


def _act_reflections(images: list[bytes], table: dict[int, bytes],
                     left: int) -> tuple[list[bytes], int]:
    """The images of reflections, given by their heads, under the band power of `table`.

    A reflection u t u^-1 of the universal Coxeter group has the odd
    palindrome u t reverse(u) as its reduced word, so its head u t, the
    word up to the centre, determines it.  A band power phi is an
    automorphism, so phi(u t u^-1) = phi(u) phi(t) phi(u)^-1, where `table`
    holds phi of the band's letters (`coxword._band_images`), whose heads
    v t' are sliced from it, a letter outside the band being its own head.  The
    image is h t' h^-1 for h the reduced product phi(u) v; it is reduced
    unless h ends in t', and then h is its head.  So only u is acted on
    (`coxword._act_band`), and a single letter is a table lookup: the
    product q of phi(u) and v t' is the head when it ends in t', and
    otherwise, t' having cancelled the end of h, q t' is.  Counted at the
    2 |head| - 1 letters of the reflection, the images may hold `left`
    letters in all; ImageLimitError is raised before they would pass it,
    or already when phi on a prefix of u reaches (left + 1) / 2 + |v t'|
    letters.
    """
    out = []
    for head in images:
        image = table.get(head[-1], head[-1:])
        image = image[:len(image) // 2 + 1]  # v t'
        if len(head) > 1:
            q = _mul(_act_band(head[:-1], table, (left + 1) // 2 + len(image)), image, _SELF)
            image = q if q and q[-1] == image[-1] else q + image[-1:]
        left -= 2 * len(image) - 1
        if left < 0:
            raise ImageLimitError("the reflections pass the letters left")
        out.append(image)
    return out, left


def _failing_leaves(
    images: list[bytes], index: list[dict[bytes, list[tuple[int, int]]]], certifies: list[int]
) -> dict[tuple[int, int], int]:
    """The children (k, e) of a parent with a failing certificate, in walk order.

    `images` are the letter images under the parent, one per slot.  The
    child by (bases[k], e) fixes the letter of slot s exactly when its
    image under the parent is its image under (bases[k], -e); index[s]
    maps each such image to the (k, e) it belongs to.  A hit is a failing
    certificate only when certifies[k], the mask of the slots the child
    by bases[k] certifies (0 for a base that may not follow the parent),
    holds s.  Each failing child maps to the mask of the certified slots
    it fixes.
    """
    failing: dict[tuple[int, int], int] = {}
    for s, x in enumerate(images):
        for k, e in index[s].get(x, ()):
            if certifies[k] >> s & 1:
                failing[k, e] = failing.get((k, e), 0) | 1 << s
    return dict(sorted(failing.items()))


def injectivity_scan(
    matrix: CoxeterDatum, max_len: int, max_exp: int
) -> RunReport:
    """Scan canonical reduced expressions for trivial braid images.

    Requires a large-type matrix.  Every nonempty canonical expression gets
    one certificate per base tau it ends in: the image of the letter
    s_{tau.i} under the expression's action on the universal Coxeter group
    (the band-power action of `coxword`, folded left to right) must move.
    Any passing certificate shows that the braid image is nontrivial; an
    expression whose certificates all fail goes to the exact equality
    oracle.  Any failure would exhibit a collapse of the
    commutation presentation at this scale; none is expected.

    Each band power acts as a bijection, so the image of s_i under
    p·(beta, e) is s_i exactly when the image under p is the image of s_i
    under (beta, -e).  The band tables hold the images of the letters of
    each band under each of its powers, each table one Hurwitz move of
    `braid._act` (`coxword._band_images`), built once per scan: every
    letter of the band, kept for the walk, when the walk builds prefix
    images, and otherwise only the certified letters, each table dropped
    once the index has read it.  Every image of a
    letter is a reflection u t u^-1, whose reduced word u t reverse(u) its
    head u t determines, and the scan holds each by its head, as a word of
    `coxword`'s byte encoding.  An index maps the head of each image of a
    certified letter under a single factor, read from the tables (the
    letter itself outside the band), to the factors it undoes.  The scan
    visits the expressions shorter than max_len, the root first, each with
    the heads of its letter images: their children and certificates are
    counted from the masks of `_extensions`, the failing children found by
    looking up each head in the index (`_failing_leaves`), and the heads of
    each child built by acting on the halves alone (`_act_reflections`).
    Passes are entered once per family at the end, and failures one by one
    in walk order.  The band tables and the prefix images share the budget
    of MAX_SCAN_LETTERS letters, counted as whole images: a scan whose
    tables would pass it (`_table_letters`) is refused with ValueError
    before it starts, and one whose prefix images would pass it before
    they do.  The tables encode s_i as the byte 128 + i, so a matrix on
    more than MAX_STRANDS strands is refused first, before either budget is
    counted (counting the tables' letters takes O(n^3) time).
    `info` counts the expressions, the certificates, the oracle fallbacks,
    the image letters built and the longest image of a certified letter
    under a factor or a prefix, and carries the oracle's own counters (see
    `BraidDecider.counters`).
    """
    if not matrix.is_large_type():
        raise ScopeError("injectivity scan needs a large-type matrix (entries 0 or >= 3)")
    if max_len < 1 or max_exp < 1:
        raise ValueError("bounds must be at least 1")
    _check_strands(matrix.n)
    bases = matrix.band_pairs()
    letters = len(bases) * 2 * max_exp
    # a count of 2 or more passes the budget within 64 factors
    if letters ** min(max_len, 64) > MAX_SCAN_EXPRESSIONS:
        raise ValueError(
            f"scan of up to {letters}^{max_len} expressions exceeds the budget of "
            f"{MAX_SCAN_EXPRESSIONS}; lower --max-len or --max-exp"
        )
    # the letters s_i certified, for i the first index of some base, in order
    slot = {i: s for s, i in enumerate(sorted({tau.i for tau in bases}))}
    # the letters the tables hold: prefix images need every one, the index the certified
    held = range(1, matrix.n + 1) if max_len > 1 else list(slot)
    table_letters = _table_letters(matrix, max_exp, held)
    if table_letters > MAX_SCAN_LETTERS:
        raise ValueError(
            f"scan would build {table_letters} image letters for its band tables, past the "
            f"budget of {MAX_SCAN_LETTERS}; lower --max-exp or the matrix entries"
        )
    report = RunReport(tag=f"scan inject L={max_len} B={max_exp}")
    decider = BandWordDecider(matrix)
    exponents = [e for e in range(-max_exp, max_exp + 1) if e != 0]
    root = [bytes((128 + i,)) for i in slot]
    # tables[k][e]: the images of the held letters of bases[k] under (bases[k], e),
    # kept for the walk; index[s]: the head of each image of the letter in slot s
    # under a factor (bases[k], -e), with the factors (k, e) it undoes, each one
    # tuple shared by every slot's list
    tables: list[dict[int, dict[int, bytes]]] = []
    index: list[dict[bytes, list[tuple[int, int]]]] = [{} for _ in root]
    for k, beta in enumerate(bases):
        m = matrix.entry_at(beta.i, beta.j)
        letters = [128 + x for x in held if beta.i <= x <= beta.j]
        tables.append({})
        for e in exponents:
            table = _band_images(beta.i, beta.j, -e * m, letters)
            owner = (k, e)
            for owners, x in zip(index, root):
                image = table.get(x[0], x)
                owners.setdefault(image[:len(image) // 2 + 1], []).append(owner)
            if max_len > 1:
                tables[k][-e] = table
    peak = max((2 * len(x) - 1 for owners in index for x in owners), default=0)
    expressions = certificates = fallbacks = trivial = fixed = 0
    built = table_letters  # image letters built so far
    extend = _extensions(bases)

    def certified(ends: int) -> list[BandPair]:
        """The bases an ends mask holds, in list order."""
        taus = []
        while ends:
            low = ends & -ends
            taus.append(bases[low.bit_length() - 1])
            ends ^= low
        return taus

    def enter(factors: tuple[Letter, ...], ends: int, fixes: int) -> None:
        """Enter the failures of an expression, given its ends and the slots it fixes."""
        nonlocal fallbacks, trivial, fixed
        taus = certified(ends)
        indices = tuple(x for beta, p in factors for x in (beta.i, beta.j, p))
        text = format_letter_word(factors)
        if all(fixes >> slot[tau.i] & 1 for tau in taus):
            fallbacks += 1
            if decider.equal(factors, ()):
                trivial += 1
                report.add("nontrivial", indices, False,
                           f"expression {text} maps to the trivial braid")
        for tau in taus:
            if fixes >> slot[tau.i] & 1:
                fixed += 1
                report.add("certificate", indices + tau.indices(), False,
                           f"letter s{tau.i} fixed although {text} ends in {tau}")

    # (ends, forbidden) of a parent -> the extensions of its children, their
    # certificates per exponent, and per base the mask of the bases the child
    # ends in and the mask of the slots it certifies (0 if it may not follow)
    children: dict[tuple[int, int], tuple[list, int, list[int], list[int]]] = {}

    def visit(depth: int, images: list[bytes], ends: int, forbidden: int,
              factors: tuple[Letter, ...]) -> None:
        """Count the children of an expression of `depth` factors, enter their failures
        and, below the last level, visit each child after entering its failures."""
        nonlocal expressions, certificates, built, peak
        if (ends, forbidden) not in children:
            extensions = extend(ends, forbidden)
            child_ends, certifies = [0] * len(bases), [0] * len(bases)
            for k, x, _ in extensions:
                child_ends[k] = x
                certifies[k] = sum(1 << slot[tau.i] for tau in certified(x))
            children[ends, forbidden] = (extensions, sum(x.bit_count() for x in child_ends),
                                         child_ends, certifies)
        extensions, certs, child_ends, certifies = children[ends, forbidden]
        expressions += len(extensions) * len(exponents)
        certificates += certs * len(exponents)
        failing = _failing_leaves(images, index, certifies)
        if depth == max_len - 1:
            for (k, e), fixes in failing.items():
                enter(factors + ((bases[k], e),), child_ends[k], fixes)
            return
        for k, x_ends, x_forbidden in extensions:
            beta = bases[k]
            for e in exponents:
                try:
                    child, left = _act_reflections(images, tables[k][e], MAX_SCAN_LETTERS - built)
                except ImageLimitError:
                    raise ValueError(f"scan would build more than {MAX_SCAN_LETTERS} image "
                                     f"letters, {table_letters} of them for its band tables "
                                     f"and the rest for prefix images; lower --max-len, "
                                     f"--max-exp or the matrix entries") from None
                built = MAX_SCAN_LETTERS - left
                peak = max(peak, 2 * max(map(len, child)) - 1)
                child_factors = factors + ((beta, e),)
                fixes = failing.get((k, e))
                if fixes:
                    enter(child_factors, x_ends, fixes)
                visit(depth + 1, child, x_ends, x_forbidden, child_factors)

    visit(0, root, 0, 0, ())
    report.add_passes("nontrivial", expressions - trivial)
    report.add_passes("certificate", certificates - fixed)
    report.info["expressions"] = expressions
    report.info["certificates"] = certificates
    report.info["oracle_fallbacks"] = fallbacks
    report.info["image_letters"] = built
    report.info["peak_image_letters"] = peak
    report.info.update(decider.counters())
    return report
