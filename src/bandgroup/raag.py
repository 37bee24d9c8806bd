"""Expressions over commuting band letters and their normal forms.

An expression is a sequence of (band pair, nonzero exponent) factors.  Two
elementary moves act on expressions: merging or cancelling adjacent factors
with the same base (type I) and swapping adjacent factors whose bases
commute, i.e. are non-crossing with four distinct indices (type II).  An
expression no sequence of moves can shorten is reduced; `normalize` finds a
canonical reduced representative by greedy piling followed by picking the
lexicographically least ordering inside the commutation class.

The injectivity scan enumerates canonical expressions up to a length and
exponent bound and checks the last-letter certificates of each: for every
base the expression ends in, the braid's action on the universal Coxeter
group must move the base's first letter.  A braid that moves a letter is
not 1, so a passing certificate also proves the braid nontrivial; the exact
equality oracle decides only expressions whose certificates all fail.  The
scan carries each prefix's letter images down the enumeration, so every
certificate costs one comparison.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .braid import ArtinWord
from .coxeter import BandPair, CoxeterDatum, ScopeError, commutes_in_brn
from .coxword import CoxWord, act_band_on_cox
from .present import BandWordDecider, expand_letter_word, format_letter_word
from .report import RunReport

Factor = tuple[BandPair, int]

# Budget on (bases x 2 x max_exp)^max_len, the raw count of expressions an
# injectivity scan may enumerate; a scan past it is refused before it
# starts.  With entry 3 and max_exp at most 15, the scan takes 7 to 18 us
# per unit of this count (n = 3 to 6, 2 cores, Python 3.11.7), so such a
# scan ends within about two seconds.  A letter image grows with
# exponent x entry, so larger ones cost more per unit: n = 2, L = 1 takes
# 1.0 s at max_exp 1000 and 10.4 s at 3000.
MAX_SCAN_EXPRESSIONS = 100_000


@dataclass(frozen=True)
class RaagExpression:
    """A sequence of band-letter powers with nonzero exponents."""

    factors: tuple[Factor, ...] = ()

    def __post_init__(self):
        for _, p in self.factors:
            if p == 0:
                raise ValueError("exponents must be nonzero")

    @staticmethod
    def of(*factors: tuple[tuple[int, int], int]) -> RaagExpression:
        """Convenience builder from ((i, j), p) pairs."""
        return RaagExpression(
            tuple((BandPair(i, j), p) for (i, j), p in factors)
        )

    def __len__(self) -> int:
        return len(self.factors)

    def bases(self) -> tuple[BandPair, ...]:
        return tuple(base for base, _ in self.factors)

    def __str__(self) -> str:
        return format_expression(self)


def apply_type1(w: RaagExpression, i: int) -> RaagExpression:
    """Merge factors i and i+1 (0-based), which must share their base.

    The exponents add; a zero sum deletes both factors.
    """
    f = w.factors
    if not 0 <= i < len(f) - 1:
        raise IndexError(f"position {i} has no right neighbour")
    (base_a, pa), (base_b, pb) = f[i], f[i + 1]
    if base_a != base_b:
        raise ValueError(f"bases {base_a} and {base_b} differ at position {i}")
    if pa + pb == 0:
        return RaagExpression(f[:i] + f[i + 2:])
    return RaagExpression(f[:i] + ((base_a, pa + pb),) + f[i + 2:])


def apply_type2(w: RaagExpression, i: int) -> RaagExpression:
    """Swap factors i and i+1 (0-based), whose bases must commute."""
    f = w.factors
    if not 0 <= i < len(f) - 1:
        raise IndexError(f"position {i} has no right neighbour")
    if not commutes_in_brn(f[i][0], f[i + 1][0]):
        raise ValueError(
            f"bases {f[i][0]} and {f[i + 1][0]} do not commute (linked or crossing)"
        )
    return RaagExpression(f[:i] + (f[i + 1], f[i]) + f[i + 2:])


def _pile(factors: Iterable[Factor]) -> list[list]:
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
    out: list[Factor] = []
    while remaining:
        best = -1
        for idx in range(len(remaining)):
            base = remaining[idx][0]
            if all(commutes_in_brn(remaining[p][0], base) for p in range(idx)):
                if best < 0 or base < remaining[best][0]:
                    best = idx
        out.append(remaining.pop(best))
    return RaagExpression(tuple(out))


def is_reduced(w: RaagExpression) -> bool:
    """Whether no sequence of elementary moves shortens the expression."""
    return len(normalize(w)) == len(w)


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


def extend_ends(ends: list[BandPair], base: BandPair) -> list[BandPair]:
    """The bases w·(base, e) ends in, given the sorted bases w ends in.

    A base other than `base` stays last exactly when it commutes past the
    new factor; `base` itself is last.  The result is sorted too.
    """
    return sorted([base, *(tau for tau in ends if commutes_in_brn(tau, base))])


def ends_in_witness(w: RaagExpression, tau: BandPair) -> RaagExpression | None:
    """A type II rearrangement of w ending in tau, or None."""
    if not ends_in(w, tau):
        return None
    for idx in range(len(w.factors) - 1, -1, -1):
        if w.factors[idx][0] == tau:
            f = w.factors
            return RaagExpression(f[:idx] + f[idx + 1:] + (f[idx],))
    return None


def expression_to_braid(w: RaagExpression, matrix: CoxeterDatum) -> ArtinWord:
    """Concatenate each band raised to (exponent times matrix entry)."""
    return expand_letter_word(w.factors, matrix)


def canonical_expressions(
    bases: list[BandPair], max_len: int, max_exp: int
) -> Iterator[RaagExpression]:
    """All canonical reduced expressions with the given bounds.

    Enumerates by extending canonical prefixes; prefixes of canonical
    expressions are canonical, so the search tree prunes exactly.  Whether
    an extension by (base, e) is canonical does not depend on e, since
    merging and the lexicographic order look at bases only, so it is
    decided once per base.
    """
    exponents = [e for e in range(-max_exp, max_exp + 1) if e != 0]

    def rec(prefix: list[Factor]) -> Iterator[RaagExpression]:
        expr = RaagExpression(tuple(prefix))
        yield expr
        if len(prefix) == max_len:
            return
        for base in bases:
            probe = tuple(prefix) + ((base, exponents[0]),)
            if normalize(RaagExpression(probe)).factors != probe:
                continue
            for e in exponents:
                yield from rec(prefix + [(base, e)])

    yield from rec([])


def injectivity_scan(
    matrix: CoxeterDatum, max_len: int, max_exp: int
) -> RunReport:
    """Scan canonical reduced expressions for trivial braid images.

    Requires a large-type matrix.  Every nonempty canonical expression gets
    one certificate per base tau it ends in: the image of the letter
    s_{tau.i} under the expression's action on the universal Coxeter group
    (the band-power action of `act_band_on_cox`, folded left to right) must
    move.  Any passing certificate shows that the braid image is
    nontrivial; an expression whose certificates all fail goes to the exact
    equality oracle.  Any failure would exhibit a collapse of the
    commutation presentation at this scale; none is expected.

    The walk follows `canonical_expressions`, whose parent of an expression
    at depth d is the last expression it yielded at depth d - 1.  A stack
    keeps, per depth, the prefix's letter images and the bases it ends in
    (see `extend_ends`).  Each band power acts as a bijection, so the
    image of s_i under p·(beta, e) is s_i exactly when the image under p is
    the image of s_i under (beta, -e): one comparison per certificate
    against an image cached per (beta, e).  The images under a prefix are
    built once, for prefixes shorter than max_len.
    """
    if not matrix.is_large_type():
        raise ScopeError("injectivity scan needs a large-type matrix (entries 0 or >= 3)")
    if max_len < 1 or max_exp < 1:
        raise ValueError("bounds must be at least 1")
    bases = matrix.band_pairs()
    letters = len(bases) * 2 * max_exp
    # a count of 2 or more passes the budget within 64 factors
    if letters ** min(max_len, 64) > MAX_SCAN_EXPRESSIONS:
        raise ValueError(
            f"scan of up to {letters}^{max_len} expressions exceeds the budget of "
            f"{MAX_SCAN_EXPRESSIONS}; lower --max-len or --max-exp"
        )
    start = time.perf_counter()
    report = RunReport(tag=f"scan inject L={max_len} B={max_exp}")
    decider = BandWordDecider(matrix)
    # stack[d]: the images of s_i under the last expression yielded at
    # depth d, the bases it ends in and its report indices; that expression
    # is the parent of everything yielded at depth d + 1 until the next
    # expression at depth d.
    stack = [({tau.i: CoxWord.single(tau.i) for tau in bases}, [], ())]
    # (base, e) -> the images of s_i under the inverse of (base, e)
    undo: dict[Factor, dict[int, CoxWord]] = {}
    certificates = 0
    for expr in canonical_expressions(bases, max_len, max_exp):
        depth = len(expr.factors)
        if not depth:
            continue
        images, parent_ends, parent_indices = stack[depth - 1]
        beta, e = last = expr.factors[-1]
        m = e * matrix.entry(beta)
        ends = extend_ends(parent_ends, beta)
        indices = parent_indices + (beta.i, beta.j, e)
        if depth < max_len:
            stack[depth:] = [
                ({i: act_band_on_cox(w, beta, m) for i, w in images.items()}, ends, indices)
            ]
        inverse = undo.get(last)
        if inverse is None:
            inverse = undo[last] = {i: act_band_on_cox(CoxWord.single(i), beta, -m) for i in images}
        moved = [(tau, images[tau.i] != inverse[tau.i]) for tau in ends]
        if any(ok for _, ok in moved) or not decider.equal(expr.factors, ()):
            report.add("nontrivial", indices, True)
        else:
            report.add("nontrivial", indices, False, f"expression {expr} maps to the trivial braid")
        certificates += len(moved)
        for tau, ok in moved:
            if ok:
                report.add("certificate", indices + tau.indices(), True)
            else:
                report.add("certificate", indices + tau.indices(), False,
                           f"letter s{tau.i} fixed although {expr} ends in {tau}")
    report.info["expressions"] = report.families.get("nontrivial", [0, 0])[0]
    report.info["certificates"] = certificates
    report.wall_time = time.perf_counter() - start
    return report


# -- textual syntax -----------------------------------------------------------

_EXPR_TOKEN = re.compile(r"^b(\d+)\.(\d+)(?:\^(-?\d+))?$")


def parse_expression(text: str) -> RaagExpression:
    """Parse whitespace-separated `b<i>.<j>^<p>` tokens (power defaults to 1)."""
    factors: list[Factor] = []
    for token in text.split():
        m = _EXPR_TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse expression token {token!r}")
        i, j, p = m.groups()
        factors.append((BandPair(int(i), int(j)), int(p) if p is not None else 1))
    return RaagExpression(tuple(factors))


def format_expression(w: RaagExpression) -> str:
    return format_letter_word(w.factors)
