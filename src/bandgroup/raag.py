"""Expressions over commuting band letters and their normal forms.

An expression is a sequence of (band pair, nonzero exponent) factors.  Two
elementary moves act on expressions: merging or cancelling adjacent factors
with the same base (type I) and swapping adjacent factors whose bases
commute, i.e. are non-crossing with four distinct indices (type II).  An
expression no sequence of moves can shorten is reduced; `normalize` finds a
canonical reduced representative by greedy piling followed by picking the
lexicographically least ordering inside the commutation class.

The injectivity scan enumerates canonical expressions up to a length and
exponent bound, maps each to a braid, and confirms both that the braid is
nontrivial and that the last-letter certificate (the designated involutive
letter moves) detects it.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .braid import ArtinWord
from .coxeter import BandPair, CoxeterDatum, ScopeError, commutes_in_brn
from .coxword import CoxWord, act_band_on_cox
from .present import BandWordDecider, expand_letter_word, format_letter_word
from .report import RunReport

Factor = tuple[BandPair, int]

# Budget on (bases x 2 x max_exp)^max_len, the raw count of expressions an
# injectivity scan may enumerate; a scan past it is refused before it
# starts.  The scan takes about 0.25 ms per unit of this count (n = 4 and
# 5, 2 cores), so an accepted scan ends within about half a minute.
MAX_SCAN_EXPRESSIONS = 100_000


@lru_cache(maxsize=None)
def _commutes(a: BandPair, b: BandPair) -> bool:
    return commutes_in_brn(a, b)


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
    if not _commutes(f[i][0], f[i + 1][0]):
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
            if not _commutes(other, base):
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
            if all(_commutes(remaining[p][0], base) for p in range(idx)):
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
                _commutes(w.factors[later][0], tau)
                for later in range(idx + 1, len(w.factors))
            )
    return False


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
    expressions are canonical, so the search tree prunes exactly.
    """
    exponents = [e for e in range(-max_exp, max_exp + 1) if e != 0]

    def rec(prefix: list[Factor]) -> Iterator[RaagExpression]:
        expr = RaagExpression(tuple(prefix))
        yield expr
        if len(prefix) == max_len:
            return
        for base in bases:
            for e in exponents:
                cand = prefix + [(base, e)]
                if normalize(RaagExpression(tuple(cand))).factors == tuple(cand):
                    yield from rec(cand)

    yield from rec([])


def injectivity_scan(
    matrix: CoxeterDatum, max_len: int, max_exp: int
) -> RunReport:
    """Scan canonical reduced expressions for trivial braid images.

    Requires a large-type matrix.  For each nonempty canonical expression
    the braid image must be nontrivial (exact equality oracle), and for
    every base the expression ends in, the image of the corresponding
    involutive letter under the induced word action must move.  Any
    violation would exhibit a collapse of the commutation presentation at
    this scale; none is expected.
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
    certificates = 0
    for expr in canonical_expressions(bases, max_len, max_exp):
        if not expr.factors:
            continue
        indices = tuple(x for base, p in expr.factors for x in (*base.indices(), p))
        if decider.equal(expr.factors, ()):
            report.add("nontrivial", indices, False, f"expression {expr} maps to the trivial braid")
        else:
            report.add("nontrivial", indices, True)
        for tau in bases:
            if not ends_in(expr, tau):
                continue
            certificates += 1
            image = CoxWord.single(tau.i)
            for base, p in expr.factors:
                image = act_band_on_cox(image, base, p * matrix.entry(base))
            if image != CoxWord.single(tau.i):
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
