"""Independent brute-force oracles.

These deliberately re-derive everything from first principles (raw index
arithmetic, exhaustive move enumeration) rather than calling the library's
fast paths, so they can stand as referees for the implementations.
Expressions are encoded as tuples of (i, j, p) integer triples.  The
exceptions are `referee_canonical_expressions` and
`referee_injectivity_scan`, the enumeration's and the scan's plain
procedures built from the library's own pieces, and
`referee_act_band_on_cox`, the band-power action's closed form pushed
letter by letter through a list, which referees `coxword.act_band_on_cox`, and
`referee_long_pairs`, one run count per pair of letters, which referees
`coxword.long_pairs`.  `referee_left_normal_form`, the Garside left
normal form, is a second exact decision of braid equality, independent
of the free action, against which the decider's Dynnikov coordinates are
checked on words too long for the free-action referee.
"""

from __future__ import annotations

from bandgroup.coxeter import BandPair, CoxeterDatum
from bandgroup.braid import MAX_IMAGE_LETTERS, ArtinWord, _too_long
from bandgroup.coxword import CoxWord
from bandgroup.present import BandWordDecider
from bandgroup.raag import RaagExpression, _table_letters, ends_in, normalize
from bandgroup.report import RunReport

State = tuple[tuple[int, int, int], ...]


def commutes_raw(a: tuple[int, int], b: tuple[int, int]) -> bool:
    i, j = a
    k, l = b
    return (k - i) * (k - j) * (l - i) * (l - j) > 0


def type1_moves(state: State) -> list[State]:
    out = []
    for idx in range(len(state) - 1):
        i1, j1, p1 = state[idx]
        i2, j2, p2 = state[idx + 1]
        if (i1, j1) == (i2, j2):
            if p1 + p2 == 0:
                out.append(state[:idx] + state[idx + 2:])
            else:
                out.append(state[:idx] + ((i1, j1, p1 + p2),) + state[idx + 2:])
    return out


def type2_moves(state: State) -> list[State]:
    out = []
    for idx in range(len(state) - 1):
        a, b = state[idx], state[idx + 1]
        if commutes_raw((a[0], a[1]), (b[0], b[1])):
            out.append(state[:idx] + (b, a) + state[idx + 2:])
    return out


def type2_orbit(state: State) -> set[State]:
    """Everything reachable by commuting swaps alone (an equivalence class)."""
    seen = {state}
    frontier = [state]
    while frontier:
        nxt = []
        for s in frontier:
            for t in type2_moves(s):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


_MIN_CACHE: dict[State, int] = {}


def bfs_min_length(state: State) -> int:
    """Minimal length reachable by any sequence of elementary moves.

    Swaps preserve reachability, so the minimum is constant on swap orbits
    and can be cached for every orbit member; merges strictly shorten, so
    the recursion terminates.
    """
    cached = _MIN_CACHE.get(state)
    if cached is not None:
        return cached
    orbit = type2_orbit(state)
    best = len(state)
    for member in orbit:
        for t in type1_moves(member):
            best = min(best, bfs_min_length(t))
    for member in orbit:
        _MIN_CACHE[member] = best
    return best


def orbit_end_bases(state: State) -> set[tuple[int, int]]:
    """Bases that can appear last after commuting swaps alone."""
    return {(s[-1][0], s[-1][1]) for s in type2_orbit(state) if s}


def all_states(bases: list[tuple[int, int]], max_len: int, max_exp: int):
    """Every raw expression over the given bases within the bounds."""
    exps = [e for e in range(-max_exp, max_exp + 1) if e != 0]
    letters = [(i, j, p) for (i, j) in bases for p in exps]

    def rec(prefix: State):
        yield prefix
        if len(prefix) == max_len:
            return
        for letter in letters:
            yield from rec(prefix + (letter,))

    yield from rec(())


def reduced_class_count(bases: list[tuple[int, int]], max_len: int, max_exp: int) -> int:
    """Number of swap-classes of nonempty minimal-length expressions.

    Enumerates every raw expression, keeps those no move sequence can
    shorten, and quotients by the swap orbits afterwards.
    """
    class_reps: set[State] = set()
    for state in all_states(bases, max_len, max_exp):
        if not state:
            continue
        if bfs_min_length(state) != len(state):
            continue
        class_reps.add(min(type2_orbit(state)))
    return len(class_reps)


def compose_maps(outer: dict[int, int], inner: dict[int, int]) -> dict[int, int]:
    """Plain functional composition of permutation dictionaries."""
    return {x: outer[inner[x]] for x in inner}


def transposition_map(d: int, a: int, b: int) -> dict[int, int]:
    out = {x: x for x in range(1, d + 1)}
    out[a], out[b] = b, a
    return out


def referee_permutation(n: int, letters) -> list[int]:
    """The images of 1 .. n under a braid word's permutation, one transposition per letter."""
    images = list(range(1, n + 1))
    for k, _ in letters:
        images[k - 1], images[k] = images[k], images[k - 1]
    return images


def substitute_artin_letter(word: list[int], k: int, sign: int) -> list[int]:
    """Apply one Artin letter on the right, letter by letter, reducing as it goes.

    sigma_k substitutes t_k -> t_k t_{k+1} t_k^-1 and t_{k+1} -> t_k; its
    inverse substitutes t_k -> t_{k+1} and t_{k+1} -> t_{k+1}^-1 t_k t_{k+1}.
    """
    kk = k + 1
    if sign > 0:
        rules = {k: (k, kk, -k), -k: (k, -kk, -k), kk: (k,), -kk: (-k,)}
    else:
        rules = {k: (kk,), -k: (-kk,), kk: (-kk, k, kk), -kk: (-kk, -k, kk)}
    out: list[int] = []
    for x in word:
        for y in rules.get(x, (x,)):
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return out


def referee_free_image(letters, i: int) -> tuple[int, ...]:
    """Image of t_i under the right action of a braid word, letter by letter."""
    word = [i]
    for k, sign in letters:
        word = substitute_artin_letter(word, k, sign)
    return tuple(word)


def referee_apply_artin_to_cox(w: CoxWord, braid: ArtinWord) -> CoxWord:
    """Act on a word through the free action and the quotient t_i -> s_i.

    A letter s_x with x <= braid.n goes to the free image of t_x, built
    letter by letter, with its signs dropped; letters above braid.n are
    fixed.  The concatenation is then reduced.  sigma_k thus substitutes
    s_k -> s_k s_{k+1} s_k and s_{k+1} -> s_k, composing left to right
    along the braid word.  This is the route `coxword.act_band_on_cox` is
    a closed form of.
    """
    out: list[int] = []
    for x in w.letters:
        if x <= braid.n:
            out.extend(map(abs, referee_free_image(braid.letters, x)))
        else:
            out.append(x)
    return CoxWord(tuple(reduce_word(out, involutive=True)))


def referee_braid_equal(n: int, u_letters, v_letters) -> bool:
    return all(
        referee_free_image(u_letters, i) == referee_free_image(v_letters, i)
        for i in range(1, n + 1)
    )


# The Garside left normal form.  A simple braid, a positive braid in which
# any two strands cross at most once, is a permutation tuple x of 0 .. n-1:
# x[p] is the strand, numbered by its starting position, that ends at
# position p.  Right multiplication by sigma_k swaps the positions k-1 and
# k, left multiplication the values k-1 and k.  The half twist Delta is the
# reversal, and conjugation by Delta is tau: sigma_i -> sigma_{n-i}.
# References: ElRifai and Morton, "Algorithms for positive braids" (1994);
# Thurston, ch. 9 of Epstein et al., "Word Processing in Groups" (1992).


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


def referee_left_normal_form(w: ArtinWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
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

    >>> referee_left_normal_form(ArtinWord(3, ((1, 1), (2, 1), (1, 1))))
    (1, ())
    >>> referee_left_normal_form(ArtinWord(3, ((1, -1), (2, 1))))
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


def reduce_word(word, involutive: bool = False) -> list[int]:
    """Cancel adjacent inverse letters on a stack.

    Free letters are signed (-i inverts i); involutive letters are their
    own inverses.
    """
    out: list[int] = []
    for y in word:
        if out and out[-1] == (y if involutive else -y):
            out.pop()
        else:
            out.append(y)
    return out


def referee_hurwitz(entries, letters, involutive: bool = False) -> list[tuple[int, ...]]:
    """The right Hurwitz action of a braid word on a tuple of words, letter by letter.

    sigma_k replaces the entries (a, b) at positions k, k+1 by
    (a b a^-1, a), and sigma_k^-1 by (b, b^-1 a b); entries are plain
    lists, each product reduced on a stack.
    """

    def inverse(a):
        return [y if involutive else -y for y in reversed(a)]

    tup = [list(e) for e in entries]
    for k, sign in letters:
        a, b = tup[k - 1], tup[k]
        if sign > 0:
            tup[k - 1], tup[k] = reduce_word(a + b + inverse(a), involutive), a
        else:
            tup[k - 1], tup[k] = b, reduce_word(inverse(b) + a + b, involutive)
    return [tuple(e) for e in tup]


def referee_canonical_expressions(bases: list[BandPair], max_len: int, max_exp: int):
    """`raag.canonical_expressions` by running `normalize` on every extension.

    Prefixes of canonical expressions are canonical, so extending only the
    canonical ones prunes exactly; an extension by (base, e) is canonical
    for every e or for none, so the first exponent decides for the base.
    """
    exponents = [e for e in range(-max_exp, max_exp + 1) if e != 0]

    def rec(prefix: tuple):
        yield RaagExpression(prefix)
        if len(prefix) == max_len:
            return
        for base in bases:
            probe = prefix + ((base, exponents[0]),)
            if normalize(RaagExpression(probe)).factors != probe:
                continue
            for e in exponents:
                yield from rec(prefix + ((base, e),))

    yield from rec(())


def referee_act_band_on_cox(w: CoxWord, tau: BandPair, m: int, limit: int = MAX_IMAGE_LETTERS) -> CoxWord:
    """Image of a word under the m-th power of the band on tau.

    Closed form, letter by letter, with c = (s_j s_k)^m for the band on
    (j, k): letters outside [j, k] are fixed, s_j maps to c s_j, a letter
    strictly between to c s_i c^-1, and s_k to s_k c^-1.  Negative m uses
    (s_j s_k)^-1 = s_k s_j.  The images are concatenated and reduced; this
    agrees with pushing the expanded Artin word through the letterwise
    substitution rules.  An image that passes `limit` letters raises
    ImageLimitError, at most 4|m| + 1 letters after it does, and before c
    is built when the image of a letter in [j, k], of 2|m| - 1 letters at
    least, would pass it; a word with no such letter is then its own image.

    >>> referee_act_band_on_cox(CoxWord((2, 4)), BandPair(1, 3), -1).letters
    (3, 1, 2, 1, 3, 4)
    """
    j, k = tau.i, tau.j
    if 2 * abs(m) - 1 > limit:
        if len(w) > limit or any(j <= x <= k for x in w.letters):
            raise _too_long(limit)
        return w
    c = (j, k) * m if m >= 0 else (k, j) * -m
    c_inv = c[::-1]
    out: list[int] = []
    for x in w.letters:
        if x < j or x > k:
            image: tuple[int, ...] = (x,)
        elif x == j:
            image = c + (j,)
        elif x == k:
            image = (k,) + c_inv
        else:
            image = c + (x,) + c_inv
        for y in image:
            if out and out[-1] == y:
                out.pop()
            else:
                out.append(y)
        if len(out) > limit:
            raise _too_long(limit)
    return CoxWord(tuple(out))


def referee_long_pairs(w: CoxWord) -> set[BandPair]:
    """All letter pairs {j, k} for which w has a maximal {j, k}-block of four letters or more.

    One scan per pair of letters the word uses, counting the letters of
    each run inside {j, k}.
    """
    present = sorted(set(w.letters))
    found: set[BandPair] = set()
    for a_idx in range(len(present)):
        for b_idx in range(a_idx + 1, len(present)):
            j, k = present[a_idx], present[b_idx]
            run = 0
            for x in w.letters:
                if x == j or x == k:
                    run += 1
                    if run >= 4:
                        found.add(BandPair(j, k))
                        break
                else:
                    run = 0
    return found


def referee_injectivity_scan(matrix: CoxeterDatum, max_len: int, max_exp: int) -> RunReport:
    """`raag.injectivity_scan` with no shared state between expressions.

    Every expression goes to the exact equality oracle, and every
    certificate folds the band-power action from s_i through the whole
    expression.  The longest image is taken over the same words the scan
    builds, each folded afresh: the image of every letter s_{tau.i} under
    every expression shorter than max_len and under every single factor
    (base, -e).  The image letters are the band tables, taken from their
    closed form (which tests check against the built words): the images of
    every letter of each band under each of its powers, of only the
    certified letters when max_len is 1.  To them come the images of the
    certified letters under every expression shorter than max_len, folded
    afresh.  The oracle's counters are those of a second decider that
    sees, in order, only the expressions whose certificates all fail, as
    the scan's decider does.  There is no budget, and the wall time is
    left at 0.
    """
    bases = matrix.band_pairs()
    letters = {tau.i for tau in bases}
    exponents = [e for e in range(-max_exp, max_exp + 1) if e != 0]
    report = RunReport(tag=f"scan inject L={max_len} B={max_exp}")
    decider, fallback = BandWordDecider(matrix), BandWordDecider(matrix)

    def fold(i, factors):
        image = CoxWord.single(i)
        for base, p in factors:
            image = referee_act_band_on_cox(image, base, p * matrix.entry_at(base.i, base.j))
        return image

    peak = max((len(fold(i, [(base, -e)])) for base in bases for e in exponents for i in letters),
               default=0)
    held = range(1, matrix.n + 1) if max_len > 1 else sorted(letters)
    built = _table_letters(matrix, max_exp, held)
    certificates = fallbacks = 0
    for expr in referee_canonical_expressions(bases, max_len, max_exp):
        if not expr.factors:
            continue
        if len(expr.factors) < max_len:
            lengths = [len(fold(i, expr.factors)) for i in letters]
            built += sum(lengths)
            peak = max(peak, *lengths)
        indices = tuple(x for base, p in expr.factors for x in (*base.indices(), p))
        if decider.equal(expr.factors, ()):
            report.add("nontrivial", indices, False, f"expression {expr} maps to the trivial braid")
        else:
            report.add("nontrivial", indices, True)
        passed = False
        for tau in bases:
            if not ends_in(expr, tau):
                continue
            certificates += 1
            if fold(tau.i, expr.factors) != CoxWord.single(tau.i):
                passed = True
                report.add("certificate", indices + tau.indices(), True)
            else:
                report.add("certificate", indices + tau.indices(), False,
                           f"letter s{tau.i} fixed although {expr} ends in {tau}")
        if not passed:
            fallbacks += 1
            fallback.equal(expr.factors, ())
    report.info["expressions"] = report.families.get("nontrivial", [0, 0])[0]
    report.info["certificates"] = certificates
    report.info["oracle_fallbacks"] = fallbacks
    report.info["image_letters"] = built
    report.info["peak_image_letters"] = peak
    report.info.update(fallback.counters())
    return report
