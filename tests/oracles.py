"""Independent brute-force oracles.

These deliberately re-derive everything from first principles (raw index
arithmetic, exhaustive move enumeration) rather than calling the library's
fast paths, so they can stand as referees for the implementations.
Expressions are encoded as tuples of (i, j, p) integer triples.
"""

from __future__ import annotations

from itertools import combinations

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


def referee_braid_equal(n: int, u_letters, v_letters) -> bool:
    return all(
        referee_free_image(u_letters, i) == referee_free_image(v_letters, i)
        for i in range(1, n + 1)
    )
