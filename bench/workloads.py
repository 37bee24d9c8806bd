"""The benchmark's workloads: inputs made from a seed, and checks made apart.

Each workload writes its input files and returns a list of operations.  An
operation is one invocation of the `bandgroup` command line, with the
number of instances it decides and a check of its exit code and output.
Every expected value here is computed from the inputs by this file alone,
never by the program and never copied from an earlier run:

* partition_sweep: the instance count of every relation family is a closed
  form in the partition (its part sizes and element positions);
* inject_scan: the expression and certificate counts come from a brute-force
  enumeration of reduced words in the right-angled Artin group;
* long_words: each verdict is fixed by the braid identity the pair is built
  from.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One command-line invocation and what it must produce."""

    argv: tuple[str, ...]
    instances: int
    check: Callable[[object, str], list[str]]


# -- checks -------------------------------------------------------------------


def _load_report(code, out: str, problems: list[str]) -> dict | None:
    if code != 0:
        problems.append(f"exit code {code!r}, expected 0")
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    if payload.get("ok") is not True:
        problems.append("report is not ok")
    reports = payload.get("reports", [])
    if len(reports) != 1:
        problems.append(f"expected one report, got {len(reports)}")
        return None
    report = reports[0]
    if report["passes"] != report["instances"] or report["failures"]:
        problems.append(
            f"{report['instances'] - report['passes']} of {report['instances']} instances fail"
        )
    return report


def verify_check(total: int, families: dict[str, int], info: dict[str, int]):
    """Exit 0, every instance passes, counts equal the expected ones.

    `families` holds the expected instance count of each named family; a
    report family not named there is only counted in the total.
    """

    def check(code, out: str) -> list[str]:
        problems: list[str] = []
        report = _load_report(code, out, problems)
        if report is None:
            return problems
        if report["instances"] != total:
            problems.append(f"{report['instances']} instances, expected {total}")
        for name, count in families.items():
            got = report["families"].get(name, {}).get("instances", 0)
            if got != count:
                problems.append(f"family {name}: {got} instances, expected {count}")
        for key, value in info.items():
            if report["info"].get(key) != value:
                problems.append(f"info {key}: {report['info'].get(key)}, expected {value}")
        return problems

    return check


def eq_check(equal: bool):
    """The verdict and exit code fixed by how the pair was built."""

    def check(code, out: str) -> list[str]:
        problems: list[str] = []
        if code != (0 if equal else 1):
            problems.append(f"exit code {code!r} for a pair that is {'equal' if equal else 'unequal'}")
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return problems + [f"output is not JSON: {exc}"]
        if payload != {"command": "eq", "equal": equal}:
            problems.append(f"answer {payload}, expected equal={equal}")
        return problems

    return check


# -- partition_sweep ----------------------------------------------------------


def set_partitions(n: int) -> list[list[list[int]]]:
    """All partitions of {1..n}: each element joins an old part or opens one."""
    out: list[list[list[int]]] = []

    def rec(x: int, parts: list[list[int]]) -> None:
        if x > n:
            out.append([list(p) for p in parts])
            return
        for part in parts:
            part.append(x)
            rec(x + 1, parts)
            part.pop()
        parts.append([x])
        rec(x + 1, parts)
        parts.pop()

    rec(1, [])
    return out


def thm2_families(parts: list[list[int]], n: int) -> dict[str, int]:
    """Closed form: two thm2.i and one thm2.ii per 4-set, two per 3-set.

    A 3-set inside one part gives thm2.v, one split two-and-one gives
    thm2.iii, one over three parts gives thm2.iv.
    """
    one = sum(comb(len(p), 3) for p in parts)
    two = sum(comb(len(p), 2) * (n - len(p)) for p in parts)
    three = comb(n, 3) - one - two
    fams = {
        "thm2.i": 2 * comb(n, 4),
        "thm2.ii": comb(n, 4),
        "thm2.iii": 2 * two,
        "thm2.iv": 2 * three,
        "thm2.v": 2 * one,
    }
    return {k: v for k, v in fams.items() if v}


def combing_families(parts: list[list[int]], n: int) -> dict[str, int]:
    """Closed form for the one-strand extension of a partition of {1..n}.

    Per 3-set i < j < k: two combing.i, one each of combing.ii, derived.1,
    derived.2, and derived.7 when i and k share a part, else derived.8.
    Per pair: two iii, derived.3, derived.4 inside a part; two iv,
    derived.5, derived.6 across parts.
    """
    t = comb(n, 3)
    same = sum(comb(len(p), 2) for p in parts)
    cross = comb(n, 2) - same
    d7 = sum(k - i - 1 for p in parts for i, k in itertools.combinations(sorted(p), 2))
    fams = {
        "combing.i": 2 * t,
        "combing.ii": t,
        "combing.derived.1": t,
        "combing.derived.2": t,
        "combing.derived.7": d7,
        "combing.derived.8": t - d7,
        "combing.iii": 2 * same,
        "combing.derived.3": same,
        "combing.derived.4": same,
        "combing.iv": 2 * cross,
        "combing.derived.5": cross,
        "combing.derived.6": cross,
    }
    return {k: v for k, v in fams.items() if v}


SWEEP_N = 6
COMBING_N = 4


def _write_partition(path: Path, parts: list[list[int]], n: int, rng: random.Random) -> None:
    # The file lists parts and elements in a seeded order; the program
    # sorts them, so the work does not depend on the order.
    shuffled = [rng.sample(p, len(p)) for p in parts]
    rng.shuffle(shuffled)
    path.write_text(json.dumps({"n": n, "parts": shuffled}))


def partition_sweep(seed: int, workdir: Path) -> list[Op]:
    """thm2 and cosets on every partition of {1..6}, combing on those of {1..4}."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for idx, parts in enumerate(set_partitions(SWEEP_N)):
        path = workdir / f"p{SWEEP_N}-{idx}.json"
        _write_partition(path, parts, SWEEP_N, rng)
        fams = thm2_families(parts, SWEEP_N)
        total = sum(fams.values())
        ops.append(Op(("--json", "verify", "thm2", "--partition", str(path)), total,
                      verify_check(total, fams, {})))
        reps = len(next(p for p in parts if SWEEP_N in p))
        total = comb(SWEEP_N, 2) * reps
        ops.append(Op(("--json", "verify", "cosets", "--partition", str(path)), total,
                      verify_check(total, {"case.trivial": comb(SWEEP_N, 2)}, {"cosets": reps})))
    for idx, parts in enumerate(set_partitions(COMBING_N)):
        path = workdir / f"p{COMBING_N}-{idx}.json"
        _write_partition(path, parts, COMBING_N, rng)
        fams = combing_families(parts, COMBING_N)
        total = sum(fams.values())
        ops.append(Op(("--json", "verify", "combing", "--partition", str(path)), total,
                      verify_check(total, fams, {})))
    rng.shuffle(ops)
    return ops


# -- inject_scan --------------------------------------------------------------


SCAN_N, SCAN_M, SCAN_LEN, SCAN_EXP = 4, 3, 3, 2


def _bands_commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Bands on four distinct strands commute unless their intervals interleave."""
    (i, j), (k, l) = a, b
    if len({i, j, k, l}) < 4:
        return False
    return not (i < k < j < l or k < i < l < j)


@functools.cache
def raag_reduced_counts(n: int, max_len: int, max_exp: int) -> tuple[int, int]:
    """Count elements of syllable length 1..max_len, and their last bases.

    Brute force over every sequence of syllables (band, exponent) with
    exponents in +-1..+-max_exp.  A sequence is reduced when no two
    syllables on one band are separated only by syllables commuting with
    that band.  Reduced sequences of one element differ by swaps of
    adjacent commuting syllables, so an element is its swap class.  The
    second count sums, over elements, the bands some member of the class
    ends in: one certificate each.
    """
    bands = list(itertools.combinations(range(1, n + 1), 2))
    exps = [e for e in range(-max_exp, max_exp + 1) if e]
    syllables = [(b, e) for b in bands for e in exps]

    def reduced(seq) -> bool:
        for i, j in itertools.combinations(range(len(seq)), 2):
            if seq[i][0] == seq[j][0] and all(
                _bands_commute(seq[m][0], seq[i][0]) for m in range(i + 1, j)
            ):
                return False
        return True

    def swap_class(seq) -> set:
        seen = {seq}
        todo = [seq]
        while todo:
            cur = todo.pop()
            for i in range(len(cur) - 1):
                if _bands_commute(cur[i][0], cur[i + 1][0]):
                    nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:]
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
        return seen

    elements: set = set()
    certificates = 0
    for length in range(1, max_len + 1):
        for seq in itertools.product(syllables, repeat=length):
            if not reduced(seq):
                continue
            cls = swap_class(seq)
            key = min(cls)
            if key in elements:
                continue
            elements.add(key)
            certificates += len({s[-1][0] for s in cls})
    return len(elements), certificates


def inject_scan(seed: int, workdir: Path) -> list[Op]:
    """`scan inject` on the constant-3 matrix, n=4, L=3, B=2.

    The scan is exhaustive within its bounds, so the seed changes nothing.
    """
    path = workdir / "m-const3.json"
    rows = [[0 if a == b else SCAN_M for b in range(SCAN_N)] for a in range(SCAN_N)]
    path.write_text(json.dumps({"n": SCAN_N, "m": rows}))
    argv = ("--json", "scan", "inject", "--matrix", str(path),
            "--max-len", str(SCAN_LEN), "--max-exp", str(SCAN_EXP))
    expressions, certificates = raag_reduced_counts(SCAN_N, SCAN_LEN, SCAN_EXP)
    total = expressions + certificates
    check = verify_check(
        total,
        {"nontrivial": expressions, "certificate": certificates},
        {"expressions": expressions, "certificates": certificates},
    )
    return [Op(argv, total, check)]


# -- long_words ---------------------------------------------------------------

# (k, equal, n, o): the pair compares (a_x^3 a_y^3)^k on n strands, where
# x = (1+o, 3+o) and y = (2+o, 4+o) cross, with a rewritten copy (equal) or
# with (a_y^3 a_x^3)^k (unequal).
LONG_QUERIES = [
    (2, True, 4, 0),
    (2, False, 5, 1),
    (3, True, 6, 2),
    (3, True, 5, 0),
    (3, False, 6, 1),
    (4, False, 4, 0),
]


def long_words(seed: int, workdir: Path) -> list[Op]:
    """`eq` on long band words, with verdicts fixed by construction.

    Equal pairs rewrite one factor by a_{i,i+2}^3 = s_i' s_{i+1}^3 s_i.
    Unequal pairs reverse the order of the two bands, which keeps the
    permutation: the two cubes generate a free group, so the reversed
    product is a different braid.  The seed picks the rewritten factor and
    the query order; neither changes the oracle's work, so the per-layer
    counts are the same for every seed.
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    for k, equal, n, o in LONG_QUERIES:
        x, y = f"a{1 + o}.{3 + o}^3", f"a{2 + o}.{4 + o}^3"
        factors = [x, y] * k
        left = " ".join(factors)
        if equal:
            pos = rng.randrange(len(factors))
            i = 1 + o + pos % 2
            factors[pos] = f"s{i}' s{i + 1}^3 s{i}"
        else:
            factors = [y, x] * k
        ops.append(Op(("--json", "eq", left, " ".join(factors), "--n", str(n)), 1,
                      eq_check(equal)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "partition_sweep": partition_sweep,
    "inject_scan": inject_scan,
    "long_words": long_words,
}


def prepare(name: str) -> None:
    """Fill the caches of expected values that no seed changes."""
    if name == "inject_scan":
        raag_reduced_counts(SCAN_N, SCAN_LEN, SCAN_EXP)
