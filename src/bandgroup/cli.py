"""Command-line front end.

One binary, `bandgroup`, wiring the verifier, the injectivity scanner, and
the word calculators to JSON file formats.  Exit code 0 means everything
checked out, 1 means some relation or property failed, 2 means the
invocation or its inputs were unusable.  Reports render as human text by
default; --json switches to a byte-stable machine rendering (identical
invocations with identical inputs and seeds produce identical bytes, which
is why wall-clock time never appears there).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections.abc import Iterable
from itertools import chain
from pathlib import Path

from .braid import (
    MAX_STRANDS,
    Permutation,
    braid_equal,
    parse_braid_word,
    parse_free_word,
    permutation_image,
)
from .coxeter import (
    BandPair,
    Partition,
    ScopeError,
    _is_int,
    matrix_from_json,
    partition_from_json,
    partition_to_matrix,
)
from .coxword import (
    CoxWord,
    check_prop7,
    check_prop_trans,
    is_critical,
    is_long,
    jk_factorize,
    parse_cox_word,
)
from .hurwitz import GroupContext, GroupTuple, render_action
from .present import (
    block_product_check,
    coset_table_check,
    export_presentation,
    relations_combing,
    relations_sec4,
    relations_thm1,
    relations_thm2,
    verify_relations,
)
from .raag import injectivity_scan
from .report import RunReport, render_reports_json


# The largest degree of a permutation realization.  Each letter of a
# Hurwitz word conjugates permutations of this degree, so a word at the
# parser's MAX_WORD_LETTERS cap on a realization of this degree takes about
# 1.3 s on a 2-core machine (figures in CHANGES.md).
MAX_DEGREE = 4096
# The largest --max-len of `checkprop --random`.  The `seven` check redraws
# every word that has a long subword, which a long word nearly always has,
# so its cost grows with the square of --max-len: one instance at this cap
# took at most about 1.3 s over ten seeds on 3 strands.
MAX_RANDOM_LETTERS = 4096


def _parse_band(text: str) -> BandPair:
    parts = text.split(".")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ValueError(f"band must look like 1.3, got {text!r}")
    return BandPair(int(parts[0]), int(parts[1]))


def _emit(reports: list[RunReport], args: argparse.Namespace, command: str) -> int:
    if args.json:
        print(render_reports_json(reports, command))
    else:
        for report in reports:
            print(report.render_text())
    return 0 if all(r.ok for r in reports) else 1


def _answer(args: argparse.Namespace, payload: dict, lines: Iterable[str]) -> None:
    """Print a single answer: the JSON payload under --json, else the text lines.

    The lines are printed one at a time, so a lazy iterable never holds a
    second copy of a long Hurwitz entry.
    """
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- subcommands --------------------------------------------------------------


def _thm2(partition: Partition):
    matrix = partition_to_matrix(partition)
    return relations_thm2(partition), matrix, f"thm2 {partition}"


def _combing(p_prime: Partition):
    n = p_prime.n + 1
    matrix = partition_to_matrix(p_prime.with_singleton())
    return relations_combing(p_prime, n), matrix, f"combing {p_prime}+{n}"


# Each relation family: the input flags it reads, and a function from the
# loaded inputs to its relations, matrix and report tag.  Every routine is
# looked up by name when it is called, so a wrapper set on this module's
# names (as `bench/spans.py` sets them) sees the call.
_RELATIONS = {
    "thm1": (("matrix",), lambda matrix: (relations_thm1(matrix), matrix, "thm1")),
    "thm2": (("partition",), _thm2),
    "combing": (("partition",), _combing),
    "sec4": (("matrix",), lambda matrix: (relations_sec4(matrix), matrix, "sec4")),
}
# The families checked by their own routine: the flags, and the routine.
_CHECKS = {
    "cosets": (("partition",), lambda partition: coset_table_check(partition)),
    "block": (("matrix1", "matrix2"), lambda m1, m2: block_product_check(m1, m2)),
}
_FAMILIES = {**_RELATIONS, **_CHECKS}


def _load(flag: str, path: str):
    text = Path(path).read_text()
    return partition_from_json(text) if flag == "partition" else matrix_from_json(text)


def _load_inputs(args: argparse.Namespace, command: str) -> list:
    """The inputs of args.family, loaded in the order of its flags."""
    flags = _FAMILIES[args.family][0]
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(f"{command} {args.family} needs --{flag}")
    return [_load(flag, getattr(args, flag)) for flag in flags]


def cmd_verify(args: argparse.Namespace) -> int:
    inputs = _load_inputs(args, "verify")
    if args.family in _RELATIONS:
        relations, matrix, tag = _RELATIONS[args.family][1](*inputs)
        report = verify_relations(relations, matrix, tag=tag)
    else:
        report = _CHECKS[args.family][1](*inputs)
    return _emit([report], args, f"verify {args.family}")


def cmd_scan(args: argparse.Namespace) -> int:
    matrix = _load("matrix", args.matrix)
    report = injectivity_scan(matrix, args.max_len, args.max_exp)
    return _emit([report], args, "scan inject")


def cmd_eq(args: argparse.Namespace) -> int:
    u = parse_braid_word(args.left, args.n)
    v = parse_braid_word(args.right, args.n)
    equal = braid_equal(u, v)
    _answer(args, {"command": "eq", "equal": equal}, ["equal" if equal else "not equal"])
    return 0 if equal else 1


def cmd_perm(args: argparse.Namespace) -> int:
    word = parse_braid_word(args.word, args.n)
    perm = permutation_image(word)
    cycles = perm.cycle_string()
    _answer(args, {"command": "perm", "cycles": cycles, "images": list(perm.images)}, [cycles])
    return 0


def _build_context(selector: str, n: int) -> GroupContext:
    if selector == "free":
        return GroupContext.free(n)
    if selector == "coxeter":
        return GroupContext.coxeter(n)
    if selector.startswith("perm:"):
        data = json.loads(Path(selector[len("perm:"):]).read_text())
        if not isinstance(data, dict):
            raise ValueError("realization file must hold a JSON object")
        degree, images = data.get("degree"), data.get("images")
        involutive = data.get("involutive", True)
        if not (_is_int(degree) and degree >= 1 and isinstance(involutive, bool)
                and isinstance(images, list) and all(isinstance(x, str) for x in images)):
            raise ValueError("realization file needs an integer 'degree' >= 1, a list of "
                             "strings 'images' and, optionally, a bool 'involutive'")
        if degree > MAX_DEGREE:
            raise ValueError(f"a realization degree may be at most {MAX_DEGREE}, got {degree}")
        if len(images) > MAX_STRANDS:
            raise ValueError(f"a realization may have at most {MAX_STRANDS} images, "
                             f"got {len(images)}")
        perms = tuple(Permutation.parse(x, degree) for x in images)
        return GroupContext.permutations(perms, degree, involutive=involutive)
    raise ValueError(f"unknown context {selector!r}; use free, coxeter, or perm:<file>")


def _parse_tuple(ctx: GroupContext, entries: list) -> GroupTuple:
    for i, e in enumerate(entries, start=1):
        if not isinstance(e, str):
            raise ValueError(f"tuple entry {i} must be a string, got {e!r}")
    if ctx.kind == "free":
        return GroupTuple(ctx, tuple(parse_free_word(e) for e in entries))
    if ctx.kind == "coxeter":
        return GroupTuple(ctx, tuple(parse_cox_word(e) for e in entries))
    assert ctx.degree is not None
    return GroupTuple(ctx, tuple(Permutation.parse(e, ctx.degree) for e in entries))


def cmd_hurwitz(args: argparse.Namespace) -> int:
    if args.tuple is not None:
        entries = json.loads(Path(args.tuple).read_text())
        if not isinstance(entries, list):
            raise ValueError("tuple file must hold a JSON array")
        n = len(entries)
        ctx = _build_context(args.context, n)
        if ctx.kind == "perm" and ctx.n != n:
            raise ValueError(f"tuple length {n} != realization size {ctx.n}")
        tup = _parse_tuple(ctx, entries)
    else:
        if not args.context.startswith("perm:"):
            raise ValueError("--tuple is required for free and coxeter contexts")
        ctx = _build_context(args.context, 0)
        tup = ctx.defining_tuple()
    word = parse_braid_word(args.word, ctx.n)
    rendered, fixed = render_action(tup, word)
    lines = chain((f"{i}: {text}" for i, text in enumerate(rendered, start=1)),
                  ["stabilizes" if fixed else "moved"])
    _answer(args, {"command": "hurwitz", "result": rendered, "stabilizes": fixed}, lines)
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    word = parse_cox_word(args.word)
    f = jk_factorize(word, args.j, args.k)
    rows = []
    for nu, block in enumerate(f.blocks):
        flags = []
        if is_long(block):
            flags.append("long")
        if 0 < nu < f.ell and is_critical(f, nu):
            flags.append("critical")
        rows.append(
            {
                "block": nu,
                "letters": " ".join(f"s{x}" for x in block) or "-",
                "flags": flags,
            }
        )
    payload = {"command": "factorize", "j": args.j, "k": args.k,
               "separators": list(f.separators), "blocks": rows}
    lines = [
        f"w{row['block']}: {row['letters']}"
        + (f" [{', '.join(row['flags'])}]" if row["flags"] else "")
        for row in rows
    ]
    lines.append("separators: " + (" ".join(f"s{x}" for x in f.separators) or "-"))
    _answer(args, payload, lines)
    return 0


def random_cox_word(rng: random.Random, n: int, max_len: int) -> CoxWord:
    """A reduced word over s_1 .. s_n whose length is drawn from 0 .. max_len."""
    length = rng.randint(0, max_len)
    letters: list[int] = []
    while len(letters) < length:
        x = rng.randint(1, n)
        if letters and letters[-1] == x:
            continue
        letters.append(x)
    return CoxWord(tuple(letters))


def cmd_checkprop(args: argparse.Namespace) -> int:
    check = check_prop_trans if args.which == "trans" else check_prop7
    if args.random is None:
        if args.word is None or args.band is None or args.m is None:
            raise ValueError("single mode needs WORD, --band and --m")
        word = parse_cox_word(args.word)
        result = check(word, _parse_band(args.band), args.m)
        payload = {"command": f"checkprop {args.which}", "status": result.status,
                   "detail": result.detail, "failures": list(result.failures)}
        lines = [f"{result.status}: {result.detail}", *(f"  {x}" for x in result.failures)]
        _answer(args, payload, lines)
        if result.status == "precondition-violated":
            return 2
        return 0 if result.passed else 1

    bounds = (("random", args.random, 1), ("n", args.n, 3), ("max-len", args.max_len, 0))
    for flag, value, least in bounds:
        if value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
    if args.max_len > MAX_RANDOM_LETTERS:
        raise ValueError(f"--max-len must be at most {MAX_RANDOM_LETTERS}, got {args.max_len}")
    rng = random.Random(args.seed)
    report = RunReport(tag=f"checkprop {args.which} random={args.random} seed={args.seed}")
    produced = 0
    while produced < args.random:
        n = rng.randint(3, args.n)
        word = random_cox_word(rng, n, args.max_len)
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        band = BandPair(i, j)
        m = rng.choice([3, 4, -3, -4])
        result = check(word, band, m)
        if result.status == "precondition-violated":
            continue
        produced += 1
        report.add(
            args.which,
            band.indices() + (m,),
            result.passed,
            message=f"word {word}: {result.status} {'; '.join(result.failures)}",
        )
    return _emit([report], args, f"checkprop {args.which}")


def cmd_export(args: argparse.Namespace) -> int:
    relations, matrix, _ = _RELATIONS[args.family][1](*_load_inputs(args, "export"))
    text = export_presentation(relations, matrix, args.format)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandgroup",
        description="verify band-power presentations and compute in braid groups",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a relation family")
    p_verify.add_argument("family", choices=list(_FAMILIES))
    p_verify.add_argument("--matrix", help="JSON matrix file")
    p_verify.add_argument("--partition", help="JSON partition file")
    p_verify.add_argument("--matrix1", help="first block (family: block)")
    p_verify.add_argument("--matrix2", help="second block (family: block)")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="scan expressions for trivial braid images")
    p_scan.add_argument("kind", choices=["inject"])
    p_scan.add_argument("--matrix", required=True)
    p_scan.add_argument("--max-len", type=int, required=True)
    p_scan.add_argument("--max-exp", type=int, required=True)
    p_scan.set_defaults(func=cmd_scan)

    p_eq = sub.add_parser("eq", help="decide braid-word equality")
    p_eq.add_argument("left")
    p_eq.add_argument("right")
    p_eq.add_argument("--n", type=int, required=True)
    p_eq.set_defaults(func=cmd_eq)

    p_perm = sub.add_parser("perm", help="permutation underlying a braid word")
    p_perm.add_argument("word")
    p_perm.add_argument("--n", type=int, required=True)
    p_perm.set_defaults(func=cmd_perm)

    p_hur = sub.add_parser("hurwitz", help="apply a braid word to a tuple")
    p_hur.add_argument("--context", required=True, help="free, coxeter, or perm:<file>")
    p_hur.add_argument("--tuple", help="JSON array of entries")
    p_hur.add_argument("--word", required=True)
    p_hur.set_defaults(func=cmd_hurwitz)

    p_fact = sub.add_parser("factorize", help="two-letter block factorization")
    p_fact.add_argument("word")
    p_fact.add_argument("--j", type=int, required=True)
    p_fact.add_argument("--k", type=int, required=True)
    p_fact.set_defaults(func=cmd_factorize)

    p_check = sub.add_parser("checkprop", help="block growth and classification checks")
    p_check.add_argument("which", choices=["trans", "seven"])
    p_check.add_argument("word", nargs="?")
    p_check.add_argument("--band", help="band pair as i.j")
    p_check.add_argument("--m", type=int)
    p_check.add_argument("--random", type=int, help="run this many random instances")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--n", type=int, default=6, help="max strand count in random mode")
    p_check.add_argument("--max-len", type=int, default=12)
    p_check.set_defaults(func=cmd_checkprop)

    p_export = sub.add_parser("export", help="print a presentation")
    p_export.add_argument("--family", choices=["thm1", "thm2", "sec4"], required=True)
    p_export.add_argument("--format", choices=["plain", "gap-style"], default="plain")
    p_export.add_argument("--matrix")
    p_export.add_argument("--partition")
    p_export.add_argument("-o", "--output")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScopeError as exc:
        print(f"scope error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
