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
from pathlib import Path

from .braid import (
    Permutation,
    braid_equal,
    format_free_word,
    parse_braid_word,
    parse_free_word,
    permutation_image,
)
from .coxeter import (
    BandPair,
    CoxeterDatum,
    Partition,
    ScopeError,
    matrix_from_json,
    partition_from_json,
    partition_to_matrix,
)
from .coxword import (
    CoxWord,
    check_prop7,
    check_prop_trans,
    has_long_subword,
    is_critical,
    is_long,
    jk_factorize,
    parse_cox_word,
)
from .hurwitz import GroupContext, GroupTuple, hurwitz_apply
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


def _load_matrix(path: str) -> CoxeterDatum:
    return matrix_from_json(Path(path).read_text())


def _load_partition(path: str) -> Partition:
    return partition_from_json(Path(path).read_text())


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


# -- subcommands --------------------------------------------------------------


# The input files each verify family reads.
_VERIFY_INPUTS = {
    "thm1": ("matrix",),
    "thm2": ("partition",),
    "combing": ("partition",),
    "sec4": ("matrix",),
    "cosets": ("partition",),
    "block": ("matrix1", "matrix2"),
}


def cmd_verify(args: argparse.Namespace) -> int:
    family = args.family
    for name in _VERIFY_INPUTS.get(family, ()):
        if getattr(args, name) is None:
            raise ValueError(f"verify {family} needs --{name}")
    if family == "thm1":
        matrix = _load_matrix(args.matrix)
        reports = [verify_relations(relations_thm1(matrix), matrix, tag="thm1")]
    elif family == "thm2":
        partition = _load_partition(args.partition)
        matrix = partition_to_matrix(partition)
        reports = [
            verify_relations(relations_thm2(partition), matrix, tag=f"thm2 {partition}")
        ]
    elif family == "combing":
        p_prime = _load_partition(args.partition)
        n = p_prime.n + 1
        matrix = partition_to_matrix(p_prime.with_singleton())
        reports = [
            verify_relations(
                relations_combing(p_prime, n), matrix, tag=f"combing {p_prime}+{n}"
            )
        ]
    elif family == "sec4":
        matrix = _load_matrix(args.matrix)
        reports = [verify_relations(relations_sec4(matrix), matrix, tag="sec4")]
    elif family == "cosets":
        partition = _load_partition(args.partition)
        reports = [coset_table_check(partition)]
    elif family == "block":
        m1 = _load_matrix(args.matrix1)
        m2 = _load_matrix(args.matrix2)
        reports = [block_product_check(m1, m2)]
    else:
        raise ValueError(f"unknown verify family {family!r}")
    return _emit(reports, args, f"verify {family}")


def cmd_scan(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.matrix)
    report = injectivity_scan(matrix, args.max_len, args.max_exp)
    report.info["seed"] = args.seed
    return _emit([report], args, "scan inject")


def cmd_eq(args: argparse.Namespace) -> int:
    u = parse_braid_word(args.left, args.n)
    v = parse_braid_word(args.right, args.n)
    equal = braid_equal(u, v)
    if args.json:
        print(json.dumps({"command": "eq", "equal": equal}, sort_keys=True))
    else:
        print("equal" if equal else "not equal")
    return 0 if equal else 1


def cmd_perm(args: argparse.Namespace) -> int:
    word = parse_braid_word(args.word, args.n)
    perm = permutation_image(word)
    if args.json:
        print(
            json.dumps(
                {"command": "perm", "cycles": perm.cycle_string(), "images": list(perm.images)},
                sort_keys=True,
            )
        )
    else:
        print(perm.cycle_string())
    return 0


def _build_context(selector: str, n: int) -> GroupContext:
    if selector == "free":
        return GroupContext.free(n)
    if selector == "coxeter":
        return GroupContext.coxeter(n)
    if selector.startswith("perm:"):
        data = json.loads(Path(selector[len("perm:"):]).read_text())
        degree = int(data["degree"])
        images = tuple(Permutation.parse(s, degree) for s in data["images"])
        return GroupContext.permutations(images, degree, involutive=bool(data.get("involutive", True)))
    raise ValueError(f"unknown context {selector!r}; use free, coxeter, or perm:<file>")


def _parse_tuple(ctx: GroupContext, entries: list[str]) -> GroupTuple:
    if ctx.kind == "free":
        return GroupTuple(ctx, tuple(parse_free_word(e) for e in entries))
    if ctx.kind == "coxeter":
        return GroupTuple(ctx, tuple(parse_cox_word(e) for e in entries))
    assert ctx.degree is not None
    return GroupTuple(ctx, tuple(Permutation.parse(e, ctx.degree) for e in entries))


def _render_entry(entry) -> str:
    if isinstance(entry, Permutation):
        return entry.cycle_string()
    if isinstance(entry, CoxWord):
        return str(entry)
    return format_free_word(entry)


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
    result = hurwitz_apply(tup, word)
    fixed = result.entries == tup.entries
    rendered = [_render_entry(e) for e in result.entries]
    if args.json:
        print(
            json.dumps(
                {"command": "hurwitz", "result": rendered, "stabilizes": fixed},
                sort_keys=True,
            )
        )
    else:
        for i, text in enumerate(rendered, start=1):
            print(f"{i}: {text}")
        print("stabilizes" if fixed else "moved")
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
    if args.json:
        print(
            json.dumps(
                {
                    "command": "factorize",
                    "j": args.j,
                    "k": args.k,
                    "separators": list(f.separators),
                    "blocks": rows,
                },
                sort_keys=True,
            )
        )
    else:
        for row in rows:
            note = f" [{', '.join(row['flags'])}]" if row["flags"] else ""
            print(f"w{row['block']}: {row['letters']}{note}")
        print("separators: " + (" ".join(f"s{x}" for x in f.separators) or "-"))
    return 0


def _random_cox_word(rng: random.Random, n: int, max_len: int) -> CoxWord:
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
        if args.json:
            print(
                json.dumps(
                    {
                        "command": f"checkprop {args.which}",
                        "status": result.status,
                        "detail": result.detail,
                        "failures": list(result.failures),
                    },
                    sort_keys=True,
                )
            )
        else:
            print(f"{result.status}: {result.detail}")
            for failure in result.failures:
                print(f"  {failure}")
        if result.status == "precondition-violated":
            return 2
        return 0 if result.passed else 1

    rng = random.Random(args.seed)
    report = RunReport(tag=f"checkprop {args.which} random={args.random} seed={args.seed}")
    produced = 0
    while produced < args.random:
        n = rng.randint(3, args.n)
        word = _random_cox_word(rng, n, args.max_len)
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        band = BandPair(i, j)
        m = rng.choice([3, 4, -3, -4])
        if args.which == "trans":
            f = jk_factorize(word, band.i, band.j)
            if any(len(b) == 2 * abs(m) for b in f.blocks):
                continue
        else:
            if has_long_subword(word, band.i, band.j):
                continue
        produced += 1
        result = check(word, band, m)
        report.add(
            args.which,
            band.indices() + (m,),
            result.passed,
            message=f"word {word}: {result.status} {'; '.join(result.failures)}",
        )
    return _emit([report], args, f"checkprop {args.which}")


def cmd_export(args: argparse.Namespace) -> int:
    if args.family == "thm1":
        matrix = _load_matrix(args.matrix)
        rels = relations_thm1(matrix)
    elif args.family == "thm2":
        partition = _load_partition(args.partition)
        matrix = partition_to_matrix(partition)
        rels = relations_thm2(partition)
    else:
        matrix = _load_matrix(args.matrix)
        rels = relations_sec4(matrix)
    text = export_presentation(rels, matrix, args.format)
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
    p_verify.add_argument(
        "family", choices=["thm1", "thm2", "combing", "sec4", "cosets", "block"]
    )
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
    p_scan.add_argument("--seed", type=int, default=0)
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
