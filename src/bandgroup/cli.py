"""Command-line front end.

One binary, `bandgroup`, wiring the verifier, the injectivity scanner, and
the word calculators to JSON file formats.  Exit code 0 means everything
checked out, 1 means some relation or property failed, 2 means the
invocation or its inputs were unusable.  Reports render as human text by
default; --json switches to a byte-stable machine rendering, one compact
JSON line per invocation in the same style for every subcommand (identical
invocations with identical inputs and seeds produce identical bytes, which
is why wall-clock time never appears there).  This module is the only one
that reads a clock: `main` stamps the parsed command, and the human header
of a report ends in the seconds from that stamp to the report, file loading
included.  Every command returns its exit code and its text, and `main`
alone writes standard output: a reader that stops reading ends the output,
not the run, which exits with the command's code and no error.  The
argument parser is built once per process and reused by every `main` call:
building it takes about 0.8 ms (2 cores, Python 3.11.7), more than half of
what a small `verify thm2` or `eq` call took in process when it was rebuilt
for each.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from collections.abc import Iterable
from pathlib import Path

from .braid import (
    MAX_STRANDS,
    Permutation,
    _check_strands,
    _decode,
    braid_equal,
    parse_braid_word,
    parse_cox_word,
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
)
from .hurwitz import PERMUTATION, GroupContext, render_action
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
# The largest --max-len of `checkprop --random`.  On 3 strands the `seven`
# check redraws every word that has a long {i, l}-block, which a long word
# nearly always has, so its cost grows with the square of --max-len: one
# instance at this cap took at most 1.1 s over seeds 0-9 (0.17 s on 127).
MAX_RANDOM_LETTERS = 4096
# Budget on --random x --max-len, refused before the first word is drawn.
# A `seven` run at the budget took 0.25-0.47 s at --max-len 12; at this cap,
# 0.16-0.26 s on 127 strands and 3.9-7.5 s on 3, the worst case, where
# nearly every word is redrawn (seeds 0-4, 2 cores, Python 3.11.7).
MAX_RANDOM_WORK = 1 << 16


def _parse_band(text: str) -> BandPair:
    parts = text.split(".")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ValueError(f"band must look like 1.3, got {text!r}")
    return BandPair(int(parts[0]), int(parts[1]))


def _letter_index(text: str) -> int:
    """An argparse type: the index of a letter s_i, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"a letter index must be at least 1, got {value}")
    return value


def _emit(report: RunReport, args: argparse.Namespace, command: str) -> tuple[int, list[str]]:
    text = (render_reports_json(report, command) if args.json
            else report.render_text(time.perf_counter() - args.started))
    return 0 if report.ok else 1, [text + "\n"]


def _answer(args: argparse.Namespace, payload: dict, lines: Iterable[str]) -> list[str]:
    """The text of a single answer: the JSON payload under --json, else the lines."""
    if args.json:
        return [json.dumps(payload, sort_keys=True) + "\n"]
    return [line + "\n" for line in lines]


# -- subcommands --------------------------------------------------------------


def _thm2(partition: Partition):
    matrix = partition_to_matrix(partition)
    return relations_thm2(partition), matrix, f"thm2 {partition}"


def _combing(p_prime: Partition):
    matrix = partition_to_matrix(p_prime.with_singleton())
    return relations_combing(p_prime), matrix, f"combing {p_prime}+{matrix.n}"


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
    inputs = [_load(flag, getattr(args, flag)) for flag in flags]
    # refused before the relations are generated, which takes O(n^4) time
    _check_strands(_strands(args.family, inputs))
    return inputs


def _strands(family: str, inputs: list) -> int:
    """The strands of the braids a family decides: combing adds one, block joins two."""
    if family == "block":
        return sum(x.n for x in inputs)
    return inputs[0].n + (family == "combing")


def cmd_verify(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    inputs = _load_inputs(args, "verify")
    if args.family in _RELATIONS:
        relations, matrix, tag = _RELATIONS[args.family][1](*inputs)
        report = verify_relations(relations, matrix, tag=tag)
    else:
        report = _CHECKS[args.family][1](*inputs)
    return _emit(report, args, f"verify {args.family}")


def cmd_scan(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    matrix = _load("matrix", args.matrix)
    report = injectivity_scan(matrix, args.max_len, args.max_exp)
    return _emit(report, args, "scan inject")


def cmd_eq(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    u = parse_braid_word(args.left, args.n)
    v = parse_braid_word(args.right, args.n)
    equal = braid_equal(u, v)
    answer = "equal" if equal else "not equal"
    return 0 if equal else 1, _answer(args, {"command": "eq", "equal": equal}, [answer])


def cmd_perm(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    # the command line's bound, as eq's: a permutation costs O(n) whatever the word
    _check_strands(args.n)
    word = parse_braid_word(args.word, args.n)
    perm = permutation_image(word)
    cycles = perm.cycle_string()
    return 0, _answer(args, {"command": "perm", "cycles": cycles, "images": list(perm.images)},
                      [cycles])


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


def cmd_hurwitz(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    if args.tuple is not None:
        texts = json.loads(Path(args.tuple).read_text())
        if not isinstance(texts, list):
            raise ValueError("tuple file must hold a JSON array")
        n = len(texts)
        if n > MAX_STRANDS:
            raise ValueError(f"a tuple may have at most {MAX_STRANDS} entries, got {n}")
        ctx = _build_context(args.context, n)
        if ctx.kind == PERMUTATION and ctx.n != n:
            raise ValueError(f"tuple length {n} != realization size {ctx.n}")
        for i, e in enumerate(texts, start=1):
            if not isinstance(e, str):
                raise ValueError(f"tuple entry {i} must be a string, got {e!r}")
        entries = ctx.parse_tuple(texts)
        del texts  # a long entry's text is not kept while the action runs
    else:
        if not args.context.startswith("perm:"):
            raise ValueError("--tuple is required for free and coxeter contexts")
        ctx = _build_context(args.context, 0)
        entries = tuple(p.images for p in ctx.images)
    word = parse_braid_word(args.word, ctx.n)
    texts, fixed = render_action(ctx, entries, word)
    if args.json:
        result = ["".join(text) for text in texts]
        return 0, _answer(args, {"command": "hurwitz", "result": result, "stabilizes": fixed}, ())

    def lines():
        for i, slices in enumerate(texts, start=1):
            yield f"{i}: "
            yield from slices
            yield "\n"
        yield "stabilizes\n" if fixed else "moved\n"

    return 0, lines()


def cmd_factorize(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    word = CoxWord(_decode(parse_cox_word(args.word)))
    f = jk_factorize(word, args.j, args.k)
    rows = []
    for nu, block in enumerate(f.blocks):
        flags = []
        if is_long(block):
            flags.append("long")
        if is_critical(f, nu):
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
    return 0, _answer(args, payload, lines)


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


def cmd_checkprop(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    check = check_prop_trans if args.which == "trans" else check_prop7
    if args.random is None:
        if args.word is None or args.band is None or args.m is None:
            raise ValueError("single mode needs WORD, --band and --m")
        word = CoxWord(_decode(parse_cox_word(args.word)))
        result = check(word, _parse_band(args.band), args.m)
        payload = {"command": f"checkprop {args.which}", "status": result.status,
                   "detail": result.detail, "failures": list(result.failures)}
        lines = [f"{result.status}: {result.detail}", *(f"  {x}" for x in result.failures)]
        text = _answer(args, payload, lines)
        if result.status == "precondition-violated":
            return 2, text
        return 0 if result.passed else 1, text

    bounds = (("random", args.random, 1), ("n", args.n, 3), ("max-len", args.max_len, 0))
    for flag, value, least in bounds:
        if value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
    caps = (("n", args.n, MAX_STRANDS), ("max-len", args.max_len, MAX_RANDOM_LETTERS))
    for flag, value, most in caps:
        if value > most:
            raise ValueError(f"--{flag} must be at most {most}, got {value}")
    if args.random * args.max_len > MAX_RANDOM_WORK:
        raise ValueError(f"--random {args.random} times --max-len {args.max_len} exceeds the "
                         f"budget of {MAX_RANDOM_WORK} letters; lower either")
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
    return _emit(report, args, f"checkprop {args.which}")


def cmd_export(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    relations, matrix, _ = _RELATIONS[args.family][1](*_load_inputs(args, "export"))
    lines = export_presentation(relations, matrix, args.format)
    if not args.output:
        return 0, lines
    with open(args.output, "w") as out:
        out.writelines(lines)
    return 0, ()


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built at the first call and shared after that.

    A caller that runs many commands in one process, such as the test suite
    or a benchmark, would otherwise rebuild it at every `main` call.  The
    tree holds no command functions: `main` finds `cmd_<command>` in this
    module at call time, so a wrapper set on a command's name sees its calls.
    """
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

    p_scan = sub.add_parser("scan", help="scan expressions for trivial braid images")
    p_scan.add_argument("kind", choices=["inject"])
    p_scan.add_argument("--matrix", required=True)
    p_scan.add_argument("--max-len", type=int, required=True)
    p_scan.add_argument("--max-exp", type=int, required=True)

    p_eq = sub.add_parser("eq", help="decide braid-word equality")
    p_eq.add_argument("left")
    p_eq.add_argument("right")
    p_eq.add_argument("--n", type=int, required=True)

    p_perm = sub.add_parser("perm", help="permutation underlying a braid word")
    p_perm.add_argument("word")
    p_perm.add_argument("--n", type=int, required=True)

    p_hur = sub.add_parser("hurwitz", help="apply a braid word to a tuple")
    p_hur.add_argument("--context", required=True, help="free, coxeter, or perm:<file>")
    p_hur.add_argument("--tuple", help="JSON array of entries")
    p_hur.add_argument("--word", required=True)

    p_fact = sub.add_parser("factorize", help="two-letter block factorization")
    p_fact.add_argument("word")
    p_fact.add_argument("--j", type=_letter_index, required=True)
    p_fact.add_argument("--k", type=_letter_index, required=True)

    p_check = sub.add_parser("checkprop", help="block growth and classification checks")
    p_check.add_argument("which", choices=["trans", "seven"])
    p_check.add_argument("word", nargs="?")
    p_check.add_argument("--band", help="band pair as i.j")
    p_check.add_argument("--m", type=int)
    p_check.add_argument("--random", type=int, help="run this many random instances")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--n", type=int, default=6, help="max strand count in random mode")
    p_check.add_argument("--max-len", type=int, default=12)

    p_export = sub.add_parser("export", help="print a presentation")
    p_export.add_argument("--family", choices=["thm1", "thm2", "sec4"], required=True)
    p_export.add_argument("--format", choices=["plain", "gap-style"], default="plain")
    p_export.add_argument("--matrix")
    p_export.add_argument("--partition")
    p_export.add_argument("-o", "--output")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.perf_counter()
    try:
        code, text = globals()[f"cmd_{args.command}"](args)
        try:  # a lazy text can still refuse, so it is written inside the outer guard
            sys.stdout.writelines(text)
            sys.stdout.flush()
        except BrokenPipeError:  # no second error at exit: the `signal` docs' SIGPIPE recipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except ScopeError as exc:
        print(f"scope error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
