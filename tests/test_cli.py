import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bandgroup.braid import MAX_IMAGE_LETTERS, MAX_STRANDS, MAX_WORD_LETTERS
from bandgroup.cli import MAX_DEGREE, MAX_RANDOM_LETTERS, main
from bandgroup.coxeter import CoxeterDatum, Partition
from bandgroup.raag import MAX_SCAN_EXPRESSIONS


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, matrix):
        path = tmp_path / name
        path.write_text(json.dumps(matrix.to_json_dict()))
        return str(path)

    return write


@pytest.fixture
def partition_file(tmp_path):
    def write(name, partition):
        path = tmp_path / name
        path.write_text(json.dumps(partition.to_json_dict()))
        return str(path)

    return write


class TestEq:
    def test_equal_words(self, capsys):
        assert main(["eq", "s1 s2 s1", "s2 s1 s2", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "equal"

    def test_unequal_words(self, capsys):
        assert main(["eq", "s1", "s1'", "--n", "2"]) == 1
        assert capsys.readouterr().out.strip() == "not equal"

    def test_band_tokens(self, capsys):
        assert main(["eq", "a1.2 a1.3", "a1.3 a2.3", "--n", "3"]) == 0

    def test_bad_token_is_usage_error(self, capsys):
        assert main(["eq", "q1", "s1", "--n", "2"]) == 2

    def test_generator_out_of_range_is_usage_error(self, capsys):
        assert main(["eq", "s4", "s1", "--n", "4"]) == 2
        assert "generator index 4 outside 1..3" in capsys.readouterr().err

    def test_too_many_strands_is_usage_error(self, capsys):
        assert main(["eq", "s1", "s2", "--n", "200"]) == 2
        assert "at most 127 strands" in capsys.readouterr().err

    def test_words_past_the_image_cap_are_decided(self, capsys):
        # free images of these words pass 2^24 letters
        factors = ["a1.3^3", "a2.4^3"] * 5
        left = " ".join(factors)
        assert main(["eq", left, " ".join(["a2.4^3", "a1.3^3"] * 5), "--n", "4"]) == 1
        assert capsys.readouterr().out.strip() == "not equal"
        factors[3] = "s2' s3^3 s2"
        assert main(["eq", left, " ".join(factors), "--n", "4"]) == 0
        assert capsys.readouterr().out.strip() == "equal"


    def test_word_past_the_letter_cap_is_usage_error(self, capsys):
        assert main(["eq", "s1^1000000000", "s2", "--n", "3"]) == 2
        assert f"at most {MAX_WORD_LETTERS} letters" in capsys.readouterr().err

    def test_no_strands_is_usage_error(self, capsys):
        assert main(["eq", "", "", "--n", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: a braid needs at least 1 strand, got 0\n"


class TestPerm:
    def test_cycle_output(self, capsys):
        assert main(["perm", "a1.3", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "(1 3)"

    def test_pure_word(self, capsys):
        assert main(["perm", "s1 s1", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "()"

    def test_negative_strands_is_usage_error(self, capsys):
        assert main(["perm", "", "--n", "-5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: a braid needs at least 1 strand, got -5\n"


class TestVerify:
    def test_thm2_singletons_passes(self, capsys, partition_file):
        path = partition_file("p.json", Partition.singletons(3))
        assert main(["verify", "thm2", "--partition", path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_thm1_scope_error(self, capsys, matrix_file):
        path = matrix_file("m.json", CoxeterDatum.constant(3, 2))
        assert main(["verify", "thm1", "--matrix", path]) == 2
        assert "scope error" in capsys.readouterr().err

    def test_thm1_passes(self, matrix_file):
        path = matrix_file("m.json", CoxeterDatum.constant(4, 3))
        assert main(["verify", "thm1", "--matrix", path]) == 0

    def test_combing(self, partition_file):
        path = partition_file("p.json", Partition.of(2, [[1, 2]]))
        assert main(["verify", "combing", "--partition", path]) == 0

    def test_cosets(self, partition_file):
        path = partition_file("p.json", Partition.single_block(3))
        assert main(["verify", "cosets", "--partition", path]) == 0

    def test_sec4(self, matrix_file):
        path = matrix_file("m.json", CoxeterDatum.constant(3, 2))
        assert main(["verify", "sec4", "--matrix", path]) == 0

    def test_block(self, matrix_file):
        p1 = matrix_file("m1.json", CoxeterDatum.constant(2, 3))
        p2 = matrix_file("m2.json", CoxeterDatum.constant(2, 3))
        assert main(["verify", "block", "--matrix1", p1, "--matrix2", p2]) == 0

    def test_missing_file(self, capsys):
        assert main(["verify", "thm2", "--partition", "/nonexistent.json"]) == 2

    def _usage_error(self, capsys, argv, phrase):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert phrase in err
        assert len(err.strip().splitlines()) == 1

    def test_matrix_entry_not_a_list(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 3, "m": 5}))
        self._usage_error(capsys, ["verify", "thm1", "--matrix", str(path)],
                          "list of integer lists")

    def test_matrix_top_level_array(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[0, 3], [3, 0]]))
        self._usage_error(capsys, ["verify", "thm1", "--matrix", str(path)],
                          "JSON object")

    def test_missing_required_flag_is_named(self, capsys):
        self._usage_error(capsys, ["verify", "thm1"], "--matrix")
        self._usage_error(capsys, ["verify", "cosets"], "--partition")
        self._usage_error(capsys, ["verify", "block", "--matrix1", "x.json"], "--matrix2")

    def test_partition_with_non_integer_element(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "parts": [[1, "x"]]}))
        self._usage_error(capsys, ["verify", "thm2", "--partition", str(path)],
                          "list of integer lists")

    def test_json_reports_byte_stable(self, capsys, partition_file):
        path = partition_file("p.json", Partition.singletons(3))
        assert main(["--json", "verify", "thm2", "--partition", path]) == 0
        first = capsys.readouterr().out
        assert main(["--json", "verify", "thm2", "--partition", path]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["ok"] is True


class TestScan:
    def test_small_scan(self, capsys, matrix_file):
        path = matrix_file("m.json", CoxeterDatum.constant(3, 3))
        assert main(["--json", "scan", "inject", "--matrix", path,
                     "--max-len", "1", "--max-exp", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "seed" not in payload["reports"][0]["info"]

    def test_scope_error(self, matrix_file):
        path = matrix_file("m.json", CoxeterDatum.constant(3, 1))
        assert main(["scan", "inject", "--matrix", path,
                     "--max-len", "1", "--max-exp", "1"]) == 2

    def test_scan_past_the_budget_is_refused_up_front(self, capsys, matrix_file):
        # 10 bases, so (10 * 2 * 3)^5 expressions at most
        path = matrix_file("m.json", CoxeterDatum.constant(5, 3))
        assert main(["scan", "inject", "--matrix", path,
                     "--max-len", "5", "--max-exp", "3"]) == 2
        err = capsys.readouterr().err
        assert f"60^5 expressions exceeds the budget of {MAX_SCAN_EXPRESSIONS}" in err


class TestHurwitz:
    def test_coxeter_tuple(self, tmp_path, capsys):
        tup = tmp_path / "t.json"
        tup.write_text(json.dumps(["s1", "s2"]))
        assert main(["hurwitz", "--context", "coxeter", "--tuple", str(tup),
                     "--word", "s1"]) == 0
        out = capsys.readouterr().out
        assert "s1 s2 s1" in out and "moved" in out

    def test_permutation_realization_stabilizer(self, tmp_path, capsys):
        ctx = tmp_path / "ctx.json"
        ctx.write_text(json.dumps({"degree": 3, "images": ["(1 2)", "(2 3)"]}))
        assert main(["hurwitz", "--context", f"perm:{ctx}", "--word", "a1.2^3"]) == 0
        assert "stabilizes" in capsys.readouterr().out

    def test_coxeter_twist_and_inverse_cancel(self, tmp_path, capsys):
        tup = tmp_path / "t.json"
        tup.write_text(json.dumps(["s1 s2", "s3"]))
        assert main(["hurwitz", "--context", "coxeter", "--tuple", str(tup),
                     "--word", "s1 s1'"]) == 0
        out = capsys.readouterr().out
        assert "1: s1 s2\n2: s3\n" in out and "stabilizes" in out

    def test_tuple_required_for_free(self):
        assert main(["hurwitz", "--context", "free", "--word", "s1"]) == 2

    def _run(self, tmp_path, context, entries, word):
        tup = tmp_path / "t.json"
        tup.write_text(json.dumps(entries))
        return main(["hurwitz", "--context", context, "--tuple", str(tup), "--word", word])

    def _usage_error(self, capsys, phrase):
        err = capsys.readouterr().err
        assert phrase in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("context, entries", [
        ("free", ["t1", "t2", "t3"]), ("coxeter", ["s1", "s2", "s3"]),
    ])
    def test_growing_entries_are_refused(self, tmp_path, capsys, context, entries):
        # each s1 s2' multiplies the entries' length by about 2.6
        assert self._run(tmp_path, context, entries, " ".join(["s1 s2'"] * 20)) == 2
        self._usage_error(capsys, f"exceeds {MAX_IMAGE_LETTERS} letters")
        assert self._run(tmp_path, context, entries, " ".join(["s1 s2'"] * 8)) == 0
        out = capsys.readouterr().out
        assert out.endswith("moved\n") and len(out) > 10_000

    @pytest.mark.parametrize("context, entry", [("free", "t200"), ("coxeter", "s200")])
    def test_letter_index_past_the_encoding(self, tmp_path, capsys, context, entry):
        assert self._run(tmp_path, context, [entry, entry], "s1") == 2
        self._usage_error(capsys, f"above {MAX_STRANDS}")

    @pytest.mark.parametrize("context", ["free", "coxeter", "perm"])
    def test_non_string_entry_is_named(self, tmp_path, capsys, context):
        if context == "perm":
            ctx = tmp_path / "ctx.json"
            ctx.write_text(json.dumps({"degree": 3, "images": ["(1 2)", "(2 3)", "()"]}))
            context = f"perm:{ctx}"
        assert self._run(tmp_path, context, [5, "t2", "t3"], "s1") == 2
        self._usage_error(capsys, "tuple entry 1 must be a string, got 5")

    @pytest.mark.parametrize("realization", [
        [1, 2],
        {"degree": [3], "images": ["(1 2)"]},
        {"degree": 3, "images": 5},
        {"degree": 3, "images": ["(1 2)"], "involutive": "yes"},
        {"images": ["(1 2)"]},
    ])
    def test_malformed_realization(self, tmp_path, capsys, realization):
        ctx = tmp_path / "ctx.json"
        ctx.write_text(json.dumps(realization))
        assert main(["hurwitz", "--context", f"perm:{ctx}", "--word", "s1"]) == 2
        self._usage_error(capsys, "realization file")

    def test_degree_past_the_cap_is_refused(self, tmp_path, capsys, monkeypatch):
        # A permutation of the refused degree is never built.
        monkeypatch.setattr("bandgroup.cli.Permutation", None)
        ctx = tmp_path / "ctx.json"
        ctx.write_text(json.dumps({"degree": MAX_DEGREE + 1, "images": ["()", "()"]}))
        assert main(["hurwitz", "--context", f"perm:{ctx}", "--word", "s1"]) == 2
        self._usage_error(capsys, f"degree may be at most {MAX_DEGREE}, got {MAX_DEGREE + 1}")

    def test_images_past_the_strand_cap_are_refused(self, tmp_path, capsys, monkeypatch):
        ctx = tmp_path / "ctx.json"
        ctx.write_text(json.dumps({"degree": 2, "images": ["()"] * MAX_STRANDS}))
        assert main(["hurwitz", "--context", f"perm:{ctx}", "--word", "s126"]) == 0
        assert capsys.readouterr().out.endswith("stabilizes\n")
        # No permutation of a refused realization is built.
        monkeypatch.setattr("bandgroup.cli.Permutation", None)
        ctx.write_text(json.dumps({"degree": 2, "images": ["()"] * (MAX_STRANDS + 1)}))
        assert main(["hurwitz", "--context", f"perm:{ctx}", "--word", "s1"]) == 2
        self._usage_error(capsys, f"at most {MAX_STRANDS} images, got {MAX_STRANDS + 1}")


class TestFactorize:
    def test_report(self, capsys):
        assert main(["factorize", "s1 s3 s2 s1 s3", "--j", "1", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "w0: s1 s3" in out
        assert "separators: s2" in out

    def test_flags_shown(self, capsys):
        assert main(["factorize", "s2 s1 s3 s1 s2", "--j", "1", "--k", "3"]) == 0
        assert "critical" in capsys.readouterr().out


class TestCheckprop:
    def test_single_pass(self, capsys):
        assert main(["checkprop", "trans", "s2 s1 s3 s1 s2",
                     "--band", "1.3", "--m", "3"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_hypothesis_violation_exit_code(self, capsys):
        assert main(["checkprop", "trans", "s1 s3 s1 s3 s1 s3",
                     "--band", "1.3", "--m", "3"]) == 2

    def test_random_batches(self):
        assert main(["checkprop", "trans", "--random", "50", "--seed", "0"]) == 0
        assert main(["checkprop", "seven", "--random", "50", "--seed", "0"]) == 0

    def test_json_random_byte_stable(self, capsys):
        assert main(["--json", "checkprop", "seven", "--random", "20", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["--json", "checkprop", "seven", "--random", "20", "--seed", "1"]) == 0
        assert capsys.readouterr().out == first

    def test_single_needs_arguments(self):
        assert main(["checkprop", "trans", "s1 s2"]) == 2

    @pytest.mark.parametrize(
        "flag, options",
        [
            ("--n", ["--random", "5", "--n", "2"]),
            ("--max-len", ["--random", "5", "--max-len", "-1"]),
            ("--random", ["--random", "-3"]),
        ],
    )
    def test_random_bounds_are_usage_errors(self, capsys, flag, options):
        assert main(["checkprop", "trans", *options]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {flag} must be at least")
        assert "\n" not in err

    def test_max_len_past_the_cap_is_usage_error(self, capsys):
        options = ["--random", "1", "--max-len", str(MAX_RANDOM_LETTERS + 1)]
        assert main(["checkprop", "trans", *options]) == 2
        err = capsys.readouterr().err
        expected = f"--max-len must be at most {MAX_RANDOM_LETTERS}, got {MAX_RANDOM_LETTERS + 1}"
        assert err == f"error: {expected}\n"


class TestExport:
    def test_stdout(self, capsys, partition_file):
        path = partition_file("p.json", Partition.singletons(3))
        assert main(["export", "--family", "thm2", "--partition", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("generators: b1.2 b1.3 b2.3")

    def test_output_file(self, tmp_path, matrix_file):
        path = matrix_file("m.json", CoxeterDatum.constant(4, 3))
        dest = tmp_path / "pres.txt"
        assert main(["export", "--family", "thm1", "--matrix", path,
                     "-o", str(dest)]) == 0
        assert dest.read_text().startswith("generators:")

    @pytest.mark.parametrize("family, flag", [
        ("thm1", "--matrix"), ("sec4", "--matrix"), ("thm2", "--partition"),
    ])
    def test_missing_input_is_named(self, capsys, family, flag):
        assert main(["export", "--family", family]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: export {family} needs {flag}"


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_family(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm9"])
        assert exc.value.code == 2


# -- the exit contract under malformed input ----------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
_MALFORMED = _JSON_VALUES.map(json.dumps) | st.text(max_size=12)


@st.composite
def _matrix_text(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 0]))
    entries = st.sampled_from(draw(st.sampled_from([[0, 3], [1, 2], [0, 1, 2, 3]])))
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            rows[a][b] = rows[b][a] = draw(entries)
    payload = draw(st.sampled_from(
        [{"n": n, "m": rows}] * 4 + [{"n": n + 1, "m": rows}, {"n": "4", "m": rows}, {"n": n}, rows]
    ))
    return json.dumps(payload)


@st.composite
def _partition_text(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 0]))
    if draw(st.booleans()):
        elements = draw(st.permutations(range(1, n + 1)))
        cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=2)))
        bounds = [0, *[c for c in cuts if c < n], n]
        parts = [list(elements[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b]
    else:
        parts = draw(st.lists(st.lists(st.integers(-1, n + 1), max_size=3), max_size=3))
    return json.dumps({"n": draw(st.sampled_from([n, n, n, -1, "3"])), "parts": parts})


_VALID_TOKENS = ["s1", "s2'", "s3^2", "a1.3", "a2.4'^-2", "s1^-3"]
_WORD = st.lists(
    st.sampled_from(_VALID_TOKENS * 3 + ["s0", "a3.2", "s1^^", "q", "s1^99999"]), max_size=5
).map(" ".join)
_SMALL_INT = st.sampled_from(["1", "2", "0", "-1", "x", "2.5"])
_VERIFY_FILES = {
    "thm1": ["matrix"], "thm2": ["partition"], "combing": ["partition"],
    "sec4": ["matrix"], "cosets": ["partition"], "block": ["matrix1", "matrix2"],
    "thm9": ["matrix"],
}


_ENTRY = st.sampled_from(
    ["t1", "t2'", "t1^2 t3", "t1 t1'", "", "t200", "t1^-2", "s1", "s2 s3", "s1 s1",
     "s200", "s0", "(1 2)", "()", "(1 2 3)", "q"]
) | st.integers(-2, 3) | st.none()


@st.composite
def _realization_text(draw):
    images = st.lists(st.sampled_from(["(1 2)", "(2 3)", "(1 2 3)", "()", "(1 5)", "x"]),
                      max_size=3)
    payload = {
        "degree": draw(st.sampled_from([3, 3, 4, 1, 0, -1, "3", [3], True])),
        "images": draw(images | st.sampled_from([5, "(1 2)", None])),
    }
    if draw(st.booleans()):
        payload["involutive"] = draw(st.sampled_from([True, False, "yes", 1]))
    return json.dumps(draw(st.sampled_from([payload] * 3 + [[1, 2], payload["images"]])))


@st.composite
def _argv(draw):
    """argv for verify, scan, eq, perm, hurwitz or export, and the text of each file it names."""
    command = draw(st.sampled_from(["verify", "scan", "eq", "perm", "hurwitz", "export"]))
    argv = ["--json"] if draw(st.booleans()) else []
    files = {}
    if command == "verify":
        family = draw(st.sampled_from(sorted(_VERIFY_FILES)))
        argv += ["verify", family]
        flags = set(_VERIFY_FILES[family])
        flags ^= draw(st.sets(st.sampled_from(["matrix", "partition", "matrix1"]), max_size=1))
        for flag in sorted(flags):
            valid = _matrix_text() if "matrix" in flag else _partition_text()
            files[flag] = draw(valid | _MALFORMED)
            argv += [f"--{flag}", flag]
    elif command == "scan":
        files["matrix"] = draw(_matrix_text() | _MALFORMED)
        argv += ["scan", "inject", "--matrix", "matrix",
                 "--max-len", draw(_SMALL_INT), "--max-exp", draw(_SMALL_INT)]
    elif command == "hurwitz":
        context = draw(st.sampled_from(["free", "coxeter", "perm", "cyclic"]))
        if context == "perm":
            files["realization"] = draw(_realization_text() | _MALFORMED)
            context = "perm:realization"
        argv += ["hurwitz", "--context", context]
        if context in ("free", "coxeter") or draw(st.booleans()):
            generators = [f"{context[0]}{i}" for i in (1, 2, 3)]
            entries = st.just(generators) | st.lists(_ENTRY, min_size=1, max_size=4)
            files["tuple"] = draw(entries.map(json.dumps) | _MALFORMED)
            argv += ["--tuple", "tuple"]
        # the entries grow about 2.6 times with each s1 s2'
        k = draw(st.sampled_from([0, 1, 3, 8, 13, 17, 20]))
        argv += ["--word", " ".join(["s1 s2'"] * k) if draw(st.booleans()) else draw(_WORD)]
    elif command == "export":
        family = draw(st.sampled_from(["thm1", "thm2", "sec4"]))
        argv += ["export", "--family", family]
        for flag in sorted(draw(st.sets(st.sampled_from(["matrix", "partition"]), max_size=2))):
            valid = _matrix_text() if flag == "matrix" else _partition_text()
            files[flag] = draw(valid | _MALFORMED)
            argv += [f"--{flag}", flag]
        if draw(st.booleans()):
            argv += ["--format", "gap-style"]
    else:
        words = [draw(_WORD) for _ in range(2 if command == "eq" else 1)]
        n = draw(st.integers(-3, 5).map(str) | st.sampled_from(["200", "x"]))
        argv += [command, *words, "--n", n]
    return argv, files


def _strands(argv):
    """The --n of an eq or perm argv, or 1 when it has none or it is not an integer."""
    if "--n" not in argv:
        return 1
    value = argv[argv.index("--n") + 1]
    return int(value) if value.lstrip("-").isdigit() else 1


def _placed(arg, tmp, files):
    """arg with a file name, alone or after "perm:", made a path in tmp."""
    prefix = "perm:" if arg.startswith("perm:") else ""
    name = arg[len(prefix):]
    return prefix + str(Path(tmp, name)) if name in files else arg


class TestExitContract:
    @settings(max_examples=150, deadline=None)
    @given(_argv())
    def test_malformed_input_never_crashes(self, case):
        argv, files = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv = [_placed(a, tmp, files) for a in argv]
            for name, text in files.items():
                Path(tmp, name).write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if _strands(argv) < 1:
            assert code == 2
        if code == 1:
            text = out.getvalue()
            if "eq" in argv:
                assert text.strip() in ("not equal", '{"command": "eq", "equal": false}')
            else:
                assert "FAIL" in text or '"ok": false' in text
