import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from test_golden import _cases as _golden_cases, _run as _golden_run

import bandgroup
from bandgroup import cli
from bandgroup.braid import _SIDE_LETTERS, MAX_IMAGE_LETTERS, MAX_STRANDS, MAX_WORD_LETTERS
from bandgroup.cli import MAX_DEGREE, MAX_RANDOM_LETTERS, MAX_RANDOM_WORK, main
from bandgroup.coxeter import CoxeterDatum, Partition, matrix_from_json
from bandgroup.present import relations_thm1, verify_relations
from bandgroup import raag
from bandgroup.raag import MAX_SCAN_EXPRESSIONS, MAX_SCAN_LETTERS, _table_letters


def _input_text(value):
    """The JSON input file of a matrix or a partition."""
    if isinstance(value, Partition):
        return json.dumps({"n": value.n, "parts": [list(p) for p in value.parts]})
    return json.dumps({"n": value.n, "m": [list(row) for row in value.m]})


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, matrix):
        path = tmp_path / name
        path.write_text(_input_text(matrix))
        return str(path)

    return write


@pytest.fixture
def partition_file(tmp_path):
    def write(name, partition):
        path = tmp_path / name
        path.write_text(_input_text(partition))
        return str(path)

    return write


def _in_child(argv):
    """Exit code, peak RSS in MB and standard error of the command line run as a child.

    A probe process starts the command line and reads its peak RSS through
    RUSAGE_CHILDREN (kilobytes on Linux), so no earlier child is counted.
    """
    probe = ("import resource, subprocess, sys; "
             "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode; "
             "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    env = {**os.environ, "PYTHONPATH": str(Path(bandgroup.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe, sys.executable, "-m", "bandgroup.cli",
                           *argv], capture_output=True, text=True, env=env, check=True)
    code, kilobytes = done.stdout.split()
    return int(code), int(kilobytes) / 1024, done.stderr


def _timed_child(argv):
    """Exit code, seconds and standard error of the command line run as a child, given 10 s."""
    env = {**os.environ, "PYTHONPATH": str(Path(bandgroup.__file__).parents[1])}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "bandgroup.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=10)
    return done.returncode, time.perf_counter() - start, done.stderr


def _limited_child(argv, address_bytes):
    """Exit code, seconds and standard error of the command line run as a child.

    The child's address space is capped at `address_bytes` (RLIMIT_AS), so
    an allocation past it fails in the child instead of growing, and it is
    given 10 s.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(bandgroup.__file__).parents[1])}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_bytes, address_bytes))

    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "bandgroup.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=10, preexec_fn=cap)
    return done.returncode, time.perf_counter() - start, done.stderr


def _closed_reader_child(argv):
    """Exit code and standard error of the command line run as a child with no reader.

    Its standard output is a pipe whose read end is closed before the child
    starts, so its first write fails with EPIPE, with no race.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(bandgroup.__file__).parents[1])}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "bandgroup.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write)
    return done.returncode, done.stderr


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

    def test_too_many_strands_is_usage_error(self, capsys):
        assert main(["perm", "s1", "--n", str(MAX_STRANDS)]) == 0
        assert capsys.readouterr().out.strip() == "(1 2)"
        assert main(["perm", "s1", "--n", str(MAX_STRANDS + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: a braid may have at most {MAX_STRANDS} "
                                     f"strands, got {MAX_STRANDS + 1}\n")


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

    def test_partition_missing_most_of_a_huge_n_is_refused_briefly(self, capsys, tmp_path):
        # every missing element used to be listed: 7.9 MB of stderr at n = 10^6
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 10 ** 6, "parts": [[1]]}))
        assert main(["verify", "thm2", "--partition", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert err == ("error: 999999 elements not covered, the first ten "
                       "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]\n")
        path.write_text(json.dumps({"n": 10 ** 9, "parts": [[1]]}))
        started = time.perf_counter()
        assert main(["verify", "thm2", "--partition", str(path)]) == 2
        assert time.perf_counter() - started < 1
        assert capsys.readouterr().err.startswith("error: 999999999 elements not covered")

    def test_combing(self, partition_file):
        path = partition_file("p.json", Partition.of(2, [[1, 2]]))
        assert main(["verify", "combing", "--partition", path]) == 0

    def test_cosets(self, partition_file):
        path = partition_file("p.json", Partition.of(3, [range(1, 4)]))
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

    def test_strands_past_the_cap_are_refused_before_generation(self, capsys, monkeypatch,
                                                                matrix_file, partition_file):
        def refuse(*args):
            raise AssertionError("relations generated past the strand cap")

        for name in ("relations_thm1", "relations_thm2", "relations_combing", "relations_sec4",
                     "coset_table_check", "block_product_check"):
            monkeypatch.setattr(f"bandgroup.cli.{name}", refuse)
        wide = matrix_file("m.json", CoxeterDatum.constant(MAX_STRANDS + 3, 3))
        half = matrix_file("h.json", CoxeterDatum.constant(MAX_STRANDS // 2 + 1, 3))
        cases = [
            (["thm1", "--matrix", wide], MAX_STRANDS + 3),
            (["sec4", "--matrix", wide], MAX_STRANDS + 3),
            (["thm2", "--partition", partition_file("p.json", Partition.singletons(130))], 130),
            (["cosets", "--partition", partition_file("p.json", Partition.singletons(130))], 130),
            (["combing", "--partition",
              partition_file("q.json", Partition.singletons(MAX_STRANDS))], MAX_STRANDS + 1),
            (["block", "--matrix1", half, "--matrix2", half], 2 * (MAX_STRANDS // 2 + 1)),
        ]
        for args, strands in cases:
            self._usage_error(capsys, ["verify", *args],
                              f"at most {MAX_STRANDS} strands, got {strands}")

    def test_the_api_decides_past_the_strand_cap_that_the_command_line_keeps(
        self, capsys, matrix_file
    ):
        # the decider has no strand limit; 127 strands is the command line's bound
        entries = {(1, 130): 3, (2, 3): 3, (60, 129): 4, (61, 70): 5}
        matrix = CoxeterDatum.from_entries(130, entries)
        report = verify_relations(relations_thm1(matrix), matrix)
        assert report.ok and report.instances == report.passes == 6
        assert main(["verify", "thm1", "--matrix", matrix_file("m.json", matrix)]) == 2
        assert f"at most {MAX_STRANDS} strands, got 130" in capsys.readouterr().err

    @pytest.mark.parametrize("n, entries", [
        # the largest (2, 2, m) entry the sec4 guard admits
        (3, {(1, 2): 2, (1, 3): 2, (2, 3): MAX_WORD_LETTERS}),
        (4, {(1, 2): 2, (1, 3): 2, (1, 4): 2, (2, 3): 2000, (2, 4): 1990, (3, 4): 1980}),
    ])
    def test_sec4_on_long_triples_runs_in_flat_memory(self, matrix_file, n, entries):
        # keeping the images of every suffix of their words took about 170
        # and 450 MB
        path = matrix_file("m.json", CoxeterDatum.from_entries(n, entries))
        code, peak_mb, _ = _in_child(["--json", "verify", "sec4", "--matrix", path])
        assert code == 0 and peak_mb < 40

    @pytest.mark.parametrize("family, flag, value", [
        # 460,600 commutations, which took 275 MB as a list
        ("thm1", "--matrix", CoxeterDatum.constant(50, 3)),
        # 90,335 relations, which took 94 MB as a list
        ("thm2", "--partition", Partition.of(30, [list(range(1, 16)), list(range(16, 31))])),
    ], ids=["thm1-n50", "thm2-15+15"])
    def test_verify_runs_in_flat_memory(self, matrix_file, family, flag, value):
        path = matrix_file("input.json", value)
        code, peak_mb, _ = _in_child(["--json", "verify", family, flag, path])
        assert code == 0 and peak_mb < 40

    def test_sides_past_the_letter_cap_are_refused_at_the_handover(self, capsys, matrix_file):
        # thm1 on 4 strands: a_12^m a_34^m and a_14^m a_23^m against their
        # reverses, 2m and 6m Artin letters a side; the coordinates decide
        # both, in 4m and 4m + 8 updates, while 6m stays within the cap
        for entry in (MAX_WORD_LETTERS // 6 + 1, 10 ** 3, 10 ** 4):
            path = matrix_file("m.json", CoxeterDatum.constant(4, entry))
            assert main(["--json", "verify", "thm1", "--matrix", path]) == 0
            info = json.loads(capsys.readouterr().out)["reports"][0]["info"]
            assert info["oracle_updates"] == 8 * entry + 8
        for entry in (10 ** 5, 10 ** 9):
            path = matrix_file("m.json", CoxeterDatum.constant(4, entry))
            started = time.perf_counter()
            self._usage_error(capsys, ["verify", "thm1", "--matrix", path],
                              f"b1.2 b3.4 = b3.4 b1.2: a side has {2 * entry} Artin letters "
                              f"on 4 strands, more than the {_SIDE_LETTERS} the Dynnikov "
                              f"coordinates are allowed")
            assert time.perf_counter() - started < 1
        # the blocks' bands a_12 and a_56 are relabelled onto 4 strands
        self._usage_error(capsys, ["verify", "block", "--matrix1", path, "--matrix2", path],
                          f"b1.2 b5.6 = b5.6 b1.2: a side has {2 * 10 ** 9} Artin letters on 4 "
                          f"strands")

    def test_sides_at_the_letter_cap_are_decided(self, capsys, matrix_file):
        # a_14^m a_23^m has 6m Artin letters a side: the largest such m
        # within the cap, decided in 8m + 8 coordinate updates
        entry = _SIDE_LETTERS // 6
        assert entry == 21845
        path = matrix_file("m.json", CoxeterDatum.constant(4, entry))
        assert main(["--json", "verify", "thm1", "--matrix", path]) == 0
        info = json.loads(capsys.readouterr().out)["reports"][0]["info"]
        assert info["oracle_updates"] == 8 * entry + 8

    @pytest.mark.parametrize("entry, side, letters", [
        (21846, "b1.4 b2.3 = b2.3 b1.4", 6 * 21846),
        (10 ** 9, "b1.2 b3.4 = b3.4 b1.2", 2 * 10 ** 9),
    ])
    def test_sides_past_the_letter_cap_are_refused_in_bounded_memory(self, matrix_file, entry,
                                                                      side, letters):
        # one past the cap, and a band power that a list of its letters
        # could not hold in the child's 512 MB of address space
        path = matrix_file("m.json", CoxeterDatum.constant(4, entry))
        code, seconds, err = _limited_child(["verify", "thm1", "--matrix", path], 1 << 29)
        assert code == 2 and seconds < 1
        assert err == (f"error: {side}: a side has {letters} Artin letters on 4 strands, more "
                       f"than the {_SIDE_LETTERS} the Dynnikov coordinates are allowed\n")

    def test_coset_handovers_past_the_letter_cap_are_refused(self, capsys, monkeypatch,
                                                             partition_file):
        monkeypatch.setattr("bandgroup.braid._SIDE_LETTERS", 8)
        path = partition_file("p.json", Partition.of(4, [range(1, 5)]))
        self._usage_error(capsys, ["verify", "cosets", "--partition", path],
                          "more than the 8 the Dynnikov coordinates are allowed")

    def test_long_sec4_words_are_refused_before_they_are_built(self, capsys, matrix_file):
        path = matrix_file("m.json", CoxeterDatum.from_rows(
            [[0, 2, 2], [2, 0, 10 ** 9], [2, 10 ** 9, 0]]))
        for argv in (["verify", "sec4", "--matrix", path],
                     ["export", "--family", "sec4", "--matrix", path]):
            self._usage_error(capsys, argv, f"would expand past {MAX_WORD_LETTERS} Artin letters")

    def test_long_sec4_triples_are_refused_before_any_relation(self, matrix_file):
        # all 2 but m[39][40]: a sec4.1 commutation on the long entry comes
        # before its triples, and building the whole family took 258 MB
        entries = {(i, j): 2 for i in range(1, 41) for j in range(i + 1, 41)}
        entries[39, 40] = 10 ** 9
        path = matrix_file("m.json", CoxeterDatum.from_entries(40, entries))
        code, peak_mb, err = _in_child(["verify", "sec4", "--matrix", path])
        assert code == 2 and peak_mb < 40
        assert err == (f"error: sec4.3 words for m[39][40] = {10 ** 9} would expand past "
                       f"{MAX_WORD_LETTERS} Artin letters\n")

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

    def test_scan_past_the_letter_budget_is_refused_up_front(self, capsys, matrix_file):
        # 100,000 expressions pass the expression budget, but the band
        # tables would hold 6 * 50000 * 50001 letters
        path = matrix_file("m.json", CoxeterDatum.constant(2, 3))
        started = time.perf_counter()
        assert main(["scan", "inject", "--matrix", path,
                     "--max-len", "1", "--max-exp", "50000"]) == 2
        assert time.perf_counter() - started < 1
        err = capsys.readouterr().err
        assert (f"15000300000 image letters for its band tables, past the budget of "
                f"{MAX_SCAN_LETTERS}") in err

    def test_letter_budget_boundary(self, capsys, matrix_file):
        # 6 B (B + 1) letters on n = 2: B = 1181 fits, B = 1182 does not;
        # at L = 1 the tables hold s_1 alone and the walk builds no prefix images
        matrix = CoxeterDatum.constant(2, 3)
        assert (_table_letters(matrix, 1181, [1]) <= MAX_SCAN_LETTERS
                < _table_letters(matrix, 1182, [1]))
        path = matrix_file("m.json", matrix)
        assert main(["scan", "inject", "--matrix", path,
                     "--max-len", "1", "--max-exp", "1181"]) == 0
        capsys.readouterr()
        assert main(["scan", "inject", "--matrix", path,
                     "--max-len", "1", "--max-exp", "1182"]) == 2
        assert "band tables" in capsys.readouterr().err

    def test_prefix_images_past_the_letter_budget_are_refused(self, capsys, matrix_file):
        # 216 raw expressions and 32,002 band-table letters, but the images
        # under prefixes of two factors grow with the product of their powers
        path = matrix_file("m.json", CoxeterDatum.constant(3, 1000))
        started = time.perf_counter()
        assert main(["scan", "inject", "--matrix", path,
                     "--max-len", "3", "--max-exp", "1"]) == 2
        assert time.perf_counter() - started < 10
        err = capsys.readouterr().err
        assert (f"more than {MAX_SCAN_LETTERS} image letters, 32002 of them for its band tables"
                in err)

    def test_scan_of_the_most_strands_the_table_budget_admits(self, matrix_file):
        # n = 124 gives 7,626 bases and 15,252 expressions of one factor; the
        # set-up builds the masks of the bases in sorted passes, not pairwise
        matrix = CoxeterDatum.constant(124, 3)
        assert _table_letters(CoxeterDatum.constant(125, 3), 1, range(1, 125)) > MAX_SCAN_LETTERS
        path = matrix_file("m.json", matrix)
        started = time.perf_counter()
        code, peak_mb, err = _in_child(["scan", "inject", "--matrix", path,
                                        "--max-len", "1", "--max-exp", "1"])
        assert (code, err) == (0, "")
        assert time.perf_counter() - started < 10
        # the index holds 1.9 M (slot, factor) entries, one tuple per factor
        # shared by the slots
        assert peak_mb < 220

    @pytest.mark.parametrize("max_len", ["1", "2"])
    @pytest.mark.parametrize("n", [MAX_STRANDS + 1, 200])
    def test_scan_past_the_byte_encoding_is_refused_before_any_table(
        self, capsys, monkeypatch, matrix_file, n, max_len
    ):
        # the band tables encode s_i as the byte 128 + i
        def refuse(*args):
            raise AssertionError("a band table was built")

        monkeypatch.setattr(raag, "_band_images", refuse)
        path = matrix_file("m.json", CoxeterDatum.from_entries(n, {(1, n): 3}))
        assert main(["scan", "inject", "--matrix", path,
                     "--max-len", max_len, "--max-exp", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"at most {MAX_STRANDS} strands, got {n}" in captured.err
        assert "free action" not in captured.err
        assert "bytes must be in range" not in captured.err

    def test_a_dense_scan_past_the_byte_encoding_is_refused_before_its_budgets(
        self, capsys, monkeypatch, matrix_file
    ):
        # counting the band tables' letters takes O(n^3) time; a dense
        # 200-strand matrix is refused by its strands before that count
        def refuse(*args):
            raise AssertionError("the band tables' letters were counted")

        monkeypatch.setattr(raag, "_table_letters", refuse)
        n = 200
        path = matrix_file("m.json", CoxeterDatum.from_entries(
            n, {(a, b): 3 for a in range(1, n + 1) for b in range(a + 1, n + 1)}))
        assert main(["scan", "inject", "--matrix", path, "--max-len", "1", "--max-exp", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"at most {MAX_STRANDS} strands, got {n}" in captured.err

    @pytest.mark.parametrize("max_len", ["1", "2"])
    def test_scan_on_the_most_strands_the_byte_encoding_holds(self, capsys, matrix_file,
                                                               max_len):
        n = MAX_STRANDS
        path = matrix_file("m.json", CoxeterDatum.from_entries(n, {(1, n): 3}))
        assert main(["--json", "scan", "inject", "--matrix", path,
                     "--max-len", max_len, "--max-exp", "1"]) == 0
        report, = json.loads(capsys.readouterr().out)["reports"]
        assert report["instances"] == report["passes"] == 4

    def test_benchmark_and_golden_scans_fit_the_letter_budget(self, monkeypatch):
        # the benchmark scans n = 4, L = 3, B = 2; the golden scans go up to
        # n = 4, L = 3, B = 2.  The scan builds words in its band tables, and
        # carries each prefix image, a reflection, as its head, counted at the
        # 2 |head| - 1 letters of the reflection; every carried image reaches
        # `_failing_leaves` once, as its parent's, after the root's letters
        built, carried = [], []

        def counted_tables(*args):
            table = band_images(*args)
            built.extend(map(len, table.values()))
            return table

        def counted_leaves(images, *args):
            carried.append(images)
            return failing_leaves(images, *args)

        band_images, failing_leaves = raag._band_images, raag._failing_leaves
        monkeypatch.setattr(raag, "_band_images", counted_tables)
        monkeypatch.setattr(raag, "_failing_leaves", counted_leaves)
        mixed = CoxeterDatum.from_entries(4, {(1, 2): 3, (1, 3): 4, (3, 4): 3})
        for matrix, max_len, max_exp in [(CoxeterDatum.constant(4, 3), 3, 2),
                                          (CoxeterDatum.constant(4, 3), 3, 1),
                                          (CoxeterDatum.constant(3, 3), 2, 1),
                                          (CoxeterDatum.constant(3, 3), 1, 2), (mixed, 3, 2)]:
            built.clear()
            carried.clear()
            report = raag.injectivity_scan(matrix, max_len, max_exp)
            assert report.ok
            root, *walked = carried
            assert all(len(head) == 1 for head in root)
            letters = sum(built) + sum(2 * len(head) - 1 for images in walked for head in images)
            assert letters == report.info["image_letters"] <= MAX_SCAN_LETTERS


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

    @pytest.mark.parametrize("context, entries", [
        ("free", ["t1^6", "t2^5", "t3"]),
        ("coxeter", ["s1 s2 s1 s2 s1 s2", "s2 s1 s2 s1 s2", "s3"]),
    ])
    def test_word_entries_share_one_budget(self, tmp_path, capsys, monkeypatch, context, entries):
        monkeypatch.setattr("bandgroup.hurwitz.MAX_IMAGE_LETTERS", 12)
        assert self._run(tmp_path, context, entries, "s2") == 0
        assert capsys.readouterr().out.endswith("moved\n")
        monkeypatch.setattr("bandgroup.hurwitz.MAX_IMAGE_LETTERS", 10)
        assert self._run(tmp_path, context, entries, "s2") == 2
        self._usage_error(capsys, "may have at most 4 letters")

    @pytest.mark.parametrize("context, entry", [("free", "t200"), ("coxeter", "s200")])
    def test_letter_index_past_the_encoding(self, tmp_path, capsys, context, entry):
        assert self._run(tmp_path, context, [entry, entry], "s1") == 2
        self._usage_error(capsys, f"above {MAX_STRANDS}")

    @pytest.mark.parametrize("context", ["free", "coxeter", "perm"])
    def test_tuples_past_the_strand_cap_are_refused(self, tmp_path, capsys, monkeypatch, context):
        entry = {"free": "t1", "coxeter": "s1"}.get(context, "()")
        if context == "perm":
            ctx = tmp_path / "ctx.json"
            ctx.write_text(json.dumps({"degree": 2, "images": ["()"] * MAX_STRANDS}))
            context = f"perm:{ctx}"
        assert self._run(tmp_path, context, [entry] * MAX_STRANDS, "s126") == 0
        assert capsys.readouterr().out.endswith("stabilizes\n")
        # refused before the context is built or any entry is parsed
        monkeypatch.setattr("bandgroup.cli._build_context", None)
        assert self._run(tmp_path, context, [entry] * (MAX_STRANDS + 1), "s1") == 2
        self._usage_error(capsys, f"at most {MAX_STRANDS} entries, got {MAX_STRANDS + 1}")

    def test_two_million_entries_are_refused_up_front(self, tmp_path, capsys):
        # the entries were all parsed and acted on: 11.5 s and 277 MB as a child
        tup = tmp_path / "t.json"
        tup.write_text(json.dumps([""] * 2_000_000))
        started = time.perf_counter()
        assert main(["hurwitz", "--context", "free", "--tuple", str(tup), "--word", "s1"]) == 2
        assert time.perf_counter() - started < 1
        self._usage_error(capsys, f"at most {MAX_STRANDS} entries, got 2000000")

    @pytest.mark.parametrize("context, entries", [
        ("free", ["t1 t2'", "t2^3 t1'", "t3"]), ("coxeter", ["s1 s2", "s3 s1", "s2"]),
    ], ids=["free", "coxeter"])
    def test_entries_are_acted_on_as_parsed(self, tmp_path, capsys, monkeypatch, context, entries):
        assert self._run(tmp_path, context, entries, "s1 s2' s1") == 0
        out = capsys.readouterr().out

        def refuse(x):
            raise AssertionError("an entry was encoded or decoded again")

        monkeypatch.setattr("bandgroup.hurwitz._encode", refuse)
        monkeypatch.setattr("bandgroup.hurwitz._decode", refuse)
        assert self._run(tmp_path, context, entries, "s1 s2' s1") == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("context, entries, bound_mb", [
        # one token of 2^22 letters: four lists of them took 145 MB
        ("free", ["t1^4194304", "t2", "t3"], 100),
        # 2^21 tokens: one list of them, then of the letters, took 190 MB
        ("coxeter", [" ".join(["s1 s2"] * (1 << 20)), "s2", "s3"], 100),
        # 16M letters, written a slice at a time: as one line of text they
        # took 170 MB, 62 MB of it to parse
        ("free", ["t1^16000000", "t2", "t3"], 80),
    ], ids=["free-2^22", "coxeter-2^21", "free-16M-written-in-slices"])
    def test_long_entries_are_parsed_in_flat_memory(self, tmp_path, context, entries, bound_mb):
        tup = tmp_path / "t.json"
        tup.write_text(json.dumps(entries))
        code, peak_mb, _ = _in_child(["hurwitz", "--context", context, "--tuple", str(tup),
                                      "--word", "s2"])
        assert code == 0 and peak_mb < bound_mb

    def test_long_entry_is_written_whole(self, tmp_path, capsys):
        # the slices of an entry's text make one line, byte for byte
        assert self._run(tmp_path, "free", ["t1^200000 t2'", "t2", "t3"], "s2") == 0
        out = capsys.readouterr().out
        assert out == "1: " + "t1 " * 200000 + "t2'\n2: t2 t3 t2'\n3: t2\nmoved\n"

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

    @pytest.mark.parametrize("j, k", [("0", "2"), ("1", "0"), ("-1", "2")])
    def test_letters_below_1_are_usage_errors(self, capsys, j, k):
        with pytest.raises(SystemExit) as exc:
            main(["factorize", "s1 s2", "--j", j, "--k", k])
        assert exc.value.code == 2
        assert "a letter index must be at least 1" in capsys.readouterr().err


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

    def test_long_power_is_refused_before_it_is_built(self, capsys):
        # c = (s_1 s_3)^m alone was 2|m| letters: 933 MB at m = 10^7
        for m in (10 ** 7, 10 ** 9):
            code, peak_mb, _ = _in_child(
                ["checkprop", "trans", "s2 s1 s3 s1 s2", "--band", "1.3", "--m", str(m)])
            assert code == 2 and peak_mb < 40
        assert main(["checkprop", "trans", "s2 s1 s3 s1 s2", "--band", "1.3", "--m",
                     "100000"]) == 0
        assert capsys.readouterr().out.startswith("pass: ")

    def test_seven_reads_long_blocks_in_one_pass(self):
        # the image has about 50,000 letters over 127 letters; a scan per
        # pair of letters took 11.3 s on it (2 cores, Python 3.11.7)
        word = " ".join(f"s{x} s127" for x in range(2, 126))
        started = time.perf_counter()
        code, _, _ = _in_child(["checkprop", "seven", word, "--band", "1.126", "--m", "100"])
        assert code == 0
        assert time.perf_counter() - started < 1

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

    def test_random_work_past_the_budget_is_refused_up_front(self, capsys):
        started = time.perf_counter()
        assert main(["checkprop", "seven", "--random", str(10 ** 9)]) == 2
        assert time.perf_counter() - started < 1
        assert capsys.readouterr().err == (
            f"error: --random {10 ** 9} times --max-len 12 exceeds the budget of "
            f"{MAX_RANDOM_WORK} letters; lower either\n")

    def test_random_work_budget_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr("bandgroup.cli.MAX_RANDOM_WORK", 120)
        assert main(["checkprop", "seven", "--random", "12", "--max-len", "10"]) == 0
        capsys.readouterr()
        assert main(["checkprop", "seven", "--random", "13", "--max-len", "10"]) == 2
        assert "exceeds the budget of 120 letters" in capsys.readouterr().err

    def test_strands_past_the_encoding_are_a_usage_error(self, capsys):
        # the band action encodes letters as bytes, up to s127
        assert main(["checkprop", "seven", "--random", "1", "--n", "128"]) == 2
        assert capsys.readouterr().err == "error: --n must be at most 127, got 128\n"
        assert main(["checkprop", "trans", "s128 s1", "--band", "1.2", "--m", "3"]) == 2
        assert "above 127" in capsys.readouterr().err


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

    def test_lines_are_written_as_they_come(self, matrix_file):
        # 182,780 commutations on 40 strands, each written as it is yielded
        path = matrix_file("m.json", CoxeterDatum.constant(40, 3))
        code, peak_mb, _ = _in_child(["export", "--family", "thm1", "--matrix", path])
        assert code == 0 and peak_mb < 40

    @pytest.mark.parametrize("family, output", [("sec4", True), ("thm1", False)],
                             ids=["sec4-to-file", "thm1-to-stdout"])
    def test_refused_input_writes_nothing(self, tmp_path, capsys, matrix_file, family, output):
        # an entry 1 fails sec4's entry check and thm1's large-type check
        matrix = CoxeterDatum.from_entries(3, {(1, 2): 3, (1, 3): 1, (2, 3): 3})
        dest = tmp_path / "pres.txt"
        argv = ["export", "--family", family, "--matrix", matrix_file("m.json", matrix)]
        assert main(argv + ["-o", str(dest)] * output) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "scope error" in captured.err and not dest.exists()

    @pytest.mark.parametrize("family, flag", [
        ("thm1", "--matrix"), ("sec4", "--matrix"), ("thm2", "--partition"),
    ])
    def test_past_the_free_action_is_refused_as_by_verify(
        self, tmp_path, capsys, matrix_file, partition_file, family, flag
    ):
        # generating the relations on 128 strands would take minutes and gigabytes
        n = MAX_STRANDS + 1
        if flag == "--matrix":
            path = matrix_file("m.json", CoxeterDatum.constant(n, 3))
        else:
            path = partition_file("p.json", Partition.singletons(n))
        assert main(["verify", family, flag, path]) == 2
        refusal = capsys.readouterr().err
        dest = tmp_path / "pres.txt"
        code, seconds, err = _timed_child(["export", "--family", family, flag, path,
                                           "-o", str(dest)])
        assert (code, err) == (2, refusal) and seconds < 2 and not dest.exists()

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


class TestParserReuse:
    def test_tree_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        # the first call builds the tree unless an earlier test did
        assert main(["eq", "s1 s2 s1", "s2 s1 s2", "--n", "3"]) == 0
        built.clear()
        assert main(["perm", "s1 s2", "--n", "3"]) == 0
        assert built == []

    def test_a_wrapper_on_a_command_sees_its_calls(self, capsys, monkeypatch, partition_file):
        path = partition_file("P.json", Partition.singletons(3))
        assert main(["verify", "thm2", "--partition", path]) == 0
        seen = []
        verify = cli.cmd_verify

        def wrapped(args):
            seen.append(args.family)
            return verify(args)

        monkeypatch.setattr(cli, "cmd_verify", wrapped)
        assert main(["verify", "thm2", "--partition", path]) == 0
        assert seen == ["thm2"]

    def test_reuse_keeps_no_state(self, capsys, partition_file):
        for argv, code in ((["verify", "thm9"], 2), (["--help"], 0), (["checkprop", "nine"], 2)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        capsys.readouterr()
        path = partition_file("P.json", Partition.singletons(3))
        env = {**os.environ, "PYTHONPATH": str(Path(bandgroup.__file__).parents[1])}
        for argv in (["--json", "verify", "thm2", "--partition", path],
                     ["--json", "eq", "s1 s2 s1", "s2 s1 s2'", "--n", "3"]):
            code = main(argv)
            out = capsys.readouterr().out
            child = subprocess.run([sys.executable, "-m", "bandgroup.cli", *argv],
                                   capture_output=True, env=env)
            assert child.returncode == code
            assert out.encode() == child.stdout


class TestClosedReader:
    """A reader that stops reading ends the output, not the run: the command's code, no error."""

    @pytest.mark.parametrize("argv, code", [
        (["eq", "a1.3^3 a2.4^3", "a2.4^3 a1.3^3", "--n", "4"], 1),
        (["export", "--family", "thm1", "--matrix", "m30.json"], 0),
        (["verify", "thm2", "--partition", "P.json"], 0),
        (["checkprop", "trans", "s1 s3 s1 s3 s1 s3", "--band", "1.3", "--m", "3"], 2),
    ], ids=["eq", "export", "verify", "checkprop"])
    def test_the_command_keeps_its_code(self, tmp_path, argv, code):
        (tmp_path / "m30.json").write_text(_input_text(CoxeterDatum.constant(30, 3)))
        (tmp_path / "P.json").write_text(_input_text(Partition.singletons(4)))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert _closed_reader_child(argv) == (code, "")


class TestMain:
    @pytest.mark.parametrize("argv", [["checkprop", "seven", "--random", "2", "--seed", "0"],
                                      ["verify", "thm2", "--partition"]])
    def test_the_header_times_the_parsed_command(self, capsys, monkeypatch, partition_file, argv):
        if argv[-1] == "--partition":
            argv = [*argv, partition_file("P.json", Partition.singletons(3))]
        ticks = iter([10.0, 11.25])
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(" instances pass (1.25 s)")
        assert next(ticks, None) is None  # the clock is read once at each end

    def test_a_fault_of_the_program_is_not_unusable_input(self, monkeypatch):
        class FaultyDecider:
            def equal(self, u, v):
                raise KeyError("fault")

        monkeypatch.setattr(cli, "BraidDecider", FaultyDecider)
        with pytest.raises(KeyError):
            main(["eq", "s1", "s1", "--n", "2"])


# the golden cases that answer under --json; the rest print only an error
_JSON_CASES = [c for c in _golden_cases() if "--json" in c["argv"] and c["stdout"]]


@pytest.mark.parametrize("case", _JSON_CASES, ids=lambda case: case["name"])
def test_json_is_one_compact_line(case):
    out = _golden_run(case)["stdout"]
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_compact_lines_cover_every_answering_command():
    commands = {(c["argv"][1], "--random" in c["argv"]) for c in _JSON_CASES}
    assert commands == {("verify", False), ("scan", False), ("eq", False), ("perm", False),
                        ("hurwitz", False), ("factorize", False), ("checkprop", False),
                        ("checkprop", True)}


# -- the exit contract under malformed input ----------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
_MALFORMED = _JSON_VALUES.map(json.dumps) | st.text(max_size=12)


@st.composite
def _matrix_text(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 0, MAX_STRANDS, MAX_STRANDS + 1, 200]))
    entries = st.sampled_from(draw(st.sampled_from([[0, 3], [1, 2], [0, 1, 2, 3]])))
    rows = [[0] * n for _ in range(n)]
    if n <= 4:
        pairs = itertools.combinations(range(n), 2)
    else:  # a few entries of a matrix on 127 strands or more
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted)
        pairs = draw(st.lists(pair, max_size=3))
    for a, b in pairs:
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
    n = draw(st.sampled_from([n, n, n, -1, "3", 10 ** 9]))
    return json.dumps({"n": n, "parts": parts})


_VALID_TOKENS = ["s1", "s2'", "s3^2", "a1.3", "a2.4'^-2", "s1^-3"]
_WORD = st.lists(
    st.sampled_from(_VALID_TOKENS * 3 + ["s0", "a3.2", "s1^^", "q", "s1^99999"]), max_size=5
).map(" ".join)
_SMALL_INT = st.sampled_from(["1", "2", "0", "-1", "x", "2.5"])
_COX_WORD = st.lists(
    st.sampled_from(["s1", "s2", "s3", "s4"] * 3 + ["s0", "s²", "q", "s200"]), max_size=8
).map(" ".join)
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
    """argv for one command of the command line, and the text of each file it names."""
    command = draw(st.sampled_from(
        ["verify", "scan", "eq", "perm", "hurwitz", "export", "factorize", "checkprop"]))
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
    elif command == "factorize":
        letter = _SMALL_INT | st.sampled_from(["3", "200"])
        argv += ["factorize", draw(_COX_WORD), "--j", draw(letter), "--k", draw(letter)]
    elif command == "checkprop":
        argv += ["checkprop", draw(st.sampled_from(["trans", "seven"]))]
        options = {
            "--band": ["1.3", "2.4", "1.2", "2.1", "0.1", "1.200", "x"],
            "--m": ["3", "4", "-3", "2", "0", str(10 ** 9)],
            "--seed": ["0", "1", "x"],
        }
        if draw(st.booleans()):
            # single mode; a missing WORD, --band or --m is a usage error
            if draw(st.integers(0, 4)):
                argv.append(draw(_COX_WORD))
        else:
            # random mode, at most 3 instances so each case stays fast
            options.update({
                "--random": ["1", "3", "0", "-1"],
                "--n": ["3", "6", "2", "127", "128"],
                "--max-len": ["0", "5", "12", "4097"],
            })
        for flag, values in options.items():
            if flag == "--random" or draw(st.integers(0, 4)):
                argv += [flag, draw(st.sampled_from(values))]
    else:
        words = [draw(_WORD) for _ in range(2 if command == "eq" else 1)]
        n = draw(st.integers(-3, 5).map(str) | st.sampled_from(["200", "x"]))
        argv += [command, *words, "--n", n]
    return argv, files


def _strands(argv, files):
    """The strands an argv asks for, or 1 when it names none.

    That is the --n of eq or perm when it is an integer, or else the n of
    each valid matrix file the command reads, summed for `verify block`.
    """
    if "--n" in argv:
        value = argv[argv.index("--n") + 1]
        return int(value) if value.lstrip("-").isdigit() else 1
    if "scan" in argv:
        flags = ["matrix"]
    elif "verify" in argv:
        flags = _VERIFY_FILES[argv[argv.index("verify") + 1]]
    elif "export" in argv:
        flags = _VERIFY_FILES[argv[argv.index("--family") + 1]]
    else:
        return 1
    strands = 0
    for flag in flags:
        if flag.startswith("matrix") and flag in files:
            try:
                strands += matrix_from_json(files[flag]).n
            except ValueError:  # malformed
                pass
    return strands or 1


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
        strands = _strands(argv, files)
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
        if not 1 <= strands <= MAX_STRANDS:
            assert code == 2
        if code == 1:
            text = out.getvalue()
            assert "factorize" not in argv
            if "eq" in argv:
                assert text.strip() in ("not equal", '{"command": "eq", "equal": false}')
            elif "checkprop" in argv and "--random" not in argv:
                assert text.startswith("fail: ") or '"status": "fail"' in text
            else:
                assert "FAIL" in text or '"ok": false' in text
