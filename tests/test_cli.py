import json

import pytest

from bandgroup.cli import main
from bandgroup.coxeter import CoxeterDatum, Partition


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

    def test_too_many_strands_is_usage_error(self, capsys):
        assert main(["eq", "s1", "s2", "--n", "200"]) == 2
        assert "at most 127 strands" in capsys.readouterr().err

    def test_image_limit_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("bandgroup.braid.MAX_IMAGE_LETTERS", 100)
        long = " ".join(["a1.3^3 a2.4^3"] * 2)
        assert main(["eq", long, long + " s1 s1'", "--n", "4"]) == 2
        assert "exceeds 100 letters" in capsys.readouterr().err


class TestPerm:
    def test_cycle_output(self, capsys):
        assert main(["perm", "a1.3", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "(1 3)"

    def test_pure_word(self, capsys):
        assert main(["perm", "s1 s1", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "()"


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

    def test_scope_error(self, matrix_file):
        path = matrix_file("m.json", CoxeterDatum.constant(3, 1))
        assert main(["scan", "inject", "--matrix", path,
                     "--max-len", "1", "--max-exp", "1"]) == 2


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

    def test_tuple_required_for_free(self):
        assert main(["hurwitz", "--context", "free", "--word", "s1"]) == 2


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


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_family(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm9"])
        assert exc.value.code == 2
