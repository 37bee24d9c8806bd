import dataclasses
import hashlib
import itertools
import random

import pytest

from bandgroup.braid import (
    ArtinWord,
    _dynnikov,
    _relabel,
    band_to_artin,
    braid_equal,
    permutation_image,
)
from bandgroup.cli import _combing
from bandgroup.coxeter import (
    BandPair,
    CoxeterDatum,
    Partition,
    ScopeError,
    partition_to_matrix,
    set_partitions,
)
from bandgroup.present import (
    BandWordDecider,
    Relation,
    _band_syllables,
    _coset_rewrite,
    assemble_block_matrix,
    block_product_check,
    coset_table_check,
    expand_letter_word,
    export_presentation,
    format_letter_word,
    relations_combing,
    relations_sec4,
    relations_thm1,
    relations_thm2,
    relations_thm2_rederivations,
    verify_relations,
)

from oracles import referee_braid_equal, referee_free_image


def bp(a, b):
    return BandPair.of(a, b)


def labels(rels):
    return {r.label for r in rels}


class TestThm1:
    def test_commuting_pairs_on_four_strands(self):
        rels = relations_thm1(CoxeterDatum.constant(4, 3))
        pairs = {frozenset({r.lhs[0][0], r.lhs[1][0]}) for r in rels}
        assert pairs == {
            frozenset({bp(1, 2), bp(3, 4)}),
            frozenset({bp(1, 4), bp(2, 3)}),
        }

    def test_three_strands_has_no_relations(self):
        assert list(relations_thm1(CoxeterDatum.constant(3, 3))) == []

    def test_zero_entry_removes_generator(self):
        matrix = CoxeterDatum.from_entries(
            4, {(1, 2): 3, (1, 3): 3, (2, 3): 3, (2, 4): 3, (3, 4): 3}
        )
        assert len(matrix.band_pairs()) == 5
        rels = list(relations_thm1(matrix))
        assert len(rels) == 1  # only {12, 34} is left non-crossing
        assert verify_relations(rels, matrix).ok

    def test_scope_gate(self):
        with pytest.raises(ScopeError):
            next(relations_thm1(CoxeterDatum.constant(3, 2)))

    def test_all_relations_verify(self):
        for n in (5, 6):
            matrix = CoxeterDatum.constant(n, 3)
            assert verify_relations(relations_thm1(matrix), matrix).ok


class TestThm2:
    def test_one_pair_merged(self):
        rels = list(relations_thm2(Partition.of(3, [[1, 2], [3]])))
        assert labels(rels) == {"thm2.iii"}
        words = {(r.lhs, r.rhs) for r in rels}
        assert (
            ((bp(1, 2), 1), (bp(1, 3), 1)),
            ((bp(2, 3), 1), (bp(1, 2), 1)),
        ) in words
        assert (
            ((bp(1, 2), 1), (bp(1, 3), 1), (bp(2, 3), 1)),
            ((bp(1, 3), 1), (bp(2, 3), 1), (bp(1, 2), 1)),
        ) in words

    def test_singletons_give_triple_family_only(self):
        rels = list(relations_thm2(Partition.singletons(3)))
        assert labels(rels) == {"thm2.iv"}
        assert len(rels) == 2

    def test_single_block_gives_chain_family_only(self):
        rels = list(relations_thm2(Partition.of(3, [range(1, 4)])))
        assert labels(rels) == {"thm2.v"}
        words = {(r.lhs, r.rhs) for r in rels}
        assert (
            ((bp(1, 2), 1), (bp(1, 3), 1)),
            ((bp(2, 3), 1), (bp(1, 2), 1)),
        ) in words
        assert (
            ((bp(2, 3), 1), (bp(1, 2), 1)),
            ((bp(1, 3), 1), (bp(2, 3), 1)),
        ) in words

    def test_double_letter_expansion_depends_on_entry(self):
        # with m_kl = 1 the doubled letter is the square of the generator
        rels = relations_thm2(Partition.of(4, [[1, 2], [3, 4]]))
        family_ii = [r for r in rels if r.label == "thm2.ii"]
        assert family_ii[0].lhs[1] == (bp(3, 4), 2)
        rels2 = relations_thm2(Partition.singletons(4))
        family_ii2 = [r for r in rels2 if r.label == "thm2.ii"]
        assert family_ii2[0].lhs[1] == (bp(3, 4), 1)

    def test_all_partitions_verify_up_to_4(self):
        for n in range(1, 5):
            for p in set_partitions(n):
                assert verify_relations(relations_thm2(p), partition_to_matrix(p)).ok

    def test_six_strand_samples_verify(self):
        for parts in ([[1, 3, 5], [2, 6], [4]], [[1, 2, 3, 4, 5, 6]], [[1], [2], [3], [4], [5], [6]]):
            p = Partition.of(6, parts)
            assert verify_relations(relations_thm2(p), partition_to_matrix(p)).ok


class TestVerifyRelations:
    def test_bogus_relation_fails(self):
        matrix = CoxeterDatum.constant(3, 3)
        bogus = Relation(
            "bogus",
            (1, 2, 1, 3),
            ((bp(1, 2), 1), (bp(1, 3), 1)),
            ((bp(1, 3), 1), (bp(1, 2), 1)),
        )
        report = verify_relations([bogus], matrix)
        assert not report.ok
        assert report.failures[0].family == "bogus"

    def test_empty_list_passes(self):
        assert verify_relations([], CoxeterDatum.constant(3, 3)).ok

    def test_zero_entry_expansion_rejected(self):
        matrix = CoxeterDatum.from_entries(3, {(1, 2): 3})
        rel = Relation("x", (1, 3), ((bp(1, 3), 1), (bp(1, 2), 1)), ((bp(1, 2), 1),))
        with pytest.raises(ValueError):
            verify_relations([rel], matrix)

    def test_expansion_matches_word_product(self):
        rng = random.Random(5)
        matrices = [
            partition_to_matrix(Partition.of(5, [[1, 3], [2, 4, 5]])),
            CoxeterDatum.constant(5, 3),
        ]
        for matrix in matrices:
            bands = matrix.band_pairs()
            for _ in range(100):
                word = tuple(
                    (rng.choice(bands), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randint(0, 6))
                )
                expected = ArtinWord(matrix.n)
                for pair, e in word:
                    band = band_to_artin(pair, matrix.n)
                    expected = expected * band ** (e * matrix.entry_at(pair.i, pair.j))
                assert expand_letter_word(word, matrix) == expected


class TestBandWordDecider:
    """One decider per matrix, its memo shared by a whole batch of pairs."""

    @staticmethod
    def _pairs(rng, matrix):
        """Seeded (u, v, equal) band-letter pairs, many ending in a few shared suffixes."""
        bands = matrix.band_pairs()

        def letters(k):
            return tuple((rng.choice(bands), rng.choice((1, -1))) for _ in range(k))

        suffixes = [letters(rng.randint(2, 4)) for _ in range(3)] + [()]
        yield (), (), True
        tau = rng.choice(bands)
        yield ((tau, 1), (tau, -1)), (), True
        yield ((tau, 1), (tau, 1)), ((tau, 2),), True
        for _ in range(20):
            suffix = rng.choice(suffixes)
            prefix = list(letters(rng.randint(0, 2)))
            # tau^e cancelled by tau^-e: the same braid
            other = list(prefix)
            tau, e = rng.choice(bands), rng.choice((1, -1))
            pos = rng.randint(0, len(other))
            other[pos:pos] = [(tau, e), (tau, -e)]
            yield tuple(prefix) + suffix, tuple(other) + suffix, True
            # a band power with an even number of crossings keeps the
            # permutation but changes the braid
            other = list(prefix)
            tau = rng.choice(bands)
            e = 1 if matrix.entry_at(tau.i, tau.j) % 2 == 0 else rng.choice((2, -2))
            pos = rng.randint(0, len(other))
            other[pos:pos] = [(tau, e)]
            yield tuple(prefix) + suffix, tuple(other) + suffix, False

    def test_seeded_pairs_match_referee(self):
        rng = random.Random(31)
        for n in range(2, 8):
            pairs = itertools.combinations(range(1, n + 1), 2)
            matrix = CoxeterDatum.from_entries(n, {pair: rng.choice((1, 2)) for pair in pairs})
            decider = BandWordDecider(matrix)
            for u, v, equal in self._pairs(rng, matrix):
                lhs, rhs = expand_letter_word(u, matrix), expand_letter_word(v, matrix)
                assert referee_braid_equal(n, lhs.letters, rhs.letters) is equal
                assert braid_equal(lhs, rhs) is equal
                assert decider.equal(u, v) is equal
                assert decider.equal(v, u) is equal
                if not equal:
                    assert decider.permutation(u) == decider.permutation(v)
                for word, artin in ((u, lhs), (v, rhs)):
                    assert decider.permutation(word) == list(permutation_image(artin).images)

    def test_relations_decided_by_normal_form(self, monkeypatch):
        calls = []

        def counted(word, k):
            calls.append(word)
            return _dynnikov(word, k)

        def reports():
            """thm2, cosets and combing on up to 5 strands."""
            for n in range(1, 6):
                for p in set_partitions(n):
                    yield verify_relations(relations_thm2(p), partition_to_matrix(p))
                    yield coset_table_check(p)
                for p in set_partitions(n - 1) if n > 1 else ():
                    matrix = partition_to_matrix(p.with_singleton())
                    yield verify_relations(relations_combing(p), matrix)

        def decisions(report):
            """The report without the oracle's counters, which tell the two routes apart."""
            out = report.to_dict()
            out["info"] = {k: v for k, v in out["info"].items() if not k.startswith("oracle_")}
            return out

        by_images = list(reports())
        assert all(report.info["oracle_handovers"] == 0 for report in by_images)
        monkeypatch.setattr("bandgroup.braid._HANDOVER_LETTERS", 1)
        monkeypatch.setattr("bandgroup.braid._dynnikov", counted)
        by_normal_form = list(reports())
        assert all(report.ok for report in by_normal_form)
        assert list(map(decisions, by_normal_form)) == list(map(decisions, by_images))
        assert len(calls) > 1000
        # two coordinate vectors per handover
        assert 2 * sum(report.info["oracle_handovers"] for report in by_normal_form) == len(calls)

    def test_counters_report_the_oracle_work(self):
        # thm1 on 4 strands: a_12 a_34 = a_34 a_12 and a_14 a_23 = a_23 a_14,
        # four syllable steps each, as no side ends like another
        matrix = CoxeterDatum.constant(4, 3)
        rels = list(relations_thm1(matrix))
        report = verify_relations(rels, matrix)
        peak = 0
        for rel in rels:
            for word in (rel.lhs, rel.rhs):
                for k in range(len(word)):
                    letters = expand_letter_word(word[k:], matrix).letters
                    peak = max(peak, *(len(referee_free_image(letters, i)) for i in range(1, 5)))
        assert report.info == {"oracle_steps": 8, "oracle_handovers": 0,
                               "oracle_peak_letters": peak, "oracle_distinct": 2,
                               "oracle_perm_rejections": 0}
        for report in (coset_table_check(Partition.of(3, [range(1, 4)])),
                       block_product_check(CoxeterDatum.constant(2, 3),
                                           CoxeterDatum.constant(3, 3))):
            assert report.info["oracle_steps"] > 0
            assert report.info["oracle_handovers"] == 0

    def test_failures_carry_witnesses(self, monkeypatch):
        matrix = CoxeterDatum.constant(3, 3)
        bogus = Relation("bogus", (1, 2, 1, 3), ((bp(1, 2), 1), (bp(1, 3), 1)),
                         ((bp(1, 3), 1), (bp(1, 2), 1)))
        good = Relation("good", (1, 2), ((bp(1, 2), 1),), ((bp(1, 2), 2), (bp(1, 2), -1)))

        def check():
            report = verify_relations([good, bogus, good], matrix)
            assert (report.instances, report.passes) == (3, 2)
            [failure] = report.failures
            assert failure.to_dict() == {
                "family": "bogus",
                "indices": [1, 2, 1, 3],
                "message": "relation fails in the braid group",
                "lhs": "b1.2 b1.3",
                "rhs": "b1.3 b1.2",
            }

        check()
        monkeypatch.setattr("bandgroup.braid._HANDOVER_LETTERS", 1)
        check()

    def test_failures_on_one_pattern_carry_their_own_witnesses(self):
        # thm2.v on (1, 2, 4) and (2, 3, 5), its right side reversed so that
        # it fails: both instances relabel onto strands 1, 2, 3 and share
        # one decision, and each reports its own indices and words
        p = Partition.of(5, [range(1, 6)])
        mutated = [
            dataclasses.replace(rel, rhs=rel.rhs[::-1])
            for rel in relations_thm2(p)
            if rel.label == "thm2.v" and rel.indices in ((1, 2, 4), (2, 3, 5))
            and rel.lhs[0][0] == bp(*rel.indices[:2])
        ]
        assert len(mutated) == 2
        report = verify_relations(mutated, partition_to_matrix(p))
        assert [failure.to_dict() for failure in report.failures] == [
            {"family": "thm2.v", "indices": [1, 2, 4], "message": "relation fails in the braid group",
             "lhs": "b1.2 b1.4", "rhs": "b1.2 b2.4"},
            {"family": "thm2.v", "indices": [2, 3, 5], "message": "relation fails in the braid group",
             "lhs": "b2.3 b2.5", "rhs": "b2.3 b3.5"},
        ]
        assert report.info["oracle_distinct"] == 1

    def test_counters_are_per_call(self):
        # the verdicts live only as long as the call that made them
        p = Partition.of(6, [[1, 4], [2, 5, 6], [3]])
        rels, matrix = list(relations_thm2(p)), partition_to_matrix(p)
        first, second = verify_relations(rels, matrix), verify_relations(rels, matrix)
        # a report holds no time, so identical calls return equal reports
        assert first == second
        assert 0 < first.info["oracle_distinct"] < len(rels)
        assert coset_table_check(p) == coset_table_check(p)

    def test_coset_failure_carries_witness(self, monkeypatch):
        def wrong_rewrite(g, t, p):
            case, t2, tail = _coset_rewrite(g, t, p)
            # claims that b1.3 passes the representative b2.3 unchanged
            return (case, t, ((g, 1),)) if (g, t) == (bp(1, 3), 2) else (case, t2, tail)

        monkeypatch.setattr("bandgroup.present._coset_rewrite", wrong_rewrite)
        report = coset_table_check(Partition.of(3, [range(1, 4)]))
        [failure] = report.failures
        assert failure.indices == (1, 3, 2)
        assert failure.message == "g=1.3 t=2: target 2, permutation sends n to 2, braid identity fails"
        assert (failure.lhs, failure.rhs) == ("b1.3 b2.3", "b2.3 b1.3")


class TestCombing:
    def test_instance_shapes(self):
        rels = relations_combing(Partition.singletons(3))
        by_label = {}
        for r in rels:
            by_label.setdefault(r.label, []).append(r)
        ii = by_label["combing.ii"][0]
        assert ii.lhs == ((bp(2, 4), 1), (bp(3, 4), 1), (bp(1, 3), 1), (bp(3, 4), -1))
        assert ii.rhs == ((bp(3, 4), 1), (bp(1, 3), 1), (bp(3, 4), -1), (bp(2, 4), 1))
        d1 = by_label["combing.derived.1"][0]
        assert d1.lhs == ((bp(2, 3), 1), (bp(1, 4), 1), (bp(2, 3), -1))
        assert d1.rhs == ((bp(1, 4), 1),)
        # all entries are 2 here, so the conjugation case 8 fires, not 7
        assert "combing.derived.8" in by_label
        assert "combing.derived.7" not in by_label

    def test_case7_fires_with_merged_outer_pair(self):
        rels = relations_combing(Partition.of(3, [[1, 3], [2]]))
        assert "combing.derived.7" in labels(rels)

    def test_all_partitions_verify_up_to_4_strands(self):
        for n in range(2, 5):
            for p_prime in set_partitions(n - 1):
                matrix = partition_to_matrix(p_prime.with_singleton())
                assert verify_relations(relations_combing(p_prime), matrix).ok


class TestSec4:
    def test_scope_gate(self):
        with pytest.raises(ScopeError):
            next(relations_sec4(partition_to_matrix(Partition.of(3, [[1, 2], [3]]))))
        with pytest.raises(ScopeError):
            next(relations_sec4(CoxeterDatum.from_entries(3, {(1, 2): 2, (1, 3): 2})))

    def test_all_two_triple_matches_partition_presentation(self):
        matrix = CoxeterDatum.constant(3, 2)
        rels = list(relations_sec4(matrix))
        even = [r for r in rels if r.label == "sec4.3a"]
        assert len(even) == 9  # three rotations, three pairwise equalities each
        assert verify_relations(rels, matrix).ok
        # consistency bridge: the three words coincide with the pure-type family
        thm2 = list(relations_thm2(Partition.singletons(3)))
        for rel in thm2:
            lhs = expand_letter_word(rel.lhs, matrix)
            rhs = expand_letter_word(rel.rhs, matrix)
            assert braid_equal(lhs, rhs)
        first = even[0]
        assert braid_equal(
            expand_letter_word(first.lhs, matrix),
            expand_letter_word(thm2[0].lhs, partition_to_matrix(Partition.singletons(3))),
        )

    def test_odd_triple_emits_single_relation(self):
        matrix = CoxeterDatum.from_entries(3, {(1, 2): 2, (1, 3): 2, (2, 3): 3})
        rels = [r for r in relations_sec4(matrix) if r.label == "sec4.3b"]
        assert len(rels) == 1
        (rel,) = rels
        y, x, z = (bp(1, 3), 1), (bp(1, 2), 1), (bp(2, 3), 1)
        assert rel.lhs == (y, z, x, y)
        assert rel.rhs == (y, x, y, z)
        assert verify_relations(rels, matrix).ok

    def test_exact_patterns_present_and_verified(self):
        for entries, label, letters in [
            ({(1, 2): 2, (1, 3): 3, (2, 3): 3}, "sec4.3c", 5),
            ({(1, 2): 2, (1, 3): 3, (2, 3): 4}, "sec4.3d", 6),
            ({(1, 2): 2, (1, 3): 3, (2, 3): 5}, "sec4.3e", 9),
        ]:
            matrix = CoxeterDatum.from_entries(3, entries)
            rels = [r for r in relations_sec4(matrix) if r.label == label]
            assert len(rels) == 3
            assert all(len(r.lhs) == letters and len(r.rhs) == letters for r in rels)
            assert verify_relations(rels, matrix).ok

    def test_conjugated_commutation_on_four_strands(self):
        matrix = CoxeterDatum.from_entries(
            4, {(1, 2): 3, (1, 3): 4, (1, 4): 2, (2, 3): 2, (2, 4): 5, (3, 4): 3}
        )
        rels = relations_sec4(matrix)
        item2 = [r for r in rels if r.label == "sec4.2"]
        assert any(r.indices == (1, 2, 3, 4) for r in item2)
        assert verify_relations(item2, matrix).ok


class TestRederivations:
    def test_all_partitions_up_to_4(self):
        for n in range(2, 5):
            for p in set_partitions(n):
                rels = relations_thm2_rederivations(p)
                assert verify_relations(rels, partition_to_matrix(p)).ok


class TestCosets:
    def test_rewrite_examples(self):
        p = Partition.of(3, [range(1, 4)])  # everything in the class of 3
        # smaller class member passes through and deposits the merged pair
        assert _coset_rewrite(bp(1, 3), 2, p)[1:] == (
            2,
            ((bp(1, 2), 1),),
        )
        # the representative itself squares into the subgroup
        assert _coset_rewrite(bp(2, 3), 2, p)[1:] == (3, ((bp(2, 3), 2),))

    def test_rewrite_pass_through(self):
        p = Partition.of(4, [[1], [2, 4], [3]])
        # pair entirely above the representative index commutes through
        assert _coset_rewrite(bp(3, 4), 2, p)[1] == 2

    def test_rejects_index_outside_class(self):
        p = Partition.of(3, [[1, 3], [2]])
        with pytest.raises(ValueError):
            _coset_rewrite(bp(1, 2), 2, p)

    def test_full_block_table(self):
        report = coset_table_check(Partition.of(3, [range(1, 4)]))
        assert report.ok
        assert report.info["cosets"] == 3

    def test_singletons_trivial_table(self):
        report = coset_table_check(Partition.singletons(4))
        assert report.ok
        assert report.info["cosets"] == 1

    def test_mixed_partition(self):
        report = coset_table_check(Partition.of(3, [[1, 3], [2]]))
        assert report.ok
        assert report.info["cosets"] == 2

    def test_discriminant_matches_target(self):
        # the permutation of the rewritten product must send n to the target
        p = Partition.of(4, [[1, 2, 4], [3]])
        matrix = partition_to_matrix(p)
        for g in [bp(i, j) for i, j in itertools.combinations(range(1, 5), 2)]:
            for t in sorted(p.part_of(4)):
                _, t2, tail = _coset_rewrite(g, t, p)
                word = ((g, 1),) + (((bp(t, 4), 1),) if t != 4 else ())
                assert permutation_image(expand_letter_word(word, matrix))(4) == t2


class TestBlockProduct:
    def test_two_small_blocks(self):
        m1 = CoxeterDatum.from_entries(2, {(1, 2): 3})
        m2 = CoxeterDatum.from_entries(2, {(1, 2): 3})
        report = block_product_check(m1, m2)
        assert report.ok
        assert report.instances == 1

    def test_empty_second_block(self):
        report = block_product_check(CoxeterDatum.constant(2, 3), CoxeterDatum(1, ((0,),)))
        assert report.ok
        assert report.instances == 0

    def test_cross_pair_counts(self):
        report = block_product_check(CoxeterDatum.constant(2, 2), CoxeterDatum.constant(3, 2))
        assert report.ok
        assert report.instances == 3  # one left pair times three right pairs

    def test_identical_calls_return_equal_reports(self):
        m1, m2 = CoxeterDatum.constant(2, 3), CoxeterDatum.constant(3, 3)
        assert block_product_check(m1, m2) == block_product_check(m1, m2)

    def test_failures_carry_witnesses(self, monkeypatch):
        monkeypatch.setattr("bandgroup.present.BandWordDecider.equal", lambda self, u, v: False)
        report = block_product_check(CoxeterDatum.constant(2, 3), CoxeterDatum.constant(2, 4))
        assert not report.ok
        assert [f.to_dict() for f in report.failures] == [
            {"family": "block", "indices": [1, 2, 3, 4],
             "message": "relation fails in the braid group",
             "lhs": "b1.2 b3.4", "rhs": "b3.4 b1.2"}]
        assert report.info["left_generators"] == report.info["right_generators"] == 1

    def test_assembled_matrix_shape(self):
        combined = assemble_block_matrix(
            CoxeterDatum.constant(2, 3), CoxeterDatum.constant(2, 5)
        )
        assert combined.entry_at(1, 2) == 3
        assert combined.entry_at(3, 4) == 5
        assert combined.entry_at(2, 3) == 0


class TestExport:
    def test_pure_braid_presentation_on_three_strands(self):
        p = Partition.singletons(3)
        rels = list(relations_thm2(p))
        matrix = partition_to_matrix(p)
        text = "".join(export_presentation(rels, matrix, "plain"))
        lines = text.splitlines()
        assert lines[0] == "generators: b1.2 b1.3 b2.3"
        assert len(lines) == 3  # two triple-family relations
        assert set(labels(rels)) == {"thm2.iv"}
        # byte stability
        assert text == "".join(export_presentation(rels, matrix, "plain"))

    def test_commutation_presentation_counts(self):
        matrix = CoxeterDatum.constant(4, 3)
        text = "".join(export_presentation(relations_thm1(matrix), matrix, "plain"))
        lines = text.splitlines()
        assert lines[0].count("b") == 6
        assert len(lines) == 3

    def test_empty_relations(self):
        matrix = CoxeterDatum.constant(3, 3)
        assert "".join(export_presentation([], matrix, "plain")) == "generators: b1.2 b1.3 b2.3\n"

    def test_gap_style_inverses(self):
        matrix = CoxeterDatum.constant(4, 3)
        rels = relations_thm1(matrix)
        text = "".join(export_presentation(rels, matrix, "gap-style"))
        line = text.splitlines()[1]
        assert line == "b1.2 b3.4 B1.2 B3.4"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_presentation([], CoxeterDatum.constant(3, 3), "latex")

    def test_thm1_is_exported_sorted_on_label_and_indices(self):
        # export writes a family in the order it yields it, and thm1 yields
        # its commutations sorted, so its bytes are the sorted rendering's
        rng = random.Random(28)
        for _ in range(60):
            n = rng.randint(1, 9)
            matrix = CoxeterDatum.from_entries(n, {
                (a, b): rng.choice((0, 3, 4, 5)) for a, b in itertools.combinations(range(1, n + 1), 2)})
            rels = list(relations_thm1(matrix))
            by_key = sorted(rels, key=lambda r: (r.label, r.indices))
            for fmt in ("plain", "gap-style"):
                assert (list(export_presentation(rels, matrix, fmt))
                        == list(export_presentation(by_key, matrix, fmt)))


class TestStreamDigests:
    """sha256 digests of the thm2, rederivation, combing, sec4 and coset streams.

    Each family's relations are rendered one line each, in the order the
    generator yields them, and hashed per strand count; sec4 runs over 200
    seeded matrices with every entry in 2..6.  The coset table is read off
    its failure list, with every braid identity forced to fail, so each
    (generator, coset) line carries its case, target and tail in the order
    the table visits them.
    """

    PINNED = {
        "thm2 1": "e3b0c44298fc1c14", "thm2 2": "e3b0c44298fc1c14",
        "thm2 3": "4ce659a4fd22bbf4", "thm2 4": "cb60bf1d8b1bdfc3",
        "thm2 5": "6ebcfb274c48742a", "thm2 6": "c34bc3d7ed88ff8a",
        "rederivations 1": "e3b0c44298fc1c14", "rederivations 2": "e3b0c44298fc1c14",
        "rederivations 3": "bc2e09c79524d6a8", "rederivations 4": "e020c43603ab704c",
        "rederivations 5": "dec3f7c4f39ac2d3", "rederivations 6": "ffd8408bff5ea877",
        "combing 1+1": "e3b0c44298fc1c14", "combing 2+1": "a41d51494df2a089",
        "combing 3+1": "7aebda02262cc8d2", "combing 4+1": "5f3f82a66356f7ef",
        "sec4": "3fc20455b9aecf00",
        "cosets 1": "e3b0c44298fc1c14", "cosets 2": "323b8ba127693545",
        "cosets 3": "e2c8110cb07ea1f2", "cosets 4": "d133aea9b8c4a461",
        "cosets 5": "2e4a1367def4a40e", "cosets 6": "6371c19b57bf16ba",
    }

    @staticmethod
    def _digest(rels):
        text = "".join(f"{r.label} {r.indices} {format_letter_word(r.lhs)} = "
                       f"{format_letter_word(r.rhs)}\n" for r in rels)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @staticmethod
    def _sec4_matrices():
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(3, 5)
            yield CoxeterDatum.from_entries(n, {
                (a, b): rng.choice((2, 2, 3, 4, 5, 6))
                for a, b in itertools.combinations(range(1, n + 1), 2)})

    def test_streams_are_pinned(self, monkeypatch):
        digest = self._digest
        out = {}
        for n in range(1, 7):
            parts = list(set_partitions(n))
            out[f"thm2 {n}"] = digest(r for p in parts for r in relations_thm2(p))
            out[f"rederivations {n}"] = digest(
                r for p in parts for r in relations_thm2_rederivations(p))
            if n < 5:
                out[f"combing {n}+1"] = digest(r for p in parts for r in _combing(p)[0])
        out["sec4"] = digest(r for m in self._sec4_matrices() for r in relations_sec4(m))
        monkeypatch.setattr(BandWordDecider, "equal", lambda self, u, v: False)
        for n in range(1, 7):
            lines = [f"{f.family} {f.indices} {f.message} {f.lhs} = {f.rhs}\n"
                     for p in set_partitions(n) for f in coset_table_check(p).failures]
            out[f"cosets {n}"] = hashlib.sha256("".join(lines).encode()).hexdigest()[:16]
        assert out == self.PINNED


class TestLocality:
    """A partition-type relation depends only on the partition on its strands.

    Keyed on its pair of syllable words relabelled onto the strands it
    touches (`braid._relabel`), each family's set of relations stops growing
    at four strands (combing: at three points under the new strand).
    """

    @staticmethod
    def _keys(rels, matrix):
        return {_relabel(_band_syllables(r.lhs, matrix), _band_syllables(r.rhs, matrix))
                for r in rels}

    def test_relabelled_keys_stop_growing(self):
        families = {
            "thm2": (relations_thm2, lambda p: p, (10, 22, 22, 22)),
            "rederivations": (relations_thm2_rederivations, lambda p: p, (12, 24, 24, 24)),
            "combing": (relations_combing, Partition.with_singleton, (20, 20, 20, 20)),
        }
        for name, (family, extended, counts) in families.items():
            keys = {}
            for n in range(3, 7):
                keys[n] = set()
                for p in set_partitions(n):
                    keys[n] |= self._keys(family(p), partition_to_matrix(extended(p)))
            assert tuple(len(keys[n]) for n in range(3, 7)) == counts, name
            assert keys[5] == keys[4] and keys[6] == keys[4], name

    def test_coset_rewrite_reads_only_its_strands(self):
        # every strand outside {g.i, g.j, t, n} made a singleton changes nothing
        cases = 0
        for n in range(1, 7):
            for p in set_partitions(n):
                for i, j in itertools.combinations(range(1, n + 1), 2):
                    for t in p.part_of(n):
                        keep = {i, j, t, n}
                        kept = [[x for x in part if x in keep] for part in p.parts]
                        local = Partition.of(n, [part for part in kept if part]
                                             + [[x] for x in range(1, n + 1) if x not in keep])
                        g = bp(i, j)
                        assert _coset_rewrite(g, t, local) == _coset_rewrite(g, t, p), (p, g, t)
                        cases += 1
        assert cases == 8275
