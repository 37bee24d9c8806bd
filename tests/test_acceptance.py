"""Acceptance suite: one test per criterion, one printed line each.

All checks are exact group identities or exhaustive/seeded property runs;
there are no numeric tolerances anywhere.  Run with `pytest -s` to see the
per-criterion lines.  Completeness of the presentations (that the listed
relations suffice) is out of scope by design; criteria 1-11 substitute
soundness checks, certificates, and finite-scale injectivity.
"""

import itertools
import random
import time

from bandgroup.braid import band_to_artin, braid_equal
from bandgroup.cli import random_cox_word
from bandgroup.coxeter import (
    BandPair,
    CoxeterDatum,
    Partition,
    commutes_in_brn,
    partition_to_matrix,
    set_partitions,
)
from bandgroup.coxword import (
    CoxWord,
    act_band_on_cox,
    check_prop7,
    check_prop_trans,
    has_long_subword,
    jk_factorize,
)
from bandgroup.present import (
    export_presentation,
    coset_table_check,
    relations_combing,
    relations_sec4,
    relations_thm1,
    relations_thm2,
    verify_relations,
)
from bandgroup.raag import (
    RaagExpression,
    canonical_expressions,
    ends_in,
    injectivity_scan,
    normalize,
)

import oracles


def report_line(number, text):
    print(f"ACCEPTANCE {number}: {text} -- PASS")


def test_criterion_1_band_presentation_soundness():
    started = time.perf_counter()
    instances = 0
    for n in range(2, 8):
        bands = {
            (i, j): band_to_artin(BandPair(i, j), n)
            for i, j in itertools.combinations(range(1, n + 1), 2)
        }
        for t, s in itertools.combinations(bands, 2):
            tau, sigma = BandPair(*t), BandPair(*s)
            if commutes_in_brn(tau, sigma):
                assert braid_equal(bands[t] * bands[s], bands[s] * bands[t])
                instances += 1
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            assert braid_equal(bands[(i, j)] * bands[(i, k)], bands[(j, k)] * bands[(i, j)])
            assert braid_equal(bands[(j, k)] * bands[(i, j)], bands[(i, k)] * bands[(j, k)])
            instances += 2
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report_line(1, f"band relations on up to 7 strands, {instances} instances, {elapsed:.1f}s")


def test_criterion_2_closed_form_matches_letterwise_action():
    instances = 0
    for n in range(2, 7):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            tau = BandPair(i, j)
            band = band_to_artin(tau, n)
            for m in range(-4, 5):
                power = band ** m
                for letter in range(1, n + 1):
                    closed = act_band_on_cox(CoxWord.single(letter), tau, m)
                    letterwise = oracles.referee_apply_artin_to_cox(CoxWord.single(letter), power)
                    assert closed == letterwise
                    instances += 1
    report_line(2, f"closed-form letter action agrees on {instances} instances")


def test_criterion_3_block_growth_property_run():
    rng = random.Random(0)
    checked = 0
    while checked < 1000:
        n = rng.randint(3, 6)
        word = random_cox_word(rng, n, 12)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        m = rng.choice([3, 4, -3, -4])
        if any(len(b) == 2 * abs(m) for b in jk_factorize(word, i, j).blocks):
            continue
        result = check_prop_trans(word, BandPair(i, j), m)
        assert result.passed, f"{word} band {i}.{j} m={m}: {result.failures}"
        checked += 1
    report_line(3, f"{checked} seeded block-growth instances")


def test_criterion_4_long_block_classification_run():
    rng = random.Random(0)
    checked = 0
    while checked < 1000:
        n = rng.randint(3, 6)
        word = random_cox_word(rng, n, 12)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        m = rng.choice([3, 4, -3, -4])
        if has_long_subword(word, i, j):
            continue
        result = check_prop7(word, BandPair(i, j), m)
        assert result.passed, f"{word} band {i}.{j} m={m}: {result.failures}"
        checked += 1
    report_line(4, f"{checked} seeded long-block classification instances")


def test_criterion_5_commutation_presentation_and_injectivity_scan():
    started = time.perf_counter()
    matrix = CoxeterDatum.constant(4, 3)
    relation_report = verify_relations(relations_thm1(matrix), matrix, tag="thm1")
    assert relation_report.ok
    scan = injectivity_scan(matrix, 3, 2)
    assert scan.ok, scan.failures[:3]
    # certificate and oracle were both applied to every scanned expression
    assert scan.families["nontrivial"][0] == scan.info["expressions"]
    assert scan.families["certificate"][0] == scan.info["certificates"]
    assert scan.info["certificates"] >= scan.info["expressions"]
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report_line(
        5,
        f"{relation_report.instances} relations, scan of {scan.info['expressions']} "
        f"expressions with {scan.info['certificates']} certificates, {elapsed:.1f}s",
    )


def test_criterion_6_partition_presentations_sound():
    total = 0
    for n in range(1, 6):
        for p in set_partitions(n):
            report = verify_relations(relations_thm2(p), partition_to_matrix(p))
            assert report.ok, f"partition {p}: {report.failures[:3]}"
            total += report.instances
    report_line(6, f"all 75 partitions up to 5 strands, {total} relation instances")


def test_criterion_7_combing_families_and_derived_identities():
    total = 0
    seen_labels = set()
    for n in range(2, 6):
        for p_prime in set_partitions(n - 1):
            matrix = partition_to_matrix(p_prime.with_singleton())
            rels = list(relations_combing(p_prime))
            report = verify_relations(rels, matrix)
            assert report.ok, f"{p_prime} on {n}: {report.failures[:3]}"
            total += report.instances
            seen_labels |= {r.label for r in rels}
    assert {
        "combing.i", "combing.ii", "combing.iii", "combing.iv",
        "combing.derived.1", "combing.derived.2", "combing.derived.3",
        "combing.derived.4", "combing.derived.5", "combing.derived.6",
        "combing.derived.7", "combing.derived.8",
    } <= seen_labels
    report_line(7, f"combing families and all 8 derived identities, {total} instances")


def test_criterion_8_coset_closure_tables():
    total = 0
    for n in range(1, 6):
        for p in set_partitions(n):
            report = coset_table_check(p)
            assert report.ok, f"partition {p}: {report.failures[:3]}"
            total += report.instances
    report_line(8, f"coset closure on all partitions up to 5 strands, {total} rows")


def test_criterion_9_general_exponent_families():
    total = 0
    # items 1 and 2 on four strands with one entry forced to 2
    matrix = CoxeterDatum.from_entries(
        4, {(1, 2): 3, (1, 3): 4, (1, 4): 2, (2, 3): 2, (2, 4): 5, (3, 4): 3}
    )
    rels = list(relations_sec4(matrix))
    assert any(r.label == "sec4.2" and r.indices == (1, 2, 3, 4) for r in rels)
    report = verify_relations(rels, matrix)
    assert report.ok, report.failures[:3]
    assert report.instances == len(rels) > 0
    total += report.instances

    # even and odd triple patterns for the first three exponent steps
    for nu in (1, 2, 3):
        for mz in (2 * nu, 2 * nu + 1):
            m3 = CoxeterDatum.from_entries(3, {(1, 2): 2, (1, 3): 2, (2, 3): mz})
            report = verify_relations(relations_sec4(m3), m3)
            assert report.ok, f"pattern (2,2,{mz}): {report.failures[:3]}"
            total += report.instances

    # the three exact patterns; the largest is the slowest single check
    for entries, label, bound in [
        ({(1, 2): 2, (1, 3): 3, (2, 3): 3}, "sec4.3c", None),
        ({(1, 2): 2, (1, 3): 3, (2, 3): 4}, "sec4.3d", None),
        ({(1, 2): 2, (1, 3): 3, (2, 3): 5}, "sec4.3e", 30.0),
    ]:
        m3 = CoxeterDatum.from_entries(3, entries)
        rels = [r for r in relations_sec4(m3) if r.label == label]
        assert len(rels) == 3
        started = time.perf_counter()
        report = verify_relations(rels, m3)
        elapsed = time.perf_counter() - started
        assert report.ok, f"{label}: {report.failures[:3]}"
        if bound is not None:
            assert elapsed < bound
        total += report.instances
    report_line(9, f"general-exponent families, {total} instances")


def test_criterion_10_normal_form_against_exhaustive_search():
    bases = [BandPair(i, j) for i, j in itertools.combinations(range(1, 5), 2)]
    encoded = [b.indices() for b in bases]

    checked = 0
    for state in oracles.all_states(encoded, 4, 2):
        w = RaagExpression(tuple((BandPair(i, j), p) for i, j, p in state))
        assert len(normalize(w)) == oracles.bfs_min_length(state)
        checked += 1

    agree = 0
    for canon in canonical_expressions(bases, 4, 2):
        state = tuple((b.i, b.j, p) for b, p in canon.factors)
        orbit = oracles.type2_orbit(state)
        expected = {(s[-1][0], s[-1][1]) for s in orbit if s}
        for member in orbit:
            w = RaagExpression(tuple((BandPair(i, j), p) for i, j, p in member))
            for tau in bases:
                assert ends_in(w, tau) == (tau.indices() in expected)
                agree += 1
    oracles._MIN_CACHE.clear()
    report_line(
        10,
        f"normal-form length on {checked} expressions, last-letter reachability "
        f"on {agree} queries",
    )


def test_criterion_11_pure_braid_recovery():
    p = Partition.singletons(4)
    matrix = partition_to_matrix(p)
    rels = list(relations_thm2(p))
    assert {r.label for r in rels} <= {"thm2.i", "thm2.ii", "thm2.iv"}
    assert len(matrix.band_pairs()) == 6
    report = verify_relations(rels, matrix)
    assert report.ok
    assert report.instances == len(rels) > 0
    text = "".join(export_presentation(rels, matrix, "plain"))
    assert text == "".join(export_presentation(rels, matrix, "plain"))
    assert text.splitlines()[0] == "generators: b1.2 b1.3 b1.4 b2.3 b2.4 b3.4"
    assert len(text.splitlines()) == 1 + len(rels)
    report_line(11, f"pure-type presentation on 6 generators, {report.instances} relations")


def test_criterion_12_completeness_out_of_scope():
    # Only soundness is checkable here: every emitted relation holds in the
    # braid group, and the finite scans look for collapses.  No API claims
    # the relation lists are complete presentations.
    import bandgroup

    assert not any("complete" in name for name in dir(bandgroup))
    report_line(12, "completeness not claimed; criteria 1-11 are the substitute")
