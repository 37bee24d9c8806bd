import itertools
import random

import pytest

from bandgroup.braid import ArtinWord, band_to_artin, braid_equal
from bandgroup.coxeter import BandPair, CoxeterDatum, commutes_in_brn
from bandgroup.coxword import CoxWord, act_band_on_cox, long_pairs
from bandgroup.raag import (
    RaagExpression,
    apply_type1,
    apply_type2,
    canonical_expressions,
    ends_in,
    ends_in_witness,
    expression_to_braid,
    format_expression,
    injectivity_scan,
    is_reduced,
    normalize,
    parse_expression,
)

from oracles import bfs_min_length, orbit_end_bases, reduced_class_count, type2_orbit


def expr(*factors):
    return RaagExpression.of(*factors)


def encode(w):
    return tuple((base.i, base.j, p) for base, p in w.factors)


def random_expression(rng, bases, max_len, max_exp):
    length = rng.randint(0, max_len)
    exps = [e for e in range(-max_exp, max_exp + 1) if e != 0]
    return RaagExpression(
        tuple((rng.choice(bases), rng.choice(exps)) for _ in range(length))
    )


ALL_BASES_4 = [BandPair(i, j) for i, j in itertools.combinations(range(1, 5), 2)]


class TestElementaryMoves:
    def test_type1_cancel(self):
        assert apply_type1(expr(((1, 2), 2), ((1, 2), -2)), 0) == expr()

    def test_type1_merge(self):
        assert apply_type1(expr(((1, 2), 1), ((1, 2), 1)), 0) == expr(((1, 2), 2))

    def test_type1_needs_equal_bases(self):
        with pytest.raises(ValueError):
            apply_type1(expr(((1, 2), 1), ((1, 3), 1)), 0)

    def test_type2_swap(self):
        assert apply_type2(expr(((1, 2), 1), ((3, 4), 1)), 0) == expr(
            ((3, 4), 1), ((1, 2), 1)
        )

    def test_type2_rejects_crossing(self):
        with pytest.raises(ValueError):
            apply_type2(expr(((1, 3), 1), ((2, 4), 1)), 0)

    def test_type2_rejects_linked(self):
        with pytest.raises(ValueError):
            apply_type2(expr(((1, 2), 1), ((1, 3), 1)), 0)

    def test_position_bounds(self):
        with pytest.raises(IndexError):
            apply_type1(expr(((1, 2), 1)), 0)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            expr(((1, 2), 0))


class TestNormalize:
    def test_swap_then_cancel(self):
        w = expr(((1, 2), 1), ((3, 4), 1), ((1, 2), -1))
        assert normalize(w) == expr(((3, 4), 1))

    def test_linked_letters_block_cancellation(self):
        w = expr(((1, 2), 1), ((1, 3), 1), ((1, 2), -1))
        assert normalize(w).factors == w.factors
        assert bfs_min_length(encode(w)) == 3  # exhaustive move search agrees

    def test_empty(self):
        assert normalize(expr()) == expr()

    def test_invariant_under_type2(self):
        rng = random.Random(21)
        done = 0
        while done < 60:
            w = random_expression(rng, ALL_BASES_4, 5, 2)
            spots = [
                i
                for i in range(len(w) - 1)
                if commutes_in_brn(w.factors[i][0], w.factors[i + 1][0])
            ]
            if not spots:
                continue
            done += 1
            assert normalize(apply_type2(w, rng.choice(spots))) == normalize(w)

    def test_minimal_length_small_range(self):
        bases = [BandPair(i, j) for i, j in itertools.combinations(range(1, 4), 2)]
        for state in itertools.product(
            [(b, p) for b in bases for p in (-1, 1)], repeat=3
        ):
            w = RaagExpression(tuple(state))
            assert len(normalize(w)) == bfs_min_length(encode(w))

    def test_is_reduced(self):
        assert is_reduced(expr(((1, 2), 1), ((1, 3), 1)))
        assert not is_reduced(expr(((1, 2), 1), ((1, 2), -1)))


class TestEndsIn:
    def test_commuting_tail(self):
        assert ends_in(expr(((1, 2), 1), ((3, 4), 1)), BandPair(1, 2))

    def test_linked_tail_blocks(self):
        w = expr(((1, 2), 1), ((1, 3), 1))
        assert not ends_in(w, BandPair(1, 2))
        assert (1, 2) not in orbit_end_bases(encode(w))

    def test_already_last(self):
        assert ends_in(expr(((1, 3), 1), ((2, 4), 1)), BandPair(2, 4))

    def test_matches_exhaustive_orbit_search(self):
        rng = random.Random(22)
        for _ in range(80):
            w = random_expression(rng, ALL_BASES_4, 5, 2)
            expected = orbit_end_bases(encode(w))
            for tau in ALL_BASES_4:
                assert ends_in(w, tau) == (tau.indices() in expected)

    def test_witness(self):
        w = expr(((1, 2), 1), ((3, 4), 2))
        witness = ends_in_witness(w, BandPair(1, 2))
        assert witness.factors[-1][0] == BandPair(1, 2)
        assert encode(witness) in type2_orbit(encode(w))
        assert ends_in_witness(w, BandPair(1, 3)) is None


class TestExpressionToBraid:
    def test_single_letter(self):
        m = CoxeterDatum.constant(2, 3)
        assert expression_to_braid(expr(((1, 2), 1)), m).letters == ((1, 1),) * 3

    def test_empty(self):
        m = CoxeterDatum.constant(3, 3)
        assert expression_to_braid(expr(), m).letters == ()

    def test_two_letters(self):
        m = CoxeterDatum.constant(3, 3)
        got = expression_to_braid(expr(((1, 3), 1), ((1, 2), -1)), m)
        expected = (band_to_artin(BandPair(1, 3), 3) ** 3) * (
            ArtinWord.generator(3, 1, -1) ** 3
        )
        assert got.letters == expected.letters

    def test_zero_entry_rejected(self):
        m = CoxeterDatum.from_entries(3, {(1, 2): 3})
        with pytest.raises(ValueError):
            expression_to_braid(expr(((1, 3), 1)), m)

    def test_commuting_letters_commute_as_braids(self):
        m = CoxeterDatum.constant(4, 3)
        for tau, sigma in itertools.combinations(m.band_pairs(), 2):
            if not commutes_in_brn(tau, sigma):
                continue
            lhs = expression_to_braid(RaagExpression(((tau, 1), (sigma, 1))), m)
            rhs = expression_to_braid(RaagExpression(((sigma, 1), (tau, 1))), m)
            assert braid_equal(lhs, rhs)


class TestCanonicalEnumeration:
    def test_all_outputs_are_canonical_fixed_points(self):
        bases = [BandPair(1, 2), BandPair(3, 4), BandPair(1, 3)]
        for w in canonical_expressions(bases, 3, 1):
            assert normalize(w) == w

    def test_count_matches_quotiented_brute_force(self):
        matrix = CoxeterDatum.from_entries(4, {(1, 2): 3, (3, 4): 3, (1, 3): 4})
        bases = matrix.band_pairs()
        ours = sum(
            1 for w in canonical_expressions(bases, 2, 2) if w.factors
        )
        brute = reduced_class_count([b.indices() for b in bases], 2, 2)
        assert ours == brute

    @pytest.mark.parametrize("max_len, max_exp", [(2, 2), (3, 1)])
    def test_pruning_matches_filtered_full_enumeration(self, max_len, max_exp):
        exponents = [e for e in range(-max_exp, max_exp + 1) if e != 0]

        def every_expression(prefix):
            yield RaagExpression(prefix)
            if len(prefix) < max_len:
                for base in ALL_BASES_4:
                    for e in exponents:
                        yield from every_expression(prefix + ((base, e),))

        expected = [w for w in every_expression(()) if normalize(w) == w]
        assert list(canonical_expressions(ALL_BASES_4, max_len, max_exp)) == expected


class TestInjectivityScan:
    def test_small_full_matrix(self):
        report = injectivity_scan(CoxeterDatum.constant(3, 3), 2, 2)
        assert report.ok
        assert report.info["expressions"] > 0

    def test_single_generator_matrix(self):
        report = injectivity_scan(CoxeterDatum.from_entries(2, {(1, 2): 3}), 3, 2)
        assert report.ok
        # adjacent same-base factors always merge, so only length-1 survives
        assert report.info["expressions"] == 4

    def test_zero_entry_matrix(self):
        matrix = CoxeterDatum.from_entries(4, {(1, 2): 3, (3, 4): 3, (1, 3): 4})
        report = injectivity_scan(matrix, 2, 2)
        assert report.ok

    def test_scope_gate(self):
        from bandgroup.coxeter import ScopeError

        with pytest.raises(ScopeError):
            injectivity_scan(CoxeterDatum.constant(3, 2), 2, 2)


class TestProp9SpotCheck:
    def test_long_blocks_imply_ends_in(self):
        rng = random.Random(23)
        matrix = CoxeterDatum.constant(4, 3)
        bases = matrix.band_pairs()
        hits = 0
        for _ in range(150):
            w = normalize(random_expression(rng, bases, 3, 2))
            if not w.factors:
                continue
            for i in range(1, 5):
                image = CoxWord.single(i)
                for base, p in w.factors:
                    image = act_band_on_cox(image, base, p * matrix.entry(base))
                for pair in long_pairs(image):
                    if pair in bases:
                        hits += 1
                        assert ends_in(w, pair)
        assert hits > 50


class TestSyntax:
    def test_parse_and_format(self):
        w = parse_expression("b1.2 b3.4^-2 b1.3^1")
        assert w == expr(((1, 2), 1), ((3, 4), -2), ((1, 3), 1))
        assert format_expression(w) == "b1.2 b3.4^-2 b1.3"
        assert parse_expression(format_expression(w)) == w
        assert format_expression(expr()) == "1"

    def test_parse_rejects_zero_power(self):
        with pytest.raises(ValueError):
            parse_expression("b1.2^0")
