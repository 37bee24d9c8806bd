import itertools
import random

import pytest
from hypothesis import given, strategies as st

from bandgroup.braid import (
    ArtinWord,
    FreeWord,
    ImageLimitError,
    Permutation,
    artin_action_on_free,
    band_to_artin,
    braid_equal,
    format_braid_word,
    free_image,
    parse_braid_word,
    parse_free_word,
    permutation_image,
)
from bandgroup.coxeter import BandPair, commutes_in_brn, partition_to_matrix, set_partitions
from bandgroup.present import expand_letter_word, relations_thm2

from oracles import (
    compose_maps,
    referee_braid_equal,
    referee_free_image,
    transposition_map,
)


def word(n, *letters):
    return ArtinWord(n, tuple(letters))


def random_word(rng, n, max_len):
    length = rng.randint(0, max_len)
    return ArtinWord(
        n,
        tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)),
    )


class TestBandToArtin:
    def test_adjacent_band_is_generator(self):
        for n in range(2, 6):
            for i in range(1, n):
                assert band_to_artin(BandPair(i, i + 1), n).letters == ((i, 1),)

    def test_expansion_examples(self):
        assert band_to_artin(BandPair(1, 3), 3).letters == ((2, 1), (1, 1), (2, -1))
        assert band_to_artin(BandPair(1, 4), 4).letters == (
            (3, 1),
            (2, 1),
            (1, 1),
            (2, -1),
            (3, -1),
        )

    def test_band_must_fit(self):
        with pytest.raises(ValueError):
            band_to_artin(BandPair(1, 4), 3)


class TestFreeAction:
    def test_single_generator(self):
        endo = artin_action_on_free(word(2, (1, 1)))
        assert endo.images[0].letters == (1, 2, -1)
        assert endo.images[1].letters == (1,)

    def test_empty_word_is_identity(self):
        endo = artin_action_on_free(ArtinWord.identity(4))
        assert [w.letters for w in endo.images] == [(1,), (2,), (3,), (4,)]

    def test_two_step_substitution(self):
        # independent oracle: compose the one-letter endomorphism with itself
        one = artin_action_on_free(word(2, (1, 1)))
        expected = one.compose(one)
        direct = artin_action_on_free(word(2, (1, 1), (1, 1)))
        assert direct == expected
        assert direct.images[0].letters == (1, 2, 1, -2, -1)
        assert direct.images[1].letters == (1, 2, -1)

    def test_inverse_word_gives_identity_endo(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 5)
            w = random_word(rng, n, 10)
            round_trip = artin_action_on_free(w).compose(
                artin_action_on_free(w.inverse())
            )
            assert round_trip == artin_action_on_free(ArtinWord.identity(n))

    def test_free_image_matches_full_endo(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 5)
            w = random_word(rng, n, 12)
            endo = artin_action_on_free(w)
            for i in range(1, n + 1):
                assert free_image(w, i) == endo.images[i - 1]


class TestBraidEqual:
    def test_defining_relation(self):
        assert braid_equal(word(3, (1, 1), (2, 1), (1, 1)), word(3, (2, 1), (1, 1), (2, 1)))

    def test_generator_vs_inverse(self):
        assert not braid_equal(word(2, (1, 1)), word(2, (1, -1)))

    def test_band_triple_relation(self):
        a12 = band_to_artin(BandPair(1, 2), 3)
        a13 = band_to_artin(BandPair(1, 3), 3)
        a23 = band_to_artin(BandPair(2, 3), 3)
        assert braid_equal(a12 * a13, a13 * a23)
        assert braid_equal(a13 * a23, a23 * a12)

    def test_mismatched_strands_rejected(self):
        with pytest.raises(ValueError):
            braid_equal(ArtinWord.identity(3), ArtinWord.identity(4))

    def test_equivalence_compatible_with_product_and_inverse(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 5)
            u = random_word(rng, n, 8)
            pad = random_word(rng, n, 4)
            v = (u * pad) * pad.inverse()  # same element, different word
            w = random_word(rng, n, 8)
            assert braid_equal(u, v)
            assert braid_equal(u * w, v * w)
            assert braid_equal(w * u, w * v)
            assert braid_equal(u.inverse(), v.inverse())

    def test_defining_relations_all_strand_counts_to_5(self):
        for n in range(2, 6):
            bands = {
                (i, j): band_to_artin(BandPair(i, j), n)
                for i, j in itertools.combinations(range(1, n + 1), 2)
            }
            for (t, s) in itertools.combinations(bands, 2):
                tau, sigma = BandPair(*t), BandPair(*s)
                if commutes_in_brn(tau, sigma):
                    assert braid_equal(bands[t] * bands[s], bands[s] * bands[t])
            for i, j, k in itertools.combinations(range(1, n + 1), 3):
                assert braid_equal(
                    bands[(i, j)] * bands[(i, k)], bands[(j, k)] * bands[(i, j)]
                )
                assert braid_equal(
                    bands[(j, k)] * bands[(i, j)], bands[(i, k)] * bands[(j, k)]
                )


class TestKernelAgainstReferee:
    """The right-composition kernel against letter-by-letter substitution."""

    def test_images_match_referee(self):
        rng = random.Random(11)
        for n in range(2, 8):
            for _ in range(25):
                w = random_word(rng, n, 40)
                endo = artin_action_on_free(w)
                for i in range(1, n + 1):
                    assert endo.images[i - 1].letters == referee_free_image(w.letters, i)

    def test_equal_pairs_agree(self):
        rng = random.Random(12)
        for n in range(2, 8):
            for _ in range(10):
                u = random_word(rng, n, 30)
                letters = list(u.letters)
                for _ in range(rng.randint(1, 4)):
                    k, s = rng.randint(1, n - 1), rng.choice((1, -1))
                    pos = rng.randint(0, len(letters))
                    letters[pos:pos] = [(k, s), (k, -s)]
                v = ArtinWord(n, tuple(letters))
                assert braid_equal(u, v)
                assert referee_braid_equal(n, u.letters, v.letters)

    def test_thm2_relations_agree(self):
        for p in set_partitions(4):
            matrix = partition_to_matrix(p)
            for rel in relations_thm2(p):
                lhs = expand_letter_word(rel.lhs, matrix)
                rhs = expand_letter_word(rel.rhs, matrix)
                assert braid_equal(lhs, rhs)
                assert referee_braid_equal(4, lhs.letters, rhs.letters)

    def test_unequal_pairs_with_equal_permutations_agree(self):
        # Inserting sigma_k^2 keeps the permutation but changes the braid.
        rng = random.Random(13)
        for n in range(2, 8):
            for _ in range(10):
                u = random_word(rng, n, 30)
                letters = list(u.letters)
                k, s = rng.randint(1, n - 1), rng.choice((1, -1))
                pos = rng.randint(0, len(letters))
                letters[pos:pos] = [(k, s), (k, s)]
                v = ArtinWord(n, tuple(letters))
                assert permutation_image(u) == permutation_image(v)
                assert not braid_equal(u, v)
                assert not referee_braid_equal(n, u.letters, v.letters)

    def test_image_limit(self, monkeypatch):
        monkeypatch.setattr("bandgroup.braid.MAX_IMAGE_LETTERS", 50)
        w = parse_braid_word("a1.3^3 a2.4^3 a1.3^3", 4)
        with pytest.raises(ImageLimitError, match="exceeds 50 letters"):
            braid_equal(w, w * word(4, (1, 1), (1, -1)))
        assert braid_equal(w, w)

    def test_strand_limit(self):
        with pytest.raises(ValueError, match="at most 127 strands"):
            braid_equal(ArtinWord.identity(128), ArtinWord.identity(128))
        assert braid_equal(word(127, (126, 1)), word(127, (126, 1), (1, 1), (1, -1)))


class TestPermutation:
    def test_generator_images(self):
        assert permutation_image(word(3, (1, 1))).cycle_string() == "(1 2)"
        assert permutation_image(word(3, (1, 1), (1, 1))).is_identity()

    def test_band_permutation_via_composition_oracle(self):
        # (2 3) then (1 2) then (2 3), composed as functions
        expected = compose_maps(
            transposition_map(3, 2, 3),
            compose_maps(transposition_map(3, 1, 2), transposition_map(3, 2, 3)),
        )
        got = permutation_image(band_to_artin(BandPair(1, 3), 3))
        assert {x: got(x) for x in (1, 2, 3)} == expected
        assert got.cycle_string() == "(1 3)"

    def test_homomorphism(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 6)
            u, v = random_word(rng, n, 8), random_word(rng, n, 8)
            assert permutation_image(u * v) == permutation_image(u).after(
                permutation_image(v)
            )

    def test_parse_cycles(self):
        p = Permutation.parse("(1 2)(3 4)", 4)
        assert p.images == (2, 1, 4, 3)
        assert Permutation.parse("()", 3).is_identity()
        with pytest.raises(ValueError):
            Permutation.parse("(1 5)", 4)

    def test_inverse_and_involution(self):
        p = Permutation.parse("(1 2 3)", 3)
        assert p.after(p.inverse()).is_identity()
        assert not p.is_involution()
        assert Permutation.parse("(1 3)", 3).is_involution()


class TestSyntax:
    def test_parse_examples(self):
        w = parse_braid_word("s1 s2'", 3)
        assert w.letters == ((1, 1), (2, -1))
        assert parse_braid_word("a1.3", 3).letters == ((2, 1), (1, 1), (2, -1))
        assert parse_braid_word("a1.3^2", 3).letters == (
            band_to_artin(BandPair(1, 3), 3) ** 2
        ).letters
        assert parse_braid_word("s1'^3", 2).letters == ((1, -1),) * 3
        assert parse_braid_word("", 4).letters == ()

    def test_parse_rejects_garbage(self):
        for bad in ("x1", "s0 s-1", "a1", "a1.2.3", "s1^^2"):
            with pytest.raises(ValueError):
                parse_braid_word(bad, 4)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 6)
            w = random_word(rng, n, 15)
            assert parse_braid_word(format_braid_word(w), n).letters == w.letters

    @given(st.lists(st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0), max_size=30))
    def test_free_word_always_reduced(self, letters):
        w = FreeWord.from_letters(letters)
        assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))
        assert (w * w.inverse()).is_identity()

    def test_parse_free_word(self):
        assert parse_free_word("t1 t2' t1^2").letters == (1, -2, 1, 1)
        assert parse_free_word("t1 t1'").is_identity()
