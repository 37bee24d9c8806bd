import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from bandgroup.braid import (
    _NEG,
    _SELF,
    _SIDE_LETTERS,
    _WINDOW,
    MAX_IMAGE_LETTERS,
    MAX_WORD_LETTERS,
    ArtinWord,
    BraidDecider,
    FreeWord,
    ImageLimitError,
    Permutation,
    _act,
    _conj,
    _decode,
    _dynnikov,
    _encode,
    _free_images,
    _mul,
    _permutation,
    _relabel,
    _syllables,
    band_power,
    band_to_artin,
    braid_equal,
    free_image,
    parse_braid_word,
    parse_cox_word,
    parse_free_word,
    permutation_image,
)
from bandgroup.coxeter import BandPair, commutes_in_brn, partition_to_matrix, set_partitions
from bandgroup.present import expand_letter_word, relations_thm2

import test_acceptance as acceptance
from oracles import (
    compose_maps,
    referee_braid_equal,
    reduce_word,
    referee_free_image,
    referee_hurwitz,
    referee_left_normal_form,
    referee_permutation,
    substitute_artin_letter,
    transposition_map,
)


def _inverse(x, neg):
    """The inverse of an encoded reduced word."""
    return x[::-1].translate(neg)


def word(n, *letters):
    return ArtinWord(n, tuple(letters))


def free_images(w):
    """The images of (t_1, .., t_n) under the right action of w."""
    return [free_image(w, i) for i in range(1, w.n + 1)]


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
        images = free_images(word(2, (1, 1)))
        assert images[0].letters == (1, 2, -1)
        assert images[1].letters == (1,)

    def test_empty_word_is_identity(self):
        images = free_images(ArtinWord(4))
        assert [w.letters for w in images] == [(1,), (2,), (3,), (4,)]

    def test_two_step_substitution(self):
        # independent oracle: substitute the one-letter rules twice, letter by letter
        w = word(2, (1, 1), (1, 1))
        direct = free_images(w)
        referee = [referee_free_image(w.letters, i) for i in (1, 2)]
        assert [img.letters for img in direct] == referee
        assert direct[0].letters == (1, 2, 1, -2, -1)
        assert direct[1].letters == (1, 2, -1)

    def test_inverse_word_gives_identity_endo(self):
        # the referee's substitution of w^-1 undoes the kernel's image under w
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 5)
            w = random_word(rng, n, 10)
            for i, image in enumerate(free_images(w), start=1):
                round_trip = list(image.letters)
                for k, sign in w.inverse().letters:
                    round_trip = substitute_artin_letter(round_trip, k, sign)
                assert round_trip == [i]
            assert [img.letters for img in free_images(w * w.inverse())] == [
                (i,) for i in range(1, n + 1)
            ]

    def test_free_image_matches_full_endo(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 5)
            w = random_word(rng, n, 12)
            images = _free_images(w)
            for i in range(1, n + 1):
                assert free_image(w, i).letters == _decode(images[i - 1])


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
            braid_equal(ArtinWord(3), ArtinWord(4))

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
                images = free_images(w)
                for i in range(1, n + 1):
                    assert images[i - 1].letters == referee_free_image(w.letters, i)

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

    def test_braid_equal_runs_the_decider(self, monkeypatch):
        built = []

        def counted(word, k):
            built.append(word)
            return _dynnikov(word, k)

        monkeypatch.setattr("bandgroup.braid._dynnikov", counted)
        self.test_equal_pairs_agree()
        self.test_unequal_pairs_with_equal_permutations_agree()
        # the 60 unequal pairs keep their permutations, so both sides reach the coordinates
        assert len(built) >= 120

    def test_image_limit(self, monkeypatch):
        monkeypatch.setattr("bandgroup.braid.MAX_IMAGE_LETTERS", 50)
        w = parse_braid_word("a1.3^3 a2.4^3 a1.3^3", 4)
        v = w * word(4, (1, 1), (1, -1))
        with pytest.raises(ImageLimitError, match="exceeds 50 letters"):
            free_image(v, 1)
        with pytest.raises(ImageLimitError, match="exceeds 50 letters"):
            free_images(v)
        assert braid_equal(w, v)

    def test_strand_limit(self):
        with pytest.raises(ValueError, match="at most 127 strands"):
            braid_equal(ArtinWord(128), ArtinWord(128))
        assert braid_equal(word(127, (126, 1)), word(127, (126, 1), (1, 1), (1, -1)))


def letter_loop(words, letters, neg):
    """The Hurwitz move of each Artin letter in turn, on encoded words."""
    words = list(words)
    for k, s in letters:
        a, b = words[k - 1], words[k]
        if s > 0:
            words[k - 1], words[k] = _mul(_mul(a, b, neg), _inverse(a, neg), neg), a
        else:
            words[k - 1], words[k] = b, _mul(_mul(_inverse(b, neg), a, neg), b, neg)
    return words


def random_reduced(rng, n, length, involutive):
    """A random reduced word of the given length over n letters, as signed indices."""
    out = []
    while len(out) < length:
        x = rng.randint(1, n) * (1 if involutive else rng.choice((1, -1)))
        if not (out and out[-1] == (x if involutive else -x)):
            out.append(x)
    return out


def entry_tuples(rng, n, involutive):
    """Tuples of entries: the generators, random words with empty entries,
    and conjugates u x u^-1, which are not cyclically reduced."""
    yield [(i,) for i in range(1, n + 1)]
    for _ in range(2):
        yield [tuple(random_reduced(rng, n, rng.choice((0, 0, 1, 3, 6)), involutive))
               for _ in range(n)]
        tup = []
        for _ in range(n):
            u = random_reduced(rng, n, rng.randint(1, 3), involutive)
            inv = [x if involutive else -x for x in reversed(u)]
            x = rng.randint(1, n) * (1 if involutive else rng.choice((1, -1)))
            tup.append(tuple(reduce_word(u + [x] + inv, involutive)))
        yield tup


class TestSyllableStep:
    """One closed-form step per band power against the letters one by one."""

    @pytest.mark.parametrize("involutive", [False, True], ids=["free", "coxeter"])
    def test_step_matches_letter_loop_and_referee(self, involutive):
        neg = _SELF if involutive else _NEG
        rng = random.Random(31)
        exponents = [e for m in range(1, 7) for e in (m, -m)]
        for n in range(2, 9):
            tuples = list(entry_tuples(rng, n, involutive))
            for i, j in itertools.combinations(range(1, n + 1), 2):
                for e in exponents:
                    letters = band_power(BandPair(i, j), e, n)[::-1]
                    for entries in tuples:
                        words = [_encode(x) for x in entries]
                        got = _act(list(words), [(i, j, e)], MAX_IMAGE_LETTERS, neg)
                        assert got == letter_loop(words, letters, neg)
                        if n <= 5 or abs(e) <= 2:
                            assert [_decode(x) for x in got] == referee_hurwitz(
                                entries, letters, involutive)

    def test_step_gives_the_free_images_of_the_band_power(self):
        for n in range(2, 9):
            for i, j in itertools.combinations(range(1, n + 1), 2):
                for e in (1, -2, 3, -5, 6):
                    letters = band_power(BandPair(i, j), e, n)
                    images = _act([_encode((m,)) for m in range(1, n + 1)], [(i, j, e)],
                                  MAX_IMAGE_LETTERS, _NEG)
                    assert [_decode(x) for x in images] == [
                        referee_free_image(letters, m) for m in range(1, n + 1)]

    @pytest.mark.parametrize("e", [1001, -1000])
    def test_large_exponent(self, e):
        rng = random.Random(32)
        for involutive in (False, True):
            neg = _SELF if involutive else _NEG
            for n, i, j in ((2, 1, 2), (6, 2, 5)):
                letters = band_power(BandPair(i, j), e, n)[::-1]
                for entries in entry_tuples(rng, n, involutive):
                    words = [_encode(x) for x in entries]
                    got = _act(list(words), [(i, j, e)], MAX_IMAGE_LETTERS, neg)
                    assert got == letter_loop(words, letters, neg)

    def test_involutive_power_that_squares_to_one(self):
        # P = s1 s2 s1 is an involution: even powers of P are trivial
        words = [_encode((1,)), _encode((2, 1))]
        for e in range(-8, 9):
            letters = band_power(BandPair(1, 2), e, 2)
            assert _act(list(words), [(1, 2, e)], MAX_IMAGE_LETTERS, _SELF) == letter_loop(
                words, letters, _SELF)

    def test_power_is_bounded_before_it_is_built(self):
        words = [_encode((1,)), _encode((2,))]
        with pytest.raises(ImageLimitError, match="exceeds 100 letters"):
            _act(words, [(1, 2, 10 ** 9)], 100, _NEG)

    def test_runs_merge_into_one_syllable(self):
        letters = ((1, 1), (1, 1), (2, -1), (2, 1), (1, 1), (3, -1))
        assert _syllables(letters) == ((1, 2, 3), (3, 4, -1))
        assert _syllables(()) == ()

    def test_parity_permutation_matches_the_letters(self):
        rng = random.Random(33)
        for n in range(2, 9):
            for _ in range(40):
                word = []
                for _ in range(rng.randint(0, 6)):
                    i, j = sorted(rng.sample(range(1, n + 1), 2))
                    word.append((i, j, rng.choice((1, -1)) * rng.randint(1, 5)))
                letters = [x for i, j, e in word for x in band_power(BandPair(i, j), e, n)]
                assert _permutation(tuple(word), n) == referee_permutation(n, letters)
                assert list(permutation_image(ArtinWord(n, letters)).images) == \
                    referee_permutation(n, letters)

    @pytest.mark.parametrize("cancel", [0, 1, _WINDOW - 1, _WINDOW, _WINDOW + 1, 200])
    def test_mul_cancels_across_the_window(self, cancel):
        rng = random.Random(34 + cancel)
        for involutive in (False, True):
            neg = _SELF if involutive else _NEG
            for _ in range(20):
                u = random_reduced(rng, 5, cancel, involutive)
                inv = [x if involutive else -x for x in reversed(u)]
                head = random_reduced(rng, 5, rng.randint(0, 3), involutive)
                tail = random_reduced(rng, 5, rng.randint(0, 3), involutive)
                x = reduce_word(head + u, involutive)
                y = reduce_word(inv + tail, involutive)
                assert _decode(_mul(_encode(tuple(x)), _encode(tuple(y)), neg)) == tuple(
                    reduce_word(x + y, involutive))

    @pytest.mark.parametrize("cancel", [0, 1, _WINDOW - 1, _WINDOW, _WINDOW + 1, 200])
    def test_conj_cancels_on_either_side(self, cancel):
        # g = h k with |k| = cancel; x cancels k wholly (x = k^-1), only from
        # the left (k^-1 y), only from the right (y k), from both (k^-1 y k)
        # or not at all (y), for a seeded y drawn until exactly that cancels
        rng = random.Random(35 + cancel)
        for involutive in (False, True):
            neg = _SELF if involutive else _NEG

            def inverse(u):
                return [y if involutive else -y for y in reversed(u)]

            def junction(u, v):
                c = 0
                while c < min(len(u), len(v)) and u[-1 - c] == (v[c] if involutive else -v[c]):
                    c += 1
                return c

            for _ in range(10):
                g = random_reduced(rng, 5, cancel + 2, involutive)
                k = g[len(g) - cancel:]
                g_word = _encode(tuple(g))
                g_inv = _inverse(g_word, neg)
                cases = [inverse(k)]
                for left, right in ((True, False), (False, True), (True, True), (False, False)):
                    while True:
                        y = random_reduced(rng, 5, rng.randint(1, 4), involutive)
                        x = (inverse(k) if left else []) + y + (k if right else [])
                        if (reduce_word(x, involutive) == x
                                and junction(g, x) == (cancel if left else 0)
                                and junction(x, inverse(g)) == (cancel if right else 0)):
                            break
                    cases.append(x)
                for x in cases:
                    got = _conj(g_word, g_inv, _encode(tuple(x)), neg)
                    assert _decode(got) == tuple(reduce_word(g + x + inverse(g), involutive))
                    assert _conj(b"", b"", _encode(tuple(x)), neg) == _encode(tuple(x))
                assert _conj(g_word, g_inv, b"", neg) == b""


def equal_rewrite(rng, n, letters):
    """Insert x x^-1 pairs and braid relations: the same braid, another word."""
    letters = list(letters)
    for _ in range(rng.randint(1, 4)):
        k, s = rng.randint(1, n - 1), rng.choice((1, -1))
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = [(k, s), (k, -s)]
    if n >= 3:
        k = rng.randint(1, n - 2)
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = [(k, 1), (k + 1, 1), (k, 1), (k + 1, -1), (k, -1), (k + 1, -1)]
    if n >= 4:
        i = rng.randint(1, n - 3)
        j = rng.randint(i + 2, n - 1)
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = [(i, 1), (j, 1), (i, -1), (j, -1)]
    return ArtinWord(n, tuple(letters))


def long_word_pair(k, equal):
    """(a1.3^3 a2.4^3)^k on 4 strands against a rewrite or the reverse."""
    factors = ["a1.3^3", "a2.4^3"] * k
    left = parse_braid_word(" ".join(factors), 4)
    if equal:
        factors[1] = "s2' s3^3 s2"  # a_{2,4}^3
    else:
        factors = ["a2.4^3", "a1.3^3"] * k
    return left, parse_braid_word(" ".join(factors), 4)


class TestNormalForm:
    """The Garside referee against the free action, and the Dynnikov coordinates on long pairs."""

    def test_factors_are_proper_and_left_weighted(self):
        rng = random.Random(21)
        for n in range(2, 8):
            delta = tuple(range(n - 1, -1, -1))
            for _ in range(20):
                _, factors = referee_left_normal_form(random_word(rng, n, 30))
                for a in factors:
                    assert sorted(a) == list(range(n))
                    assert a not in (tuple(range(n)), delta)
                for a, b in zip(factors, factors[1:]):
                    b_inv = [b.index(v) for v in range(n)]
                    start = {k for k in range(1, n) if b_inv[k - 1] > b_inv[k]}
                    finish = {k for k in range(1, n) if a[k - 1] > a[k]}
                    assert start <= finish

    def test_seeded_pairs_match_referee(self):
        rng = random.Random(22)
        for n in range(2, 8):
            for _ in range(15):
                u = random_word(rng, n, 25)
                v = equal_rewrite(rng, n, u.letters)
                assert referee_braid_equal(n, u.letters, v.letters)
                assert referee_left_normal_form(u) == referee_left_normal_form(v)
                # sigma_k^2 keeps the permutation but changes the braid
                k, s = rng.randint(1, n - 1), rng.choice((1, -1))
                pos = rng.randint(0, len(u.letters))
                w = ArtinWord(n, u.letters[:pos] + ((k, s), (k, s)) + u.letters[pos:])
                assert permutation_image(w) == permutation_image(u)
                assert not referee_braid_equal(n, u.letters, w.letters)
                assert referee_left_normal_form(u) != referee_left_normal_form(w)

    @pytest.mark.parametrize(
        "criterion",
        [
            acceptance.test_criterion_1_band_presentation_soundness,
            acceptance.test_criterion_5_commutation_presentation_and_injectivity_scan,
            acceptance.test_criterion_6_partition_presentations_sound,
            acceptance.test_criterion_7_combing_families_and_derived_identities,
            acceptance.test_criterion_8_coset_closure_tables,
            acceptance.test_criterion_9_general_exponent_families,
        ],
        ids=lambda f: f.__name__.split("_")[2],
    )
    def test_acceptance_relations_decided_by_normal_form(self, monkeypatch, criterion):
        calls = []

        def counted(word, k):
            calls.append(word)
            return _dynnikov(word, k)

        monkeypatch.setattr("bandgroup.braid._dynnikov", counted)
        criterion()
        assert calls

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_long_words_both_ways(self, k):
        for equal in (True, False):
            u, v = long_word_pair(k, equal)
            assert permutation_image(u) == permutation_image(v)
            assert (referee_left_normal_form(u) == referee_left_normal_form(v)) is equal
            coordinates = [_dynnikov(_syllables(w.letters), 4) for w in (u, v)]
            assert (coordinates[0] == coordinates[1]) is equal
            assert braid_equal(u, v) is equal
            if k <= 4:  # k = 5 images pass MAX_IMAGE_LETTERS
                images = _free_images(u), _free_images(v)
                assert (images[0] == images[1]) is equal


class TestDynnikov:
    """The Dynnikov coordinates against the free-action and Garside referees."""

    @staticmethod
    def _same(u, v, k):
        return _dynnikov(_syllables(u), k) == _dynnikov(_syllables(v), k)

    def test_short_words_match_the_free_action(self):
        rng = random.Random(35)
        for k in range(2, 8):
            for _ in range(40):
                u = random_word(rng, k, 25).letters
                v = equal_rewrite(rng, k, u).letters
                assert referee_braid_equal(k, u, v)
                assert self._same(u, v, k)
                # sigma_i^2 keeps the permutation but changes the braid
                i, s = rng.randint(1, k - 1), rng.choice((1, -1))
                pos = rng.randint(0, len(u))
                w = u[:pos] + ((i, s), (i, s)) + u[pos:]
                assert referee_permutation(k, w) == referee_permutation(k, u)
                assert not referee_braid_equal(k, u, w)
                assert not self._same(u, w, k)
                x = random_word(rng, k, 6).letters
                assert self._same(u, x, k) is referee_braid_equal(k, u, x)

    def test_the_last_generator_and_the_full_twist_move_the_loops(self):
        # on k punctures alone the loops would not see these: the extra
        # puncture is what makes them visible
        for k in range(2, 7):
            loops = _dynnikov((), k)
            assert loops == [0] * (k - 1) + [-1] * (k - 1)
            assert _dynnikov(((k - 1, k, 2),), k) != loops
            assert _dynnikov(((k - 1, k, -2),), k) != loops
            twist = tuple((i, i + 1, 1) for i in range(1, k)) * k
            assert _dynnikov(twist, k) != loops

    @pytest.mark.parametrize("k", [4, 16, 127])
    def test_long_pairs_match_the_normal_form(self, k):
        # 2048-letter words, too long for the free-action referee: a swap of
        # two far-commuting letters keeps the braid, and one flipped sign
        # changes it but keeps the permutation
        rng = random.Random(k)
        u = tuple((rng.randint(1, k - 1), rng.choice((1, -1))) for _ in range(MAX_WORD_LETTERS))
        far = [p for p in range(len(u) - 1) if abs(u[p][0] - u[p + 1][0]) >= 2]
        p = rng.choice(far)
        swapped = u[:p] + (u[p + 1], u[p]) + u[p + 2:]
        q = rng.randrange(len(u))
        flipped = u[:q] + ((u[q][0], -u[q][1]),) + u[q + 1:]
        normal_form = referee_left_normal_form(ArtinWord(k, u))
        for w, equal in ((swapped, True), (flipped, False)):
            assert (referee_left_normal_form(ArtinWord(k, w)) == normal_form) is equal
            assert self._same(u, w, k) is equal
            decider = BraidDecider()
            assert decider.equal(_syllables(u), _syllables(w)) is equal
            assert decider.counters()["oracle_updates"] == sum(
                abs(e) for side in (u, w) for _, _, e in _syllables(side))
            assert decider.counters()["oracle_perm_rejections"] == 0


def test_a_long_band_power_takes_its_updates_in_flat_memory():
    # a_14^(10^6) is 10^6 + 4 updates; a list of them would take some 8 MB
    tracemalloc.start()
    try:
        coordinates = _dynnikov(((1, 4, 10 ** 6),), 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert coordinates == _dynnikov(((1, 4, 10 ** 6 - 1), (1, 4, 1)), 4)


def _inverse_word(word):
    return tuple((i, j, -e) for i, j, e in reversed(word))


def support_pairs(rng, n, words):
    """Seeded (u, v, equal) pairs of syllable words, each on a support of n strands that is no interval.

    u is a random word on the bands of the support.  Its equal partners
    insert a relation of Birman, Ko and Lee, a_st a_rs = a_rt a_st =
    a_rs a_rt for r < s < t, or x x^-1, or swap two adjacent commuting
    syllables (or insert the commutator of two commuting bands); its
    unequal partner inserts the square of a band, which keeps the
    permutation and changes the braid.  All partners share u, and they
    may touch strands of the support that u does not.
    """
    for _ in range(words):
        while True:
            support = sorted(rng.sample(range(1, n + 1), rng.choice((3, 4))))
            if support[-1] - support[0] >= len(support):
                break
        bands = list(itertools.combinations(support, 2))

        def syllable():
            return (*rng.choice(bands), rng.choice((1, -1, 1, -1, 2, -3)))

        def insert(word, block):
            pos = rng.randint(0, len(word))
            return word[:pos] + tuple(block) + word[pos:]

        u = tuple(syllable() for _ in range(rng.randint(0, 3)))
        r, s, t = sorted(rng.sample(support, 3))
        products = [((s, t, 1), (r, s, 1)), ((r, t, 1), (s, t, 1)), ((r, s, 1), (r, t, 1))]
        x, y = rng.sample(products, 2)
        yield u, insert(u, x + _inverse_word(y)), True
        i, j, e = syllable()
        yield u, insert(u, ((i, j, e), (i, j, -e))), True
        swaps = [m for m in range(len(u) - 1)
                 if commutes_in_brn(BandPair(*u[m][:2]), BandPair(*u[m + 1][:2]))]
        if swaps:
            m = rng.choice(swaps)
            yield u, u[:m] + (u[m + 1], u[m]) + u[m + 2:], True
        elif len(support) == 4:
            a, b, c, d = support
            x, y = rng.choice((((a, b), (c, d)), ((a, d), (b, c))))
            yield u, insert(u, ((*x, 1), (*y, 1), (*x, -1), (*y, -1))), True
        i, j, _ = syllable()
        yield u, insert(u, ((i, j, rng.choice((2, -2))),)), False


class TestRelabelledDecider:
    """Pairs decided on the strands they touch, against the full-strand referee."""

    @staticmethod
    def _cases():
        rng = random.Random(41)
        cases = []
        for n in range(5, 9):
            pairs = list(support_pairs(rng, n, 25))
            expansions = [
                tuple(x for i, j, e in word for x in band_power(BandPair(i, j), e, n))
                for u, v, _ in pairs for word in (u, v)
            ]
            for (u, v, equal), lhs, rhs in zip(pairs, expansions[::2], expansions[1::2]):
                assert referee_braid_equal(n, lhs, rhs) is equal
                if not equal:
                    assert referee_permutation(n, lhs) == referee_permutation(n, rhs)
            cases.append((n, pairs))
        return cases

    def test_pairs_match_referee(self, monkeypatch):
        cases = self._cases()
        verdicts = [e for _, pairs in cases for _, _, e in pairs]
        assert verdicts.count(True) >= 200 and verdicts.count(False) >= 50
        calls = []

        def counted(word, k):
            calls.append(word)
            return _dynnikov(word, k)

        monkeypatch.setattr("bandgroup.braid._dynnikov", counted)
        for n, pairs in cases:
            decider = BraidDecider()
            for u, v, equal in pairs:
                assert decider.equal(u, v) is equal
                assert decider.equal(v, u) is equal
            counters = decider.counters()
            assert counters["oracle_perm_rejections"] == 0
            # asked again, every pair is answered from the verdicts kept
            for u, v, equal in pairs:
                assert decider.equal(u, v) is equal
            assert decider.counters() == counters
            # two coordinate vectors per relabelled pair of unequal words
            relabelled = {_relabel(x, y) for u, v, _ in pairs for x, y in ((u, v), (v, u))}
            assert counters["oracle_distinct"] == len(relabelled)
            assert len(calls) == 2 * sum(x != y for _, x, y in relabelled) > 0
            calls.clear()

    def test_permutation_filter_is_counted(self):
        decider = BraidDecider()
        assert not decider.equal(((2, 5, 1),), ((2, 5, -1), (3, 5, 1)))
        assert not decider.equal(((1, 3, 1),), ((1, 3, -1), (2, 3, 1)))
        assert decider.counters() == {
            "oracle_updates": 0, "oracle_bits": 0,
            "oracle_distinct": 1, "oracle_perm_rejections": 1}

    def test_pairs_are_decided_on_any_strands(self):
        # the decider takes no strand count: a pair is relabelled onto the
        # four strands it touches, so the byte encoding's 127 plays no part
        far = 10 ** 6
        decider = BraidDecider()
        assert decider.equal(((1, far, 1), (2, 3, 1)), ((2, 3, 1), (1, far, 1)))
        # pure braids that do not commute, so the coordinates decide them
        assert not decider.equal(((2, 3, 2), (3, far, 2)), ((3, far, 2), (2, 3, 2)))
        assert decider.counters()["oracle_perm_rejections"] == 0

    def test_handover_past_the_letter_cap_is_refused(self, monkeypatch):
        # a_37^e has 7|e| Artin letters on 8 strands but |e| on the two
        # strands it touches, which is what the coordinates would take
        def refuse(word, k):
            raise AssertionError("the coordinates were computed")

        monkeypatch.setattr("bandgroup.braid._dynnikov", refuse)
        e = _SIDE_LETTERS + 2
        decider = BraidDecider()
        with pytest.raises(ImageLimitError, match=f"a side has {e} Artin letters on 2 "
                                                  f"strands, more than the {_SIDE_LETTERS}"):
            decider.equal(((3, 7, e),), ((3, 7, -e),))
        # either side past the cap is refused
        with pytest.raises(ImageLimitError, match=f"a side has {e} Artin letters on 2 "):
            decider.equal(((3, 7, 2),), ((3, 7, e),))
        assert decider.counters()["oracle_updates"] == 0
        taken = []
        monkeypatch.setattr("bandgroup.braid._dynnikov",
                            lambda word, k: taken.append((word, k)) or [len(taken)])
        e = _SIDE_LETTERS
        assert not decider.equal(((3, 7, e),), ((3, 7, -e),))
        assert taken == [(((1, 2, e),), 2), (((1, 2, -e),), 2)]
        assert decider.counters()["oracle_updates"] == 2 * e


class TestPermutation:
    def test_generator_images(self):
        assert permutation_image(word(3, (1, 1))).cycle_string() == "(1 2)"
        assert permutation_image(word(3, (1, 1), (1, 1))) == Permutation((1, 2, 3))

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
            pu, pv = permutation_image(u), permutation_image(v)
            assert permutation_image(u * v).images == tuple(pu(pv(x)) for x in range(1, n + 1))

    def test_parse_cycles(self):
        p = Permutation.parse("(1 2)(3 4)", 4)
        assert p.images == (2, 1, 4, 3)
        assert Permutation.parse("()", 3) == Permutation((1, 2, 3))
        with pytest.raises(ValueError):
            Permutation.parse("(1 5)", 4)

    def test_from_cycles_matches_composing_full_permutations(self):
        # the cycles overlap, so the order of composition matters
        rng = random.Random(12)
        for _ in range(60):
            d = rng.randint(1, 9)
            cycles = [rng.sample(range(1, d + 1), rng.randint(1, d)) for _ in range(rng.randint(0, 5))]
            expected = {x: x for x in range(1, d + 1)}
            for cyc in cycles:
                one = {x: x for x in range(1, d + 1)}
                one.update(zip(cyc, cyc[1:] + cyc[:1]))
                expected = compose_maps(expected, one)
            got = Permutation.from_cycles(d, cycles)
            assert got.images == tuple(expected[x] for x in range(1, d + 1))

    def test_inverse_and_involution(self):
        p = Permutation.parse("(1 2 3)", 3)
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

    def test_parse_rejects_letters_off_the_strands(self):
        for bad in ("s4", "s0", "a1.5"):
            with pytest.raises(ValueError):
                parse_braid_word(bad, 4)

    def test_word_length_is_bounded_before_building(self):
        assert len(parse_braid_word(f"s1^{MAX_WORD_LETTERS}", 3)) == MAX_WORD_LETTERS
        bands = MAX_WORD_LETTERS // 5
        rest = MAX_WORD_LETTERS - 5 * bands
        w = parse_braid_word(f"a1.4'^{bands} s2^-{rest}", 4)
        assert len(w) == MAX_WORD_LETTERS
        for bad in (f"s1^{MAX_WORD_LETTERS + 1}", f"s1 s1^-{MAX_WORD_LETTERS}",
                    f"a1.4^{bands} s2^{rest + 1}", "s1^1000000000"):
            with pytest.raises(ValueError, match=f"at most {MAX_WORD_LETTERS} letters"):
                parse_braid_word(bad, 4)

    @given(
        st.lists(st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0), max_size=30),
        st.lists(st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0), max_size=30),
    )
    def test_free_word_always_reduced(self, letters, more):
        w, v = FreeWord(tuple(reduce_word(letters))), FreeWord(tuple(reduce_word(more)))
        assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))
        x, y = _encode(w.letters), _encode(v.letters)
        assert _mul(x, _inverse(x, _NEG), _NEG) == b""
        assert list(_decode(_mul(x, y, _NEG))) == reduce_word(letters + more)
        # the same products over involutive letters, each its own inverse
        cw = reduce_word(map(abs, letters), involutive=True)
        cv = reduce_word(map(abs, more), involutive=True)
        cx, cy = _encode(tuple(cw)), _encode(tuple(cv))
        assert _mul(cx, _inverse(cx, _SELF), _SELF) == b""
        assert list(_decode(_mul(cx, cy, _SELF))) == reduce_word(cw + cv, involutive=True)

    def test_parse_free_word(self):
        assert _decode(parse_free_word("t1 t2' t1^2")) == (1, -2, 1, 1)
        assert parse_free_word("t1 t1'") == b""
        # letter indices the encoding cannot hold are refused at their token
        assert _decode(parse_free_word("t127' t01^0 t1")) == (-127, 1)
        with pytest.raises(ValueError, match="above 127"):
            parse_free_word("t1 t128^0")
        with pytest.raises(ValueError, match="letter index 0 is not allowed"):
            parse_free_word("t1 t0'")

    @pytest.mark.parametrize("involutive", [False, True])
    def test_parsers_match_the_reduction_referee(self, monkeypatch, involutive):
        """Seeded texts, read in slices of a few characters, against reduce_word.

        The tokens are drawn from few letters, with powers for free words, so
        long stretches cancel across the junctions of tokens and of slices.
        """
        monkeypatch.setattr("bandgroup.braid._SLICE", 5)
        parse = parse_cox_word if involutive else parse_free_word
        rng = random.Random(29)
        for _ in range(400):
            letters, tokens = [], []
            for _ in range(rng.randint(0, 30)):
                # plain tokens are looked up in the letter table, zero-padded
                # and powered ones go through the regex, interleaved
                x, pad = rng.randint(1, 3), rng.choice(["", "0"])
                if involutive:
                    tokens.append(f"s{pad}{x}")
                    letters.append(x)
                    continue
                e, prime = rng.choice([1, 1, rng.randint(-4, 4)]), rng.random() < 0.5
                mark = "'" if prime else ""
                tokens.append(f"t{pad}{x}{mark}" + (f"^{e}" if e != 1 else rng.choice(["", "^1"])))
                letters += [-x if prime != (e < 0) else x] * abs(e)
            spaces = [rng.choice([" ", "  ", "\n", "\t "]) for _ in tokens]
            text = "".join(f"{space}{token}" for space, token in zip(spaces, tokens))
            assert list(_decode(parse(text))) == reduce_word(letters, involutive)

    @pytest.mark.parametrize("involutive, text, limit, message", [
        (True, "s1'", None, "cannot parse Coxeter-word token \"s1'\""),
        (True, "s1^2", None, "cannot parse Coxeter-word token 's1^2'"),
        (True, "t1", None, "cannot parse Coxeter-word token 't1'"),
        (False, "s1", None, "cannot parse free-word token 's1'"),
        (False, "t0", None, "letter index 0 is not allowed"),
        (False, "t128^0", None, "letter indices above 127 are not supported"),
        (True, "s128", None, "letter indices above 127 are not supported"),
        # the budget counts letters before they cancel
        (False, "t1 t1'", 1, "a free word may have at most 1 letters"),
        (False, "t2^3 t2'^3", 5, "a free word may have at most 5 letters"),
        (False, "t2^2 t2 t2' t2'^2", 5, "a free word may have at most 5 letters"),
        (True, "s1 s1", 1, "a Coxeter word may have at most 1 letters"),
        (True, "s1 s02 s2 s1", 3, "a Coxeter word may have at most 3 letters"),
    ])
    def test_every_refusal_of_the_reader(self, involutive, text, limit, message):
        parse = parse_cox_word if involutive else parse_free_word
        with pytest.raises(ValueError) as refused:
            parse(text) if limit is None else parse(text, limit)
        assert str(refused.value) == message
        if limit is not None:  # one more letter is enough, and all of them cancel
            assert parse(text, limit + 1) == b""

    def test_free_word_length_is_bounded_before_building(self):
        for bad in (f"t1^{MAX_IMAGE_LETTERS + 1}", f"t1 t2'^-{MAX_IMAGE_LETTERS}", "t1^1000000000"):
            with pytest.raises(ValueError, match=f"at most {MAX_IMAGE_LETTERS} letters"):
                parse_free_word(bad)
