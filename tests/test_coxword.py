import itertools
import random

import pytest
from hypothesis import given, strategies as st

from bandgroup.braid import ImageLimitError, _decode, band_to_artin, parse_cox_word
from bandgroup.cli import random_cox_word
from bandgroup.coxeter import BandPair
from bandgroup.coxword import (
    CoxWord,
    act_band_on_cox,
    check_prop7,
    check_prop_trans,
    has_long_subword,
    is_critical,
    is_long,
    jk_factorize,
    long_pairs,
)
from bandgroup.coxword import _band_images
from oracles import (
    reduce_word,
    referee_act_band_on_cox,
    referee_apply_artin_to_cox,
    referee_long_pairs,
)


def w(*letters):
    return CoxWord(tuple(letters))


def alternating(a, b, count):
    return tuple(a if t % 2 == 0 else b for t in range(count))


def reduced(raw):
    """The reduced word of a sequence of involutive letters."""
    return CoxWord(tuple(reduce_word(raw, involutive=True)))


def text(letters):
    return " ".join(f"s{x}" for x in letters)


class TestReduce:
    def test_examples(self):
        assert parse_cox_word("s1 s2 s2 s1") == b""
        assert _decode(parse_cox_word("s1 s2 s1")) == (1, 2, 1)
        assert _decode(parse_cox_word("s1 s2 s2 s3")) == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoxWord((1, 1))
        with pytest.raises(ValueError):
            CoxWord((0, 1))

    @given(st.lists(st.integers(min_value=1, max_value=5), max_size=40))
    def test_idempotent_and_parity(self, raw):
        once = parse_cox_word(text(raw))
        assert parse_cox_word(text(_decode(once))) == once
        assert (len(raw) - len(once)) % 2 == 0

    def test_parse(self):
        assert _decode(parse_cox_word("s1 s2 s1")) == (1, 2, 1)
        assert parse_cox_word("") == b""
        with pytest.raises(ValueError):
            parse_cox_word("s1'")
        # the limit counts tokens, before adjacent pairs cancel
        assert _decode(parse_cox_word("s1 s2 s2", 3)) == (1,)
        with pytest.raises(ValueError, match="at most 2 letters"):
            parse_cox_word("s1 s2 s2", 2)
        # letter indices the encoding cannot hold are refused at their token
        assert _decode(parse_cox_word("s127 s01")) == (127, 1)
        with pytest.raises(ValueError, match="above 127"):
            parse_cox_word("s1 s128")
        with pytest.raises(ValueError, match="letter index 0 is not allowed"):
            parse_cox_word("s1 s0")


class TestFactorization:
    def test_example_with_middle_separator(self):
        f = jk_factorize(w(1, 3, 2, 1, 3), 1, 3)
        assert f.blocks == ((1, 3), (1, 3))
        assert f.separators == (2,)

    def test_all_separators(self):
        f = jk_factorize(w(2, 4), 1, 3)
        assert f.blocks == ((), (), ())
        assert f.separators == (2, 4)

    def test_single_block(self):
        f = jk_factorize(w(1, 3, 1), 1, 3)
        assert f.blocks == ((1, 3, 1),)
        assert f.separators == ()
        assert f.ell == 0

    @given(st.lists(st.integers(min_value=1, max_value=6), max_size=30))
    def test_flatten_round_trip(self, raw):
        word = reduced(raw)
        f = jk_factorize(word, 1, 3)
        flat = list(f.blocks[0])
        for sep, block in zip(f.separators, f.blocks[1:]):
            flat += [sep, *block]
        assert tuple(flat) == word.letters


class TestLongAndCritical:
    def test_long(self):
        assert is_long((1, 3, 1, 3))
        assert not is_long((1, 3, 1))
        assert not is_long(())

    def test_critical_odd_block_equal_neighbours(self):
        f = jk_factorize(w(2, 1, 3, 1, 2), 1, 3)
        assert is_critical(f, 1)

    def test_critical_empty_block_crossing_neighbours(self):
        f = jk_factorize(w(2, 4), 1, 3)
        assert is_critical(f, 1)

    def test_boundary_blocks_never_critical(self):
        f = jk_factorize(w(1, 3, 2, 1), 1, 3)
        assert not is_critical(f, 0)
        assert not is_critical(f, f.ell)

    def test_even_block_equal_neighbours_not_critical(self):
        f = jk_factorize(w(2, 1, 3, 2), 1, 3)
        assert not is_critical(f, 1)

    def test_even_block_noncrossing_neighbours_not_critical(self):
        f = jk_factorize(w(4, 2, 3, 5), 2, 3)  # {4,5} does not cross {2,3}
        assert f.blocks[1] == (2, 3)
        assert not is_critical(f, 1)

    def test_index_range(self):
        f = jk_factorize(w(1, 3), 1, 3)
        with pytest.raises(IndexError):
            is_critical(f, 1)

    def test_long_pairs_matches_direct_scan(self):
        rng = random.Random(11)
        for _ in range(50):
            word = random_cox_word(rng, 6, 14)
            assert long_pairs(word) == referee_long_pairs(word)

    def test_single_pass_matches_referee(self):
        """Seeded words on up to 127 letters and up to 4096 letters long, and band images.

        Most words are runs of alternating pairs drawn from a few letters
        of 1 .. 127, so blocks of every length occur and the referee's scan
        per pair stays cheap; the rest are uniform words on up to 127
        letters.  has_long_subword must agree in both orders of a pair, and
        answer False on j == k and on index 0.
        """
        rng = random.Random(23)
        words = []
        for _ in range(40):
            alphabet = rng.sample(range(1, 128), rng.randint(2, 8))
            length = rng.choice((16, 256, 4096))
            letters: list[int] = []
            while len(letters) < length:
                a, b = rng.sample(alphabet, 2)
                letters += alternating(a, b, rng.randint(1, 6))
            words.append(reduced(letters[:length]))
        for _ in range(10):
            words.append(random_cox_word(rng, rng.randint(3, 127), 300))
        for _ in range(40):
            n = rng.randint(3, 127)
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            m = rng.choice((3, 4, 5, -3, -4, -5))
            words.append(act_band_on_cox(random_cox_word(rng, n, 12), BandPair(i, j), m))
        assert any(len(word) > 2048 for word in words)
        for word in words:
            expected = referee_long_pairs(word)
            assert long_pairs(word) == expected
            used = sorted(set(word.letters)) or [1]
            pairs = {(p.i, p.j) for p in expected}
            pairs |= {tuple(rng.sample(used, 2)) for _ in range(5) if len(used) > 1}
            for j, k in pairs:
                found = BandPair.of(j, k) in expected
                assert has_long_subword(word, j, k) == has_long_subword(word, k, j) == found
            x = rng.choice(used)
            assert not has_long_subword(word, x, x)
            assert not has_long_subword(word, 0, x)
            assert not has_long_subword(word, x, 0)


class TestBandAction:
    def test_alternating_block_fixed(self):
        for p in range(4):
            for m in range(-4, 5):
                word = CoxWord(alternating(2, 4, 2 * p))
                assert act_band_on_cox(word, BandPair(2, 4), m) == word

    def test_reversed_block_inverts(self):
        for p in range(4):
            for m in range(-4, 5):
                got = act_band_on_cox(CoxWord(alternating(4, 2, 2 * p)), BandPair(2, 4), m)
                assert got.letters == alternating(4, 2, 2 * p)  # own inverse as a word

    def test_block_gains_power(self):
        j, k = 2, 4
        for p in range(4):
            for m in range(-4, 5):
                src = CoxWord(alternating(j, k, 2 * p) + (j,))
                got = act_band_on_cox(src, BandPair(j, k), m)
                q = p + m
                if q >= 0:
                    expected = alternating(j, k, 2 * q) + (j,)
                else:
                    expected = alternating(k, j, -2 * q - 1)
                assert got == reduced(expected)

    def test_reversed_block_with_tail_gains_power(self):
        j, k = 2, 4
        for p in range(4):
            for m in range(-4, 5):
                src = CoxWord(alternating(k, j, 2 * p) + (k,))
                got = act_band_on_cox(src, BandPair(j, k), m)
                q = -p + m
                power = alternating(j, k, 2 * q) if q >= 0 else alternating(k, j, -2 * q)
                assert got == reduced(power + (k,))

    def test_letter_outside_band_fixed(self):
        for m in range(-4, 5):
            assert act_band_on_cox(w(5), BandPair(2, 4), m).letters == (5,)

    def test_power_past_the_limit_is_refused_before_it_is_built(self, monkeypatch):
        def limited(limit, *call):
            with monkeypatch.context() as patch:
                patch.setattr("bandgroup.coxword.MAX_IMAGE_LETTERS", limit)
                return act_band_on_cox(*call)

        # the image of s_4 under a_24^5 is (s_2 s_4)^4 s_2, 2|m| - 1 letters
        assert len(limited(9, w(4), BandPair(2, 4), 5)) == 9
        with pytest.raises(ImageLimitError, match="exceeds 8 letters"):
            limited(8, w(4), BandPair(2, 4), 5)
        # c = (s_2 s_4)^m alone would be 2x10^9 letters
        with pytest.raises(ImageLimitError, match="exceeds 100 letters"):
            limited(100, w(5, 3, 1), BandPair(2, 4), -10 ** 9)
        # a word with no letter in the band is fixed, whatever the power
        assert limited(2, w(5, 1), BandPair(2, 4), 10 ** 9) == w(5, 1)
        # a limit refuses exactly the words with a prefix whose image passes it
        rng = random.Random(14)
        for _ in range(200):
            word = random_cox_word(rng, 5, 6)
            tau, m = BandPair(*sorted(rng.sample(range(1, 6), 2))), rng.randint(-4, 4)
            peak = max((len(act_band_on_cox(CoxWord(word.letters[:t]), tau, m))
                        for t in range(1, len(word) + 1)), default=0)
            limit = rng.randint(0, 20)
            if peak > limit:
                with pytest.raises(ImageLimitError):
                    limited(limit, word, tau, m)
            else:
                assert limited(limit, word, tau, m) == act_band_on_cox(word, tau, m)

    def test_byte_kernel_matches_the_referee(self):
        # the Hurwitz move's images substituted over bytes against the
        # closed form pushed letter by letter
        rng = random.Random(17)
        for _ in range(20_000):
            n = rng.randint(3, 7)
            word = random_cox_word(rng, n, 12)
            j, k = sorted(rng.sample(range(1, n + 1), 2))
            m = rng.choice([-1, 1]) * rng.randint(1, 12)
            expected = referee_act_band_on_cox(word, BandPair(j, k), m).letters
            assert act_band_on_cox(word, BandPair(j, k), m).letters == expected

    def test_images_do_not_depend_on_the_letters_asked_for(self):
        # the move reads s_j and s_k, so they are built even when they are
        # not asked for, and the other letters not asked for change nothing
        rng = random.Random(36)
        for j, k in itertools.combinations(range(1, 7), 2):
            band = range(128 + j, 128 + k + 1)
            inner = list(band[1:-1])
            for m in [x for x in range(-7, 8) if x]:
                every = _band_images(j, k, m, band)
                subsets = [[], [band[0]], [band[-1]], inner, inner[:1], inner[-1:]]
                subsets += [rng.sample(band, rng.randint(1, len(band))) for _ in range(4)]
                for letters in subsets:
                    assert _band_images(j, k, m, letters) == {x: every[x] for x in letters}

    def test_letter_indices_past_the_encoding_are_refused(self):
        with pytest.raises(ValueError, match="above 127"):
            act_band_on_cox(w(128), BandPair(1, 2), 3)
        with pytest.raises(ValueError, match="above 127"):
            act_band_on_cox(w(1), BandPair(1, 128), 3)
        assert act_band_on_cox(w(127, 1), BandPair(1, 2), 1) == w(127, 1, 2, 1)

    def test_iterated_single_steps(self):
        rng = random.Random(12)
        for _ in range(40):
            word = random_cox_word(rng, 5, 10)
            i, j = sorted(rng.sample(range(1, 6), 2))
            m = rng.randint(-4, 4)
            step = word
            unit = 1 if m >= 0 else -1
            for _ in range(abs(m)):
                step = act_band_on_cox(step, BandPair(i, j), unit)
            assert step == act_band_on_cox(word, BandPair(i, j), m)

    def test_matches_artin_letterwise_action(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 6)
            word = random_cox_word(rng, n, 10)
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            m = rng.randint(-4, 4)
            band = band_to_artin(BandPair(i, j), n)
            assert act_band_on_cox(word, BandPair(i, j), m) == referee_apply_artin_to_cox(
                word, band ** m
            )


class TestPropTrans:
    def test_middle_block_stays_critical_with_tight_bound(self):
        # oracle: direct action plus factorization; the separators sit inside
        # the band, so their image tails cancel into the middle block and the
        # growth bound is attained with equality
        word = w(2, 1, 3, 1, 2)
        result = check_prop_trans(word, BandPair(1, 3), 3)
        assert result.passed
        image = act_band_on_cox(word, BandPair(1, 3), 3)
        f = jk_factorize(image, 1, 3)
        assert f.blocks[1] == (3, 1, 3)
        assert is_critical(f, 1)
        assert len(f.blocks[1]) + 3 == 2 * 3

    def test_vacuous_without_critical_blocks(self):
        result = check_prop_trans(w(1, 3, 2, 4), BandPair(1, 3), 3)
        assert result.passed

    def test_hypothesis_violation_reported(self):
        word = CoxWord(alternating(1, 3, 6))
        result = check_prop_trans(word, BandPair(1, 3), 3)
        assert result.status == "precondition-violated"
        assert not result.passed

    def test_seeded_run(self):
        rng = random.Random(0)
        checked = 0
        while checked < 200:
            n = rng.randint(3, 6)
            word = random_cox_word(rng, n, 12)
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            m = rng.choice([3, 4, -3, -4])
            f = jk_factorize(word, i, j)
            if any(len(b) == 2 * abs(m) for b in f.blocks):
                continue
            checked += 1
            assert check_prop_trans(word, BandPair(i, j), m).passed


class TestProp7:
    def test_band_pair_itself_allowed(self):
        result = check_prop7(w(1), BandPair(1, 3), 3)
        assert result.passed
        image = act_band_on_cox(w(1), BandPair(1, 3), 3)
        assert has_long_subword(image, 1, 3)

    def test_disjoint_long_block_persists(self):
        word = w(2, 4, 2, 4)
        result = check_prop7(word, BandPair(6, 7), 3)
        assert result.passed
        assert act_band_on_cox(word, BandPair(6, 7), 3) == word

    def test_precondition_small_power(self):
        assert check_prop7(w(1), BandPair(1, 3), 2).status == "precondition-violated"

    def test_precondition_long_block(self):
        word = CoxWord(alternating(1, 3, 4))
        assert check_prop7(word, BandPair(1, 3), 3).status == "precondition-violated"

    def test_seeded_run(self):
        rng = random.Random(0)
        checked = 0
        while checked < 200:
            n = rng.randint(3, 6)
            word = random_cox_word(rng, n, 12)
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            m = rng.choice([3, 4, -3, -4])
            if has_long_subword(word, i, j):
                continue
            checked += 1
            assert check_prop7(word, BandPair(i, j), m).passed
