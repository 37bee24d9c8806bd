import itertools
import random

import pytest

from bandgroup.braid import (
    MAX_STRANDS,
    ArtinWord,
    FreeWord,
    ImageLimitError,
    Permutation,
    band_to_artin,
)
from bandgroup.coxeter import BandPair, CoxeterDatum, partition_to_matrix, set_partitions
from bandgroup.coxword import CoxWord, apply_artin_to_cox, band_power_letter_action
from bandgroup.hurwitz import GroupContext, GroupTuple, hurwitz_apply, hurwitz_step, stabilizes

from oracles import compose_maps, reduce_word, referee_hurwitz, transposition_map


def cox_tuple(n):
    return GroupContext.coxeter(n).defining_tuple()


def perm_tuple(degree, *cycle_texts):
    images = tuple(Permutation.parse(t, degree) for t in cycle_texts)
    return GroupContext.permutations(images, degree).defining_tuple()


def random_word(rng, n, max_len):
    length = rng.randint(0, max_len)
    return ArtinWord(
        n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length))
    )


def random_tuple(rng, kind, n):
    if kind == "free":
        ctx = GroupContext.free(n)
        tup = ctx.defining_tuple()
    elif kind == "coxeter":
        ctx = GroupContext.coxeter(n)
        tup = ctx.defining_tuple()
    else:
        images = tuple(
            Permutation.transposition(n + 1, i, i + 1) for i in range(1, n + 1)
        )
        tup = GroupContext.permutations(images, n + 1).defining_tuple()
    # scramble with a random word so the entries are not just generators
    return hurwitz_apply(tup, random_word(rng, n, 6))


class TestStep:
    def test_coxeter_twist(self):
        tup = cox_tuple(2)
        out = hurwitz_step(tup, 1, +1)
        assert out.entries[0].letters == (1, 2, 1)
        assert out.entries[1].letters == (1,)

    def test_step_then_inverse_restores(self):
        rng = random.Random(0)
        for kind in ("free", "coxeter", "perm"):
            for _ in range(10):
                n = rng.randint(2, 5)
                tup = random_tuple(rng, kind, n)
                j = rng.randint(1, n - 1)
                assert hurwitz_step(hurwitz_step(tup, j, +1), j, -1) == tup
                assert hurwitz_step(hurwitz_step(tup, j, -1), j, +1) == tup
        # entries that are not involutions
        ctx = GroupContext.coxeter(3)
        tup = GroupTuple(ctx, (CoxWord((1, 2)), CoxWord((3,)), CoxWord((2, 3, 1))))
        for j in (1, 2):
            assert hurwitz_step(hurwitz_step(tup, j, +1), j, -1) == tup
            assert hurwitz_step(hurwitz_step(tup, j, -1), j, +1) == tup

    def test_permutation_conjugation(self):
        tup = perm_tuple(3, "(1 2)", "(2 3)")
        out = hurwitz_step(tup, 1, +1)
        # oracle: (1 2)(2 3)(1 2) composed by hand
        conj = compose_maps(
            transposition_map(3, 1, 2),
            compose_maps(transposition_map(3, 2, 3), transposition_map(3, 1, 2)),
        )
        assert {x: out.entries[0](x) for x in (1, 2, 3)} == conj
        assert out.entries[0].cycle_string() == "(1 3)"
        assert out.entries[1].cycle_string() == "(1 2)"

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            hurwitz_step(cox_tuple(3), 3, +1)


class TestApply:
    def test_empty_word(self):
        tup = cox_tuple(4)
        assert hurwitz_apply(tup, ArtinWord.identity(4)) == tup

    def test_cancelling_word(self):
        tup = perm_tuple(3, "(1 2)", "(2 3)")
        w = ArtinWord(2, ((1, 1), (1, -1)))
        assert hurwitz_apply(tup, w) == tup

    def test_period_three_on_symmetric_group_pair(self):
        tup = perm_tuple(3, "(1 2)", "(2 3)")
        once = hurwitz_apply(tup, ArtinWord(2, ((1, 1),)))
        twice = hurwitz_apply(once, ArtinWord(2, ((1, 1),)))
        thrice = hurwitz_apply(twice, ArtinWord(2, ((1, 1),)))
        assert thrice == tup
        assert once != tup and twice != tup

    def test_right_action_law(self):
        rng = random.Random(1)
        for kind in ("free", "coxeter", "perm"):
            for _ in range(15):
                n = rng.randint(2, 5)
                tup = random_tuple(rng, kind, n)
                u, v = random_word(rng, n, 6), random_word(rng, n, 6)
                assert hurwitz_apply(tup, u * v) == hurwitz_apply(
                    hurwitz_apply(tup, u), v
                )

    def test_braid_relation_acts_trivially(self):
        rng = random.Random(2)
        for kind in ("free", "coxeter", "perm"):
            for _ in range(10):
                n = rng.randint(3, 5)
                tup = random_tuple(rng, kind, n)
                j = rng.randint(1, n - 2)
                lhs = ArtinWord(n, ((j, 1), (j + 1, 1), (j, 1)))
                rhs = ArtinWord(n, ((j + 1, 1), (j, 1), (j + 1, 1)))
                assert hurwitz_apply(tup, lhs) == hurwitz_apply(tup, rhs)


class TestKernelAgainstReferee:
    """Free and Coxeter entries on the word kernel against the letterwise referee."""

    def test_seeded_tuples(self):
        rng = random.Random(5)
        for trial in range(600):
            involutive = trial % 2 == 1
            n = rng.randint(2, 6)
            entries = []
            for _ in range(n):
                raw = [rng.randint(1, n + 1) for _ in range(rng.randint(0, 12))]
                if not involutive:
                    raw = [rng.choice((1, -1)) * x for x in raw]
                entries.append(tuple(reduce_word(raw, involutive)))
            ctx = GroupContext.coxeter(n) if involutive else GroupContext.free(n)
            word_type = CoxWord if involutive else FreeWord
            tup = GroupTuple(ctx, tuple(word_type(e) for e in entries))
            w = random_word(rng, n, 12)
            got = [e.letters for e in hurwitz_apply(tup, w).entries]
            assert got == referee_hurwitz(entries, w.letters, involutive)
            assert stabilizes(tup, w) == (got == entries)

    def test_trivial_and_non_involutive_entries(self):
        w = ArtinWord(3, ((1, 1), (2, -1), (1, -1), (2, 1), (1, 1)))
        for ctx, entries in [
            (GroupContext.free(3), (FreeWord(()), FreeWord((1, 2, -1)), FreeWord((-3,)))),
            (GroupContext.coxeter(3), (CoxWord(()), CoxWord((1, 2)), CoxWord((2, 3, 1)))),
        ]:
            involutive = ctx.kind == "coxeter"
            got = hurwitz_apply(GroupTuple(ctx, entries), w)
            assert [e.letters for e in got.entries] == referee_hurwitz(
                [e.letters for e in entries], w.letters, involutive
            )

    def test_seeded_permutation_tuples(self):
        def inverse(a):
            return {y: x for x, y in a.items()}

        def conjugate(a, b):
            return compose_maps(compose_maps(a, b), inverse(a))

        rng = random.Random(11)
        for _ in range(200):
            n, degree = rng.randint(2, 5), rng.randint(1, 7)
            perms = []
            for _ in range(n):
                images = list(range(1, degree + 1))
                rng.shuffle(images)
                perms.append(Permutation(tuple(images)))
            ctx = GroupContext.permutations(tuple(perms), degree, involutive=False)
            w = random_word(rng, n, 12)
            maps = [{x: p(x) for x in range(1, degree + 1)} for p in perms]
            for k, sign in w.letters:
                a, b = maps[k - 1], maps[k]
                if sign > 0:
                    maps[k - 1], maps[k] = conjugate(a, b), a
                else:
                    maps[k - 1], maps[k] = b, conjugate(inverse(b), a)
            got = hurwitz_apply(ctx.defining_tuple(), w).entries
            assert [{x: p(x) for x in range(1, degree + 1)} for p in got] == maps
            assert stabilizes(ctx.defining_tuple(), w) == (list(got) == perms)

    def test_entry_limits(self, monkeypatch):
        for ctx, big in [
            (GroupContext.free(2), FreeWord((MAX_STRANDS + 1,))),
            (GroupContext.coxeter(2), CoxWord((MAX_STRANDS + 1,))),
        ]:
            tup = GroupTuple(ctx, (big, big))
            with pytest.raises(ValueError, match=f"above {MAX_STRANDS}"):
                hurwitz_apply(tup, ArtinWord(2, ((1, 1),)))
        # (s1 s2')^k makes entries grow exponentially with k
        w = ArtinWord(3, ((1, 1), (2, -1)) * 8)
        for ctx in (GroupContext.free(3), GroupContext.coxeter(3)):
            involutive = ctx.kind == "coxeter"
            start = [(1,), (2,), (3,)]
            longest = max(
                len(e)
                for j in range(len(w.letters) + 1)
                for e in referee_hurwitz(start, w.letters[:j], involutive)
            )
            monkeypatch.setattr("bandgroup.hurwitz.MAX_IMAGE_LETTERS", longest)
            assert not stabilizes(ctx.defining_tuple(), w)
            monkeypatch.setattr("bandgroup.hurwitz.MAX_IMAGE_LETTERS", longest - 1)
            with pytest.raises(ImageLimitError, match=f"exceeds {longest - 1} letters"):
                hurwitz_apply(ctx.defining_tuple(), w)
            with pytest.raises(ImageLimitError, match=f"exceeds {longest - 1} letters"):
                stabilizes(ctx.defining_tuple(), w)


class TestBandPowerLetterAction:
    def test_letter_outside_band_is_fixed(self):
        assert band_power_letter_action(1, BandPair(2, 3), 5).letters == (1,)
        assert band_power_letter_action(4, BandPair(2, 3), -3).letters == (4,)

    def test_lower_band_end(self):
        got = band_power_letter_action(2, BandPair(2, 3), 2)
        assert got.letters == (2, 3, 2, 3, 2)

    def test_upper_band_end_power_zero(self):
        assert band_power_letter_action(3, BandPair(2, 3), 0).letters == (3,)

    def test_closed_form_matches_letterwise_action_small(self):
        for n in range(2, 5):
            for i, j in itertools.combinations(range(1, n + 1), 2):
                band = band_to_artin(BandPair(i, j), n)
                for m in range(-3, 4):
                    for letter in range(1, n + 1):
                        via_artin = apply_artin_to_cox(CoxWord.single(letter), band ** m)
                        assert band_power_letter_action(letter, BandPair(i, j), m) == via_artin


class TestStabilizes:
    def test_empty_word_stabilizes(self):
        assert stabilizes(cox_tuple(3), ArtinWord.identity(3))

    def test_band_cube_on_symmetric_realization(self):
        tup = perm_tuple(3, "(1 2)", "(2 3)")
        cube = band_to_artin(BandPair(1, 2), 2) ** 3
        assert stabilizes(tup, cube)

    def test_square_moves_universal_coxeter_pair(self):
        tup = cox_tuple(2)
        square = ArtinWord(2, ((1, 1), (1, 1)))
        assert not stabilizes(tup, square)
        moved = hurwitz_apply(tup, square)
        assert moved.entries[0].letters == (1, 2, 1, 2, 1)

    def test_realization_soundness(self):
        # generators of the power subgroup fix the defining tuple whenever the
        # realization satisfies the matching order condition
        cases = [
            (CoxeterDatum.constant(3, 3), ("(1 2)", "(2 3)", "(3 4)"), 4),
            (partition_to_matrix(next(iter(set_partitions(3)))), ("(1 2)", "(2 3)", "(3 4)"), 4),
        ]
        for matrix, cycles, degree in cases:
            images = tuple(Permutation.parse(c, degree) for c in cycles)
            tup = GroupContext.permutations(images, degree).defining_tuple()
            for tau in matrix.band_pairs():
                m = matrix.entry(tau)
                prod = images[tau.i - 1].after(images[tau.j - 1])
                power = Permutation.identity(degree)
                for _ in range(m):
                    power = power.after(prod)
                if power.is_identity():
                    assert stabilizes(tup, band_to_artin(tau, matrix.n) ** m)


class TestContextValidation:
    def test_non_involution_rejected(self):
        with pytest.raises(ValueError):
            GroupContext.permutations((Permutation.parse("(1 2 3)", 3),), 3)
        # but allowed when explicitly not required
        ctx = GroupContext.permutations(
            (Permutation.parse("(1 2 3)", 3),), 3, involutive=False
        )
        assert ctx.n == 1

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GroupContext.permutations((Permutation.parse("(1 2)", 2),), 3)

    def test_tuple_length_checked(self):
        with pytest.raises(ValueError):
            GroupTuple(GroupContext.coxeter(3), (CoxWord.single(1),))
