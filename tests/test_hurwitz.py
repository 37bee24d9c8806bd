import itertools
import random

import pytest

from bandgroup import hurwitz
from bandgroup.braid import (
    _COX_TOKENS,
    _FREE_TOKENS,
    _SLICE,
    MAX_STRANDS,
    ArtinWord,
    FreeWord,
    ImageLimitError,
    Permutation,
    _format_slices,
    band_to_artin,
)
from bandgroup.coxeter import BandPair, CoxeterDatum, partition_to_matrix, set_partitions
from bandgroup.coxword import CoxWord, act_band_on_cox
from bandgroup.hurwitz import GroupContext, GroupTuple, hurwitz_apply, render_action

from oracles import (
    compose_maps,
    reduce_word,
    referee_apply_artin_to_cox,
    referee_hurwitz,
    transposition_map,
)


def start(ctx):
    """The defining tuple of a context: (t_1..t_n), (s_1..s_n) or its designated permutations."""
    if ctx.kind == "perm":
        return GroupTuple(ctx, ctx.images)
    word_type = FreeWord if ctx.kind == "free" else CoxWord
    return GroupTuple(ctx, tuple(word_type((i,)) for i in range(1, ctx.n + 1)))


def cox_tuple(n):
    return start(GroupContext.coxeter(n))


def step(tup, j, sign):
    """One elementary twist at position j."""
    return hurwitz_apply(tup, ArtinWord(tup.context.n, ((j, sign),)))


def perm_tuple(degree, *cycle_texts):
    images = tuple(Permutation.parse(t, degree) for t in cycle_texts)
    return start(GroupContext.permutations(images, degree))


def random_word(rng, n, max_len):
    length = rng.randint(0, max_len)
    return ArtinWord(
        n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length))
    )


def random_tuple(rng, kind, n):
    if kind == "free":
        tup = start(GroupContext.free(n))
    elif kind == "coxeter":
        tup = start(GroupContext.coxeter(n))
    else:
        images = tuple(
            Permutation.from_cycles(n + 1, [(i, i + 1)]) for i in range(1, n + 1)
        )
        tup = start(GroupContext.permutations(images, n + 1))
    # scramble with a random word so the entries are not just generators
    return hurwitz_apply(tup, random_word(rng, n, 6))


class TestStep:
    def test_coxeter_twist(self):
        tup = cox_tuple(2)
        out = step(tup, 1, +1)
        assert out.entries[0].letters == (1, 2, 1)
        assert out.entries[1].letters == (1,)

    def test_step_then_inverse_restores(self):
        rng = random.Random(0)
        for kind in ("free", "coxeter", "perm"):
            for _ in range(10):
                n = rng.randint(2, 5)
                tup = random_tuple(rng, kind, n)
                j = rng.randint(1, n - 1)
                assert step(step(tup, j, +1), j, -1) == tup
                assert step(step(tup, j, -1), j, +1) == tup
        # entries that are not involutions
        ctx = GroupContext.coxeter(3)
        tup = GroupTuple(ctx, (CoxWord((1, 2)), CoxWord((3,)), CoxWord((2, 3, 1))))
        for j in (1, 2):
            assert step(step(tup, j, +1), j, -1) == tup
            assert step(step(tup, j, -1), j, +1) == tup

    def test_permutation_conjugation(self):
        tup = perm_tuple(3, "(1 2)", "(2 3)")
        out = step(tup, 1, +1)
        # oracle: (1 2)(2 3)(1 2) composed by hand
        conj = compose_maps(
            transposition_map(3, 1, 2),
            compose_maps(transposition_map(3, 2, 3), transposition_map(3, 1, 2)),
        )
        assert {x: out.entries[0](x) for x in (1, 2, 3)} == conj
        assert out.entries[0].cycle_string() == "(1 3)"
        assert out.entries[1].cycle_string() == "(1 2)"

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            step(cox_tuple(3), 3, +1)


class TestApply:
    def test_empty_word(self):
        tup = cox_tuple(4)
        assert hurwitz_apply(tup, ArtinWord(4)) == tup

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
            assert (hurwitz_apply(tup, w) == tup) == (got == entries)

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
            got = hurwitz_apply(start(ctx), w).entries
            assert [{x: p(x) for x in range(1, degree + 1)} for p in got] == maps
            assert (hurwitz_apply(start(ctx), w) == start(ctx)) == (list(got) == perms)

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
            generators = [(1,), (2,), (3,)]
            longest = max(
                len(e)
                for j in range(len(w.letters) + 1)
                for e in referee_hurwitz(generators, w.letters[:j], involutive)
            )
            monkeypatch.setattr("bandgroup.hurwitz.MAX_IMAGE_LETTERS", longest)
            assert hurwitz_apply(start(ctx), w) != start(ctx)
            monkeypatch.setattr("bandgroup.hurwitz.MAX_IMAGE_LETTERS", longest - 1)
            with pytest.raises(ImageLimitError, match=f"exceeds {longest - 1} letters"):
                hurwitz_apply(start(ctx), w)


class TestBandPowerLetterAction:
    def test_letter_outside_band_is_fixed(self):
        assert act_band_on_cox(CoxWord.single(1), BandPair(2, 3), 5).letters == (1,)
        assert act_band_on_cox(CoxWord.single(4), BandPair(2, 3), -3).letters == (4,)

    def test_lower_band_end(self):
        got = act_band_on_cox(CoxWord.single(2), BandPair(2, 3), 2)
        assert got.letters == (2, 3, 2, 3, 2)

    def test_upper_band_end_power_zero(self):
        assert act_band_on_cox(CoxWord.single(3), BandPair(2, 3), 0).letters == (3,)

    def test_closed_form_matches_letterwise_action_small(self):
        for n in range(2, 5):
            for i, j in itertools.combinations(range(1, n + 1), 2):
                band = band_to_artin(BandPair(i, j), n)
                for m in range(-3, 4):
                    for letter in range(1, n + 1):
                        via_artin = referee_apply_artin_to_cox(CoxWord.single(letter), band ** m)
                        assert act_band_on_cox(CoxWord.single(letter), BandPair(i, j), m) == via_artin


class TestStabilizes:
    def test_empty_word_stabilizes(self):
        assert hurwitz_apply(cox_tuple(3), ArtinWord(3)) == cox_tuple(3)

    def test_band_cube_on_symmetric_realization(self):
        tup = perm_tuple(3, "(1 2)", "(2 3)")
        cube = band_to_artin(BandPair(1, 2), 2) ** 3
        assert hurwitz_apply(tup, cube) == tup

    def test_square_moves_universal_coxeter_pair(self):
        tup = cox_tuple(2)
        square = ArtinWord(2, ((1, 1), (1, 1)))
        assert hurwitz_apply(tup, square) != tup
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
            tup = start(GroupContext.permutations(images, degree))
            maps = [{x: p(x) for x in range(1, degree + 1)} for p in images]
            identity = {x: x for x in range(1, degree + 1)}
            for tau in matrix.band_pairs():
                m = matrix.entry_at(tau.i, tau.j)
                prod = compose_maps(maps[tau.i - 1], maps[tau.j - 1])
                power = identity
                for _ in range(m):
                    power = compose_maps(power, prod)
                if power == identity:
                    assert hurwitz_apply(tup, band_to_artin(tau, matrix.n) ** m) == tup


def rendered(ctx, entries, w):
    """`render_action` with each entry's text joined."""
    texts, fixed = render_action(ctx, entries, w)
    return ["".join(text) for text in texts], fixed


class TestRender:
    @pytest.mark.parametrize("ctx, texts, after", [
        (GroupContext.free(4), ["t1", "t2", "t3'", "t4"], ["t1 t2 t1'", "t1", "t4", "t4' t3' t4"]),
        (GroupContext.coxeter(4), ["s1", "s2", "s3", "s4"], ["s1 s2 s1", "s1", "s4", "s4 s3 s4"]),
    ], ids=["free", "coxeter"])
    def test_entries_are_acted_on_as_parsed(self, monkeypatch, ctx, texts, after):
        # the parsed entries are already the encoding the action runs on
        def refuse(x):
            raise AssertionError("an entry was encoded or decoded again")

        monkeypatch.setattr(hurwitz, "_encode", refuse)
        monkeypatch.setattr(hurwitz, "_decode", refuse)
        entries = ctx.parse_tuple(texts)
        assert all(isinstance(e, bytes) for e in entries)
        w = ArtinWord(4, ((1, 1), (3, -1)))
        assert rendered(ctx, entries, w) == (after, False)
        assert rendered(ctx, entries, ArtinWord(4)) == (texts, True)

    @pytest.mark.parametrize("ctx, letter", [
        (GroupContext.free(3), lambda rng: 128 + rng.choice((-3, -2, -1, 1, 2, 3))),
        (GroupContext.coxeter(3), lambda rng: 128 + rng.randint(1, 3)),
    ], ids=["free", "coxeter"])
    def test_text_in_slices_is_the_whole_text(self, ctx, letter):
        # the slices of a word longer than one join to its tokens separated
        # by spaces; the words here need not be reduced, the rendering reads
        # bytes only
        rng = random.Random(27)
        tokens = _FREE_TOKENS if ctx.kind == "free" else _COX_TOKENS
        for length in (0, 1, _SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 5):
            word = bytes(letter(rng) for _ in range(length))
            slices = list(_format_slices(word, tokens))
            assert "".join(slices) == (" ".join(tokens[b].strip() for b in word) or "1")
            assert len(slices) == max(1, -(-length // _SLICE))
        # s2 leaves the first entry as it is, and its text comes in slices
        prefix = "t" if ctx.kind == "free" else "s"
        long, text = (("t1^200000", " ".join(["t1"] * 200000)) if ctx.kind == "free"
                      else (" ".join(["s1 s2"] * 100000),) * 2)
        entries = ctx.parse_tuple([long, f"{prefix}2", f"{prefix}3"])
        texts, fixed = render_action(ctx, entries, ArtinWord(3, ((2, 1),)))
        slices = list(texts[0])
        assert fixed is False and len(slices) > 1 and "".join(slices) == text

    def test_permutation_entries_are_image_tuples(self):
        ctx = GroupContext.permutations(
            (Permutation.parse("(1 2)", 3), Permutation.parse("(2 3)", 3)), 3
        )
        entries = ctx.parse_tuple(["(1 2)", "(2 3)"])
        assert entries == ((2, 1, 3), (1, 3, 2))
        assert rendered(ctx, entries, ArtinWord(2, ((1, 1),))) == (["(1 3)", "(1 2)"], False)
        assert rendered(ctx, entries, ArtinWord(2, ((1, 1),)) ** 3) == (["(1 2)", "(2 3)"], True)


class TestParseTuple:
    @pytest.mark.parametrize("ctx, texts", [
        (GroupContext.free(3), ["t1^6", "t2'^5", "t3"]),
        (GroupContext.coxeter(3), ["s1 s2 s1 s2 s1 s2", "s2 s1 s2 s1 s2", "s3"]),
    ])
    def test_word_entries_share_one_budget(self, monkeypatch, ctx, texts):
        # 6, 5 and 1 letters: each entry is parsed with what the earlier ones left
        monkeypatch.setattr("bandgroup.hurwitz.MAX_IMAGE_LETTERS", 12)
        assert [len(e) for e in ctx.parse_tuple(texts)] == [6, 5, 1]
        for budget, left in [(11, 0), (10, 4), (5, 5)]:
            monkeypatch.setattr("bandgroup.hurwitz.MAX_IMAGE_LETTERS", budget)
            with pytest.raises(ValueError, match=f"at most {left} letters"):
                ctx.parse_tuple(texts)

    def test_an_entry_is_refused_before_its_letters_are_built(self, monkeypatch):
        # the second entry would take gigabytes; the third is never parsed
        monkeypatch.setattr("bandgroup.hurwitz.MAX_IMAGE_LETTERS", 10)
        with pytest.raises(ValueError, match="at most 4 letters"):
            GroupContext.free(3).parse_tuple(["t1^6", "t2^1000000000", "junk"])

    def test_permutation_entries(self):
        ctx = GroupContext.permutations(
            (Permutation.parse("(1 2)", 3), Permutation.parse("(2 3)", 3)), 3
        )
        assert ctx.parse_tuple(["(1 2)", "(2 3)"]) == tuple(p.images for p in ctx.images)


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
