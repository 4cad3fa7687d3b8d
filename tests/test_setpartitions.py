import copy
import itertools
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from ncsym.elements import _symbol_expansion
from ncsym.intpartitions import IntPartition, int_partitions
from ncsym.setpartitions import (
    GroundSetError,
    SetPartition,
    bell_number,
    growth_strings,
    join_walk,
    lower_sums,
    meet_bottom_walk,
    meet_walk,
    mobius,
    partitions_of_type,
    set_partitions,
)
from ncsym.verify import lattice

P = SetPartition.parse


def test_canonical_form():
    assert P("2,4/3,1").blocks == ((1, 3), (2, 4))
    assert P("13/24") == P("1,3/2,4")
    assert str(P("24/13")) == "1,3/2,4"
    assert P("") == SetPartition()
    assert SetPartition().n == 0


labelled_partitions = st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)
).map(SetPartition.from_labels)


@given(st.one_of(labelled_partitions, st.integers(0, 12).map(SetPartition.bottom)))
@example(SetPartition.bottom(10))
@settings(deadline=None, max_examples=200)
def test_printed_partitions_parse_back(pi):
    # all-singleton partitions print without commas; from n = 10 on their
    # text has more than 9 digits and is read one element per block
    assert P(str(pi)) == pi


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        P("1,3/2,5")  # 4 missing
    with pytest.raises(ValueError):
        P("1,1/2")
    with pytest.raises(ValueError):
        P("a/b")


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([[1], []], "blocks must be nonempty"),
        ([[1, 1], [2]], "blocks must partition {1..3}: ((1, 1), (2,))"),
        ([[0, 1]], "blocks must partition {1..2}: ((0, 1),)"),
        ([[1, 3]], "blocks must partition {1..2}: ((1, 3),)"),
    ],
)
def test_constructor_rejects_non_partitions(blocks, message):
    with pytest.raises(ValueError) as err:
        SetPartition(blocks)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,3/2,5", "cannot parse set partition from '1,3/2,5'"),
        ("1,1/2", "cannot parse set partition from '1,1/2'"),
        ("1,/2", "cannot parse set partition from '1,/2'"),
        ("12/", "cannot parse set partition from '12/'"),
        ("a/b", "cannot parse set partition from 'a/b'"),
        ("0", "blocks must partition {1..1}: ((0,),)"),
        ("13/3", "blocks must partition {1..3}: ((1, 3), (3,))"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ValueError) as err:
        P(text)
    assert str(err.value) == message


def test_leq_examples():
    assert P("1/2/3/4").leq(P("13/24"))
    assert not P("13/24").leq(P("12/34"))
    assert P("12/3").leq(P("123"))


def test_meet_join_examples():
    assert P("13/24").meet(P("12/34")) == P("1/2/3/4")
    assert P("13/24").join(P("12/34")) == P("1234")
    pi = P("14/2/3")
    assert pi.meet(pi) == pi
    assert pi.join(pi) == pi


def test_ground_set_mismatch_is_an_error():
    with pytest.raises(GroundSetError):
        P("12").leq(P("123"))
    with pytest.raises(GroundSetError):
        P("12").meet(P("123"))
    with pytest.raises(GroundSetError):
        mobius(P("12"), P("123"))


def test_a_non_partition_argument_is_a_type_error():
    p = P("1/2")
    for call in (p.leq, p.meet, p.join, p.interval_type, lambda q: mobius(p, q)):
        with pytest.raises(TypeError, match=re.escape("expected a SetPartition, got (0, 1)")):
            call((0, 1))


def test_mobius_refuses_a_non_partition_first_argument():
    with pytest.raises(TypeError, match=re.escape("expected a SetPartition, got (0, 0)")):
        mobius((0, 0), P("12"))


def test_partitions_of_type_refuses_a_tuple():
    with pytest.raises(TypeError, match=re.escape("expected an IntPartition, got (2, 1)")):
        partitions_of_type((2, 1))


def test_type_examples():
    assert P("13/24").type.parts == (2, 2)
    assert P("1/2/3/4/5").type.parts == (1, 1, 1, 1, 1)
    assert P("134/2/56").type.parts == (3, 2, 1)


def test_interval_type():
    assert P("1/2/3/4").interval_type(P("13/24")).parts == (2, 2)
    assert P("1/2/34").interval_type(P("12/34")).parts == (2, 1)
    pi = P("13/24")
    assert pi.interval_type(pi).parts == (1, 1)
    with pytest.raises(ValueError):
        P("13/24").interval_type(P("12/34"))


def test_mobius_examples():
    assert mobius(P("1/2/3/4"), P("1234")) == -6
    assert mobius(P("13/24"), P("13/24")) == 1
    assert mobius(P("1/2/3/4"), P("13/24")) == 1
    assert mobius(P("13/24"), P("12/34")) == 0  # incomparable


def test_sign_examples():
    assert P("13/24").sign == 1
    assert P("123").sign == 1
    assert P("12/3").sign == -1


def test_enumeration_counts_and_order():
    assert [len(set_partitions(n)) for n in range(7)] == [
        bell_number(n) for n in range(7)
    ]
    parts3 = set_partitions(3)
    assert len(parts3) == 5
    rgs = [p.rgs for p in parts3]
    assert rgs == sorted(rgs)  # deterministic, ordered by growth string
    assert set_partitions(0) == [SetPartition()]


def test_act_examples():
    pi = P("13/24")
    assert pi.act((1, 2, 3, 4)) == pi
    swap = (2, 1, 3, 4)
    assert pi.act(swap) == P("14/23")
    g = (2, 3, 4, 1)
    ginv = (4, 1, 2, 3)
    assert pi.act(g).act(ginv) == pi
    with pytest.raises(ValueError):
        pi.act((1, 2, 3))


@pytest.mark.parametrize("perm", [(True, 2, 3), (1.0, 2.0, 3.0), (1, 2, 3.0)])
def test_act_refuses_non_int_entries(perm):
    bad = next(e for e in perm if type(e) is not int)
    with pytest.raises(ValueError) as err:
        P("13/2").act(perm)
    assert str(err.value) == f"permutation entries must be ints, got {bad!r}"


def test_act_preserves_structure():
    n = 4
    elems = set_partitions(n)
    for g in itertools.permutations(range(1, n + 1)):
        for a in elems[::3]:
            for b in elems[::3]:
                assert a.leq(b) == a.act(g).leq(b.act(g))
                assert a.meet(b).act(g) == a.act(g).meet(b.act(g))
                assert a.join(b).act(g) == a.act(g).join(b.act(g))
                assert mobius(a, b) == mobius(a.act(g), b.act(g))
            assert a.type == a.act(g).type
            assert a.sign == a.act(g).sign


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_lattice_axioms(n):
    elems = set_partitions(n)
    for a in elems:
        assert a.meet(a) == a and a.join(a) == a
    for a, b in itertools.product(elems, repeat=2):
        assert a.meet(b) == b.meet(a)
        assert a.join(b) == b.join(a)
        assert a.meet(a.join(b)) == a  # absorption
        assert a.join(a.meet(b)) == a
    if n <= 3:
        for a, b, c in itertools.product(elems, repeat=3):
            assert a.meet(b).meet(c) == a.meet(b.meet(c))
            assert a.join(b).join(c) == a.join(b.join(c))


def test_meet_join_are_bounds():
    for n in range(5):
        for a, b in itertools.product(set_partitions(n), repeat=2):
            m, j = a.meet(b), a.join(b)
            assert m.leq(a) and m.leq(b)
            assert a.leq(j) and b.leq(j)


def test_lattice_tables_match_operations():
    lat = lattice(4)
    elems = lat.elements
    assert vars(lat).keys() == {"n", "elements", "above", "below", "mu"}
    for a in elems:
        for b in elems:
            assert (b in lat.above[a]) == (a in lat.below[b]) == a.leq(b)
            assert ((a, b) in lat.mu) == a.leq(b)
            assert lat.mu.get((a, b), 0) == mobius(a, b)
        for group in (lat.above[a], lat.below[a]):
            assert [p.rgs for p in group] == sorted(p.rgs for p in group)


def _assert_canonical(p):
    """p is exactly its rebuild through the validating constructor."""
    rebuilt = SetPartition(p.blocks)
    assert (p.n, p.blocks, p.rgs, hash(p)) == (
        rebuilt.n,
        rebuilt.blocks,
        rebuilt.rgs,
        hash(rebuilt),
    )
    assert p.blocks == tuple(sorted(tuple(sorted(b)) for b in p.blocks))


def test_computed_partitions_are_canonical():
    """Every partition built by an operation, not by the checking constructor,
    has the canonical form that the constructor would give it."""
    for n in range(7):
        elems = set_partitions(n)
        assert len({p.rgs for p in elems}) == bell_number(n)
        for p in elems + [SetPartition.bottom(n), SetPartition.top(n)]:
            _assert_canonical(p)
        if n <= 5:
            for a, b in itertools.product(elems, repeat=2):
                _assert_canonical(a.meet(b))
                _assert_canonical(a.join(b))
        if n <= 4:
            for g in itertools.permutations(range(1, n + 1)):
                for a in elems:
                    moved = a.act(g)
                    _assert_canonical(moved)
                    assert moved == SetPartition(
                        tuple(g[e - 1] for e in b) for b in a.blocks
                    )


def test_enumerators_yield_canonical_growth_strings_in_order():
    """Every basis-change walk hands its strings straight to the trusted
    builder, so each must be canonical and the strings strictly ascending; a
    walk over every partition of [n] returns one int numerator per partition.
    m->p builds its strings from the one-block e->p keys, so it is held the same."""
    checked = set()
    for n in range(7):
        for p in set_partitions(n):
            taus, signed, unsigned = join_walk(p.rgs)
            assert len(taus) == len(signed) and all(signed), p
            keys, nums, _ = _symbol_expansion("m", "p", p)
            walks = {
                "m->p": [(k.rgs, c) for k, c in zip(keys, nums)],
                "meet_bottom_walk": [(s, 1) for s in meet_bottom_walk(p.rgs)],
                "lower_sums": lower_sums(p.rgs, lambda k, mu: k * mu),
                "join_walk": list(zip(taus, signed)),
            }
            every = {"meet_walk": meet_walk(p.rgs), "join_walk unsigned": unsigned}
            for name, nums in every.items():
                assert len(nums) == bell_number(n), (name, p)
                assert all(type(c) is int for c in nums), (name, p)
            for name, pairs in walks.items():
                strings = [s for s, _ in pairs]
                assert strings and all(type(c) is int for _, c in pairs), (name, p)
                assert all(a < b for a, b in zip(strings, strings[1:])), (name, p)
                for s in set(strings) - checked:  # canonical or not, whoever yields it
                    # relabelling first keeps a bad string out of the intern table
                    assert type(s) is tuple and SetPartition.from_labels(s).rgs == s, (name, p, s)
                    _assert_canonical(SetPartition._from_rgs(s))
                    checked.add(s)


def test_join_walk_keeps_strings_only_for_nonzero_signed_numerators():
    # m of the bottom is e of the top alone: one string, yet every tau's unsigned numerator
    taus, signed, unsigned = join_walk(SetPartition.bottom(8).rgs)
    assert (taus, signed) == ([(0,) * 8], [5040])
    assert len(unsigned) == bell_number(8) == 4140


def test_sizes_must_be_nonnegative_ints():
    for n in (True, False, 2.0, -1, "2", None):
        for build in (set_partitions, bell_number, SetPartition.bottom, SetPartition.top):
            message = f"n must be a nonnegative int, got {n!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                build(n)
    assert (bell_number(0), set_partitions(0), SetPartition.top(0)) == (1, [SetPartition()], P(""))
    assert (SetPartition.bottom(2), SetPartition.top(2)) == (P("1/2"), P("1,2"))


def test_public_surface():
    pi = P("4,1/2/5,3")
    assert (pi.n, pi.blocks, pi.rgs) == (5, ((1, 4), (2,), (3, 5)), (0, 1, 2, 0, 2))
    assert (pi.length, pi.rank, pi.sign) == (3, 2, 1)
    assert pi.type == IntPartition([2, 2, 1])
    assert pi.sort_key() == (5, (2, 2, 1), (0, 1, 2, 0, 2))
    assert str(pi) == "1,4/2/3,5"
    assert repr(pi) == "SetPartition.parse('1,4/2/3,5')"
    assert eval(repr(pi), {"SetPartition": SetPartition}) == pi
    empty = SetPartition()
    assert (empty.n, empty.blocks, empty.rgs, empty.length, empty.rank, empty.sign) == (
        0, (), (), 0, 0, 1,
    )
    assert (empty.type, empty.sort_key(), str(empty)) == (IntPartition(), (0, (), ()), "")


def test_every_build_route_gives_one_value():
    """SetPartition(blocks), parse, from_labels and the trusted builder give
    the one object of each value, for every n <= 6."""
    for n in range(7):
        for p in set_partitions(n):
            routes = [
                SetPartition(p.blocks),
                P(str(p)),
                SetPartition.from_labels([10 * v + 7 for v in p.rgs]),
                SetPartition._from_rgs(p.rgs),
            ]
            for q in routes:
                assert q is p
                assert q == p and hash(q) == hash(p)
                assert (q.n, q.rgs, q.blocks) == (p.n, p.rgs, p.blocks)
        assert SetPartition.bottom(n) is SetPartition._from_rgs(tuple(range(n)))
        assert SetPartition.top(n) is SetPartition._from_rgs((0,) * n)


def test_copies_and_pickles_are_the_object_itself():
    """Both rebuild through the trusted builder, so no copy can overwrite a
    shared value (the empty partition first of all)."""
    for n in range(6):
        for p in set_partitions(n):
            assert copy.copy(p) is p and copy.deepcopy(p) is p
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(p, protocol)) is p
    empty = SetPartition([])
    assert (empty.n, empty.rgs, str(empty)) == (0, (), "")


def test_threads_building_the_same_new_values_get_one_object():
    """Eight threads build the same 4000 new partitions at once: degree-8 growth
    strings, each followed by 22 singleton blocks, which no other code builds."""
    from ncsym.setpartitions import _INTERNED

    fresh = [r + tuple(range(max(r) + 1, max(r) + 23)) for r in growth_strings(8)[:4000]]
    assert len(fresh) == 4000 and not any(rgs in _INTERNED for rgs in fresh)
    start = threading.Barrier(8)

    def build():
        start.wait()
        return [SetPartition.from_labels(rgs) for rgs in fresh]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result() for f in [pool.submit(build) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    for built in results:
        assert all(q is p for q, p in zip(built, results[0]))
    assert all(_INTERNED[rgs] is p for rgs, p in zip(fresh, results[0]))


def test_a_partition_is_not_its_growth_string_or_its_type():
    for p in set_partitions(4):
        for other in (p.rgs, p.type, p.blocks):
            assert p != other and other != p
        assert len({p: 1, p.rgs: 2}) == 2


def test_partitions_of_type_walk_matches_the_filter():
    """The growth-string walk gives what filtering every partition by its
    block sizes gave, in the same order, for every type with n <= 8."""
    for n in range(9):
        every = set_partitions(n)
        for lam in int_partitions(n):
            want = tuple(p for p in every if IntPartition(len(b) for b in p.blocks) == lam)
            got = partitions_of_type(lam)
            assert got == want, lam
            assert [q.rgs for q in got] == growth_strings(n, lam.parts)


def test_growth_strings_are_every_restricted_string_in_order():
    for n in range(7):
        want = [
            t
            for t in itertools.product(range(n), repeat=n)
            if all(v <= max(t[:i], default=-1) + 1 for i, v in enumerate(t))
        ]
        assert growth_strings(n) == want
