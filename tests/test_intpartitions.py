import copy
import itertools
import pickle
import re

import pytest

from ncsym.intpartitions import IntPartition, int_partitions, kostka, weak_compositions
from ncsym.setpartitions import SetPartition, bell_number, set_partitions

IP = IntPartition


def test_canonical_and_parse():
    assert IP((1, 3, 2)).parts == (3, 2, 1)
    assert IP.parse("(3,1)").parts == (3, 1)
    assert IP.parse("[2,2]").parts == (2, 2)
    assert IP.parse("()").parts == ()
    assert list(IP((3, 1, 1))) == [3, 1, 1] and len(IP((3, 1, 1))) == 3
    assert list(IP(())) == [] and len(IP(())) == 0
    with pytest.raises(ValueError):
        IP((0, 1))
    with pytest.raises(ValueError):
        IP.parse("(a)")


def test_int_partitions_refuses_bools_non_ints_and_negatives():
    for n in (True, 2.0, -1):
        with pytest.raises(ValueError, match=re.escape(f"n must be a nonnegative int, got {n!r}")):
            int_partitions(n)
    assert int_partitions(0) == [IP(())]


def test_weak_compositions_refuse_bad_sizes_and_keep_their_order():
    for total, parts in ((3, -2), (2.0, 1), (-1, 2), (2, True)):
        bad = next(v for v in (total, parts) if type(v) is not int or v < 0)
        message = re.escape(f"n must be a nonnegative int, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            weak_compositions(total, parts)  # refused at the call, before any tuple
    every = itertools.product(range(4), repeat=3)
    assert list(weak_compositions(3, 3)) == sorted(t for t in every if sum(t) == 3)
    assert list(weak_compositions(0, 0)) == [()] and list(weak_compositions(1, 0)) == []


def test_factorial_statistics():
    assert IP((2, 2)).fact_parts() == 4
    assert IP((1,) * 6).fact_parts() == 1
    assert IP((3, 1)).fact_parts() == 6
    assert IP((2, 2)).fact_mults() == 2
    assert IP((3, 2, 1)).fact_mults() == 1
    assert IP((1, 1, 1)).fact_mults() == 6
    assert IP().fact_parts() == 1 and IP().fact_mults() == 1


def test_count_of_type_examples():
    assert IP((2, 2)).count_of_type() == 3
    assert IP((5,)).count_of_type() == 1
    assert IP((2, 1)).count_of_type() == 3


@pytest.mark.parametrize("n", range(7))
def test_count_of_type_matches_enumeration(n):
    by_type = {}
    for pi in set_partitions(n):
        by_type[pi.type] = by_type.get(pi.type, 0) + 1
    for lam in int_partitions(n):
        assert lam.count_of_type() == by_type.get(lam, 0)
    assert sum(lam.count_of_type() for lam in int_partitions(n)) == bell_number(n)


def test_dominance_and_conjugate():
    assert IP((2, 1)).dominates(IP((1, 1, 1)))
    assert not IP((2, 2)).dominates(IP((3, 1)))
    assert IP((3, 1)).conjugate() == IP((2, 1, 1))
    for lam in int_partitions(6):
        assert lam.conjugate().conjugate() == lam
    with pytest.raises(ValueError):
        IP((2,)).dominates(IP((1,)))


def test_a_non_partition_is_refused_not_an_attribute_error():
    lam = IP((2, 1))
    with pytest.raises(TypeError, match="dominance needs an IntPartition, got \\(3,\\)"):
        lam.dominates((3,))
    for compare in (lambda: lam < 3, lambda: lam <= 3, lambda: 3 > lam, lambda: lam < (2, 1)):
        with pytest.raises(TypeError, match="not supported between instances"):
            compare()
    assert lam != (2, 1) and lam != "(2,1)"


def test_kostka_refuses_a_tuple_content():
    with pytest.raises(TypeError, match=r"kostka needs IntPartitions, got .* and \(3,\)$"):
        kostka(IP((2, 1)), (3,))


def test_kostka_refuses_a_tuple_shape():
    with pytest.raises(TypeError, match=r"kostka needs IntPartitions, got \(2, 1\) and "):
        kostka((2, 1), IP((3,)))


def test_every_build_route_gives_one_object():
    """The constructor, parse, the trusted builder, conjugation and the type of
    a set partition give the one object of each value, for every n <= 7."""
    for n in range(8):
        for lam in int_partitions(n):
            routes = [
                IP(reversed(lam.parts)),
                IP.parse(str(lam)),
                IP._make(lam.parts),
                lam.conjugate().conjugate(),
                SetPartition.from_labels(i for i, p in enumerate(lam.parts) for _ in range(p)).type,
            ]
            for mu in routes:
                assert mu is lam
                assert mu == lam and hash(mu) == hash(lam) and mu <= lam and not mu < lam
    assert IP((3, 1)).conjugate() is IP((2, 1, 1)) and IP().conjugate() is IP()


def test_copies_and_pickles_are_the_object_itself():
    for n in range(6):
        for lam in int_partitions(n):
            assert copy.copy(lam) is lam and copy.deepcopy(lam) is lam
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(lam, protocol)) is lam
    empty = IP(())
    assert (empty.parts, empty.n, str(empty)) == ((), 0, "()")


def test_lex_is_linear_extension_of_dominance():
    for n in range(1, 7):
        for lam in int_partitions(n):
            for mu in int_partitions(n):
                if lam.dominates(mu) and lam != mu:
                    assert mu < lam


def test_kostka_examples():
    for lam in int_partitions(5):
        assert kostka(lam, lam) == 1
    assert kostka(IP((2, 1)), IP((1, 1, 1))) == 2
    assert kostka(IP((1, 1)), IP((2,))) == 0
    with pytest.raises(ValueError):
        kostka(IP((2,)), IP((1,)))


@pytest.mark.parametrize("n", range(9))
def test_kostka_matches_tableau_enumeration(n, verify_all):
    assert verify_all.checks[f"reference.n{n}.kostka_matches_enumeration"] == (True, "")


@pytest.mark.parametrize("n", range(1, 6))
def test_kostka_positive_iff_dominated(n):
    for lam in int_partitions(n):
        for mu in int_partitions(n):
            assert (kostka(lam, mu) > 0) == lam.dominates(mu)


def test_partition_listing_order():
    ps = int_partitions(4)
    assert [p.parts for p in ps] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert int_partitions(0) == [IP()]
