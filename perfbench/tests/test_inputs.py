from itertools import islice

from inputs import relabelings

DEGREES = (10, 10, 14, 14)


def take(seed, n=12, workload="relabel_identify"):
    return list(islice(relabelings(workload, seed, DEGREES), n))


def test_same_seed_same_relabelings():
    assert take(7) == take(7)


def test_different_seeds_differ():
    assert take(7) != take(8)
    assert all(a != b for a, b in zip(take(7), take(8)))


def test_permutations_follow_round_robin_degrees():
    perms = take(3)
    assert [len(p) for p in perms] == list(DEGREES) * 3
    assert all(sorted(p) == list(range(len(p))) for p in perms)


def test_workloads_draw_separate_streams():
    assert take(7, workload="relabel_identify") != take(7, workload="chartab_tower")
