import math
from itertools import combinations

import pytest

from extalg import setfamilies
from extalg.setfamilies import (
    SearchBudgetExceeded,
    SetFamily,
    all_odd_masks,
    ekr_max,
    enumerate_max_odd_intersecting,
    is_intersecting,
    is_odd_family,
    max_odd_intersecting,
    odd_upper_levels,
    star,
    two_level_max,
    two_level_maxima,
    _CliqueSearch,
    _down,
    _two_level_cands,
)


def brute_max_odd_intersecting(n):
    """Oracle for tiny n: try every subfamily of the odd masks."""
    masks = all_odd_masks(n)
    best = 0
    for r in range(len(masks), 0, -1):
        if r <= best:
            break
        for combo in combinations(masks, r):
            if all(a & b for a, b in combinations(combo, 2)):
                best = max(best, r)
                break
    return best


def test_setfamily_construction():
    f = SetFamily.from_sets(3, [[1, 2, 3], [1]])
    assert f.to_sets() == [[1], [1, 2, 3]]
    assert len(f) == 2
    assert 0b001 in f
    assert SetFamily(3, [1, 1, 7]) == SetFamily(3, [1, 7])
    with pytest.raises(ValueError):
        SetFamily.from_sets(3, [[4]])
    with pytest.raises(ValueError):
        SetFamily(3, [8])


def test_intersecting_and_odd_predicates():
    assert is_intersecting(SetFamily.from_sets(4, [[1, 2], [2, 3], [1, 3]]))
    assert not is_intersecting(SetFamily.from_sets(4, [[1, 2], [3, 4]]))
    assert is_intersecting(SetFamily(4, []))
    assert not is_intersecting(SetFamily(4, [0]))  # the empty set meets nothing
    assert is_odd_family(SetFamily.from_sets(4, [[1], [1, 2, 3]]))
    assert not is_odd_family(SetFamily.from_sets(4, [[1, 2]]))
    assert is_odd_family(SetFamily(4, []))


def test_all_odd_masks():
    assert len(all_odd_masks(4)) == 8
    assert all(m.bit_count() & 1 for m in all_odd_masks(5))


def test_star_and_upper_levels():
    s = star(4, 3, 2)
    assert len(s) == math.comb(3, 2)
    assert all(m & 0b0010 for m in s.masks)
    u = odd_upper_levels(5)
    assert len(u) == math.comb(5, 3) + math.comb(5, 5)
    assert all(2 * m.bit_count() > 5 for m in u.masks)
    assert is_intersecting(u) and is_odd_family(u)


def test_search_matches_brute_force_tiny():
    for n in (1, 2, 3, 4):
        assert max_odd_intersecting(n).size == brute_max_odd_intersecting(n)


def test_search_values():
    want = {1: 1, 2: 1, 3: 2, 4: 4, 5: 11, 6: 16, 7: 37}
    for n, size in want.items():
        res = max_odd_intersecting(n)
        assert res.size == size
        assert len(res.family) == size
        assert is_intersecting(res.family) and is_odd_family(res.family)


def test_search_deterministic():
    a = max_odd_intersecting(6)
    b = max_odd_intersecting(6)
    assert a.size == b.size and a.family == b.family and a.nodes == b.nodes


def test_search_budget():
    with pytest.raises(SearchBudgetExceeded) as e:
        max_odd_intersecting(7, budget=50)
    partial = e.value.partial
    assert partial.size >= 1
    assert is_intersecting(partial.family) and is_odd_family(partial.family)
    with pytest.raises(ValueError):
        max_odd_intersecting(8)  # larger n demands an explicit budget


def test_search_counters_pinned():
    # The walk's order, pruning and root-bound exit fix every node count; a
    # change to any of them shows here.  n = 7 never reaches its root bound.
    sizes = [1, 1, 2, 4, 11, 16, 37, 64]
    nodes = [2, 2, 3, 5, 22, 17, 702, 65]
    for n in range(1, 9):
        res = max_odd_intersecting(n, budget=10**5 if n == 8 else None)
        assert (res.size, res.nodes) == (sizes[n - 1], nodes[n - 1])
    with pytest.raises(SearchBudgetExceeded) as e:
        max_odd_intersecting(7, budget=50)
    assert (e.value.partial.size, e.value.partial.nodes) == (32, 51)


def test_ground_size_refused_before_the_search_graph():
    with pytest.raises(ValueError):
        max_odd_intersecting(17, budget=1)
    with pytest.raises(ValueError):
        max_odd_intersecting(0)
    with pytest.raises(ValueError):
        enumerate_max_odd_intersecting(0)
    with pytest.raises(ValueError):
        two_level_max(17, 1, budget=1)
    with pytest.raises(ValueError, match="n <= 5 only"):
        enumerate_max_odd_intersecting(6)
    with pytest.raises(ValueError, match="40 candidates"):
        two_level_maxima(9, 1)


def test_enumerate_maxima_n3():
    tops = enumerate_max_odd_intersecting(3)
    want = [SetFamily.from_sets(3, [[x], [1, 2, 3]]) for x in (1, 2, 3)]
    assert sorted(f.masks for f in tops) == sorted(f.masks for f in want)


def test_enumerate_maxima_n5_unique():
    tops = enumerate_max_odd_intersecting(5)
    assert tops == [odd_upper_levels(5)]


def test_certificate_shape_n7():
    res = max_odd_intersecting(7)
    upper = set(odd_upper_levels(7).masks)
    assert upper <= set(res.family.masks)
    low = [m for m in res.family.masks if m not in upper]
    assert len(low) == math.comb(6, 2)
    assert all(m.bit_count() == 3 for m in low)
    meet = low[0]
    for m in low:
        meet &= m
    assert meet != 0


def test_ekr_values():
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            assert ekr_max(n, k) == math.comb(n - 1, k - 1)


def test_ekr_validation():
    with pytest.raises(ValueError):
        ekr_max(4, 3)  # k beyond n/2 makes the question trivial
    with pytest.raises(ValueError):
        ekr_max(0, 1)


def test_two_level():
    assert two_level_max(5, 1) == 10
    level3 = SetFamily(5, [m for m in range(32) if m.bit_count() == 3])
    assert two_level_maxima(5, 1) == [level3]
    assert two_level_max(7, 1) == math.comb(7, 5)
    with pytest.raises(ValueError):
        two_level_max(6, 1)
    with pytest.raises(ValueError):
        two_level_max(7, 2)
    with pytest.raises(ValueError):
        two_level_max(5, 3)


def test_complement_bound_tight_even_n():
    for n in (2, 4, 6):
        assert max_odd_intersecting(n).size == 2 ** (n - 2)


def test_family_hash_and_iter():
    f = SetFamily.from_sets(3, [[1], [3]])
    assert set(f) == {0b001, 0b100}
    assert len({f, SetFamily.from_sets(3, [[3], [1]])}) == 1


def test_down_drops_one_index_and_is_injective_on_upper_levels():
    for n in range(1, 13):
        for r in range(n // 2 + 1, n + 1):
            level = [m for m in range(1 << n) if m.bit_count() == r]
            downs = {_down(m, n) for m in level}
            assert len(downs) == len(level)
            for m in level:
                d = _down(m, n)
                assert d & m == d and d.bit_count() == r - 1


@pytest.fixture(scope="module")
def odd_search():
    searches = {}

    def build(n):
        if n not in searches:
            searches[n] = _CliqueSearch(n, all_odd_masks(n), None)
        return searches[n]

    return build


def test_mates_are_disjoint_pairs(odd_search):
    for n in range(1, 13):
        s = odd_search(n)
        for a, b in enumerate(s.mate):
            if b >= 0:
                assert s.mate[b] == a and not s.cands[a] & s.cands[b]
                assert s.low >> min(a, b) & 1 and not s.low >> max(a, b) & 1
            else:
                assert not s.low >> a & 1


def test_root_bound_of_the_odd_search(odd_search):
    def root(n):
        s = odd_search(n)
        return s._bound((1 << len(s.cands)) - 1)

    assert root(9) == 163 and root(13) == 2510
    for n in range(2, 13, 2):
        assert root(n) == 2 ** (n - 2)


class _ColourOnly(_CliqueSearch):
    """The reference bound: the greedy colouring count alone, no mates."""

    def _bound(self, p):
        return self._color_count(p)


def test_mate_bound_matches_colour_only_search(monkeypatch):
    def search(cls, n, cands, budget=None):
        """(size, family, partial?, nodes, root bound) of one search."""
        s = cls(n, cands, budget)
        root = s._bound((1 << len(s.cands)) - 1)
        try:
            r = s.walk()
            return r.size, r.family, False, r.nodes, root
        except SearchBudgetExceeded as e:
            return e.partial.size, e.partial.family, True, e.partial.nodes, root

    cases = [(n, all_odd_masks(n), None) for n in range(1, 8)]
    cases += [(n, [m for m in range(1 << n) if m.bit_count() == k], None) for n in range(2, 9) for k in range(1, n // 2 + 1)]
    cases += [(n, _two_level_cands(n, 1), None) for n in (5, 7, 9)]
    # the odd sets through 1 already intersect: a valid root bound is their number
    cases += [(n, [m for m in all_odd_masks(n) if m & 1], None) for n in range(1, 9)]
    cases += [(7, all_odd_masks(7), b) for b in (10, 50, 137)]
    for n, cands, budget in cases:
        mated = search(_CliqueSearch, n, cands, budget)
        colour = search(_ColourOnly, n, cands, budget)
        assert mated[:3] == colour[:3] and mated[3] <= colour[3]
        assert mated[4] >= colour[0]
    # Colour alone cannot prove n = 8 in 10^4 nodes, but by then it holds the same family.
    mated = search(_CliqueSearch, 8, all_odd_masks(8))
    colour = search(_ColourOnly, 8, all_odd_masks(8), 10**4)
    assert mated[:3] == colour[:2] + (False,) and colour[2] and mated[4] >= colour[0]
    mated = [enumerate_max_odd_intersecting(3), enumerate_max_odd_intersecting(5), two_level_maxima(5, 1)]
    monkeypatch.setattr(setfamilies, "_CliqueSearch", _ColourOnly)
    assert mated == [enumerate_max_odd_intersecting(3), enumerate_max_odd_intersecting(5), two_level_maxima(5, 1)]


def pairwise_rows(cands):
    """The adjacency rows by the definition: bit b of row a when a != b and the sets meet."""
    return [sum(1 << b for b, d in enumerate(cands) if b != a and c & d) for a, c in enumerate(cands)]


def test_adjacency_from_index_masks_matches_pairwise_rows():
    cases = [(n, all_odd_masks(n)) for n in range(1, 11)]
    cases += [(n, [m for m in range(1 << n) if m.bit_count() == k]) for n in range(2, 9) for k in range(1, n // 2 + 1)]
    cases += [(7, _two_level_cands(7, 1))]
    # the empty set meets nothing; a repeated set meets its copy
    cases += [(3, [0, 1, 3, 1, 6])]
    for n, cands in cases:
        assert _CliqueSearch(n, cands, None).adj == pairwise_rows(cands)


# _level_masks against a filter over every mask, and each builder on it
# against the comprehension it replaced; lists compare with their order,
# since seeded draws in verify-paper index into them.
def filtered_masks(n, sizes):
    return [m for m in range(1 << n) if m.bit_count() in sizes]


@pytest.mark.parametrize("n", range(1, 11))
def test_level_masks_match_a_filter_over_every_mask(n):
    from extalg.core import _level_masks

    size_sets = [(), tuple(range(n + 1)), tuple(range(0, n + 1, 2)), tuple(range(1, n + 1, 2)),
                 tuple(range(3, n + 1, 2)), (n,), (0, n), (n + 1,)]
    size_sets += [(k,) for k in range(n + 1)] + [(i, n - i - 1) for i in range(n)]
    for sizes in size_sets:
        assert _level_masks(n, sizes) == filtered_masks(n, sizes), sizes
    assert _level_masks(n, iter(range(1, n + 1, 2))) == filtered_masks(n, range(1, n + 1, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_star_masks_are_the_masks_through_l_ascending(n):
    from extalg.core import _star_masks, indices_of_mask

    for l in range(1, n + 1):
        assert _star_masks(n, l) == [m for m in range(1 << n) if l in indices_of_mask(m)]
    for l in (0, n + 1, True, "1"):
        with pytest.raises(ValueError, match="star element"):
            _star_masks(n, l)


@pytest.mark.parametrize("n", range(1, 11))
def test_level_builders_match_their_former_comprehensions(n):
    from extalg.subspace import even_space, grade_space, odd_space

    assert all_odd_masks(n) == [m for m in range(1, 1 << n) if m.bit_count() & 1]
    assert list(odd_upper_levels(n).masks) == [
        m for m in range(1, 1 << n) if m.bit_count() & 1 and 2 * m.bit_count() > n]
    for k in range(n + 1):
        for l in range(1, n + 1):
            bit = 1 << (l - 1)
            assert list(star(n, k, l).masks) == [m for m in range(1 << n) if m & bit and m.bit_count() == k]
    if n <= 8:
        for k in range(n + 1):
            assert list(grade_space(n, k).pivot_masks()) == [m for m in range(1 << n) if m.bit_count() == k]
        assert list(even_space(n).pivot_masks()) == [m for m in range(1 << n) if not m.bit_count() & 1]
        assert list(odd_space(n).pivot_masks()) == [m for m in range(1 << n) if m.bit_count() & 1]
    if n >= 3 and n % 2:
        for i in range(1, (n - 3) // 2 + 1, 2):
            j = n - i - 1
            assert _two_level_cands(n, i) == [m for m in range(1 << n) if m.bit_count() in (i, j)]
