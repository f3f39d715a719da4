"""Families of subsets of {1..n} and exact maximum intersecting searches.

Members are bitmasks (index i on bit i-1); a family of whole levels takes
them from core._level_masks and a star from core._star_masks, in ascending
mask order.  The searches are maximum clique computations on the graph
whose vertices are candidate sets and whose edges join sets with nonempty
intersection.  Branch and bound, deterministic: vertices are tried in
ascending mask order, the bound is the lesser of a greedy coloring count
and a count of disjoint mated pairs, valid for any candidate set (see
_CliqueSearch).  The reported certificate is therefore the first maximum
family in DFS order.  The walk keeps an explicit stack of the open nodes'
candidate sets, so the clique size is not limited by Python's recursion
limit.  Searches whose input does not bound their work take a node budget
and raise when it runs out; the enumerations' capped inputs need none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _check_int, _check_n, _level_masks, _star_masks, indices_of_mask, mask_of_indices

__all__ = [
    "SetFamily",
    "SearchResult",
    "SearchBudgetExceeded",
    "is_intersecting",
    "is_odd_family",
    "all_odd_masks",
    "odd_upper_levels",
    "star",
    "max_odd_intersecting",
    "enumerate_max_odd_intersecting",
    "ekr_max",
    "two_level_max",
    "two_level_maxima",
]

DEFAULT_BUDGET = 2_000_000


class SetFamily:
    """An unordered family of distinct subsets of {1..n}."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks):
        _check_n(n)
        top = (1 << n) - 1
        self.n = n
        self.masks = tuple(sorted({_check_int(m, "member mask", 0, top) for m in masks}))

    @classmethod
    def from_sets(cls, n: int, sets):
        return cls(n, (mask_of_indices(n, s) for s in sets))

    def to_sets(self) -> list:
        """JSON-ready: a list of ascending index lists, members in mask order."""
        return [list(indices_of_mask(m)) for m in self.masks]

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.masks)

    def __contains__(self, mask):
        return mask in self.masks

    def __eq__(self, other):
        return isinstance(other, SetFamily) and other.n == self.n and other.masks == self.masks

    def __hash__(self):
        return hash((self.n, self.masks))

    def __repr__(self):
        return "SetFamily(n=%d, %r)" % (self.n, self.to_sets())


def is_intersecting(fam: SetFamily) -> bool:
    """Every two members meet; a family containing the empty set never does."""
    ms = fam.masks
    for i, a in enumerate(ms):
        for b in ms[i:]:
            if not a & b:
                return False
    return True


def is_odd_family(fam: SetFamily) -> bool:
    return all(m.bit_count() & 1 for m in fam.masks)


def all_odd_masks(n: int) -> list:
    return _level_masks(n, range(1, n + 1, 2))


def odd_upper_levels(n: int) -> SetFamily:
    """All sets of odd size i with 2i > n."""
    return SetFamily(n, _level_masks(n, (i for i in range(1, n + 1, 2) if 2 * i > n)))


def star(n: int, k: int, l: int) -> SetFamily:
    """All k-sets through the point l."""
    _check_int(k, "degree", 0, n)
    return SetFamily(n, (m for m in _star_masks(n, l) if m.bit_count() == k))


@dataclass(frozen=True)
class SearchResult:
    size: int
    family: SetFamily
    nodes: int


class SearchBudgetExceeded(RuntimeError):
    """Node budget ran out. .partial holds the best family found so far."""

    def __init__(self, budget: int, partial: SearchResult):
        super().__init__(
            "search budget of %d nodes exhausted (best found so far: %d)" % (budget, partial.size)
        )
        self.budget = budget
        self.partial = partial


def _down(s, n):
    """s less its last unmatched index in Greene and Kleitman's (1976)
    bracket matching: scanning 1..n, an absent index opens a bracket and a
    present one closes the latest open one.  Injective from level r > n/2
    onto level r - 1: the symmetric chains it walks are disjoint."""
    opened = last = 0
    for i in range(n):
        if not s >> i & 1:
            opened += 1
        elif opened:
            opened -= 1
        else:
            last = 1 << i
    return s ^ last


class _CliqueSearch:
    """Maximum clique over candidate masks, edges = nonempty intersection.

    mate pairs a k-set with its complement for even n, and for odd n with
    2k < n - 1 with _down of its complement; other sets stay unmated (-1).
    Both maps are injective, so mated sets are disjoint pairs and a clique
    holds at most one of each pair: |p| less the pairs inside p bounds it
    for any input, as the coloring count does, and _bound takes the lesser."""

    def __init__(self, n, cands, budget):
        self.n = n
        self.cands = list(cands)
        self.budget = DEFAULT_BUDGET if budget is None else _check_int(budget, "search budget", 1)
        m = len(self.cands)
        # member[i]: the candidates holding index i + 1; a row is the OR of
        # its set's member masks, less the set itself.
        member = [0] * n
        for a, c in enumerate(self.cands):
            for i in indices_of_mask(c):
                member[i - 1] |= 1 << a
        adj = []
        for a, c in enumerate(self.cands):
            row = 0
            for i in indices_of_mask(c):
                row |= member[i - 1]
            adj.append(row & ~(1 << a))
        self.adj = adj
        full = (1 << n) - 1
        pos = {c: i for i, c in enumerate(self.cands)}
        self.mate = [-1] * m
        self.low = 0
        for a, c in enumerate(self.cands):
            if n % 2 and 2 * c.bit_count() >= n - 1:
                continue
            b = pos.get(_down(full ^ c, n) if n % 2 else full ^ c, -1)
            if b >= 0:
                self.mate[a], self.mate[b] = b, a
                self.low |= 1 << min(a, b)
        self.nodes = 0
        self.best = []

    def _color_count(self, p):
        cnt = 0
        while p:
            cnt += 1
            q = p
            while q:
                lsb = q & -q
                v = lsb.bit_length() - 1
                p &= ~lsb
                q &= ~self.adj[v]
                q &= ~lsb
        return cnt

    def _pair_count(self, p):
        cnt = p.bit_count()
        q = p & self.low
        while q:
            lsb = q & -q
            q ^= lsb
            if p >> self.mate[lsb.bit_length() - 1] & 1:
                cnt -= 1
        return cnt

    def _bound(self, p):
        return min(self._color_count(p), self._pair_count(p))

    def result(self):
        fam = SetFamily(self.n, [self.cands[v] for v in self.best])
        return SearchResult(size=len(self.best), family=fam, nodes=self.nodes)

    def walk(self, target=None):
        """Depth-first branch and bound on an explicit stack.

        Without a target, return the SearchResult of the first maximum clique.
        With the maximum size as target, return every clique of that size.
        floor is the best size so far, or target - 1: a node deeper than floor
        becomes the best or is collected, and a node is expanded only while
        depth + bound > floor.  A nonempty candidate set bounds at least 1,
        so a node at depth >= floor with candidates left is expanded without
        computing its bound, and a first dive computes only the root's.  Each
        open node is one int, its candidates not yet tried: taking the
        lowest, v, drops it there, and the child's candidates are the rest
        that meet v.  top, the root's bound, caps every clique, so a
        maximising walk stops once the best reaches it; the first maximum is
        already the best then, so only nodes are saved."""
        adj, bound = self.adj, self._bound
        floor = len(self.best) if target is None else target - 1
        found, clique, open_nodes = [], [], []
        p = (1 << len(self.cands)) - 1
        top = bound(p) if p else 0
        while True:
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(self.budget, self.result())
            depth = len(clique)
            if depth > floor:
                if target is None:
                    floor = depth
                    self.best = list(clique)
                    if depth >= top:
                        return self.result()
                else:
                    found.append(SetFamily(self.n, [self.cands[v] for v in clique]))
            open_nodes.append(p if p and (depth >= floor or depth + (bound(p) if clique else top) > floor) else 0)
            while open_nodes:
                p = open_nodes[-1]
                if p and len(clique) + p.bit_count() > floor:
                    lsb = p & -p
                    open_nodes[-1] = p = p ^ lsb
                    v = lsb.bit_length() - 1
                    clique.append(v)
                    p &= adj[v]
                    break
                open_nodes.pop()
                if clique:
                    clique.pop()
            else:
                return self.result() if target is None else found


def max_odd_intersecting(n: int, budget=None) -> SearchResult:
    """Exact maximum size of an intersecting family of odd subsets of {1..n}.

    Default budget covers n <= 7; pass an explicit budget for larger n."""
    _check_n(n)
    if n > 7 and budget is None:
        raise ValueError("n=%d needs an explicit search budget (default covers n <= 7)" % n)
    return _CliqueSearch(n, all_odd_masks(n), budget).walk()


def _all_maxima(n, cands):
    """Every maximum clique: find the maximum, then collect each clique of that size."""
    search = _CliqueSearch(n, cands, None)
    return search.walk(search.walk().size)


def enumerate_max_odd_intersecting(n: int) -> list:
    """Every maximum family, n <= 5 only (the catalog grows fast)."""
    _check_n(n)
    if n > 5:
        raise ValueError("maxima enumeration is supported for n <= 5 only")
    return _all_maxima(n, all_odd_masks(n))


def ekr_max(n: int, k: int, budget=None) -> int:
    """Maximum intersecting family inside one level of k-sets, 2k <= n <= 12."""
    _check_int(n, "number of generators", 1, 12)
    _check_int(k, "level k", 1, n // 2)
    return _CliqueSearch(n, _level_masks(n, (k,)), budget).walk().size


def _two_level_cands(n, i):
    _check_n(n)
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3, got %r" % (n,))
    if _check_int(i, "level i", 1, (n - 3) // 2) % 2 == 0:
        raise ValueError("level i must be odd, got %r" % (i,))
    return _level_masks(n, (i, n - i - 1))


def two_level_max(n: int, i: int, budget=None) -> int:
    """Maximum intersecting family using only sizes i and n-i-1 (both odd)."""
    return _CliqueSearch(n, _two_level_cands(n, i), budget).walk().size


def two_level_maxima(n: int, i: int) -> list:
    """All maximum two-level families; sized for small n only."""
    cands = _two_level_cands(n, i)
    if len(cands) > 40:
        raise ValueError("two-level maxima enumeration limited to 40 candidates")
    return _all_maxima(n, cands)
