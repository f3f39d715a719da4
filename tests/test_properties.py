"""Property tests.  Inputs come from the seeded generators in extalg.verify:
hypothesis draws n, the field, the kind of space and the generator's seed."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from extalg.core import GrassmannElement, zero  # noqa: E402
from extalg.fields import QQ, PrimeField  # noqa: E402
from extalg.setfamilies import SearchBudgetExceeded, _CliqueSearch  # noqa: E402
from extalg.subspace import Subspace, min_degree_space, perp, product_span, span, split_generator  # noqa: E402
from extalg.verify import random_element, random_subspace  # noqa: E402
from test_subspace import product_span_all_pairs  # noqa: E402


def drawn_space(rng, n, field, max_terms):
    """random_subspace for None, else a span of random_element vectors with at
    most max_terms terms (1 gives a monomial space, 2 mixes in sums)."""
    if max_terms is None:
        return random_subspace(rng, n, field=field)
    vecs = [random_element(rng, n, field=field, max_terms=max_terms) for _ in range(rng.randint(1, 8))]
    return span(vecs, n=n, field=field)


@st.composite
def space_pairs(draw):
    n = draw(st.integers(1, 7))
    field = draw(st.sampled_from([QQ, PrimeField(3)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from([1, 2, None])
    return drawn_space(rng, n, field, draw(kinds)), drawn_space(rng, n, field, draw(kinds))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(space_pairs())
def test_product_span_equals_the_span_of_all_pairwise_products(pair):
    a, b = pair
    assert product_span(a, b) == product_span_all_pairs(a, b)


def as_fractions(x):
    """x with every coefficient wrapped in a Fraction."""
    return GrassmannElement(x.n, {m: Fraction(c) for m, c in x.terms.items()})


def coefficients(result):
    basis = result.basis if hasattr(result, "basis") else (result,)
    return [c for b in basis for c in b.terms.values()]


def rational_results(n, xs, ys, odd, k, i):
    """Every arithmetic and subspace result on the vectors xs, ys (odd ones in
    odd), a nonzero scalar k and a generator index i, keyed by its name."""
    x, y = xs[0], ys[0]
    a, b = span(xs, n=n), span(ys, n=n)
    d = span(odd, n=n)
    return {
        "x+y": x + y,
        "x-y": x - y,
        "x*y": x * y,
        "x/k": x / k,
        "x.scale(k)": x.scale(k),
        "span": a,
        "sum": a.sum(b),
        "intersect": a.intersect(b),
        "split_generator": split_generator(a, i),
        "product_span": product_span(a, b),
        "perp": perp(d),
        "min_degree_space": min_degree_space(a),
    }


@st.composite
def rational_inputs(draw):
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    odd_masks = [m for m in range(1 << n) if m.bit_count() & 1]

    def vectors(masks=None):
        return [random_element(rng, n, masks=masks) for _ in range(rng.randint(1, 5))]

    k = draw(st.sampled_from([-5, -3, -2, -1, 1, 2, 4]))
    return n, vectors(), vectors(), vectors(odd_masks), k, draw(st.integers(1, n))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(rational_inputs())
def test_rational_coefficients_are_ints_or_fractions_and_match_the_fraction_path(inputs):
    """Rational coefficients stay ints until a division makes a Fraction: no
    result holds a float or a bool, + - * and scaling by an int keep ints, and
    every result equals, and hashes like, the one computed from inputs whose
    coefficients are all Fractions."""
    n, xs, ys, odd, k, i = inputs
    got = rational_results(n, xs, ys, odd, k, i)
    wrap = [as_fractions(v) for v in xs], [as_fractions(v) for v in ys], [as_fractions(v) for v in odd]
    want = rational_results(n, *wrap, Fraction(k), i)
    for name, result in got.items():
        assert all(type(c) in (int, Fraction) for c in coefficients(result)), name
        assert result == want[name] and hash(result) == hash(want[name]), name
    for name in ("x+y", "x-y", "x*y", "x.scale(k)"):
        assert all(type(c) is int for c in coefficients(got[name])), name


class _NoRootExit(_CliqueSearch):
    """The walk without its root-bound exit: the root's bound is raised above
    every clique, and every other node keeps its real bound (no child holds
    all candidates, so only the root sees the raised one)."""

    def _bound(self, p):
        if p == (1 << len(self.cands)) - 1:
            return len(self.cands) + 1
        return super()._bound(p)


def searched(cls, n, cands, budget):
    """(result or partial, ran out of budget?) of one maximising walk."""
    try:
        return cls(n, cands, budget).walk(), False
    except SearchBudgetExceeded as e:
        return e.partial, True


@st.composite
def candidate_sets(draw):
    n = draw(st.integers(1, 7))
    cands = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=48, unique=True))
    return n, cands, draw(st.integers(1, 300))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(candidate_sets())
def test_root_bound_exit_keeps_the_family_and_no_partial_overshoots(case):
    n, cands, budget = case
    top, _ = searched(_CliqueSearch, n, cands, 10**6)
    got, ran_out = searched(_CliqueSearch, n, cands, budget)
    ref, ref_ran_out = searched(_NoRootExit, n, cands, budget)
    assert (got.size, got.family) == (ref.size, ref.family)
    assert got.nodes <= ref.nodes and ran_out <= ref_ran_out
    assert got.size <= top.size and (ran_out or got.size == top.size)


def mutated_bases(rng, s):
    """s's basis after each of four edits at random positions: a zero vector
    inserted, a vector scaled by 2, one vector added to another and two
    vectors swapped.  The scaling needs one vector, the sum and the swap two."""
    b = list(s.basis)
    i = rng.randint(0, len(b))
    yield "zero", b[:i] + [zero(s.n)] + b[i:]
    if not b:
        return
    i, j = rng.sample(range(len(b)), 2) if len(b) > 1 else (0, 0)
    yield "scale", b[:i] + [b[i].scale(2)] + b[i + 1:]
    if len(b) > 1:
        yield "add", b[:i] + [b[i] + b[j]] + b[i + 1:]
        swapped = list(b)
        swapped[i], swapped[j] = b[j], b[i]
        yield "swap", swapped


@st.composite
def drawn_subspaces(draw):
    n = draw(st.integers(1, 6))
    field = draw(st.sampled_from([QQ, PrimeField(3)]))
    return random_subspace(random.Random(draw(st.integers(0, 2**32 - 1))), n, field=field)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(drawn_subspaces(), st.integers(0, 2**32 - 1))
def test_subspace_constructor_accepts_exactly_the_reduced_echelon_basis(s, seed):
    """Subspace(n, field, basis) takes a span's own basis back, and refuses
    each edit of it with ValueError exactly when the edit changes the basis."""
    assert Subspace(s.n, s.field, s.basis) == s
    for name, basis in mutated_bases(random.Random(seed), s):
        if tuple(basis) == s.basis:
            assert Subspace(s.n, s.field, basis) == s, name
        else:
            with pytest.raises(ValueError):
                Subspace(s.n, s.field, basis)
