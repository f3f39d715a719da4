"""Property tests.  Inputs come from the seeded generators in extalg.verify:
hypothesis draws n, the field, the kind of space and the generator's seed."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from extalg.fields import QQ, PrimeField  # noqa: E402
from extalg.subspace import product_span, span  # noqa: E402
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
