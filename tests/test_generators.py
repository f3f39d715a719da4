"""The seeded generator random_element draws straight from getrandbits.  Its
stream must stay that of the randint/randrange generator it replaced, or
every seeded verify-paper input would change.  The check needs no pytest, so
it also runs as a script on any interpreter:

    PYTHONPATH=src python tests/test_generators.py
"""

import hashlib
import random

from extalg.core import GrassmannElement, _level_masks
from extalg.fields import QQ, PrimeField
from extalg.text import print_element
from extalg.verify import DEFAULT_SEED, random_element, random_shear, random_subspace


def random_element_by_randint(rng, n, field=QQ, max_terms=4, coeff_bound=5, masks=None):
    """The generator as it was written with randint and randrange."""
    pool = range(1 << n) if masks is None else list(masks)
    want = rng.randint(1, min(max_terms, len(pool)))
    terms = {}
    while len(terms) < want:
        m = pool[rng.randrange(len(pool))]
        if m in terms:
            continue
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        terms[m] = field.coerce(c)
    return GrassmannElement(n, terms)


def configs(n):
    odd = [m for m in range(1 << n) if m.bit_count() & 1]
    return [
        {},
        {"field": PrimeField(3)},
        {"field": PrimeField(5)},
        {"masks": odd},
        {"masks": odd[:1]},
        {"field": PrimeField(3), "masks": odd},
        {"max_terms": 5, "coeff_bound": 9},
        {"field": PrimeField(5), "max_terms": 5, "coeff_bound": 9},
    ]


def test_random_element_draws_the_randint_stream(seeds=2000):
    zeros = 0
    for seed in range(seeds):
        n = 1 + seed % 7
        fast, slow = random.Random(seed), random.Random(seed)
        for kw in configs(n):
            for _ in range(2):
                x = random_element(fast, n, **kw)
                y = random_element_by_randint(slow, n, **kw)
                assert x == y and x.field == y.field, (seed, kw, x, y)
                assert x.field == kw.get("field", QQ)
                zeros += not x.terms
            assert fast.random() == slow.random(), (seed, kw)
    # GF(3) and GF(5) send some drawn coefficients (+-3, +-5) to 0
    assert zeros > 0


def test_random_element_refuses_an_empty_draw():
    rng = random.Random(1)
    # each of these used to raise or to loop for ever; a repeated mask looped
    # whenever more terms were drawn than there are distinct masks
    for kw in ({"masks": []}, {"max_terms": 0}, {"coeff_bound": 0}, {"masks": [4]}, {"masks": [1, 1]}):
        try:
            random_element(rng, 2, **kw)
        except ValueError:
            continue
        raise AssertionError("random_element accepted %r" % (kw,))


def test_seeded_shears_and_level_pools_are_pinned():
    """verify-paper reports only counts, so its pins pass even if every shear
    is the identity or a level pool comes in another order; these digests
    pin the drawn inputs themselves."""
    lines = []
    for field in (QQ, PrimeField(3)):
        for n in range(3, 9):
            h = random_shear(random.Random("%s:shear-pin" % DEFAULT_SEED), n, field)
            lines.append("shear %s %d: %s" % (field.name, n, " ".join(map(print_element, h.images))))
            rng = random.Random("%s:pool-pin" % DEFAULT_SEED)
            for k in range(1, n + 1):
                d = random_subspace(rng, n, max_dim=4, field=field, masks=_level_masks(n, (k,)))
                lines.append("pool %s %d %d: %s" % (field.name, n, k, " ".join(map(print_element, d.basis))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "2b3a0906d4c5a17331614b746dc90871a322881c81ea44cd38cdb178969991a6"


if __name__ == "__main__":
    test_random_element_draws_the_randint_stream()
    test_random_element_refuses_an_empty_draw()
    test_seeded_shears_and_level_pools_are_pinned()
    print("random_element: randint stream reproduced")
