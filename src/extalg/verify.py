"""Built-in verification suite.

Every check replays one verifiable claim: a worked example with frozen
expected output, a law tested on seeded random inputs, or a quantity
computed along two independent routes (closed formula vs search, split
chain vs pivot read-off).  Checks are deterministic given the seed and
report a short data-bearing detail string.  The CLI exposes the suite
as the verify-paper subcommand; tests/test_acceptance.py groups the same
anchors into its acceptance criteria.

One rule, _ns, picks each anchor's own n's up to upto_n, and from n = l
for one built on the star index l.  None is above 8, so every upto_n >= 8
gives the upto_n = 8 report.  The one exception is text-round-trip, which
draws n up to min(8, upto_n + 2).

Each anchor seeds its own random stream and reports only its own detail,
so the anchors are independent: run_checks hands them to forked worker
processes, one per usable CPU by default, and returns their results in
CHECKS order.  The results, and so verify-paper's output, are the same for
every worker count; jobs=1 runs every anchor in this process, where a
profiler can see the work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import GrassmannElement, _check_int, _check_n, _element, _level_masks, _star_masks, monomial, unit, zero
from .fields import QQ, PrimeField, _check_field
from .setfamilies import (
    SetFamily,
    all_odd_masks,
    enumerate_max_odd_intersecting,
    ekr_max,
    is_intersecting,
    is_odd_family,
    max_odd_intersecting,
    odd_upper_levels,
    star,
    two_level_max,
    two_level_maxima,
)
from .structure import (
    assemble,
    canonical_max_commutative,
    hom_from_images,
    is_commutative,
    is_left_ideal,
    is_maximal_commutative,
    is_right_ideal,
    is_square_zero,
    is_subalgebra,
    max_commutative_dim,
    plucker_defects,
    radical_quotient_dim,
    upper_levels_commutative,
)
from .subspace import (
    even_space,
    family_space,
    full_space,
    grade_space,
    hilbert_series,
    initial_span,
    min_degree_space,
    monomial_space,
    monomial_supports,
    monomialize,
    odd_space,
    perp,
    product_span,
    skew_form,
    span,
    split_generator,
)
from .text import parse_element, print_element, read_subspace, write_subspace

__all__ = ["CheckResult", "run_checks", "ACCEPTANCE", "CATALOG"]

DEFAULT_SEED = 20240

# worked example inputs; tests may patch an entry to poison one check
CATALOG = {
    "split-order-n2": {"n": 2, "basis": ["v{1}+v{2}"]},
    "ideal-square-n4": {"n": 4, "basis": ["v{1,2}+v{3,4}", "v{1,2,3}", "v{1,2,4}", "v{1,3,4}", "v{2,3,4}", "v{1,2,3,4}"]},
    "order-dependent-supports-n6": {"n": 6, "basis": ["v{1,2,3}+v{4,5,6}", "v{1,2,4}+v{3,5,6}"]},
    "three-squares-n3": {"n": 3, "basis": ["v{1,2}+v{3}", "v{1}", "v{1,3}", "v{1,2,3}"]},
    "plucker-witness-n4": {"n": 4, "x": "v{1,2}+v{3,4}"},
    "nongraded-square-n3": {"n": 3, "x": "v{1}+v{2,3}"},
}


@dataclass
class CheckResult:
    anchor: str
    status: str  # pass | fail | skip
    detail: str

    def to_dict(self):
        return {"anchor": self.anchor, "status": self.status, "detail": self.detail}


class CheckFailure(Exception):
    pass


class CheckSkip(Exception):
    pass


class _Ctx:
    def __init__(self, upto_n, seed, l):
        self.upto_n = upto_n
        self.seed = seed
        self.l = l

    def rng(self, anchor):
        return random.Random("%s:%s" % (self.seed, anchor))


def _ns(ctx, lo, hi=None, step=1, on_l=False):
    """The n's an anchor runs at: lo, lo + step, ... up to hi (lo alone when
    hi is None) that are at most upto_n and, for an anchor built on the star
    index l, at least l.  When none is left the anchor skips, saying what it
    needs: n>=lo for a run of n's, an even n for the even ones, lo itself for
    a worked example (which may also run at hi), and n>=l for one on l."""
    hi = lo if hi is None else hi
    ns = [n for n in range(lo, hi + 1, step) if n <= ctx.upto_n]
    if not ns:
        if step == 1 and lo < hi:
            raise CheckSkip("needs n>=%d, limited to %d" % (lo, ctx.upto_n))
        if step == 2 and lo % 2 == 0:
            raise CheckSkip("needs an even n <= %d" % ctx.upto_n)
        raise CheckSkip("needs n=%d, limited to %d" % (lo, ctx.upto_n))
    if on_l and ns[-1] < ctx.l:
        raise CheckSkip("needs n>=l=%d, given n in %r" % (ctx.l, ns))
    return [n for n in ns if n >= ctx.l] if on_l else ns


# ---------------------------------------------------------------- generators

def random_element(rng, n, field=QQ, max_terms=4, coeff_bound=5, masks=None):
    """A seeded element of E(n) over field: 1 to max_terms distinct masks
    from masks (every mask by default), each with a nonzero integer
    coefficient in -coeff_bound..coeff_bound.

    For a random.Random the stream is that of randint(1, min(max_terms,
    len(pool))), then per term pool[randrange(len(pool))] (redrawn on a
    repeated mask) and randint(-coeff_bound, coeff_bound) (redrawn on 0).
    Every draw below k is made as CPython 3.10-3.13 make it:
    getrandbits(k.bit_length()), redrawn while it is >= k.  A coefficient
    that field.coerce sends to 0 still counts as a term, and is dropped."""
    _check_n(n)
    _check_field(field)
    if masks is None:
        pool = range(1 << n)
    else:
        pool = [_check_int(m, "mask", 0, (1 << n) - 1) for m in masks]
        if len(set(pool)) != len(pool):
            raise ValueError("random_element draws distinct masks, and masks repeats one")
    size = len(pool)
    k = min(max_terms, size)
    if k < 1 or coeff_bound < 1:
        raise ValueError("random_element needs a mask, max_terms >= 1 and coeff_bound >= 1")
    getrandbits = rng.getrandbits
    bits = k.bit_length()
    want = getrandbits(bits)  # one less than the number of terms
    while want >= k:
        want = getrandbits(bits)
    size_bits = size.bit_length()
    width = 2 * coeff_bound + 1
    width_bits = width.bit_length()
    coerce = field.coerce
    terms = {}
    while len(terms) <= want:
        m = getrandbits(size_bits)
        if m >= size:
            continue
        m = pool[m]
        if m in terms:
            continue
        c = getrandbits(width_bits)
        while c >= width or c == coeff_bound:
            c = getrandbits(width_bits)
        terms[m] = coerce(c - coeff_bound)
    if not all(terms.values()):
        terms = {m: c for m, c in terms.items() if c}
    return _element(n, field, terms)


def random_subspace(rng, n, max_dim=6, field=QQ, masks=None):
    k = rng.randint(1, max_dim)
    return span(
        [random_element(rng, n, field=field, masks=masks) for _ in range(k)],
        n=n,
        field=field,
    )


def random_intersecting_odd_family(rng, n, max_size=8):
    cands = all_odd_masks(n)
    rng.shuffle(cands)
    picked = []
    for m in cands:
        if all(m & x for x in picked):
            picked.append(m)
        if len(picked) >= max_size:
            break
    return SetFamily(n, picked)


def random_shear(rng, n, field=QQ):
    """Bijective algebra map v_i -> v_i + (odd correction of degree >= 3)."""
    odd_hi = _level_masks(n, range(3, n + 1, 2))
    images = []
    for i in range(1, n + 1):
        u = monomial(n, (i,), 1, field)
        if odd_hi and rng.random() < 0.7:
            m = odd_hi[rng.randrange(len(odd_hi))]
            c = rng.randint(-2, 2)
            if c:
                u = u + GrassmannElement(n, {m: field.coerce(c)})
        images.append(u)
    return hom_from_images(images, field=field)


# ------------------------------------------------------------------- checks

def check_product_rules(ctx):
    _ns(ctx, 4)
    x = parse_element("v{1}+v{2,3}", 3)
    if print_element(x * x) != "2*v{1,2,3}":
        raise CheckFailure("square of v{1}+v{2,3} is %s" % print_element(x * x))
    y = parse_element("v{1,2}+v{3,4}", 4)
    if print_element(y * y) != "2*v{1,2,3,4}":
        raise CheckFailure("square of v{1,2}+v{3,4} is %s" % print_element(y * y))
    a, b = parse_element("v{2}", 2), parse_element("v{1}", 2)
    if print_element(a * b) != "-v{1,2}":
        raise CheckFailure("v{2}*v{1} = %s" % print_element(a * b))
    g = parse_element("v{1}", 2)
    if (g * g).terms or (unit(2) * a != a) or (a * unit(2) != a):
        raise CheckFailure("unit or nilpotency rule broken")
    return "frozen product identities hold"


def check_mul_laws(ctx):
    rng = ctx.rng("mul-laws")
    count = 0
    for n in _ns(ctx, 2, 6):
        for _ in range(20):
            x = random_element(rng, n)
            y = random_element(rng, n)
            z = random_element(rng, n)
            if (x * y) * z != x * (y * z):
                raise CheckFailure("associativity fails at n=%d" % n)
            if x * (y + z) != x * y + x * z:
                raise CheckFailure("distributivity fails at n=%d" % n)
            xo, yo = x.odd_part(), y.odd_part()
            if xo * yo != -(yo * xo):
                raise CheckFailure("odd parts fail to anticommute at n=%d" % n)
            xe = x.even_part()
            if xe * y != y * xe:
                raise CheckFailure("even part is not central at n=%d" % n)
            count += 4
    return "%d random identities" % count


def check_substitution(ctx):
    rng = ctx.rng("substitution")
    count = 0
    for n in _ns(ctx, 2, 6):
        for _ in range(15):
            x = random_element(rng, n)
            y = random_element(rng, n)
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            if (x * y).substitute_zero(i) != x.substitute_zero(i) * y.substitute_zero(i):
                raise CheckFailure("substitution is not multiplicative at n=%d" % n)
            if x.substitute_zero(i).substitute_zero(i) != x.substitute_zero(i):
                raise CheckFailure("substitution is not idempotent")
            if x.substitute_zero(i).substitute_zero(j) != x.substitute_zero(j).substitute_zero(i):
                raise CheckFailure("substitutions do not commute")
            ker = x - x.substitute_zero(i)
            ker2 = y - y.substitute_zero(i)
            if (ker * ker2).terms:
                raise CheckFailure("kernel of substitution does not square to zero")
            count += 4
    return "%d substitution identities" % count


def check_order_total(ctx):
    from .core import Monomial, compare_monomials

    n = _ns(ctx, 1, 6)[-1]
    monos = [Monomial(n, m) for m in range(1 << n)]
    for a in monos:
        for b in monos:
            c1 = compare_monomials(a, b)
            c2 = compare_monomials(b, a)
            if c1 != -c2:
                raise CheckFailure("order not antisymmetric at %r,%r" % (a, b))
            if (c1 == 0) != (a.mask == b.mask):
                raise CheckFailure("order equality broken at %r,%r" % (a, b))
    key = sorted(monos, reverse=True)
    if [m.mask for m in key] != list(range(1 << n)):
        raise CheckFailure("descending monomial order is not ascending mask order")
    seq = sorted(monos)
    for i in range(len(seq) - 2):
        if not (seq[i] < seq[i + 1] < seq[i + 2]):
            raise CheckFailure("transitivity broken near position %d" % i)
    return "total order verified on %d monomials, mask agreement exact" % (1 << n)


def check_initial_product(ctx):
    rng = ctx.rng("initial-product")
    ns = _ns(ctx, 2, 6)
    pairs = 0
    used = 0
    while pairs < 10000:
        n = rng.randint(ns[0], ns[-1])
        x = random_element(rng, n)
        y = random_element(rng, n)
        pairs += 1
        tx, ty = x.initial_term(), y.initial_term()
        if min(tx.terms) & min(ty.terms):
            continue
        used += 1
        if (x * y).initial_term() != tx * ty:
            raise CheckFailure(
                "initial term of product differs for %s and %s" % (print_element(x), print_element(y))
            )
    return "%d pairs sampled, %d with nonvanishing leading product, no counterexample" % (pairs, used)


def check_chain_monomializes(ctx):
    rng = ctx.rng("chain")
    spaces = 0
    for n in _ns(ctx, 3, 7):
        for _ in range(100):
            d = random_subspace(rng, n, max_dim=min(10, 2 ** n // 2))
            m = monomialize(d)
            if m.dim != d.dim:
                raise CheckFailure("chain changed dimension at n=%d" % n)
            if not m.is_monomial():
                raise CheckFailure("chain output not monomial at n=%d" % n)
            if m != initial_span(d):
                raise CheckFailure(
                    "chain disagrees with pivot initial span at n=%d: %r vs %r" % (n, m, initial_span(d))
                )
            spaces += 1
    return "%d random subspaces monomialized, chain = initial span throughout" % spaces


def check_chain_permutations(ctx):
    rng = ctx.rng("chain-perm")
    spaces = 0
    for n in _ns(ctx, 3, 6):
        for _ in range(25):
            d = random_subspace(rng, n, max_dim=6)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            m = monomialize(d, order)
            if m.dim != d.dim or not m.is_monomial():
                raise CheckFailure("shuffled chain broke monomialization at n=%d" % n)
            fam = monomial_supports(d, order)
            if len(fam) != d.dim:
                raise CheckFailure("support family has wrong size at n=%d" % n)
            spaces += 1
    return "%d shuffled-order chains stay monomializing" % spaces


def check_split_products(ctx):
    rng = ctx.rng("split-products")
    count = 0
    for n in _ns(ctx, 3, 6):
        for _ in range(15):
            a = random_subspace(rng, n, max_dim=4)
            d = random_subspace(rng, n, max_dim=4)
            i = rng.randint(1, n)
            lhs = product_span(split_generator(a, i), split_generator(d, i))
            rhs = split_generator(product_span(a, d), i)
            if not rhs.contains_space(lhs):
                raise CheckFailure("product containment fails at n=%d i=%d" % (n, i))
            count += 1
    return "%d product containments verified" % count


def check_split_structure(ctx):
    rng = ctx.rng("split-structure")
    count = 0
    for n in _ns(ctx, 3, 6):
        for _ in range(8):
            shear = random_shear(rng, n)
            fam = random_intersecting_odd_family(rng, n)
            dsq = shear.apply_space(family_space(fam))
            if not is_square_zero(dsq):
                raise CheckFailure("generator setup broke square-zero at n=%d" % n)
            a = shear.apply_space(assemble(family_space(fam)))
            x = random_subspace(rng, n, max_dim=2)
            ideal_l = product_span(full_space(n), x)
            ideal_r = product_span(x, full_space(n))
            i = rng.randint(1, n)
            if not is_square_zero(split_generator(dsq, i)):
                raise CheckFailure("split broke square-zero at n=%d" % n)
            if not is_square_zero(monomialize(dsq)):
                raise CheckFailure("chain broke square-zero at n=%d" % n)
            sa = split_generator(a, i)
            if not (is_subalgebra(sa) and is_commutative(sa)):
                raise CheckFailure("split broke commutative subalgebra at n=%d" % n)
            ma = monomialize(a)
            if not (is_subalgebra(ma) and is_commutative(ma)):
                raise CheckFailure("chain broke commutative subalgebra at n=%d" % n)
            if not is_left_ideal(split_generator(ideal_l, i)):
                raise CheckFailure("split broke left ideal at n=%d" % n)
            if not is_right_ideal(split_generator(ideal_r, i)):
                raise CheckFailure("split broke right ideal at n=%d" % n)
            count += 1
    return "%d structured inputs preserved through splits and chains" % count


def check_split_monotone(ctx):
    rng = ctx.rng("split-monotone")
    count = 0
    for n in _ns(ctx, 3, 6):
        for _ in range(15):
            d = random_subspace(rng, n, max_dim=6)
            if d.dim < 2:
                continue
            take = rng.randint(1, d.dim - 1)
            vecs = []
            for _ in range(take):
                acc = zero(n)
                for b in d.basis:
                    acc = acc + b.scale(rng.randint(-2, 2))
                vecs.append(acc)
            a = span(vecs, n=n)
            i = rng.randint(1, n)
            if not split_generator(d, i).contains_space(split_generator(a, i)):
                raise CheckFailure("split not monotone at n=%d" % n)
            count += 1
    return "%d nested pairs stay nested" % count


def check_split_grading(ctx):
    rng = ctx.rng("split-grading")
    count = 0
    for n in _ns(ctx, 3, 6):
        for _ in range(10):
            k = rng.randint(1, n)
            d = random_subspace(rng, n, max_dim=4, masks=_level_masks(n, (k,)))
            i = rng.randint(1, n)
            if hilbert_series(split_generator(d, i)) != hilbert_series(d):
                raise CheckFailure("split changed the grade dimensions at n=%d" % n)
            if hilbert_series(monomialize(d)) != hilbert_series(d):
                raise CheckFailure("chain changed the grade dimensions at n=%d" % n)
            mix = d.sum(random_subspace(rng, n, max_dim=2, masks=_level_masks(n, (min(n, k + 1),))))
            pieces = [split_generator(mix.intersect(grade_space(n, j)), i) for j in range(n + 1)]
            glued = pieces[0]
            for p in pieces[1:]:
                glued = glued.sum(p)
            if split_generator(mix, i) != glued:
                raise CheckFailure("split does not respect the grading at n=%d" % n)
            count += 1
    return "%d graded subspaces keep their grade dimensions" % count


def check_min_space(ctx):
    rng = ctx.rng("min-space")
    count = 0
    for n in _ns(ctx, 3, 6):
        for _ in range(10):
            a = random_subspace(rng, n, max_dim=5)
            m = min_degree_space(a)
            if m.dim != a.dim:
                raise CheckFailure("lowest-degree space changed dimension at n=%d" % n)
            if not all(b.is_homogeneous() for b in m.basis):
                raise CheckFailure("lowest-degree space is not graded at n=%d" % n)
            shear = random_shear(rng, n)
            fam = random_intersecting_odd_family(rng, n)
            alg = shear.apply_space(assemble(family_space(fam)))
            malg = min_degree_space(alg)
            if malg.dim != alg.dim or not (is_subalgebra(malg) and is_commutative(malg)):
                raise CheckFailure("lowest-degree space broke a commutative subalgebra at n=%d" % n)
            dsq = shear.apply_space(family_space(fam))
            if not is_square_zero(min_degree_space(dsq)):
                raise CheckFailure("lowest-degree space broke square-zero at n=%d" % n)
            graded = monomialize(a)
            if min_degree_space(graded) != graded:
                raise CheckFailure("lowest-degree space moved a graded space at n=%d" % n)
            count += 1
    return "%d lowest-degree spaces preserve dimension and structure" % count


# ------------------------------------------------------------ worked examples

def _catalog_space(name):
    """The rational subspace spanned by the worked example CATALOG[name]."""
    return read_subspace({"field": "rational", **CATALOG[name]})


def check_split_order_n2(ctx):
    _ns(ctx, 2)
    w = _catalog_space("split-order-n2")
    left = monomialize(w, [1, 2])
    right = monomialize(w, [2, 1])
    if left != monomial_space(2, [0b01]):
        raise CheckFailure("chain 1,2 gave %r" % left)
    if right != monomial_space(2, [0b10]):
        raise CheckFailure("chain 2,1 gave %r" % right)
    if left == right:
        raise CheckFailure("the two chains unexpectedly agree")
    return "the two generator orders give v{1} and v{2}"


def check_ideal_square_n4(ctx):
    _ns(ctx, 4)
    a = _catalog_space("ideal-square-n4")
    if a.dim != 6 or not (is_left_ideal(a) and is_right_ideal(a)):
        raise CheckFailure("input is not the expected 6-dimensional ideal")
    split = split_generator(a, 1)
    want = monomial_space(4, [0b1100] + _level_masks(4, (3, 4)))
    if split != want:
        raise CheckFailure("split of the ideal came out as %r" % split)
    if not is_left_ideal(split):
        raise CheckFailure("split is no longer an ideal")
    sq = product_span(a, a)
    if sq != monomial_space(4, [0b1111]):
        raise CheckFailure("ideal square is %r" % sq)
    split_sq = product_span(split, split)
    if not split_sq.is_zero():
        raise CheckFailure("split ideal square is nonzero")
    if not split_generator(sq, 1).contains_space(split_sq) or split_generator(sq, 1).dim != 1:
        raise CheckFailure("containment of squares is broken")
    return "split ideal squares to 0 inside the 1-dimensional split of the square"


def check_two_orders_n6(ctx):
    _ns(ctx, 6)
    d = _catalog_space("order-dependent-supports-n6")
    fam_id = monomial_supports(d)
    fam_swap = monomial_supports(d, [1, 2, 6, 4, 5, 3])
    want_id = SetFamily.from_sets(6, [[1, 2, 3], [1, 2, 4]])
    want_swap = SetFamily.from_sets(6, [[4, 5, 6], [1, 2, 4]])
    if fam_id != want_id:
        raise CheckFailure("identity order family is %r" % fam_id.to_sets())
    if fam_swap != want_swap:
        raise CheckFailure("swapped order family is %r" % fam_swap.to_sets())
    return "support family moves with the generator order as expected"


def check_flag_chain_n5(ctx):
    (n,) = _ns(ctx, 5)
    d = span([_element(n, QQ, dict.fromkeys(_level_masks(n, (k,)), QQ.one)) for k in range(1, n + 1)], n=n)
    rng = ctx.rng("flag")
    orders = [list(range(1, n + 1)), list(range(n, 0, -1))]
    third = list(range(1, n + 1))
    rng.shuffle(third)
    orders.append(third)
    for order in orders:
        fam = monomial_supports(d, order)
        flag = []
        m = 0
        for i in order:
            m |= 1 << (i - 1)
            flag.append(m)
        if fam != SetFamily(n, flag):
            raise CheckFailure("order %r gave %r" % (order, fam.to_sets()))
    return "3 generator orders each give the nested flag on that order"


def check_three_squares_n3(ctx):
    _ns(ctx, 3)
    d = _catalog_space("three-squares-n3")
    canon = [print_element(b) for b in d.basis]
    if canon != ["v{1}", "v{1,2}+v{3}", "v{1,3}", "v{1,2,3}"]:
        raise CheckFailure("input drifted from the worked example: %r" % (canon,))
    m_asc = monomialize(d, [1, 2, 3])
    m_desc = monomialize(d, [3, 2, 1])
    dims = (
        product_span(d, d).dim,
        product_span(m_asc, m_asc).dim,
        product_span(m_desc, m_desc).dim,
    )
    if dims != (2, 0, 1):
        raise CheckFailure("square dimensions came out %r, wanted (2, 0, 1)" % (dims,))
    return "squares of the space and its two monomializations have dims 2, 0, 1"


def check_plucker_n4(ctx):
    _ns(ctx, 4)
    doc = CATALOG["plucker-witness-n4"]
    x = parse_element(doc["x"], doc["n"])
    defects = dict(plucker_defects(x))
    if defects[(1, 2, 3, 4)] != 1:
        raise CheckFailure("defect on 1,2,3,4 is %r" % (defects[(1, 2, 3, 4)],))
    if (x * x).is_zero():
        raise CheckFailure("witness square vanished")
    top = monomial(4, (1, 2, 3, 4))
    for s in range(-2, 3):
        for t in range(-2, 3):
            a = x.scale(s) + top.scale(t)
            if ((a * a).is_zero()) != (s == 0):
                raise CheckFailure("square-zero locus wrong at s=%d t=%d" % (s, t))
    rng = ctx.rng("plucker")
    deg2 = _level_masks(4, (2,))
    hits = 0
    for _ in range(200):
        y = random_element(rng, 4, masks=deg2)
        flat = all(not v for _, v in plucker_defects(y))
        if flat != (y * y).is_zero():
            raise CheckFailure("defect criterion disagrees with squaring on %s" % print_element(y))
        hits += flat
    for _ in range(50):
        a = random_element(rng, 4, masks=[1, 2, 4, 8])
        b = random_element(rng, 4, masks=[1, 2, 4, 8])
        y = a * b
        if y.is_zero() or y.degrees() != {2}:
            continue
        if any(v for _, v in plucker_defects(y)):
            raise CheckFailure("a product of linear elements has a nonzero defect")
    return "defects vanish exactly on square-zero degree-2 elements (200 samples, %d flat)" % hits


def check_nongraded_n3(ctx):
    _ns(ctx, 4)
    doc = CATALOG["nongraded-square-n3"]
    x = parse_element(doc["x"], doc["n"])
    if print_element(x * x) != "2*v{1,2,3}":
        raise CheckFailure("square is %s" % print_element(x * x))
    a3 = span([x, x * x])
    if not (is_subalgebra(a3) and is_commutative(a3)) or a3.is_graded():
        raise CheckFailure("the generated algebra should be a nongraded commutative subalgebra")
    low = min_degree_space(a3)
    if low != span([parse_element("v{1}", 3), parse_element("v{1,2,3}", 3)]):
        raise CheckFailure("lowest-degree space is %r" % low)
    if not is_square_zero(low):
        raise CheckFailure("lowest-degree space should square to zero")
    y = parse_element("v{1,2}+v{3,4}", 4)
    l = span([y, y * y])
    if not is_subalgebra(l) or l.dim != 2:
        raise CheckFailure("the n=4 witness algebra is off")
    flat = 0
    for s in range(-2, 3):
        for t in range(-2, 3):
            a = y.scale(s) + (y * y).scale(t)
            flat += (a * a).is_zero()
    if flat != 5:
        raise CheckFailure("square-zero locus of the witness algebra is not a line")
    return "nongraded square 2*v{1,2,3}; square-zero part of the witness algebra is a proper line"


# ---------------------------------------------------------------- dimensions

def check_dimension_table(ctx):
    want = [2, 3, 6, 12, 27, 48, 101, 192]
    got = [max_commutative_dim(n) for n in range(1, 9)]
    if got != want:
        raise CheckFailure("formula table %r, wanted %r" % (got, want))
    return "formula gives 2,3,6,12,27,48,101,192 for n=1..8"


def check_dimension_search(ctx):
    rows = []
    for n in _ns(ctx, 1, 7):
        res = max_odd_intersecting(n)
        if not is_intersecting(res.family) or not is_odd_family(res.family):
            raise CheckFailure("certificate at n=%d is not an intersecting odd family" % n)
        if len(res.family) != res.size:
            raise CheckFailure("certificate size mismatch at n=%d" % n)
        if 2 ** (n - 1) + res.size != max_commutative_dim(n):
            raise CheckFailure(
                "search gives %d at n=%d, formula %d" % (2 ** (n - 1) + res.size, n, max_commutative_dim(n))
            )
        rows.append("%d:%d" % (n, res.size))
    return "search matches the formula (" + ", ".join(rows) + ")"


def check_even_maximal(ctx):
    sizes = []
    for n in _ns(ctx, 2, 6, 2, on_l=True):
        a = canonical_max_commutative(n, ctx.l)
        if a.dim != 3 * 2 ** (n - 2):
            raise CheckFailure("canonical algebra at n=%d has dim %d" % (n, a.dim))
        if not is_maximal_commutative(a):
            raise CheckFailure("canonical algebra at n=%d is not maximal commutative" % n)
        d = a.intersect(odd_space(n))
        if d.dim != 2 ** (n - 2) or perp(d) != d:
            raise CheckFailure("odd part at n=%d is not its own perp" % n)
        sizes.append(n)
    return "even n in %r: dim 3*2^(n-2), maximal, odd part self-perp" % (sizes,)


def check_odd_maximal(ctx):
    rows = []
    for n in _ns(ctx, 1, 7, 2, on_l=True):
        a = canonical_max_commutative(n, ctx.l)
        if a.dim != max_commutative_dim(n):
            raise CheckFailure("canonical dim at n=%d is %d" % (n, a.dim))
        if not is_maximal_commutative(a):
            raise CheckFailure("canonical algebra at n=%d is not maximal commutative" % n)
        rows.append("%d:%d" % (n, a.dim))
    return "odd n canonical algebras maximal with formula dims (" + ", ".join(rows) + ")"


def check_star_all_n(ctx):
    rows = []
    for n in _ns(ctx, 2, 7, on_l=True):
        a = even_space(n).sum(monomial_space(n, _star_masks(n, ctx.l)))
        if a.dim != 3 * 2 ** (n - 2):
            raise CheckFailure("star algebra at n=%d has dim %d" % (n, a.dim))
        if not is_maximal_commutative(a):
            raise CheckFailure("star algebra at n=%d is not maximal commutative" % n)
        gap = max_commutative_dim(n) - a.dim
        if n % 2 == 0 and gap != 0:
            raise CheckFailure("even star algebra should reach the maximum")
        if n % 2 == 1 and n >= 5 and gap <= 0:
            raise CheckFailure("odd star algebra at n=%d should be below the maximum" % n)
        rows.append("%d:gap %d" % (n, gap))
    return "star algebras maximal at every n; " + ", ".join(rows)


def check_pairing_nondegenerate(ctx):
    ns = _ns(ctx, 2, 6, 2)
    for n in ns:
        if not perp(odd_space(n)).is_zero():
            raise CheckFailure("pairing degenerate at n=%d" % n)
        rng = ctx.rng("pairing%d" % n)
        for _ in range(20):
            a = random_element(rng, n, masks=all_odd_masks(n))
            b = random_element(rng, n, masks=all_odd_masks(n))
            if skew_form(a, b) != -skew_form(b, a):
                raise CheckFailure("pairing is not skew at n=%d" % n)
    return "perp of the whole odd part is 0 at n in %r, pairing skew on samples" % (ns,)


def check_assemble_round_trip(ctx):
    count = 0
    for n in _ns(ctx, 2, 6, on_l=True):
        a = canonical_max_commutative(n, ctx.l)
        d = a.intersect(odd_space(n))
        if assemble(d) != a:
            raise CheckFailure("assemble does not rebuild the canonical algebra at n=%d" % n)
        res = max_odd_intersecting(n)
        built = assemble(family_space(res.family))
        if built.dim != max_commutative_dim(n):
            raise CheckFailure("assembled certificate at n=%d has dim %d" % (n, built.dim))
        if not is_maximal_commutative(built):
            raise CheckFailure("assembled certificate at n=%d is not maximal" % n)
        count += 1
    return "%d assembled families are maximal with the right dimension" % count


def check_ekr(ctx):
    rows = []
    for n in _ns(ctx, 2, 8):
        for k in range(1, n // 2 + 1):
            got = ekr_max(n, k)
            want = math.comb(n - 1, k - 1)
            if got != want:
                raise CheckFailure("level search n=%d k=%d gave %d, wanted %d" % (n, k, got, want))
        rows.append(str(n))
    return "one-level maxima match binom(n-1,k-1) for n in " + ",".join(rows)


def check_two_level(ctx):
    ns = _ns(ctx, 5, 7, 2)
    got = two_level_max(5, 1)
    if got != 10:
        raise CheckFailure("two-level maximum at (5,1) is %d" % got)
    tops = two_level_maxima(5, 1)
    level3 = SetFamily(5, _level_masks(5, (3,)))
    if tops != [level3]:
        raise CheckFailure("two-level maximizer is not uniquely the full upper level")
    if 7 in ns:
        got7 = two_level_max(7, 1)
        if got7 != math.comb(7, 5):
            raise CheckFailure("two-level maximum at (7,1) is %d" % got7)
    return "two-level max 10 at (5,1) with the full upper level as unique maximizer"


def check_complement_bound(ctx):
    ns = _ns(ctx, 2, 6, 2)
    for n in ns:
        res = max_odd_intersecting(n)
        if res.size != 2 ** (n - 2):
            raise CheckFailure("even-side bound not tight at n=%d (%d)" % (n, res.size))
    return "complement pairing bound 2^(n-2) is attained at n in %r" % (ns,)


def check_maxima_catalog(ctx):
    ns = _ns(ctx, 3, 5, 2)
    tops3 = enumerate_max_odd_intersecting(3)
    want3 = [SetFamily.from_sets(3, [[x], [1, 2, 3]]) for x in (1, 2, 3)]
    if sorted(tops3, key=lambda f: f.masks) != sorted(want3, key=lambda f: f.masks):
        raise CheckFailure("n=3 maxima catalog is %r" % [f.to_sets() for f in tops3])
    if 5 in ns:
        tops5 = enumerate_max_odd_intersecting(5)
        if tops5 != [odd_upper_levels(5)]:
            raise CheckFailure("n=5 maximum is not uniquely the odd upper levels")
    return "n=3 maxima are the three stars plus the top set; n=5 maximum unique"


def check_certificate_shape_n7(ctx):
    _ns(ctx, 7)
    res = max_odd_intersecting(7)
    if res.size != 37:
        raise CheckFailure("n=7 search size %d" % res.size)
    upper = set(odd_upper_levels(7).masks)
    rest = [m for m in res.family.masks if m not in upper]
    if len(upper - set(res.family.masks)) != 0:
        raise CheckFailure("certificate misses upper-level sets")
    if any(m.bit_count() != 3 for m in rest):
        raise CheckFailure("low part of the certificate is not a single level")
    common = rest[0]
    for m in rest:
        common &= m
    if common == 0 or len(rest) != math.comb(6, 2):
        raise CheckFailure("low part is not a full star through one point")
    return "n=7 certificate = odd upper levels plus a 15-set star at level 3"


def check_radical_n4(ctx):
    _ns(ctx, 4, on_l=True)
    a = canonical_max_commutative(4, ctx.l)
    b = upper_levels_commutative(4, ctx.l)
    da, db = radical_quotient_dim(a), radical_quotient_dim(b)
    if da != math.comb(4, 2) + 1 or db != math.comb(4, 2) + math.comb(4, 3):
        raise CheckFailure("radical quotients at n=4 are %d and %d" % (da, db))
    if da == db:
        raise CheckFailure("radical invariant failed to separate the two algebras")
    if b.dim != 12 or not is_maximal_commutative(b):
        raise CheckFailure("companion algebra at n=4 is wrong")
    return "radical quotient dims 7 vs 10 separate the two n=4 maximal algebras"


def check_radical_n6(ctx):
    _ns(ctx, 6, on_l=True)
    a = canonical_max_commutative(6, ctx.l)
    b = upper_levels_commutative(6, ctx.l)
    da, db = radical_quotient_dim(a), radical_quotient_dim(b)
    want_b = math.comb(6, 2) + math.comb(5, 2) + math.comb(5, 5)
    if da != 16 or db != want_b:
        raise CheckFailure("radical quotients at n=6 are %d and %d" % (da, db))
    if da == db:
        raise CheckFailure("radical invariant failed to separate the two algebras")
    if b.dim != 48 or not is_maximal_commutative(b):
        raise CheckFailure("companion algebra at n=6 is wrong")
    return "radical quotient dims 16 vs 26 separate the two n=6 maximal algebras"


def check_family_bridge(ctx):
    rng = ctx.rng("bridge")
    ns = _ns(ctx, 2, 6)
    agree = 0
    for _ in range(500):
        n = rng.randint(ns[0], ns[-1])
        odd = all_odd_masks(n)
        k = rng.randint(1, min(8, len(odd)))
        fam = SetFamily(n, [odd[rng.randrange(len(odd))] for _ in range(k)])
        if not is_odd_family(fam):
            raise CheckFailure("generator produced a non-odd family")
        if is_intersecting(fam) != is_square_zero(family_space(fam)):
            raise CheckFailure("bridge fails on %r" % (fam.to_sets(),))
        agree += 1
    return "%d random odd families: intersecting exactly when the span squares to zero" % agree


def check_linear_image(ctx):
    _ns(ctx, 4)
    h = hom_from_images(
        [
            parse_element("v{1}+v{2,3,4}", 4),
            parse_element("v{2}", 4),
            parse_element("v{3}", 4),
            parse_element("v{4}", 4),
        ]
    )
    if not h.is_bijective():
        raise CheckFailure("the unitriangular map should be bijective")
    img = h.apply_space(canonical_max_commutative(4, 1))
    if img.dim != 12 or not is_maximal_commutative(img):
        raise CheckFailure("image of the canonical algebra is not maximal commutative")
    if img.is_graded():
        raise CheckFailure("image should not be graded")
    try:
        hom_from_images([parse_element("v{1,2}", 3)])
    except ValueError:
        pass
    else:
        raise CheckFailure("even generator image was accepted")
    return "bijective map carries the canonical algebra to a nongraded maximal one"


def check_text_roundtrip(ctx):
    rng = ctx.rng("text")
    for _ in range(1000):
        n = rng.randint(1, min(8, ctx.upto_n + 2))
        x = random_element(rng, n, max_terms=5, coeff_bound=9)
        if rng.random() < 0.3:
            x = x.scale(QQ.from_ratio(1, rng.randint(2, 7)))
        if parse_element(print_element(x), n) != x:
            raise CheckFailure("round trip failed for %s" % print_element(x))
    f7 = PrimeField(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        x = random_element(rng, n, field=f7)
        if parse_element(print_element(x), n, f7) != x:
            raise CheckFailure("round trip failed over gf:7 for %s" % print_element(x))
    if parse_element("v{2,1}", 2) != parse_element("-v{1,2}", 2):
        raise CheckFailure("index normalization sign is off")
    return "1200 print/parse round trips, rational and gf:7"


def check_documents(ctx):
    rng = ctx.rng("documents")
    ns = _ns(ctx, 1, 6)
    for _ in range(100):
        n = rng.randint(ns[0], ns[-1])
        s = random_subspace(rng, n, max_dim=4)
        doc = write_subspace(s)
        again = read_subspace(doc)
        if again != s or write_subspace(again) != doc:
            raise CheckFailure("document round trip failed at n=%d" % n)
    try:
        read_subspace({"n": 3, "field": "gf:2", "basis": []})
    except ValueError:
        pass
    else:
        raise CheckFailure("characteristic 2 document was accepted")
    return "100 document round trips; characteristic 2 rejected"


def check_prime_field_lane(ctx):
    rng = ctx.rng("gf")
    f5 = PrimeField(5)
    ns = _ns(ctx, 2, 5)
    for _ in range(30):
        n = rng.randint(ns[0], ns[-1])
        d = random_subspace(rng, n, max_dim=4, field=f5)
        m = monomialize(d)
        if m.dim != d.dim or not m.is_monomial() or m != initial_span(d):
            raise CheckFailure("gf:5 chain misbehaved at n=%d" % n)
    f3 = PrimeField(3)
    a = canonical_max_commutative(4, 1, field=f3)
    if not is_maximal_commutative(a) or a.dim != 12:
        raise CheckFailure("gf:3 canonical algebra fails the maximality test")
    return "30 gf:5 chains and the gf:3 canonical algebra behave like the rational lane"


CHECKS = [
    ("product-rules", check_product_rules),
    ("random-multiplication-laws", check_mul_laws),
    ("substitution-maps", check_substitution),
    ("monomial-order-total", check_order_total),
    ("initial-product-condition", check_initial_product),
    ("chain-monomializes", check_chain_monomializes),
    ("chain-shuffled-orders", check_chain_permutations),
    ("split-product-containment", check_split_products),
    ("split-preserves-structure", check_split_structure),
    ("split-monotone", check_split_monotone),
    ("split-grading", check_split_grading),
    ("lowest-degree-space", check_min_space),
    ("split-order-n2", check_split_order_n2),
    ("ideal-square-n4", check_ideal_square_n4),
    ("order-dependent-supports-n6", check_two_orders_n6),
    ("flag-chain-n5", check_flag_chain_n5),
    ("three-squares-n3", check_three_squares_n3),
    ("plucker-witness-n4", check_plucker_n4),
    ("nongraded-square-n3", check_nongraded_n3),
    ("dimension-table", check_dimension_table),
    ("dimension-search-match", check_dimension_search),
    ("even-canonical-maximal", check_even_maximal),
    ("odd-canonical-maximal", check_odd_maximal),
    ("star-algebra-every-n", check_star_all_n),
    ("pairing-nondegenerate", check_pairing_nondegenerate),
    ("assemble-round-trip", check_assemble_round_trip),
    ("one-level-maxima", check_ekr),
    ("two-level-maxima", check_two_level),
    ("complement-bound-tight", check_complement_bound),
    ("maxima-catalog-small-n", check_maxima_catalog),
    ("certificate-shape-n7", check_certificate_shape_n7),
    ("radical-invariant-n4", check_radical_n4),
    ("radical-invariant-n6", check_radical_n6),
    ("odd-family-bridge", check_family_bridge),
    ("linear-part-image", check_linear_image),
    ("text-round-trip", check_text_roundtrip),
    ("subspace-documents", check_documents),
    ("prime-field-lane", check_prime_field_lane),
]

# acceptance criteria -> anchors they rest on
ACCEPTANCE = {
    1: ["dimension-table", "dimension-search-match"],
    2: ["even-canonical-maximal"],
    3: [
        "chain-monomializes",
        "chain-shuffled-orders",
        "split-product-containment",
        "split-preserves-structure",
        "split-monotone",
        "split-grading",
        "lowest-degree-space",
    ],
    4: [
        "split-order-n2",
        "ideal-square-n4",
        "order-dependent-supports-n6",
        "flag-chain-n5",
        "three-squares-n3",
        "plucker-witness-n4",
        "nongraded-square-n3",
    ],
    5: ["initial-product-condition"],
    6: ["one-level-maxima", "two-level-maxima", "complement-bound-tight"],
    7: ["radical-invariant-n4", "radical-invariant-n6"],
    8: ["odd-family-bridge"],
}


def _run_one(ctx, i) -> CheckResult:
    anchor, fn = CHECKS[i]
    try:
        return CheckResult(anchor, "pass", fn(ctx))
    except CheckSkip as e:
        return CheckResult(anchor, "skip", str(e))
    except CheckFailure as e:
        return CheckResult(anchor, "fail", str(e))
    except Exception as e:  # an unexpected crash is a failure with context
        return CheckResult(anchor, "fail", "unexpected %s: %s" % (type(e).__name__, e))


def _worker_count(jobs, selected) -> int:
    """jobs, by default the CPUs this process may run on, capped at the
    number of anchors selected."""
    import os

    if jobs is None:
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(jobs, selected)


WORKER_DIED = "worker process exited before reporting this anchor"


def _work(ctx, tasks, w):
    """A forked worker: run each index read from tasks and write one JSON
    line [i, anchor, status, detail] per result to w, then exit without
    returning into the caller or running its exit handlers."""
    import json
    import os

    try:
        with open(w, "wb") as out:
            while b := os.read(tasks, 2):
                i = int.from_bytes(b, "big")
                r = _run_one(ctx, i)
                out.write(json.dumps([i, r.anchor, r.status, r.detail]).encode() + b"\n")
                out.flush()
    finally:
        os._exit(0)


def _run_forked(ctx, indices, workers) -> list:
    """The anchors at indices, run by forked workers that take one index
    at a time from a shared pipe; the results come back in the order of
    indices, and an anchor whose worker died is a failure."""
    import json
    import os

    tasks, w = os.pipe()
    os.write(w, b"".join(i.to_bytes(2, "big") for i in indices))
    os.close(w)
    pids, reads, got = [], [], {}
    try:
        for _ in range(workers):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(ctx, tasks, w)
                pids.append(pid)
            finally:
                os.close(w)
        while reads:
            with open(reads.pop(0), "rb") as f:
                for line in f.read().split(b"\n")[:-1]:
                    i, anchor, status, detail = json.loads(line)
                    got[i] = CheckResult(anchor, status, detail)
    except BaseException:
        from signal import SIGKILL

        for pid in pids:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for fd in [tasks] + reads:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return [got.get(i) or CheckResult(CHECKS[i][0], "fail", WORKER_DIED) for i in indices]


def run_checks(upto_n=7, seed=DEFAULT_SEED, l=1, anchors=None, jobs=None) -> list:
    """Run the suite (or the named anchors) and collect CheckResults in
    CHECKS order.

    upto_n must be at least 1, the star index l in 1..upto_n, jobs (the
    worker count, by default the usable CPUs) at least 1, and anchors a list
    of names in CHECKS; anything else is refused with ValueError before a
    check runs.  The anchors run in this process when there is one worker,
    when os.fork is missing, or when threads are live (forking a threaded
    process can deadlock); the results are the same for every worker count."""
    import os
    import sys

    _check_int(upto_n, "upto_n", 1)
    _check_int(l, "star index l", 1, upto_n)
    if jobs is not None:
        _check_int(jobs, "jobs", 1)
    names = {anchor for anchor, _ in CHECKS}
    wanted = names if anchors is None else set(anchors)
    if isinstance(anchors, str) or not wanted <= names:
        raise ValueError("anchors must be a list of names in CHECKS, not %r" % (anchors,))
    ctx = _Ctx(upto_n, seed, l)
    indices = [i for i, (anchor, _) in enumerate(CHECKS) if anchor in wanted]
    workers = _worker_count(jobs, len(indices))
    threading = sys.modules.get("threading")
    if workers <= 1 or not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return [_run_one(ctx, i) for i in indices]
    return _run_forked(ctx, indices, workers)
