"""Seeded inputs, job lists and exactness checks for the four workloads.

A workload is a fixed list of jobs.  A job calls ``extalg.cli.main(argv)``
in-process with stdout captured, or a public library function where no
subcommand exists, and yields the bytes a user would read.  Every job has
a checker that judges those bytes by a route independent of the code that
produced them: a closed formula, a count of masks, or a property of the
input that the generator fixed by construction.

Inputs are written as subspace documents under a work directory; the
package only ever receives those files (or literal arguments).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

GF_TAG = "gf:10007"


@dataclass
class Job:
    name: str
    run: Callable[[object], bytes]  # receives the imported extalg package
    check: Callable[[bytes], str | None]  # None when the output is right


@dataclass
class Workload:
    name: str
    min_passes: int  # fewest passes a run takes, however long they are
    jobs: list  # every pass runs these, in this order


class JobFailed(Exception):
    """A job returned a nonzero exit code or the wrong kind of output."""


def cli_bytes(ext, argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ext.cli.main(list(argv))
    if code != 0:
        raise JobFailed("exit %d: %s" % (code, err.getvalue().strip()[-200:]))
    return out.getvalue().encode()


def dumps(obj) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------- independent facts

def formula_max_dim(n: int) -> int:
    """The paper's closed formula for the maximal commutative dimension."""
    if n % 2 == 0:
        return 3 * 2 ** (n - 2)
    if n % 4 == 1:
        k = (n - 1) // 4
        return 2 ** (n - 1) + sum(math.comb(n, 2 * j + 1) for j in range(k, 2 * k + 1))
    k = (n - 3) // 4
    return 2 ** (n - 1) + math.comb(n - 1, 2 * k) + sum(math.comb(n, 2 * j + 3) for j in range(k, 2 * k + 1))


def family_problem(sets, n, size=None, sizes=None) -> str | None:
    """Why a certificate is not a pairwise intersecting family of odd sets."""
    masks = []
    for s in sets:
        if not s or len(set(s)) != len(s) or not all(1 <= i <= n for i in s):
            return "malformed member %r" % (s,)
        masks.append(sum(1 << (i - 1) for i in s))
    if len(set(masks)) != len(masks):
        return "repeated member"
    if size is not None and len(masks) != size:
        return "family has %d members, expected %d" % (len(masks), size)
    for s in sets:
        if (sizes is None and len(s) % 2 == 0) or (sizes is not None and len(s) not in sizes):
            return "member %r has the wrong size" % (s,)
    for a, b in combinations(masks, 2):
        if not a & b:
            return "members %x and %x are disjoint" % (a, b)
    return None


def check_maxdim(n):
    want = formula_max_dim(n)
    size = want - 2 ** (n - 1)

    def check(out):
        r = json.loads(out)
        if r.get("certified") is not True or r["dim"] != want or r["search_dim"] != want:
            return "maxdim n=%d: %r" % (n, {k: r.get(k) for k in ("dim", "search_dim", "certified")})
        return family_problem(r["family"], n, size=size)

    return check


# ---------------------------------------------------------------- verify-n7

ANCHOR_COUNT = 38


def check_verify(out):
    rows = json.loads(out)
    names = {r["anchor"] for r in rows}
    bad = [r["anchor"] for r in rows if r["status"] != "pass"]
    if len(rows) != ANCHOR_COUNT or len(names) != ANCHOR_COUNT:
        return "%d anchors reported, expected %d" % (len(rows), ANCHOR_COUNT)
    return "not passing: %s" % ", ".join(bad) if bad else None


VERIFY_SEEDS = 3


def verify_job(name, seed) -> Job:
    argv = ["verify-paper", "--upto-n", "7", "--seed", str(seed), "--json"]
    return Job(name, lambda ext: cli_bytes(ext, argv), check_verify)


def verify_workload(seed) -> Workload:
    """One pass runs the suite at VERIFY_SEEDS seeds: the run's seed, then
    seeds drawn from (seed, k).  The suite's work depends on its seed, so a
    pass over several seeds varies less from seed to seed than one run of
    the suite does, and every pass of a run covers the same seeds."""
    seeds = [seed] + [random.Random("%s:verify-n7:%d" % (seed, k)).randrange(1 << 30)
                      for k in range(1, VERIFY_SEEDS)]
    return Workload("verify-n7", 3, [verify_job("verify-paper-k%d" % k, s) for k, s in enumerate(seeds)])


# --------------------------------------------------------------- maximal-n9

def maximal_inputs(ext, seed):
    """(name, subspace, facts) for the four analyze documents."""
    from extalg.fields import PrimeField
    from extalg.verify import random_shear

    st, sub, sf = ext.structure, ext.subspace, ext.setfamilies
    c8 = st.canonical_max_commutative(8)
    shear = random_shear(random.Random("%s:maximal-n9:shear" % seed), 8)
    # E_even + E_even*star + star: all even sets, and the odd sets of size >= 3 through 1
    star_dim = 2 ** 7 + sum(math.comb(7, k - 1) for k in (3, 5, 7))
    return [
        ("canonical-n9", st.canonical_max_commutative(9),
         {"n": 9, "dim": formula_max_dim(9), "maximal_commutative": True}),
        ("shear-n8", shear.apply_space(c8), {"n": 8, "dim": formula_max_dim(8), "maximal_commutative": True}),
        ("upper-gf-n8", st.upper_levels_commutative(8, field=PrimeField(10007)),
         {"n": 8, "dim": formula_max_dim(8), "maximal_commutative": True, "field": GF_TAG}),
        ("star-assembled-n8", st.assemble(sub.family_space(sf.star(8, 3, 1))),
         {"n": 8, "dim": star_dim, "maximal_commutative": False}),
    ]


def maximal_workload(ext, seed, workdir) -> Workload:
    jobs = []
    for name, space, facts in maximal_inputs(ext, seed):
        path = write_doc(workdir, name, ext.text.write_subspace(space))
        facts = {"field": "rational", "commutative": True, "subalgebra": True, **facts}

        def check(out, facts=facts):
            r = json.loads(out)
            wrong = {k: r.get(k) for k, v in facts.items() if r.get(k) != v}
            return "analyze: got %r, expected %r" % (wrong, {k: facts[k] for k in wrong}) if wrong else None

        argv = ["analyze", path, "--json"]
        jobs.append(Job(name, lambda ext, argv=argv: cli_bytes(ext, argv), check))
    return Workload("maximal-n9", 3, jobs)


def write_doc(workdir, name, doc) -> str:
    path = Path(workdir) / ("%s.json" % name)
    path.write_text(json.dumps(doc))
    return str(path)


# --------------------------------------------------------------- gamma-dense

def term_text(c: int, mask: int) -> str:
    idx = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    mono = "v{%s}" % ",".join(idx) if idx else "1"
    return "%+d*%s" % (c, mono)


def dense_document(rng, n, dim, field):
    """A document of `dim` vectors with known dimension and initial span.

    Base vectors b_k have distinct smallest masks p_k (their initial
    monomials) and up to three further terms of larger mask, coefficients
    in [-3, 3].  Document vector k is b_s(k) plus up to two signed b_s(l),
    l < k, for a random order s: a unit-triangular mix, so over any field
    the span is that of the b_k.  Its dimension is `dim`, its initial span
    is spanned by the v_{p_k}, and no vector has more than 12 terms or a
    coefficient outside [-9, 9].  Returns (document, sorted pivot masks).
    """
    pivots = rng.sample(range(1 << n), dim)
    base = []
    for p in pivots:
        vec = {p: rng.choice((-3, -2, -1, 1, 2, 3))}
        above = range(p + 1, 1 << n)
        for m in rng.sample(above, min(len(above), rng.randint(0, 3))):
            vec[m] = rng.choice((-3, -2, -1, 1, 2, 3))
        base.append(vec)
    rng.shuffle(base)
    basis = []
    for k, vec in enumerate(base):
        acc = dict(vec)
        for l in rng.sample(range(k), min(k, rng.randint(0, 2))):
            sign = rng.choice((-1, 1))
            for m, c in base[l].items():
                acc[m] = acc.get(m, 0) + sign * c
        terms = [term_text(c, m) for m, c in sorted(acc.items()) if c]
        basis.append("".join(terms).lstrip("+"))
    return {"n": n, "field": field, "basis": basis}, sorted(pivots)


def is_monomial_text(s: str) -> bool:
    """A monic single-term element as print_element writes it: v{..} or 1."""
    if s == "1":
        return True
    return s.startswith("v{") and s.endswith("}") and s.count("v") == 1 and "+" not in s and "-" not in s


def gamma_workload(seed, workdir) -> Workload:
    rng = random.Random("%s:gamma-dense" % seed)
    specs = [("q%d-n8" % i, 8, 96, "rational") for i in range(4)]
    specs += [("gf%d-n8" % i, 8, 96, GF_TAG) for i in range(4)]
    specs += [("q-n9", 9, 128, "rational"), ("gf-n9", 9, 128, GF_TAG)]
    jobs = []
    for name, n, dim, field in specs:
        doc, pivots = dense_document(rng, n, dim, field)
        path = write_doc(workdir, name, doc)
        want = [[i + 1 for i in range(n) if p >> i & 1] for p in pivots]
        jobs.append(gamma_job(name, path, dim, None, want))
    for name in ("q0-n8", "gf0-n8"):
        perm = list(range(1, 9))
        rng.shuffle(perm)
        path = str(Path(workdir) / ("%s.json" % name))
        jobs.append(gamma_job(name + "-perm", path, 96, perm, None))
    return Workload("gamma-dense", 6, jobs)


def gamma_job(name, path, dim, perm, want_family) -> Job:
    argv = ["gamma", path, "--json"] + (["--perm", ",".join(map(str, perm))] if perm else [])

    def check(out):
        r = json.loads(out)
        basis = r["subspace"]["basis"]
        if r["dim"] != dim or len(basis) != dim or len(r["family"]) != dim:
            return "chain output has dim %d, input has %d" % (r["dim"], dim)
        if not all(is_monomial_text(s) for s in basis):
            return "chain output is not monomial"
        if perm is None:
            if r.get("matches_initial_span") is not True:
                return "identity chain does not match the initial span"
            if r["family"] != want_family:
                return "identity chain supports differ from the constructed initial monomials"
        return None

    return Job(name, lambda ext: cli_bytes(ext, argv), check)


# ------------------------------------------------------------ certify-search

def search_bundle(ext) -> bytes:
    budget = {8: ["--budget", "100000"]}
    out = [cli_bytes(ext, ["maxdim", "--n", str(n), "--certify", "--json"] + budget.get(n, [])) for n in range(1, 9)]
    sf = ext.setfamilies
    extra = {
        "two_level_max(11,1)": sf.two_level_max(11, 1),
        "enumerate_max_odd_intersecting(5)": [f.to_sets() for f in sf.enumerate_max_odd_intersecting(5)],
        "two_level_maxima(5,1)": [f.to_sets() for f in sf.two_level_maxima(5, 1)],
    }
    return b"".join(out) + dumps(extra)


def check_bundle(out: bytes):
    lines = out.decode().splitlines()
    for n, line in enumerate(lines[:8], start=1):
        bad = check_maxdim(n)(line)
        if bad:
            return bad
    extra = json.loads(lines[8])
    # sizes 1 and n-2: all (n-2)-sets, or one point with the (n-2)-sets through it
    if extra["two_level_max(11,1)"] != max(math.comb(11, 2), 1 + math.comb(10, 2)):
        return "two_level_max(11,1) = %r" % extra["two_level_max(11,1)"]
    fams = extra["enumerate_max_odd_intersecting(5)"]
    if not fams or any(family_problem(f, 5, size=formula_max_dim(5) - 16) for f in fams):
        return "enumerate_max_odd_intersecting(5) returned a non-maximum family"
    fams = extra["two_level_maxima(5,1)"]
    sizes = {len(f) for f in fams}
    if len(sizes) != 1 or any(family_problem(f, 5, sizes={1, 3}) for f in fams):
        return "two_level_maxima(5,1) returned an invalid family"
    return None


def ekr_job(pairs) -> Job:
    def run(ext):
        return dumps({"ekr_max(%d,%d)" % nk: ext.setfamilies.ekr_max(*nk) for nk in pairs})

    def check(out):
        got = json.loads(out)
        for n, k in pairs:
            size, ekr = got["ekr_max(%d,%d)" % (n, k)], math.comb(n - 1, k - 1)
            if size != ekr:
                return "ekr_max(%d,%d) = %r, EKR gives %d" % (n, k, size, ekr)
        return None

    return Job("+".join("ekr-%d-%d" % nk for nk in pairs), run, check)


def certify_workload(seed, workdir) -> Workload:
    argv10 = ["maxdim", "--n", "10", "--certify", "--budget", "100000", "--json"]
    return Workload("certify-search", 8, [
        Job("bundle-n1-8", search_bundle, check_bundle),
        Job("maxdim-n10", lambda ext: cli_bytes(ext, argv10), check_maxdim(10)),
        ekr_job([(10, 5)]),
        ekr_job([(11, 3), (12, 3)]),
    ])


NAMES = ("verify-n7", "maximal-n9", "gamma-dense", "certify-search")


def build(name, ext, seed, workdir) -> Workload:
    """Generate and write the inputs of one workload; return its job list."""
    if name == "verify-n7":
        return verify_workload(seed)
    if name == "maximal-n9":
        return maximal_workload(ext, seed, workdir)
    if name == "gamma-dense":
        return gamma_workload(seed, workdir)
    if name == "certify-search":
        return certify_workload(seed, workdir)
    raise ValueError("unknown workload %r" % name)
