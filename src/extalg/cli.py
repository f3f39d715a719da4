"""Command line front end.

Subcommands:

    eval          evaluate an element expression, optionally transform it
    gamma         run a generator-split chain on a subspace document
    analyze       structural report for a subspace document
    maxdim        maximal commutative dimension, optionally search-certified
    verify-paper  run the built-in verification suite

Output is byte-deterministic for fixed flags: no timestamps, and search
node counts appear only behind --stats.  verify-paper prints the same bytes
for every --jobs.  Exit codes: 0 success, 1 a verification or certification
failure, 2 usage, parse, or document errors.

Importing this module loads no other extalg module; each subcommand
imports what it runs when it runs.  eval loads core, fields and text;
gamma adds subspace and setfamilies; analyze and maxdim add structure;
only verify-paper loads verify.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]


def _fail_usage(msg: str) -> int:
    print("error: %s" % msg, file=sys.stderr)
    return 2


def _load_document(path: str):
    from .text import read_subspace

    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except RecursionError:
        raise ValueError("document nested too deeply to parse") from None
    return read_subspace(doc)


def _parse_perm(text: str):
    from .text import ParseError

    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ParseError("syntax", 0, "permutation must be comma-separated integers")


def _emit(obj, compact: bool):
    if compact:
        print(json.dumps(obj, separators=(",", ":")))
    else:
        print(json.dumps(obj, indent=2))


def cmd_eval(args) -> int:
    from .fields import field_by_name
    from .text import parse_expression, print_element

    field = field_by_name(args.field)
    x = parse_expression(args.expr, args.n, field)
    if args.grade is not None:
        x = x.grade_component(args.grade)
    elif args.even:
        x = x.even_part()
    elif args.odd:
        x = x.odd_part()
    elif args.initial:
        x = x.initial_term()
    print(print_element(x))
    return 0


def cmd_gamma(args) -> int:
    from .subspace import initial_span, monomial_family, monomialize
    from .text import write_subspace

    d = _load_document(args.doc)
    order = _parse_perm(args.perm) if args.perm else None
    m = monomialize(d, order)
    fam = monomial_family(m)
    out = {"subspace": write_subspace(m), "family": fam.to_sets(), "dim": m.dim}
    if order is None:
        out["matches_initial_span"] = m == initial_span(d)
    _emit(out, args.json)
    return 0


def cmd_analyze(args) -> int:
    from .structure import analyze

    d = _load_document(args.doc)
    _emit(analyze(d).to_dict(), args.json)
    return 0


def cmd_maxdim(args) -> int:
    if args.certify:  # the search refuses n > 16 itself
        from .setfamilies import SearchBudgetExceeded, max_odd_intersecting

        try:
            res = max_odd_intersecting(args.n, budget=args.budget)
        except SearchBudgetExceeded as e:
            print("budget exhausted: best family found so far has size %d; raise --budget to finish"
                  % e.partial.size, file=sys.stderr)
            return 1
    from .structure import max_commutative_dim

    # 2^(n-1) < dim < 2^n, so an n past the bit length of 10^limit cannot print
    # and the formula need not run; with no interpreter limit (0, or a 3.10
    # release before 3.10.7) CPython's default of 4300 digits bounds n
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    cap = 10**limit
    dim = cap if args.n > cap.bit_length() else max_commutative_dim(args.n)
    if dim >= cap:
        return _fail_usage("n = %d is too large to print: its dimension has more digits than the "
                           "int-to-str limit of %d" % (args.n, limit))
    if not args.certify:
        if args.json:
            _emit({"n": args.n, "dim": dim}, True)
        else:
            print(dim)
        return 0
    searched = 2 ** (args.n - 1) + res.size
    ok = searched == dim
    if args.json:
        out = {
            "n": args.n,
            "dim": dim,
            "search_dim": searched,
            "family_size": res.size,
            "family": res.family.to_sets(),
            "certified": ok,
        }
        if args.stats:
            out["nodes"] = res.nodes
        _emit(out, True)
    else:
        print(dim)
        if ok:
            print("certified: 2^%d + %d = %d" % (args.n - 1, res.size, dim))
        else:
            print("MISMATCH: search gives %d, formula gives %d" % (searched, dim))
        if args.stats:
            print("nodes: %d" % res.nodes)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from .verify import DEFAULT_SEED, run_checks

    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_checks(upto_n=args.upto_n, seed=seed, budget=args.budget, l=args.l, jobs=args.jobs)
    failed = sum(r.status == "fail" for r in results)
    if args.json:
        _emit([r.to_dict() for r in results], True)
    else:
        for r in results:
            print("%-4s %s: %s" % (r.status.upper(), r.anchor, r.detail))
        skipped = sum(r.status == "skip" for r in results)
        print(
            "%d checks: %d passed, %d failed, %d skipped"
            % (len(results), len(results) - failed - skipped, failed, skipped)
        )
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="extalg", description="exact Grassmann algebra toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an element expression")
    p.add_argument("expr")
    p.add_argument("--n", type=int, required=True, help="number of generators")
    p.add_argument("--field", default="rational", help="rational or gf:p (p an odd prime)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--grade", type=int, help="keep only the degree-k component")
    g.add_argument("--even", action="store_true", help="keep the even-degree part")
    g.add_argument("--odd", action="store_true", help="keep the odd-degree part")
    g.add_argument("--initial", action="store_true", help="keep the initial term")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gamma", help="monomialize a subspace document by a split chain")
    p.add_argument("doc", help="path to a subspace document, or - for stdin")
    p.add_argument("--perm", help="generator order a,b,c,... (default 1..n)")
    p.add_argument("--json", action="store_true", help="compact single-line JSON")
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("analyze", help="structural report for a subspace document")
    p.add_argument("doc", help="path to a subspace document, or - for stdin")
    p.add_argument("--json", action="store_true", help="compact single-line JSON")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("maxdim", help="maximal commutative subalgebra dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--certify", action="store_true", help="confirm the value by family search")
    p.add_argument("--budget", type=int, help="search node budget")
    p.add_argument("--stats", action="store_true", help="also report search node counts")
    p.add_argument("--json", action="store_true", help="compact single-line JSON")
    p.set_defaults(fn=cmd_maxdim)

    p = sub.add_parser("verify-paper", help="run the built-in verification suite")
    p.add_argument("--upto-n", type=int, default=7, dest="upto_n", help="largest n: each check runs at its own n's up "
                   "to this, none above 8, and star checks from n = l; text-round-trip draws n up to min(8, upto-n + 2)")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int, help="search node budget")
    p.add_argument("--l", type=int, default=1, help="distinguished index for star constructions")
    p.add_argument("--jobs", type=int, help="worker processes (default: the usable CPUs; 1 runs in process)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, TypeError, OSError) as e:
        return _fail_usage(str(e))


if __name__ == "__main__":
    sys.exit(main())
