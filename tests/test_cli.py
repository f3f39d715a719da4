import json
import sys

import pytest

from extalg import cli
from extalg.structure import canonical_max_commutative
from extalg.text import write_subspace
import extalg.verify as verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_eval_examples(capsys):
    code, out, _ = run(capsys, "eval", "--n", "3", "(v{1}+v{2,3})*(v{1}+v{2,3})")
    assert code == 0 and out == "2*v{1,2,3}\n"
    code, out, _ = run(capsys, "eval", "--n", "2", "v{2,1}")
    assert code == 0 and out == "-v{1,2}\n"
    code, out, _ = run(capsys, "eval", "--n", "2", "v{1}*v{1}")
    assert code == 0 and out == "0\n"


def test_eval_transforms(capsys):
    expr = "1+v{1}+v{1,2}+v{1,2,3}"
    code, out, _ = run(capsys, "eval", "--n", "3", expr, "--grade", "2")
    assert code == 0 and out == "v{1,2}\n"
    code, out, _ = run(capsys, "eval", "--n", "3", expr, "--even")
    assert code == 0 and out == "1+v{1,2}\n"
    code, out, _ = run(capsys, "eval", "--n", "3", expr, "--odd")
    assert code == 0 and out == "v{1}+v{1,2,3}\n"
    code, out, _ = run(capsys, "eval", "--n", "3", expr, "--initial")
    assert code == 0 and out == "1\n"


def test_eval_gf_field(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "--field", "gf:5", "3*v{1}+3*v{1}")
    assert code == 0 and out == "v{1}\n"


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--n", "2", "v{3}")
    assert code == 2
    assert "position" in err
    code, _, err = run(capsys, "eval", "--n", "2", "--field", "gf:2", "v{1}")
    assert code == 2


def test_eval_deeply_nested_expression_exits_2(capsys):
    depth = 5_000
    code, out, err = run(capsys, "eval", "(" * depth + "v{1}" + ")" * depth, "--n", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


def test_eval_transform_flags_conflict():
    with pytest.raises(SystemExit) as e:
        cli.main(["eval", "--n", "2", "v{1}", "--even", "--odd"])
    assert e.value.code == 2


def test_gamma_identity_and_perm(capsys, tmp_path):
    doc = {"n": 6, "field": "rational", "basis": ["v{1,2,3}+v{4,5,6}", "v{1,2,4}+v{3,5,6}"]}
    path = write_doc(tmp_path, "d.json", doc)
    code, out, _ = run(capsys, "gamma", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == [[1, 2, 3], [1, 2, 4]]
    assert payload["dim"] == 2
    assert payload["matches_initial_span"] is True
    assert payload["subspace"]["basis"] == ["v{1,2,3}", "v{1,2,4}"]
    code, out, _ = run(capsys, "gamma", path, "--perm", "1,2,6,4,5,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == [[1, 2, 4], [4, 5, 6]]


def test_gamma_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 2, "field": "rational", "basis": ["v{1}+v{2}"]}'))
    code, out, _ = run(capsys, "gamma", "-", "--json")
    assert code == 0
    assert json.loads(out)["family"] == [[1]]


def test_gamma_document_errors(capsys, tmp_path):
    path = write_doc(tmp_path, "bad.json", {"n": 3, "field": "gf:2", "basis": []})
    code, _, err = run(capsys, "gamma", path)
    assert code == 2
    p = tmp_path / "notjson.json"
    p.write_text("{nope")
    code, _, err = run(capsys, "gamma", str(p))
    assert code == 2
    code, _, err = run(capsys, "gamma", str(tmp_path / "missing.json"))
    assert code == 2
    code, _, err = run(capsys, "gamma", path, "--perm", "1,2,x")
    assert code == 2


def test_gamma_bad_perm(capsys, tmp_path):
    doc = {"n": 2, "field": "rational", "basis": ["v{1}"]}
    path = write_doc(tmp_path, "d.json", doc)
    code, _, err = run(capsys, "gamma", path, "--perm", "1,1")
    assert code == 2
    code, _, err = run(capsys, "gamma", path, "--perm", "1")
    assert code == 2
    # the refusal points at the first bad entry; an empty --perm is refused, not read as the identity
    for perm, pos in (("1,x", 2), ("x,1", 0), ("12,3,", 5), ("2,1,,", 4), ("", 0)):
        code, out, err = run(capsys, "gamma", path, "--perm", perm)
        assert code == 2 and out == ""
        assert "parse error at position %d: permutation must be comma-separated integers" % pos in err, perm
    # the entries are ASCII integers, as every CLI integer is
    for perm in ("\u0662,1", "1_0", " 2,1", "2, 1"):
        code, out, err = run(capsys, "gamma", path, "--perm", perm)
        assert code == 2 and out == "" and "comma-separated integers" in err, perm


@pytest.mark.parametrize("command", ["gamma", "analyze"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_deeply_nested_document_exits_2(capsys, tmp_path, monkeypatch, command, source):
    import io

    raw = "[" * 100_000
    if source == "file":
        p = tmp_path / "deep.json"
        p.write_text(raw)
        doc = str(p)
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(raw))
        doc = "-"
    code, out, err = run(capsys, command, doc)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize("command", ["gamma", "analyze"])
def test_document_over_a_30_digit_field_exits_2(capsys, tmp_path, command):
    path = write_doc(tmp_path, "d.json", {"n": 2, "field": "gf:%d" % (10**29 + 1), "basis": ["v{1}"]})
    code, out, err = run(capsys, command, path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "prime number below" in err


@pytest.mark.parametrize("command", ["gamma", "analyze"])
@pytest.mark.parametrize("tag", [5, None], ids=["int", "null"])
def test_document_with_a_non_string_field_tag_exits_2(capsys, tmp_path, command, tag):
    path = write_doc(tmp_path, "d.json", {"n": 2, "field": tag, "basis": ["v{1}"]})
    code, out, err = run(capsys, command, path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "field tag" in err and "Traceback" not in err


def test_analyze_canonical(capsys, tmp_path):
    path = write_doc(tmp_path, "a.json", write_subspace(canonical_max_commutative(4)))
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 12 and d["maximal_commutative"] is True


def test_analyze_even_part_not_maximal(capsys, tmp_path):
    path = write_doc(tmp_path, "e0.json", {"n": 2, "field": "rational", "basis": ["1", "v{1,2}"]})
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    d = json.loads(out)
    assert d["maximal_commutative"] is False


def test_analyze_ideal_example(capsys, tmp_path):
    doc = {
        "n": 4,
        "field": "rational",
        "basis": ["v{1,2}+v{3,4}", "v{1,2,3}", "v{1,2,4}", "v{1,3,4}", "v{2,3,4}", "v{1,2,3,4}"],
    }
    path = write_doc(tmp_path, "ideal.json", doc)
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    d = json.loads(out)
    assert d["subalgebra"] is True and d["square_dim"] == 1


def test_maxdim_plain(capsys):
    code, out, _ = run(capsys, "maxdim", "--n", "4")
    assert code == 0 and out == "12\n"
    code, out, _ = run(capsys, "maxdim", "--n", "1")
    assert code == 0 and out == "2\n"


def test_maxdim_certify(capsys):
    code, out, _ = run(capsys, "maxdim", "--n", "7", "--certify")
    assert code == 0
    assert out.splitlines()[0] == "101"
    assert "certified: 2^6 + 37 = 101" in out


def test_maxdim_certify_json_stats(capsys):
    code, out, _ = run(capsys, "maxdim", "--n", "5", "--certify", "--json", "--stats")
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 27 and d["family_size"] == 11 and d["certified"] is True
    assert d["nodes"] > 0
    code, out2, _ = run(capsys, "maxdim", "--n", "5", "--certify", "--json")
    assert "nodes" not in json.loads(out2)


def test_maxdim_budget_exhaustion(capsys):
    code, _, err = run(capsys, "maxdim", "--n", "7", "--certify", "--budget", "50")
    assert code == 1
    assert "budget exhausted" in err
    code, _, err = run(capsys, "maxdim", "--n", "9", "--certify")
    assert code == 2


def test_maxdim_certify_beyond_the_recursion_limit(capsys):
    # The certificate at n = 12 is a clique of 1024 members, deeper than
    # Python's default recursion limit of 1000.
    code, out, _ = run(capsys, "maxdim", "--n", "12", "--certify", "--budget", "4096", "--json", "--stats")
    assert code == 0
    d = json.loads(out)
    assert d["certified"] is True and d["family_size"] == 1024
    assert d["dim"] == 3072 and d["nodes"] == 1025


def test_maxdim_certify_needs_a_budget_beyond_n7(capsys):
    code, out, err = run(capsys, "maxdim", "--n", "8", "--certify")
    assert code == 2 and out == "" and "budget" in err


def test_maxdim_certifies_n9_within_a_budget(capsys):
    # The odd-n mates bound n = 9 by 163 at the root, so the search ends within this budget.
    import hashlib

    code, out, _ = run(capsys, "maxdim", "--n", "9", "--certify", "--budget", "100000", "--json")
    assert code == 0 and json.loads(out)["certified"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == "a8b6808c9e01bf3d46300abd5825d0c8b25a4fe5fe6503092b22a4b51bb6b152"


@pytest.mark.parametrize("flag", [["--budget", "3"], ["--stats"]], ids=["budget", "stats"])
def test_maxdim_refuses_search_flags_without_certify(capsys, flag):
    code, out, err = run(capsys, "maxdim", "--n", "5", *flag)
    assert code == 2 and out == "" and err == "error: %s needs --certify\n" % flag[0]


@pytest.mark.parametrize("stats", [[], ["--stats"]], ids=["plain", "stats"])
def test_maxdim_certify_json_and_text_agree(capsys, stats):
    for n in range(1, 9):
        argv = ["maxdim", "--n", str(n), "--certify"] + (["--budget", "100"] if n == 8 else []) + stats
        code, out, _ = run(capsys, *argv, "--json")
        code_text, text, _ = run(capsys, *argv)
        d = json.loads(out)
        lines = text.splitlines()
        assert code == code_text == 0 and d["certified"] is True
        assert lines[:2] == [str(d["dim"]), "certified: 2^%d + %d = %d" % (n - 1, d["family_size"], d["dim"])]
        assert lines[2:] == (["nodes: %d" % d["nodes"]] if stats else []) and ("nodes" in d) == bool(stats)


def test_maxdim_validation(capsys):
    code, _, err = run(capsys, "maxdim", "--n", "0")
    assert code == 2


@pytest.fixture
def default_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(old)


TOO_LARGE = "is too large to print: its dimension has more digits than the int-to-str limit of 4300"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "20001"], "n = 20001 " + TOO_LARGE),
        (["--n", "20001", "--json"], "n = 20001 " + TOO_LARGE),
        (["--n", "1000000000"], "n = 1000000000 " + TOO_LARGE),
        (["--n", "1000000000", "--json"], "n = 1000000000 " + TOO_LARGE),
        (["--n", "20001", "--certify"], "number of generators must be an int in 1..16, got 20001"),
        (["--n", "17", "--certify", "--json"], "number of generators must be an int in 1..16, got 17"),
    ],
)
def test_maxdim_refuses_before_the_formula_runs(capsys, monkeypatch, default_digit_limit, argv, message):
    import extalg.structure as structure

    def formula(n):
        raise AssertionError("the formula ran for n = %d" % n)

    monkeypatch.setattr(structure, "max_commutative_dim", formula)
    code, out, err = run(capsys, "maxdim", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [["--n", "14285"], ["--n", "14285", "--json"]])
def test_maxdim_refuses_a_dimension_past_the_digit_limit(capsys, default_digit_limit, argv):
    # 2^14284 < 10^4300, so only the formula can tell that n = 14285 does not print
    code, out, err = run(capsys, "maxdim", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "n = 14285 " + TOO_LARGE in err


def test_maxdim_accepts_exactly_what_prints_under_another_limit(capsys, default_digit_limit):
    # the last n that prints under 642 digits; a bound from 2^n < 10^642 stops at n = 2132
    sys.set_int_max_str_digits(642)
    code, out, _ = run(capsys, "maxdim", "--n", "2133")
    assert code == 0 and len(out.strip()) == 642
    code, out, err = run(capsys, "maxdim", "--n", "2134")
    assert code == 2 and out == "" and "int-to-str limit of 642" in err


def test_maxdim_prints_the_largest_accepted_n(capsys, default_digit_limit):
    code, out, _ = run(capsys, "maxdim", "--n", "14284", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["n"] == 14284 and len(str(d["dim"])) == 4300 and d["dim"] == 3 * 2**14282


def test_maxdim_keeps_the_default_bound_where_the_interpreter_has_no_limit(capsys, monkeypatch, default_digit_limit):
    # with no limit the refusal falls back to CPython's default of 4300 digits
    import extalg.structure as structure

    sys.set_int_max_str_digits(0)
    code, out, _ = run(capsys, "maxdim", "--n", "14284")
    assert code == 0 and len(out.strip()) == 4300

    def formula(n):
        raise AssertionError("the formula ran for n = %d" % n)

    monkeypatch.setattr(structure, "max_commutative_dim", formula)
    code, out, err = run(capsys, "maxdim", "--n", "20001")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "n = 20001 " + TOO_LARGE in err


def test_verify_paper_small(capsys):
    code, out, _ = run(capsys, "verify-paper", "--upto-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("PASS dimension-table") for line in lines)
    assert lines[-1].endswith("skipped") or "failed" in lines[-1]
    assert " 0 failed" in lines[-1]


def test_verify_paper_runs_at_upto_n_1(capsys):
    """The anchors that draw a random n in 2.. skip below n = 2."""
    code, out, _ = run(capsys, "verify-paper", "--upto-n", "1", "--json")
    report = json.loads(out)
    assert code == 0 and not [r for r in report if r["status"] == "fail"]
    skipped = {r["anchor"] for r in report if r["status"] == "skip"}
    assert {"initial-product-condition", "odd-family-bridge", "prime-field-lane"} <= skipped


def test_verify_paper_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify-paper", "--upto-n", "3", "--json")
    code2, out2, _ = run(capsys, "verify-paper", "--upto-n", "3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert all(set(r) == {"anchor", "status", "detail"} for r in report)
    assert sum(r["status"] == "pass" for r in report) > 20


def test_verify_paper_negative_control(capsys, monkeypatch):
    broken = dict(verify.CATALOG["three-squares-n3"])
    broken["basis"] = ["v{1,2}+2*v{3}"] + broken["basis"][1:]
    monkeypatch.setitem(verify.CATALOG, "three-squares-n3", broken)
    code, out, _ = run(capsys, "verify-paper", "--upto-n", "3", "--json")
    assert code == 1
    report = json.loads(out)
    failing = [r for r in report if r["status"] == "fail"]
    assert [r["anchor"] for r in failing] == ["three-squares-n3"]


def test_verify_paper_seed_changes_details_not_verdict(capsys):
    code1, out1, _ = run(capsys, "verify-paper", "--upto-n", "3", "--json", "--seed", "1")
    code2, out2, _ = run(capsys, "verify-paper", "--upto-n", "3", "--json", "--seed", "2")
    assert code1 == code2 == 0


@pytest.mark.parametrize(
    "argv, what",
    [
        (["--upto-n", "0"], "upto_n"),
        (["--upto-n", "-3"], "upto_n"),
        (["--l", "0"], "star index l"),
        (["--l", "8"], "star index l"),
        (["--upto-n", "3", "--l", "4"], "star index l"),
        (["--jobs", "0"], "jobs"),
        (["--jobs", "-1"], "jobs"),
    ],
    ids=["upto-n-0", "upto-n-negative", "l-0", "l-beyond-default-n", "l-beyond-upto-n",
         "jobs-0", "jobs-negative"],
)
def test_verify_paper_refuses_bad_arguments(capsys, argv, what):
    # refused before any anchor runs: exit 2, nothing on stdout
    code, out, err = run(capsys, "verify-paper", *argv)
    assert code == 2
    assert out == ""
    assert what in err


def test_verify_paper_passes_every_anchor_at_another_star_index(capsys):
    code, out, _ = run(capsys, "verify-paper", "--l", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert len(report) == len(verify.CHECKS)
    assert {r["status"] for r in report} == {"pass"}


def test_verify_paper_skips_star_anchors_below_l(capsys):
    # the anchors built on l run only at n >= l; none of them fails
    code, out, _ = run(capsys, "verify-paper", "--l", "7", "--json")
    assert code == 0
    status = {r["anchor"]: r["status"] for r in json.loads(out)}
    assert "fail" not in status.values()
    for anchor in ("even-canonical-maximal", "assemble-round-trip", "radical-invariant-n4", "radical-invariant-n6"):
        assert status[anchor] == "skip"
    assert status["odd-canonical-maximal"] == status["star-algebra-every-n"] == "pass"


def test_verify_paper_refuses_a_jobs_that_is_not_an_int(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["verify-paper", "--jobs", "x"])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err and "--jobs" in out.err


@pytest.mark.parametrize("budget", ["0", "5"])
def test_verify_paper_has_no_budget(capsys, budget):
    # the anchors' own inputs bound their searches, so the flag is gone
    # and argparse refuses it before any anchor runs
    with pytest.raises(SystemExit) as e:
        cli.main(["verify-paper", "--budget", budget])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--budget" in out.err


def test_integer_is_ascii_digits_with_an_optional_minus():
    assert [cli.integer(t) for t in ("0", "7", "-5", "0012", "-0")] == [0, 7, -5, 12, 0]
    for text in ("", "-", "+1", "--1", " 1", "1 ", "1_0", "\u0662", "\u00b2", "1.0", "0x1"):
        with pytest.raises(ValueError):
            cli.integer(text)


@pytest.mark.parametrize("argv", [
    ["eval", "--n", "\u0663", "v{3}"],
    ["eval", "--n", "3", "--grade", "\u0661", "v{1}"],
    ["verify-paper", "--upto-n", "\u0667"],
    ["verify-paper", "--seed", "1_0", "--upto-n", "1"],
    ["verify-paper", "--l", " 1"],
    ["verify-paper", "--jobs", "\u00b2"],
    ["maxdim", "--n", "\uff13"],
    ["maxdim", "--n", "3", "--certify", "--budget", "1_000"],
], ids=["eval-n", "eval-grade", "upto-n", "seed", "l", "jobs", "maxdim-n", "maxdim-budget"])
def test_integer_options_take_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "invalid integer value" in out.err


def test_a_negative_seed_still_runs(capsys):
    code, out, _ = run(capsys, "verify-paper", "--seed", "-5", "--upto-n", "2")
    assert code == 0 and out.endswith("0 failed, 20 skipped\n")


def test_verify_paper_prints_the_same_bytes_for_every_jobs(capsys):
    # tests/test_verify.py compares run_checks across worker counts; this
    # checks that --jobs reaches it
    code, out, _ = run(capsys, "verify-paper", "--upto-n", "2", "--json")
    assert code == 0
    for jobs in ("1", "3"):
        assert run(capsys, "verify-paper", "--upto-n", "2", "--json", "--jobs", jobs) == (0, out, "")


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        cli.main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["eval", "v{1}"])  # missing --n
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["nonsense"])
    assert e.value.code == 2


def test_gamma_reads_the_split_chain_off_one_echelon(capsys, tmp_path, monkeypatch):
    import extalg.subspace as subspace
    from extalg.text import read_subspace

    doc = {"n": 4, "field": "rational", "basis": ["v{1,2}+v{3,4}", "v{1}+v{2,3,4}"]}
    path = write_doc(tmp_path, "d.json", doc)
    split = subspace.split_generator
    for order, family in (([1, 2, 3, 4], [[1], [1, 2]]), ([4, 3, 2, 1], [[3, 4], [2, 3, 4]])):
        chain = read_subspace(doc)
        for i in reversed(order):
            chain = split(chain, i)
        assert subspace.monomial_family(chain).to_sets() == family
        calls = []
        monkeypatch.setattr(subspace, "split_generator", lambda d, i: calls.append(i) or split(d, i))
        code, out, _ = run(capsys, "gamma", path, "--json", "--perm", ",".join(map(str, order)))
        monkeypatch.undo()
        assert code == 0
        assert json.loads(out)["family"] == family
        assert calls == []


def test_document_n_refuses_a_bool(capsys, tmp_path):
    path = write_doc(tmp_path, "bool.json", {"n": True, "field": "rational", "basis": ["v{1}"]})
    for cmd in ("gamma", "analyze"):
        code, out, err = run(capsys, cmd, path, "--json")
        assert code == 2 and out == "" and "1..16" in err


# SHA-256 of the --json stdout, recorded before elements carried their field.
# The verify-paper digest is verify-paper-k0 in perfbench/digests.json.
PINNED_JSON = [
    (["verify-paper", "--json"], None, "15ad8dcbdd8774f82cecf70e4ef122e2f38e5f2d59e5cce13fb40d2bba8db03e"),
    (["gamma"], {"n": 5, "field": "gf:7", "basis": ["3*v{1,2}+v{3,4}+2*v{1}", "v{2}+5*v{1,3,4}",
                                                    "6*v{1,2,3}+v{4,5}", "v{5}+4*v{2,3}+v{1,4}"]},
     "8dfe9ee50f2fa2bb427e208a50306a9a38711f1fc1a8fe7e01ed54e7c9137052"),
    (["analyze"], {"n": 4, "field": "rational", "basis": ["1", "v{1,2}+1/2*v{3,4}", "v{1,3}-v{2,4}", "-2/3*v{1}",
                                                         "v{1,2,3,4}", "2/3*v{1,2,3}+v{2,3,4}"]},
     "887d4cf4ebd65119c4e45d3b8c28f58c65bfd5c10fd62f60a232f4bd544788cd"),
]
# verify-paper --json at the other --upto-n values; the seeded mask pools and
# the skip paths differ at each N, and every N >= 8 prints the N = 8 bytes
# while no anchor runs past n = 8 (9 and 16 move when one does).
PINNED_UPTO = {
    1: "57e72bd0f5453457f2e21f43526f9802e5db6b364f50de54f201cd9654e0945c",
    2: "420d62dc21fff6132e20f6de48a5d6f3eb6eb6fe9325001936483f2c1f628c74",
    3: "78f9e8867bd09749e3d5e5b1f100be00422f8f09225e37be65f2d9a082fe642d",
    4: "fd4d4bdb66abdb03f5173829b8b0be4f40d859cce0748a4ba74942c12010517c",
    5: "4e4b1032ceb87f3c1a477837ad4b55a95642f88fecba5f54cb59d1619bd7e559",
    6: "144d31ef85472b4fd29ef76fbed7eb53538e1b6d96e83677425ccd2ac01ae6ca",
    8: "fac53fd6c2a888362aa9b24dc266eaa399e61505111c67d173d4611313fd44a0",
    9: "fac53fd6c2a888362aa9b24dc266eaa399e61505111c67d173d4611313fd44a0",
    16: "fac53fd6c2a888362aa9b24dc266eaa399e61505111c67d173d4611313fd44a0",
}
PINNED_JSON += [(["verify-paper", "--json", "--upto-n", str(n)], None, d) for n, d in PINNED_UPTO.items()]


@pytest.mark.parametrize("argv, doc, digest", PINNED_JSON,
                         ids=["verify-paper", "gamma-gf7", "analyze-rational"]
                         + ["verify-paper-upto-%d" % n for n in PINNED_UPTO])
def test_json_output_bytes_are_pinned(capsys, tmp_path, argv, doc, digest):
    import hashlib

    if doc is not None:
        argv = argv + [write_doc(tmp_path, "d.json", doc), "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# analyze --json on three of the benchmark's maximal-n9 documents, built as
# perfbench/workloads.py builds them (none of the three depends on the seed);
# the digests are read from perfbench/digests.json.
def maximal_n9_inputs():
    from extalg.fields import PrimeField
    from extalg.setfamilies import star
    from extalg.structure import assemble, upper_levels_commutative
    from extalg.subspace import family_space

    return {
        "canonical-n9": canonical_max_commutative(9),
        "upper-gf-n8": upper_levels_commutative(8, field=PrimeField(10007)),
        "star-assembled-n8": assemble(family_space(star(8, 3, 1))),
    }


@pytest.mark.parametrize("name", ["canonical-n9", "upper-gf-n8", "star-assembled-n8"])
def test_analyze_bytes_match_the_benchmark_digests(capsys, tmp_path, name):
    import hashlib
    from pathlib import Path

    digests = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())
    path = write_doc(tmp_path, name + ".json", write_subspace(maximal_n9_inputs()[name]))
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests["maximal-n9"][name]
