"""The verify-paper runner: every worker count gives the serial results in
CHECKS order, and a crashed or dead worker is a failed anchor, never a hang,
a traceback or a child process left behind."""

import hashlib
import json
import os
import re
import signal
import time

import pytest

import extalg.verify as verify
from extalg.verify import run_checks

CHEAP = ["product-rules", "dimension-table", "split-order-n2", "pairing-nondegenerate"]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def with_anchor(monkeypatch, anchor, fn):
    """CHECKS with one more anchor, placed second so a worker's index order
    and CHECKS order differ."""
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:1] + [(anchor, fn)] + verify.CHECKS[1:])
    return CHEAP[:1] + [anchor] + CHEAP[1:]


# SHA-256 of verify-paper --json --seed 7 --upto-n N, recorded with the
# sequential loop before the anchors ran in workers.  The default seed's
# bytes are pinned in test_cli.py, which runs them at the default worker
# count; recorded bytes stand in for a jobs=1 run here, which would double
# the cost of the comparison.
SERIAL_SEED_7 = {
    1: "57e72bd0f5453457f2e21f43526f9802e5db6b364f50de54f201cd9654e0945c",
    2: "99b891a2d917ac0cbfecbb5a1fefb9daf41a33c54e99d531c60abd03183e6631",
    3: "bf51f1f3a53c504bd4cb93ac8fe3f2aa06bc6845cf643bc20d7437ca437e59bb",
    4: "19339e4209944f52552fa70c8b227e6a5e853cb287151d9b4c63df8f2b66b591",
    5: "ac4f0ca87066eb7fff17f61952e401816391e3af8ef0508f48c51e23a5d2355c",
    6: "cd5af8be9c7364e54fdd338829dbb714d372afd3d8e16812380cfc6f36692ce4",
    7: "279ded47df7811fa2cc36ad243b3ce4f7e72ae7f355c4c23268629eb2972d214",
    8: "9cfb9a5a2eaabdeb3b0f03be804a64c7825c1410e77afa262e8d94c27b1bf537",
}


def report_bytes(results):
    """What verify-paper --json prints for these results."""
    return (json.dumps([r.to_dict() for r in results], separators=(",", ":")) + "\n").encode()


def report_digest(results):
    """The digest of verify-paper --json printing these results."""
    return hashlib.sha256(report_bytes(results)).hexdigest()


# The anchors built on the star index l, and one SHA-256 over their seed-7
# reports at every 1 <= l <= upto_n <= 8, in that order.  Both skip paths,
# n > upto_n and n < l, are in these bytes, and odd-canonical-maximal skips
# at (upto_n, l) = (2, 2), (4, 4) and (6, 6), where no odd n >= l is left.
STAR_ANCHORS = ["even-canonical-maximal", "odd-canonical-maximal", "star-algebra-every-n",
                "assemble-round-trip", "radical-invariant-n4", "radical-invariant-n6"]
STAR_INDEX_DIGEST = "71b9a694fd0be8f7531136139accd72207967e150b86a5ac2598bfedc01c8cfc"


def test_star_index_reports_are_pinned():
    h = hashlib.sha256()
    for upto_n in range(1, 9):
        for l in range(1, upto_n + 1):
            h.update(report_bytes(run_checks(upto_n, 7, l=l, anchors=STAR_ANCHORS, jobs=1)))
    assert h.hexdigest() == STAR_INDEX_DIGEST


def test_odd_canonical_maximal_skips_when_no_odd_n_reaches_l():
    for upto_n, odd in ((2, [1]), (4, [1, 3]), (6, [1, 3, 5])):
        (r,) = run_checks(upto_n, 7, l=upto_n, anchors=["odd-canonical-maximal"], jobs=1)
        assert (r.status, r.detail) == ("skip", "needs n>=l=%d, given n in %r" % (upto_n, odd))


@pytest.mark.parametrize("upto_n", range(1, 9))
def test_every_worker_count_gives_the_serial_results(upto_n):
    # three workers is more than the two CPUs of a small runner
    for jobs in (2, 3):
        assert report_digest(run_checks(upto_n, 7, jobs=jobs)) == SERIAL_SEED_7[upto_n], jobs
    no_child_left()


def test_one_worker_gives_the_serial_results():
    assert report_digest(run_checks(4, 7, jobs=1)) == SERIAL_SEED_7[4]


def test_worker_count_is_capped_at_the_selected_anchors():
    # the pure helper: no process is started here
    assert verify._worker_count(10**6, 5) == 5
    assert verify._worker_count(2, 38) == 2
    assert verify._worker_count(None, 1) == 1
    assert verify._worker_count(None, 0) == 0
    if hasattr(os, "sched_getaffinity"):
        assert verify._worker_count(None, 10**6) == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("jobs", [0, -1, True, 2.0, "2"])
def test_run_checks_refuses_a_bad_worker_count(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_checks(upto_n=1, jobs=jobs)


@pytest.mark.parametrize("anchors, message", [
    (["record", "product-rule"], "not ['record', 'product-rule']"),
    ("product-rules", "not 'product-rules'"),
])
def test_run_checks_refuses_anchors_it_does_not_have_before_any_runs(monkeypatch, anchors, message):
    ran = []
    with_anchor(monkeypatch, "record", lambda ctx: ran.append(ctx) or "ran")
    with pytest.raises(ValueError, match=re.escape(message)):
        run_checks(upto_n=4, anchors=anchors, jobs=1)
    assert ran == []


def test_run_checks_reads_the_anchor_names_at_call_time(monkeypatch):
    with_anchor(monkeypatch, "added", lambda ctx: "ran")
    assert [(r.anchor, r.detail) for r in run_checks(upto_n=4, anchors=["added"], jobs=1)] == [("added", "ran")]
    monkeypatch.setattr(verify, "CHECKS", [c for c in verify.CHECKS if c[0] != "product-rules"])
    with pytest.raises(ValueError, match="names in CHECKS"):
        run_checks(upto_n=4, anchors=["added", "product-rules"], jobs=1)


def test_an_unexpected_exception_reads_the_same_under_every_worker_count(monkeypatch):
    def boom(ctx):
        raise RuntimeError("x")

    anchors = with_anchor(monkeypatch, "boom", boom)
    serial = run_checks(upto_n=4, anchors=anchors, jobs=1)
    assert [r.anchor for r in serial] == [a for a, _ in verify.CHECKS if a in anchors]
    assert [r.to_dict() for r in run_checks(upto_n=4, anchors=anchors, jobs=2)] == [r.to_dict() for r in serial]
    status = {r.anchor: (r.status, r.detail) for r in serial}
    assert status["boom"] == ("fail", "unexpected RuntimeError: x")
    assert {s for a, (s, _) in status.items() if a != "boom"} == {"pass"}
    no_child_left()


def test_a_dead_worker_fails_its_anchor_and_no_other(monkeypatch):
    def die(ctx):
        os._exit(3)

    anchors = with_anchor(monkeypatch, "die", die)
    results = run_checks(upto_n=4, anchors=anchors, jobs=2)
    assert [r.anchor for r in results] == [a for a, _ in verify.CHECKS if a in anchors]
    status = {r.anchor: (r.status, r.detail) for r in results}
    assert status.pop("die") == ("fail", verify.WORKER_DIED)
    assert {s for s, _ in status.values()} == {"pass"}
    no_child_left()


def test_an_exception_in_the_parent_kills_and_reaps_the_workers(monkeypatch):
    def hang(ctx):
        time.sleep(60)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    anchors = with_anchor(monkeypatch, "hang", hang)
    old = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        with pytest.raises(KeyboardInterrupt):
            run_checks(upto_n=4, anchors=anchors, jobs=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.perf_counter() - t0 < 30
    no_child_left()


def test_threads_keep_the_anchors_in_process(monkeypatch):
    import threading

    started = threading.Event()
    stop = threading.Event()

    def idle():
        started.set()
        stop.wait()

    def report_pid(ctx):
        return str(os.getpid())

    anchors = with_anchor(monkeypatch, "pid", report_pid)
    t = threading.Thread(target=idle)
    t.start()
    try:
        assert started.wait(10)
        results = run_checks(upto_n=2, anchors=anchors, jobs=2)
    finally:
        stop.set()
        t.join(10)
    assert not t.is_alive()
    assert {r.anchor: r.detail for r in results}["pid"] == str(os.getpid())
    assert {r.anchor: r.detail for r in run_checks(upto_n=2, anchors=anchors, jobs=2)}["pid"] != str(os.getpid())


SEARCH_ANCHORS = ["dimension-search-match", "assemble-round-trip", "one-level-maxima", "two-level-maxima",
                  "complement-bound-tight", "maxima-catalog-small-n", "certificate-shape-n7"]


def test_every_anchor_search_is_far_below_the_default_budget(monkeypatch):
    # the anchors' inputs bound their searches, so run_checks takes no
    # budget: at upto_n = 8, where every anchor reaches its largest n, and
    # at every star index, no walk reaches 1,000 nodes (757 today, ekr_max(8, 3))
    from test_setfamilies import walk_nodes

    seen = walk_nodes(monkeypatch)
    for l in range(1, 9):
        for anchor in SEARCH_ANCHORS:
            seen.clear()
            (r,) = run_checks(8, 7, l=l, anchors=[anchor], jobs=1)
            # assemble-round-trip, built on l, skips once l passes its n's
            assert r.status == "pass" or (r.status == "skip" and l > 6), (l, r)
            assert bool(seen) == (r.status == "pass"), (l, anchor)
            assert max(seen, default=0) < 1000, (l, anchor, max(seen))


def test_run_checks_takes_no_budget():
    with pytest.raises(TypeError):
        run_checks(upto_n=1, budget=1)
