"""The verify-paper runner: every worker count gives the serial results in
CHECKS order, and a crashed or dead worker is a failed anchor, never a hang,
a traceback or a child process left behind."""

import hashlib
import json
import os
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


def report_digest(results):
    """The digest of verify-paper --json printing these results."""
    out = json.dumps([r.to_dict() for r in results], separators=(",", ":")) + "\n"
    return hashlib.sha256(out.encode()).hexdigest()


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
