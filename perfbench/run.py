"""extalg benchmark: four seeded workloads, checked for exactness.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

--seconds is the measuring time per workload; it defaults to, and the
benchmark's calling convention passes, BENCHMARK.json's run_seconds.
--workload all runs each workload in a child process of its own, one after
another, so that each one's peak resident memory is its own.

Load is a closed loop with one client in one process: each job starts when
the previous one has returned, and no threads or worker processes run
jobs.  A run repeats passes over the workload's fixed job list for about
--seconds (at least the workload's minimum number of passes) and checks
every job's output.  Cold set-ups, each in a fresh interpreter, are spread
over the same seconds between passes.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs untraced and traced passes,
prints the per-layer metrics of the traced ones, and checks that tracing
changed no output byte, that the exact counts repeat, and that no wrapper
is left installed.

Metric names and units come from BENCHMARK.json.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it are a readable report.  Without the package source under src/
the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing  # sibling modules: the script's directory is on sys.path
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 20240
SETUP_SAMPLES = 24
MAX_WALL_S = 150  # no pass starts after this, so a run ends well within 180 s


def load_package():
    src = ROOT / "src"
    if not (src / "extalg" / "__init__.py").is_file():
        raise SystemExit("error: no extalg source at %s" % (src / "extalg"))
    sys.path.insert(0, str(src))
    import extalg
    import extalg.cli  # noqa: F401

    if Path(extalg.__file__).resolve().parent != src / "extalg":
        raise SystemExit("error: imported extalg from %s, not from %s" % (extalg.__file__, src))
    return extalg


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def design_problems(wl, per_layer):
    """Where design.json no longer describes the code or BENCHMARK.json."""
    design = json.loads((HERE / "design.json").read_text())
    problems = []
    record = design["workloads"][wl.name]
    if [j["name"] for j in record["jobs"]] != [j.name for j in wl.jobs] or record["min_passes"] != wl.min_passes:
        problems.append("design.json describes other jobs for %s than the code runs" % wl.name)
    names = {m["name"] for m in per_layer}
    anchors = {n for n in names if n.startswith("verify.anchor_s.")}
    if set(design["per_layer"]) != (names - anchors) | {"verify.anchor_s.<anchor>"}:
        problems.append("design.json per_layer names differ from BENCHMARK.json")
    return problems


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recorded_digests(name, seed) -> dict:
    """Output digests recorded for the default seed; certify-search has no
    random input, so its digests hold at every seed."""
    if seed != DEFAULT_SEED and name != "certify-search":
        return {}
    return json.loads((HERE / "digests.json").read_text()).get(name, {})


# ------------------------------------------------------------------ passes

def run_pass(ext, jobs, pass_no, tracer=None):
    """Run every job once; returns (pass seconds, [job, seconds, output, error])."""
    gc.collect()
    rows = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = "%d:%s" % (pass_no, job.name)
        t0 = time.perf_counter()
        try:
            out, err = job.run(ext), None
        except Exception as e:  # any crash is a failed job, reported below
            out, err = None, "%s: %s" % (type(e).__name__, e)
        rows.append([job, time.perf_counter() - t0, out, err])
    return time.perf_counter() - start, rows


def check_pass(rows, digests):
    for row in rows:
        job, _, out, err = row
        if err is None:
            try:
                err = job.check(out)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                err = "unreadable output: %s: %s" % (type(e).__name__, e)
        if err is None and job.name in digests and digest(out) != digests[job.name]:
            err = "output bytes differ from the recorded digest"
        row[3] = err
    return [(row[0].name, row[3]) for row in rows if row[3] is not None]


def enough(passes, minimum, started, seconds):
    elapsed = time.perf_counter() - started
    if elapsed > MAX_WALL_S:
        return True
    typical = statistics.median(passes)
    return len(passes) >= minimum and elapsed + typical > seconds


def setup_probe(name, seed, workdir, k):
    """Seconds of one cold set-up, in a fresh process."""
    target = Path(workdir) / ("setup-%d" % k)
    target.mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(target)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit("error: set-up probe failed: %s" % proc.stderr.strip()[-500:])
    shutil.rmtree(target)
    return float(proc.stdout.split()[-1])


# ------------------------------------------------------------------- runs

def timed_run(ext, wl, seed, seconds, workdir):
    """Passes over the job list for about `seconds`, with cold set-ups
    spread evenly over the same time: the host's slow phases last seconds,
    so set-ups taken all at once would share one phase."""
    digests = recorded_digests(wl.name, seed)
    passes, failures, setup = [], [], []
    started = time.perf_counter()
    while not passes or not enough([p for p, _ in passes], wl.min_passes, started, seconds):
        due = SETUP_SAMPLES * min(1, (time.perf_counter() - started) / seconds)
        while len(setup) < max(1, due):
            setup.append(setup_probe(wl.name, seed, workdir, len(setup)))
        pass_s, rows = run_pass(ext, wl.jobs, len(passes))
        failures += check_pass(rows, digests)
        passes.append((pass_s, rows))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_probe(wl.name, seed, workdir, len(setup)))
    attempted = sum(len(rows) for _, rows in passes)
    # the slowest job is the largest input, what a user waits on longest; a
    # percentile pooled over all jobs would fall where one job's samples
    # give way to another's, and jump between them from run to run
    per_job = [statistics.median(rows[i][1] for _, rows in passes) for i in range(len(wl.jobs))]
    slowest = max(range(len(per_job)), key=per_job.__getitem__)
    values = {
        "pass_s": statistics.median(p_s for p_s, _ in passes),
        "job_tail_ms": 1000 * per_job[slowest],
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "pass_s": "median of %d passes: %s" % (len(passes), ", ".join("%.3f" % p_s for p_s, _ in passes)),
        "job_tail_ms": "median of the slowest job, %s, over %d passes" % (wl.jobs[slowest].name, len(passes)),
        "setup_s": "median of %d cold set-ups: %s" % (len(setup), ", ".join("%.4f" % s for s in setup)),
        "peak_rss_mib": "peak resident set of this process",
    }
    return values, notes, attempted, failures, []


def traced_run(ext, wl, seed, seconds, anchors):
    """Untraced and traced passes over the same jobs, in the order
    U T T U T U T ..., so that their outputs and counts must agree; the
    per-layer metrics are medians over the traced passes."""
    digests = recorded_digests(wl.name, seed)
    plain, traced, failures, problems = [], [], [], []
    started = time.perf_counter()
    while len(traced) < 2 or not enough([p for p, _ in plain] + [p for p, _, _ in traced], 3, started, seconds):
        i = len(plain) + len(traced)
        if i == 0 or (i >= 3 and i % 2 == 1):
            pass_s, rows = run_pass(ext, wl.jobs, i)
            failures += check_pass(rows, digests)
            plain.append((pass_s, rows))
            continue
        tr = tracing.Tracer()
        tr.install(ext)
        try:
            pass_s, rows = run_pass(ext, wl.jobs, i, tr)
        finally:
            tr.uninstall()
        failures += check_pass(rows, digests)
        traced.append((pass_s, rows, tr))
    # tracing must not change a byte, and the exact counts must repeat
    reference = {row[0].name: row[2] for row in plain[0][1]}
    for _, rows, _ in traced:
        for job, _, out, err in rows:
            if err is None and out != reference[job.name]:
                failures.append((job.name, "output differs with tracing on"))
    per_pass = [tr.metrics(anchors) for _, _, tr in traced]
    for key in tracing.EXACT:
        seen = {m[key] for m in per_pass}
        if len(seen) != 1:
            problems.append("exact count %s differs between traced passes: %s" % (key, sorted(seen)))
    left = tracing.leftover_wrappers(ext)
    if left:
        problems.append("wrappers left installed: %s" % ", ".join(left[:5]))
    # counts are read off the first traced pass, times are medians over all
    values = {key: v if isinstance(v, int) else statistics.median(m[key] for m in per_pass)
              for key, v in per_pass[0].items()}
    values["trace.overhead_ratio"] = (statistics.median(p for p, _, _ in traced)
                                      / statistics.median(p for p, _ in plain))
    WORK.mkdir(exist_ok=True)
    span_file = WORK / ("trace-%s-%d.jsonl" % (wl.name, seed))
    with open(span_file, "w", encoding="utf-8") as fh:
        traced[0][2].write_spans(fh)
    notes = {"trace.overhead_ratio": "%d traced over %d untraced passes; first traced pass's spans in %s"
             % (len(traced), len(plain), span_file.relative_to(ROOT))}
    attempted = sum(len(rows) for _, rows in plain) + sum(len(rows) for _, rows, _ in traced)
    return values, notes, attempted, failures, problems


def run_workload(ext, name, seed, seconds, trace, end_to_end, per_layer):
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (name, seed), dir=WORK)
    try:
        if trace:
            wl = workloads.build(name, ext, seed, workdir)
            anchors = [anchor for anchor, _ in ext.verify.CHECKS]
            values, notes, attempted, failures, problems = traced_run(ext, wl, seed, seconds, anchors)
        else:
            wl = workloads.build(name, ext, seed, workdir)
            values, notes, attempted, failures, problems = timed_run(ext, wl, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += design_problems(wl, per_layer)
    metrics = {}
    for spec in per_layer if trace else end_to_end:
        if spec["name"] not in values:
            problems.append("metric %s was not measured" % spec["name"])
            continue
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    report(name, seed, wl, metrics, notes, attempted, failures, problems)
    return {"correct": not failures and not problems, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def report(name, seed, wl, metrics, notes, attempted, failures, problems):
    print("%s  seed %d  %d jobs per pass, closed loop, 1 client" % (name, seed, len(wl.jobs)))
    for key, m in metrics.items():
        print("  %-40s %14.6g %-6s %s" % (key, m["value"], m["unit"], notes.get(key, "")))
    print("  %-40s %14.6g %-6s %d failed / %d attempted" % (
        "fail_ratio", len(failures) / attempted, "ratio", len(failures), attempted))
    for job, err in failures[:10]:
        print("  FAILED %s: %s" % (job, err))
    for problem in problems:
        print("  SELF-CHECK %s" % problem)


def run_each(args):
    """Run every workload in a child process of its own, so that each one's
    peak_rss_mib is its own; returns name -> result line."""
    results = {}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit("error: workload %s exited with code %d" % (name, proc.returncode))
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ext = load_package()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload != "all":
        final = run_workload(ext, args.workload, args.seed, args.seconds, args.trace,
                             spec["end_to_end"], spec["per_layer"])
    else:
        results = run_each(args)
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (n, k): m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
