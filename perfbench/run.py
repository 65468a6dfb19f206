#!/usr/bin/env python3
"""The repository benchmark. Run it from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --manifest

A run builds perfbench/perfbench.cpp against src/ into .bench_build/, then
runs, one process at a time:

  1. the workload's output oracle: a cache-disabled, flat 64_64m run of the
     same kernel at the same seed;
  2. untraced repetitions of the workload for S seconds, each in a process
     of its own, pinned to the machine's CPUs in turn, and each followed in
     its process by two experiments that stop at the first write call and
     time set-up alone;
  3. with --trace 1, one more traced repetition, which yields the per-layer
     ledger.

Every repetition is checked against the oracle and against the others. The
metrics of perfbench/catalog.json are printed by name with their unit, the
full results go to .bench_build/results/, and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A failed check
exits 1 after printing it; a checkout the benchmark cannot build exits 2
without a result.

--self-test plants failures in synthetic results and checks that they are
caught. --manifest rewrites BENCHMARK.json from perfbench/catalog.json.
"""

import argparse
import copy
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RESULTS = BUILD / "results"

BUILD_TIMEOUT_S = 850
# Set-up-only experiments after each repetition, in its process; setup_s is
# their median over the run, so its samples span the whole run.
SETUPS_PER_PROCESS = 2
# A run ends this long past --seconds after its build: the oracle, the last
# repetition and the traced one fit easily; a hung perfbench binary is
# killed, and the run still ends within 180 s of its build.
RUN_SLACK_S = 100

# Fields every repetition of one workload and seed must agree on exactly.
AGREE_FIELDS = ("checksum", "bandwidth_gib", "io_time_ns", "final_flush_ns",
                "write_ns", "residual_ns", "events", "switches", "spawned",
                "ready_hwm", "stack_reuses", "total_bytes")
# Virtual results the traced repetition must share with the untraced ones.
TRACED_AGREE_FIELDS = ("checksum", "bandwidth_gib", "io_time_ns",
                       "final_flush_ns", "write_ns", "residual_ns",
                       "total_bytes")


class SetupError(Exception):
    """The benchmark cannot run here (no sources, a failed build, a crashed binary)."""


def load_catalog():
    with open(HERE / "catalog.json", encoding="utf-8") as f:
        return json.load(f)


def manifest(catalog):
    """BENCHMARK.json: the catalog without its documentation-only keys."""
    return {
        "command": catalog["command"],
        "paths": catalog["paths"],
        "run_seconds": catalog["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in catalog["workloads"]],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in catalog["end_to_end"]],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in catalog["per_layer"]],
    }


def manifest_text(catalog):
    return json.dumps(manifest(catalog), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Building and running the perfbench binary
# ---------------------------------------------------------------------------

def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SetupError(f"no simulator sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise SetupError("cmake not found")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired as e:
            raise SetupError(f"build timed out: {' '.join(step)}") from e
        if done.returncode != 0:
            raise SetupError(f"build failed: {' '.join(step)}")


def drive(deadline, mode, workload, seed, arg=None, cpu=None):
    """Runs the perfbench binary in one mode, on one CPU if `cpu` is given,
    and returns its JSON document."""
    argv = [str(BINARY), mode, workload, str(seed)]
    if arg is not None:
        argv.append(repr(float(arg)))
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout, check=False, text=True,
                              preexec_fn=pin)
    except subprocess.TimeoutExpired as e:
        raise SetupError(f"{mode} run timed out after {timeout:.0f} s") from e
    if done.returncode != 0:
        raise SetupError(f"{mode} run exited {done.returncode}")
    return json.loads(done.stdout)


def measure(deadline, workload, seed, seconds, trace):
    """Untraced repetitions, each in a process of its own, until `seconds`
    have passed (at least one; a failed one ends them), each followed by
    set-up samples in the same process; then, with `trace`, one traced
    repetition. Returns the document check() and end_to_end() read.

    The repetitions take the CPUs this process may use in turn. One vCPU of
    a shared host can run far slower than the others for minutes (one of
    four ran collperf_direct_64x64m ~40% slower throughout a test), and
    taking them in turn gives every run the same mix."""
    runs, rss, setups = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    while True:
        timed = drive(deadline, "timed", workload, seed, SETUPS_PER_PROCESS,
                      cpus[len(runs) % len(cpus)])
        runs.extend(timed["runs"])
        rss.append(timed["peak_rss_kib"])
        setups.extend(timed["setup_s"])
        if "error" in runs[-1] or time.monotonic() - start >= seconds:
            break
    doc = {"mode": "traced" if trace else "timed", "hints": timed["hints"],
           "runs": runs, "peak_rss_kib": statistics.median(rss),
           "setup_only_s": setups}
    if trace and "error" not in runs[-1]:
        untraced_s = statistics.median(r["host_s"] for r in runs)
        traced = drive(deadline, "traced", workload, seed, untraced_s)
        doc["untraced_host_s"] = untraced_s
        for key in ("traced", "ledger", "timeline"):
            if key in traced:
                doc[key] = traced[key]
    return doc


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def rep_problems(rep, reference, first):
    """Why one repetition fails, against the oracle and the first good one."""
    if "error" in rep:
        return [f"error: {rep['error']}"]
    problems = []
    if rep["checksum"] != reference["checksum"]:
        problems.append(f"content {rep['checksum']} differs from the "
                        f"reference {reference['checksum']}")
    if rep["total_bytes"] != rep["expected_bytes"]:
        problems.append(f"wrote {rep['total_bytes']} bytes, expected "
                        f"{rep['expected_bytes']}")
    if rep["sync_abandoned"] != 0:
        problems.append(f"{rep['sync_abandoned']} sync requests abandoned")
    if rep["fallback_writes"] != 0:
        problems.append(f"{rep['fallback_writes']} cache fallback writes")
    if rep["open_spans"] != 0:
        problems.append(f"{rep['open_spans']} trace spans left open")
    if first is not None:
        for field in AGREE_FIELDS:
            if rep[field] != first[field]:
                problems.append(f"{field} {rep[field]} disagrees with the "
                                f"first repetition's {first[field]}")
    return problems


def traced_problems(doc, first):
    """Extra checks on the traced repetition: it changes nothing virtual,
    its output files have the expected size, and its host timeline adds up."""
    traced = doc["traced"]
    problems = [f"traced {field} {traced[field]} disagrees with the "
                f"untraced {first[field]}"
                for field in TRACED_AGREE_FIELDS
                if traced[field] != first[field]]
    timeline = doc["timeline"]
    if timeline["file_bytes"] != traced["expected_bytes"]:
        problems.append(f"output files hold {timeline['file_bytes']} bytes, "
                        f"expected {traced['expected_bytes']}")
    ledger = doc["ledger"]
    parts = (ledger["workloads.head_host_s"] + ledger["mpiio.write_host_s"] +
             ledger["workloads.gap_host_s"] + ledger["workloads.tail_host_s"])
    if not math.isclose(parts, traced["host_s"], rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"head+window+gap+tail {parts} != host_s "
                        f"{traced['host_s']}")
    return problems


def check(reference_doc, doc):
    """Returns (attempted, failures): one entry per failed experiment."""
    reference = reference_doc["runs"][0]
    runs = doc["runs"]
    attempted = len(runs) + (doc["mode"] == "traced")
    oracle = rep_problems(reference, reference, None)
    if oracle:
        # Nothing to compare content against: no experiment verifies.
        return attempted, [f"reference: {'; '.join(oracle)}"] * attempted
    first = next((r for r in runs if "error" not in r), None)
    failures = []
    for i, rep in enumerate(runs):
        problems = rep_problems(rep, reference, first)
        if problems:
            failures.append(f"repetition {i}: " + "; ".join(problems))
    if doc["mode"] == "traced":
        traced = doc.get("traced")
        if traced is None:
            problems = ["did not run after a failed repetition"]
        else:
            problems = rep_problems(traced, reference, None)
            if not problems:
                problems = traced_problems(doc, first)
        if problems:
            failures.append("traced repetition: " + "; ".join(problems))
    return attempted, failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def summary(values, statistic):
    """The reported statistic, the sample count, median, extremes, and the
    highest percentile with at least ten samples beyond it (none below 20
    samples)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"statistic": statistic, "n": n,
           "median": statistics.median(ordered),
           "min": ordered[0], "max": ordered[-1]}
    for q in (99, 95, 90):
        if n * (100 - q) / 100 >= 10:
            out[f"p{q}"] = ordered[min(n - 1, math.ceil(n * q / 100) - 1)]
            break
    return out


def end_to_end(doc):
    """Every end-to-end metric and the summaries behind the timings.

    host_s is the fastest repetition of the run. On a shared machine other
    tenants only ever add time: over five 50 s runs of
    collperf_direct_64x64m, ~150 repetitions each, the run minimum spread
    0.10 (quartile distance over median) where the run median spread 0.25.
    setup_s is the median of the set-up samples, which span the run."""
    runs = doc["runs"]
    host = summary([r["host_s"] for r in runs], "min")
    setup = summary(doc["setup_only_s"], "median")
    first = runs[0]
    values = {
        "host_s": host["min"],
        "setup_s": setup["median"],
        "peak_rss_mib": doc["peak_rss_kib"] / 1024.0,
        "perceived_bw_gib": first["bandwidth_gib"],
        "final_flush_s": first["final_flush_ns"] * 1e-9,
    }
    return values, {"host_s": host, "setup_s": setup}


def detail(name, summaries):
    s = summaries.get(name)
    if s is None:
        return ""
    tail = "".join(f", p{q} {s[f'p{q}']:.6g}" for q in (99, 95, 90)
                   if f"p{q}" in s)
    return (f"  ({s['statistic']} of {s['n']}; min {s['min']:.6g}, "
            f"median {s['median']:.6g}, max {s['max']:.6g}{tail})")


def render(specs, values, summaries=None):
    """One line per metric: name, value, unit."""
    lines = []
    for spec in specs:
        lines.append(f"{spec['name']:<28} {values[spec['name']]:>16.6g} "
                     f"{spec['unit']:<9}{detail(spec['name'], summaries or {})}")
    return lines


def result_line(correct, attempted, failed, specs, values):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    })


# ---------------------------------------------------------------------------
# A benchmark run
# ---------------------------------------------------------------------------

def run(catalog, workload, seed, seconds, trace):
    build()
    deadline = time.monotonic() + seconds + RUN_SLACK_S
    reference = drive(deadline, "reference", workload, seed)
    doc = measure(deadline, workload, seed, seconds, trace)
    attempted, failures = check(reference, doc)
    for failure in failures:
        log(f"FAILED {workload} seed {seed}: {failure}")

    config = next(w for w in catalog["workloads"] if w["name"] == workload)
    specs = catalog["per_layer" if trace else "end_to_end"]
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "config": config["config"], "testbed": catalog["testbed"],
              "hints": doc["hints"], "reference": reference["runs"][0],
              "runs": doc["runs"], "attempted": attempted,
              "failures": failures}
    # A failed run reports zeros: none of its numbers can be trusted.
    values = {s["name"]: 0.0 for s in specs}
    summaries = {}
    if not failures and trace:
        values = doc["ledger"]
        if set(values) != {s["name"] for s in specs}:
            raise SetupError("the perfbench ledger and perfbench/catalog.json "
                             "name different per-layer metrics")
        traced_s = doc["traced"]["host_s"]
        untraced_s = doc["untraced_host_s"]
        record.update({
            "traced": doc["traced"], "timeline": doc["timeline"],
            "overhead": {"traced_host_s": traced_s,
                         "untraced_median_host_s": untraced_s,
                         "ratio": traced_s / untraced_s - 1.0}})
    elif not failures:
        values, summaries = end_to_end(doc)
        record["summaries"] = summaries
    record["metrics"] = {
        s["name"]: dict(s, value=values[s["name"]]) for s in specs}
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload}{'.trace' if trace else ''}.json"
    with open(out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)

    print(f"# {workload}  seed {seed}  {seconds:g} s  trace {int(trace)}  "
          f"({config['config']})")
    for line in render(specs, values, summaries):
        print(line)
    if "overhead" in record:
        o = record["overhead"]
        print(f"# traced repetition {o['traced_host_s']:.6g} s against the "
              f"untraced median {o['untraced_median_host_s']:.6g} s: "
              f"overhead {100 * o['ratio']:+.1f}%")
    print(f"# {attempted - len(failures)}/{attempted} experiments passed; "
          f"results in {out.relative_to(ROOT)}")
    print(result_line(not failures, attempted, len(failures), specs, values))
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# Self-test of the checks and the output format
# ---------------------------------------------------------------------------

def synthetic(catalog):
    """A passing reference, timed and traced document, shaped like the
    perfbench binary's output."""
    rep = {"checksum": "afc9a27379196324", "bandwidth_gib": 2.5,
           "io_time_ns": 51046559371, "final_flush_ns": 128060151,
           "write_ns": [12638570749] * 4, "residual_ns": [128060151] * 4,
           "events": 56872, "switches": 56872, "spawned": 512,
           "ready_hwm": 512, "stack_reuses": 0, "total_bytes": 137438953472,
           "expected_bytes": 137438953472, "sync_abandoned": 0,
           "fallback_writes": 0, "open_spans": 0, "host_s": 0.3,
           "setup_s": 0.02}
    reference = {"mode": "reference", "runs": [dict(rep)]}
    runs = [dict(rep, host_s=0.3 + 0.01 * i) for i in range(5)]
    timed = {"mode": "timed", "runs": runs, "peak_rss_kib": 200000,
             "setup_only_s": [0.02 + 0.001 * i for i in range(10)]}
    ledger = {s["name"]: 1.0 for s in catalog["per_layer"]}
    ledger.update({"workloads.head_host_s": 0.02, "mpiio.write_host_s": 0.2,
                   "workloads.gap_host_s": 0.05,
                   "workloads.tail_host_s": 0.03})
    traced = {"mode": "traced", "runs": copy.deepcopy(runs),
              "traced": dict(rep, host_s=0.3), "ledger": ledger,
              "timeline": {"file_bytes": 137438953472},
              "untraced_host_s": 0.32}
    return reference, timed, traced


def planted_failures(expect, reference, timed, source):
    """The two planted failures the benchmark must catch, on any clean
    reference and timed document with at least two repetitions."""
    attempted = len(timed["runs"])
    expect(check(reference, timed) == (attempted, []),
           f"{source}: clean repetitions pass")

    planted = copy.deepcopy(reference)
    planted["runs"][0]["checksum"] = "0000000000000000"
    _, found = check(planted, timed)
    expect(len(found) == attempted and
           all("differs from the reference" in f for f in found),
           f"{source}: a planted reference mismatch fails every repetition")

    planted = copy.deepcopy(timed)
    planted["runs"][-1]["io_time_ns"] += 1
    _, found = check(reference, planted)
    expect(len(found) == 1 and f"repetition {attempted - 1}" in found[0] and
           "disagrees" in found[0],
           f"{source}: a planted disagreement between repetitions is flagged")


def self_test(catalog, real):
    failures = []

    def expect(condition, what):
        print(f"{'ok  ' if condition else 'FAIL'} {what}")
        if not condition:
            failures.append(what)

    reference, timed, traced = synthetic(catalog)
    planted_failures(expect, reference, timed, "synthetic")
    if real:
        # The same plants on real perfbench output, at a small seconds budget.
        build()
        deadline = time.monotonic() + RUN_SLACK_S
        workload = catalog["workloads"][0]["name"]
        real_timed = {"mode": "timed",
                      "runs": [drive(deadline, "timed", workload, 1, 0)["runs"][0]
                               for _ in range(2)]}
        planted_failures(expect, drive(deadline, "reference", workload, 1),
                         real_timed, f"{workload} perfbench output")
    expect(check(reference, traced) == (6, []), "clean traced run passes")

    planted = copy.deepcopy(traced)
    planted["traced"]["final_flush_ns"] += 1
    _, found = check(reference, planted)
    expect(len(found) == 1 and "traced" in found[0],
           "a traced repetition that moves virtual time is flagged")

    for field, value in (("sync_abandoned", 1), ("fallback_writes", 2),
                         ("open_spans", 1), ("total_bytes", 1)):
        planted = copy.deepcopy(timed)
        for r in planted["runs"]:
            r[field] = value
        _, found = check(reference, planted)
        expect(len(found) == 5, f"planted {field}={value} fails every "
               "repetition")

    planted = copy.deepcopy(timed)
    planted["runs"][2] = {"error": "workflow write failed"}
    _, found = check(reference, planted)
    expect(len(found) == 1 and "error" in found[0],
           "a thrown error counts as a failed experiment")

    for specs, doc in ((catalog["end_to_end"], timed),
                       (catalog["per_layer"], traced)):
        if doc is timed:
            values, summaries = end_to_end(doc)
        else:
            values, summaries = doc["ledger"], {}
        lines = render(specs, values, summaries)
        last = json.loads(result_line(True, 5, 0, specs, values))
        named = all(any(line.split()[:1] == [s["name"]] and
                        s["unit"] in line.split()[2:3] for line in lines)
                    for s in specs)
        exact = (set(last) == {"correct", "attempted", "failed", "metrics"} and
                 set(last["metrics"]) == {s["name"] for s in specs} and
                 all(last["metrics"][s["name"]]["unit"] == s["unit"]
                     for s in specs))
        kind = "end-to-end" if specs is catalog["end_to_end"] else "per-layer"
        expect(named and exact,
               f"output names every {kind} metric with its unit")

    committed = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    expect(committed == manifest_text(catalog),
           "BENCHMARK.json matches perfbench/catalog.json")
    print(f"{len(failures)} self-test failure(s)")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="one workload of the catalog (default: all)")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--manifest", action="store_true")
    args = parser.parse_args()

    catalog = load_catalog()
    names = [w["name"] for w in catalog["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an integer in [0, 2^64)")
    if args.seconds is not None and not 0 <= args.seconds <= 3600:
        parser.error("--seconds must be between 0 and 3600")
    seconds = catalog["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.self_test:
            return self_test(catalog, real=True)
        if args.manifest:
            (ROOT / "BENCHMARK.json").write_text(manifest_text(catalog),
                                                 encoding="utf-8")
            return 0
        status = 0
        for name in [args.workload] if args.workload else names:
            status = max(status, run(catalog, name, args.seed, seconds,
                                     bool(args.trace)))
        return status
    except SetupError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
