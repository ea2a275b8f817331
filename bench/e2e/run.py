#!/usr/bin/env python3
"""End-to-end benchmark of the Butterfly stream miner.

Builds bench/e2e (the bfly_bench binary and the program's libraries, from
source), then runs each workload as separate child processes: one untimed
reference that replays every tenant on a threads=1 engine, and timed rounds
that all process the same inputs. Every round's release-log digests must
equal the reference's, and at the default seed the reference must equal
golden.json. See README.md.

    python3 bench/e2e/run.py [--workload NAME] [--seed 7] [--seconds S]
                             [--trace 0|1] [--smoke] [--json PATH]

Without --workload all four workloads run, interleaved round by round.
--seconds (default: run_seconds in BENCHMARK.json) sets how many rounds each
workload runs. The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics, or with --trace 1 the
per-layer ones. The exit code is 0 only if every operation succeeded and
every digest matched.
"""

import argparse
import hashlib
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
ROOT = HERE.parent.parent
WORKLOADS = ["solo-dense", "solo-webscale", "fleet-64", "fleet-mixed-ckpt"]
FLEETS = {"fleet-64", "fleet-mixed-ckpt"}
# Loop seconds of one round on a 4-vCPU Sapphire Rapids VM. Only sets how
# many rounds fit in --seconds, so the round count, and with it the
# statistics below, does not depend on how fast a run happens to be.
ROUND_SECONDS = {"solo-dense": 0.55, "solo-webscale": 1.2, "fleet-64": 0.7,
                 "fleet-mixed-ckpt": 0.6}
MIN_ROUNDS = 5
DEFAULT_SEED = 7
# Once built, the whole command must finish within 180 s.
DEADLINE_S = 165


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds bfly_bench; returns the binary path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "e2e-build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bfly_bench",
                  "--parallel", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return build_dir / "bfly_bench"


def run_child(binary, workload, role, seed, smoke, out_dir, tag, traced,
              deadline):
    """Runs one child; returns its JSON, or a failure record without one."""
    tmp = out_dir / f"tmp-{tag}"
    trace = out_dir / f"trace-{tag}.json"
    cmd = [str(binary), f"--workload={workload}", f"--role={role}",
           f"--seed={seed}", f"--tmp={tmp}"]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append(f"--trace={trace}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        error = proc.stderr.strip()[-500:]
    except subprocess.TimeoutExpired:
        result, error = None, "timed out"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result is None:
        return {"workload": workload, "role": role, "traced": traced,
                "attempted": 1, "failed": 1, "errors": [error or "no output"],
                "digests": [], "latencies_ms": [], "iteration_ms": [],
                "setup_s": 0, "peak_rss_mb": 0, "loop_s": 0, "records": 0,
                "releases": 0, "layers": {}}
    if traced:
        result["trace_file"] = str(trace)
    return result


# ---------------------------------------------------------------------------
# Statistics
#
# The rounds of one run process identical inputs, so the k-th loop iteration
# (and the k-th release) of every round does the same work. Each is taken at
# its fastest over the rounds: on a shared host the same work can take 40%
# longer for seconds at a time, and the fastest repeat is the one least
# disturbed. Summing the per-iteration minimums keeps the mix of cheap and
# expensive windows that the run's throughput depends on.


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """Highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99, 95, 90):
        if n * (1 - p / 100) >= 10:
            return p
    return None


def fastest(rounds, key):
    """Element-wise minimum of the rounds' lists under key."""
    complete = [r[key] for r in rounds if r[key]]
    if not complete:
        return []
    n = min(len(values) for values in complete)
    return [min(values[i] for values in complete) for i in range(n)]


def records_per_s(rounds):
    best = fastest(rounds, "iteration_ms")
    if not best:
        return 0.0
    per_iteration = rounds[0]["records"] / len(rounds[0]["iteration_ms"])
    return per_iteration * len(best) / (sum(best) / 1e3)


def combined_digest(digests):
    return hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Aggregation


class Workload:
    """The children of one workload and what they add up to."""

    def __init__(self, name):
        self.name = name
        self.reference = None
        self.planned = 0
        self.rounds = []
        self.traced = []

    def children(self):
        return [self.reference] + self.rounds + self.traced

    def verify(self, golden):
        """Counts attempted and failed operations, digests included."""
        attempted = sum(c["attempted"] for c in self.children())
        failed = sum(c["failed"] for c in self.children())
        problems = [e for c in self.children() for e in c.get("errors", [])]
        expected = self.reference["digests"]
        timed = self.rounds + self.traced
        if golden and combined_digest(expected) != golden:
            problems.append("reference digest differs from golden.json")
            failed += sum(c["releases"] for c in timed)
        for child in timed:
            got = child["digests"]
            if len(got) != len(expected):
                failed += max(1, child["releases"])
                problems.append("a round produced no release logs")
                continue
            bad = sum(g != e for g, e in zip(got, expected))
            if bad:
                failed += bad * max(1, child["releases"] // len(got))
                problems.append(f"{bad} tenant logs differ from the reference")
        return attempted, failed, problems

    def end_to_end(self):
        """name -> (value, unit, samples) for every end-to-end metric."""
        latencies = sorted(fastest(self.rounds, "latencies_ms"))
        n = len(latencies)
        r = len(self.rounds)
        out = {
            "records_per_s": (records_per_s(self.rounds), "records/s",
                              f"{r} rounds"),
            "release_p50_ms": (percentile(latencies, 50) if n else 0, "ms",
                               f"{n} releases x {r} rounds"),
            "release_p90_ms": (percentile(latencies, 90) if n else 0, "ms",
                               f"{n} releases x {r} rounds"),
            "setup_s": (statistics.median(c["setup_s"] for c in self.rounds),
                        "s", f"median of {r} setups"),
            "peak_rss_mb": (statistics.median(c["peak_rss_mb"]
                                              for c in self.rounds),
                            "MiB", f"median of {r} rounds"),
        }
        tail = tail_percentile(n)
        if tail and tail > 90:
            beyond = n - math.ceil(tail / 100 * n)
            out[f"release_p{tail:g}_ms"] = (percentile(latencies, tail), "ms",
                                            f"{beyond} beyond it, not gated")
        return out

    def per_layer(self):
        """Medians over the traced rounds. A fleet's engine-level layers come
        from the reference, the only place its engines are called directly."""
        names = {k for r in self.traced for k in r["layers"]}
        layers = {k: statistics.median(r["layers"][k] for r in self.traced
                                       if k in r["layers"])
                  for k in names}
        for key, value in self.reference["layers"].items():
            engine_level = key.split(".")[0] in ("moment", "core", "policy")
            if engine_level and (self.name in FLEETS or key not in layers):
                layers[key] = value
        untraced = records_per_s(self.rounds)
        traced = records_per_s(self.traced)
        ref = self.reference
        ref_rate = ref["records"] / ref["loop_s"] if ref["loop_s"] else 0
        layers["loop.speedup_vs_1t"] = untraced / ref_rate if ref_rate else 0
        layers["bench.trace_overhead_pct"] = (
            (untraced / traced - 1) * 100 if traced else 0)
        return layers


def self_time_table(workload):
    """(role, span) -> (calls, total us, self us) over the trace files."""
    rows = {}
    for child in [workload.reference] + workload.traced:
        path = child.get("trace_file")
        if not path or not Path(path).exists():
            continue
        events = [e for e in json.loads(Path(path).read_text())["traceEvents"]
                  if e["ph"] == "X" and e["tid"] == 0]
        covered = {}
        for e in events:
            parent = e["args"]["parent"]
            covered[parent] = covered.get(parent, 0) + e["dur"]
        for e in events:
            key = (child["role"], e["name"])
            calls, total, own = rows.get(key, (0, 0.0, 0.0))
            rows[key] = (calls + 1, total + e["dur"],
                         own + e["dur"] - covered.get(e["args"]["span"], 0))
    return rows


def merge_traces(workloads, path):
    """One Chrome trace holding every traced child, one pid per child."""
    events = []
    for workload in workloads:
        for child in [workload.reference] + workload.traced:
            trace_file = Path(child.get("trace_file", ""))
            if not trace_file.is_file():
                continue
            pid = len({e["pid"] for e in events}) + 1
            for e in json.loads(trace_file.read_text())["traceEvents"]:
                e["pid"] = pid
                events.append(e)
            trace_file.unlink()
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return events


def check_trace(events):
    """None if every span ends after it starts and lies inside its parent."""
    spans = {(e["pid"], e["args"]["span"]): e
             for e in events if e["ph"] == "X"}
    for (pid, _), e in spans.items():
        if e["dur"] < 0 or e["args"]["end"] < e["ts"]:
            return f"span {e['name']} ends before it starts"
        parent = e["args"]["parent"]
        if parent < 0:
            continue
        p = spans.get((pid, parent))
        if p is None:
            return f"span {e['name']} names a missing parent"
        end, parent_end = e["args"]["end"], p["args"]["end"]
        if e["ts"] < p["ts"] - 1e-3 or end > parent_end + 1e-3:
            return f"span {e['name']} escapes its parent {p['name']}"
    return None if spans else "the trace holds no spans"


def print_workload(w, entry):
    print(f"\n{w.name}  reference + {len(w.rounds)} rounds"
          f" + {len(w.traced)} traced; host {json.dumps(entry['host'])}")
    for name, m in entry.get("end_to_end", {}).items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']:<10} "
              f"{m['samples']}")
    print(f"  {'failed_op_ratio':<24} {entry['failed_op_ratio']:>14.6g} "
          f"{'failed/attempted':<10} {entry['failed']}/{entry['attempted']}")
    if "per_layer" not in entry:
        return
    print(f"  per layer (median of {len(w.traced)} traced rounds):")
    for name, value in sorted(entry["per_layer"].items()):
        print(f"    {name:<34} {value:>14.6g}")
    print(f"  self time by span:  {'role':<9} {'span':<20} {'calls':>8}"
          f" {'total ms':>10} {'self ms':>10}")
    rows = sorted(self_time_table(w).items())
    for (role, name), (calls, total, own) in rows:
        print(f"{'':<20}{role:<10} {name:<20} {calls:>8}"
              f" {total / 1e3:>10.2f} {own / 1e3:>10.2f}")


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload, which set the "
                             "number of rounds (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one round of each kind, and "
                             "checks of the metric names and the trace")
    parser.add_argument("--json", type=Path, help="write the full report here")
    parser.add_argument("--bin", type=Path, help="use this bfly_bench")
    parser.add_argument("--out-dir", type=Path,
                        help="traces, reports and temporary files")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the reference digests in golden.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = args.bin or build(build_dir)
    out_dir = args.out_dir or build_dir / "e2e"
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    trace = bool(args.trace) or args.smoke
    mode = "smoke" if args.smoke else "full"
    workloads = [Workload(n) for n in ([args.workload] if args.workload
                                       else WORKLOADS)]
    golden_path = HERE / "golden.json"
    golden = {}
    if golden_path.exists():
        golden = json.loads(golden_path.read_text())

    def child(w, role, traced=False):
        tag = f"{w.name}-{role}-{len(w.children())}"
        return run_child(binary, w.name, role, args.seed, args.smoke, out_dir,
                         tag, traced, deadline)

    for w in workloads:
        w.reference = child(w, "reference", trace)
    for w in workloads:
        seconds = args.seconds or spec["run_seconds"]
        w.planned = 1 if args.smoke else max(
            MIN_ROUNDS, round(seconds / ROUND_SECONDS[w.name]))
    # Interleaved round by round, so a slow stretch on a shared host is
    # spread over every workload (and over traced and untraced rounds)
    # instead of landing on one. A traced run splits its rounds in two.
    for i in range(max(w.planned for w in workloads)):
        for w in workloads:
            if i < w.planned:
                traced = args.trace and i % 2 == 1
                (w.traced if traced else w.rounds).append(
                    child(w, "round", traced))
    if args.smoke:
        for w in workloads:
            w.traced.append(child(w, "round", True))

    if args.write_golden:
        if args.seed != DEFAULT_SEED:
            fail("golden digests are recorded at the default seed only")
        for w in workloads:
            golden.setdefault(mode, {})[w.name] = \
                combined_digest(w.reference["digests"])
        golden_path.write_text(json.dumps(golden, indent=2, sort_keys=True) +
                               "\n")

    attempted = failed = 0
    problems = []
    report = {"seed": args.seed, "mode": mode, "workloads": {}}
    metrics = {}
    section = "per_layer" if args.trace else "end_to_end"
    for w in workloads:
        gold = golden.get(mode, {}).get(w.name) \
            if args.seed == DEFAULT_SEED else None
        a, f, p = w.verify(gold)
        entry = {"host": w.reference.get("host", {}), "attempted": a,
                 "failed": f, "failed_op_ratio": f / a if a else 1.0,
                 "reference_digest": combined_digest(w.reference["digests"]),
                 "problems": p}
        if w.rounds:
            entry["end_to_end"] = {
                k: {"value": v, "unit": u, "samples": s}
                for k, (v, u, s) in w.end_to_end().items()}
        if w.traced:
            entry["per_layer"] = w.per_layer()
        print_workload(w, entry)
        report["workloads"][w.name] = entry
        attempted, failed = attempted + a, failed + f
        problems += [f"{w.name}: {x}" for x in p]

        values = entry.get("per_layer", {}) if args.trace else \
            {k: v["value"] for k, v in entry.get("end_to_end", {}).items()}
        for m in spec[section]:
            key = m["name"] if len(workloads) == 1 else f"{w.name}.{m['name']}"
            metrics[key] = {"value": values.get(m["name"], 0),
                            "unit": m["unit"]}
        if args.smoke:
            for kind in ("end_to_end", "per_layer"):
                missing = {m["name"] for m in spec[kind]} - \
                    set(entry.get(kind, {}))
                if missing:
                    problems.append(f"{w.name}: no {kind} {sorted(missing)}")

    if trace:
        trace_path = out_dir / \
            f"trace-{args.workload or 'all'}-seed{args.seed}.json"
        problem = check_trace(merge_traces(workloads, trace_path))
        print(f"\ntrace: {trace_path}")
        if problem:
            problems.append(f"trace: {problem}")

    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    json_path = args.json or out_dir / \
        f"result-{args.workload or 'all'}-seed{args.seed}.json"
    json_path.write_text(json.dumps(report, indent=2) + "\n")
    if problems and not failed:
        failed = 1  # a wrong metric name or trace fails the run as well
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
