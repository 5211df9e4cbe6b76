"""Steadiness evidence: two separate sets of runs of one workload, compared.

    python3 perfbench/steady.py --workload service-mixed [--runs 10]
    python3 perfbench/steady.py --workload service-mixed --overhead [--runs 3]

Run from the root of the source tree. Every run lasts BENCHMARK.json's
run_seconds. The first form runs set A (seeds 1..runs), then set B (seeds
runs+1..2*runs). For every end-to-end metric it prints each set's median
and quartiles, the spread (quartile distance over the median) and how far
set B's median is from set A's, against the metric's bound, and it records
each run's CPU steal share. The last column is each set's spread of the
timings as measured, before run.py scaled them to the reference speed. The second form alternates untraced and traced
runs on the same seeds and prints traced minus untraced per end-to-end
metric (the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's result line, plus the share of CPU time the hypervisor stole during it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    steal0, total0 = cpu_times()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    steal1, total1 = cpu_times()
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["steal"] = (steal1 - steal0) / max(total1 - total0, 1)
    # run.py's summary on stderr holds the timings as measured, before scaling
    summary = [ln for ln in out.stderr.splitlines() if "as measured: " in ln][-1]
    result["measured"] = json.loads(summary.split("as measured: ", 1)[1])
    print(f"{workload} seed {seed}: steal {result['steal']:.3f}", file=sys.stderr)
    return result


def spread(values: list[float]) -> float:
    """Quartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worse_by(metric: dict, a: float, b: float) -> float:
    """How much worse b is than a, as a share of a (negative: better)."""
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def compare(spec: dict, workload: str, a: list[dict], b: list[dict]) -> bool:
    """Print the A-versus-B table; True when the two sets agree within every bound."""
    shares = [{r["failed"] / r["attempted"] for r in s} for s in (a, b)]
    steal = [max(r["steal"] for r in s) for s in (a, b)]
    print(f"## {workload}: sets A and B of {len(a)} runs; failed share per set "
          f"{[sorted(s) for s in shares]}; largest CPU steal share per set "
          f"{[round(x, 3) for x in steal]}")
    ok = shares[0] == shares[1] and len(shares[0]) == 1
    print("| metric | unit | bound | A q1 / median / q3 | A spread "
          "| B q1 / median / q3 | B spread | B worse than A by | spreads as measured |")
    print("|---" * 9 + "|")
    for m in spec["end_to_end"]:
        name = m["name"]
        stats = []
        for s in (a, b):
            values = [r["metrics"][name]["value"] for r in s]
            stats.append((*statistics.quantiles(values, n=4), spread(values)))
        worse = worse_by(m, stats[0][1], stats[1][1])
        # setup_s rests on a couple of set-ups per run, far fewer samples than
        # the query metrics, so only its median is held to the bound
        good = abs(worse) <= m["bound"] and (
            name == "setup_s" or all(st[3] <= m["bound"] for st in stats))
        ok &= good
        cells = " | ".join(f"{q1:.4g} / {med:.4g} / {q3:.4g} | {sp:.3f}"
                           for q1, med, q3, sp in stats)
        raw = "—"
        if name in a[0]["measured"]:
            raw = " / ".join(f"{spread([r['measured'][name] for r in s]):.3f}" for s in (a, b))
        print(f"| {name} | {m['unit']} | {m['bound']} | {cells} | {worse:+.3f}"
              f"{'' if good else ' **over bound**'} | {raw} |")
    return ok


def overhead(spec: dict, workload: str, runs: int, seconds: float) -> None:
    plain, traced = [], []
    for seed in range(1, runs + 1):
        plain.append(run_once(workload, seed, seconds, 0)["metrics"])
        run_once(workload, seed, seconds, 1)
        report = Path(".bench_out") / f"{workload}-seed{seed}-traced.json"
        traced.append(json.loads(report.read_text())["end_to_end"])
    print(f"## {workload}: tracing overhead, median of {runs} untraced and {runs} traced runs")
    print("| metric | unit | untraced | traced | traced - untraced | share |")
    print("|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        name = m["name"]
        a = statistics.median(r[name]["value"] for r in plain)
        b = statistics.median(r[name] for r in traced)
        print(f"| {name} | {m['unit']} | {a:.4g} | {b:.4g} | {b - a:+.4g} | {(b - a) / a:+.3f} |")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    if args.overhead:
        overhead(spec, args.workload, args.runs, seconds)
        return 0
    a = [run_once(args.workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
    b = [run_once(args.workload, seed, seconds, 0)
         for seed in range(args.runs + 1, 2 * args.runs + 1)]
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps([a, b]), encoding="utf-8")
    return 0 if compare(spec, args.workload, a, b) else 1


if __name__ == "__main__":
    sys.exit(main())
