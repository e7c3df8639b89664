#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarize the spread.

Usage (from the repository root):

    python3 perfbench/collect.py --runs 10 --seed0 1 [--trace 0|1]
        [--workloads repro,bigrun,...] [--seconds S] [--json out.json]
        [--markdown out.md]

Each run uses its own seed (seed0, seed0+1, ...). For every metric the
summary gives the median, the first and third quartiles as
statistics.quantiles(values, n=4) computes them, the spread
(q3 - q1) / median, and the sample count. --json writes the per-run
values and the summary; --markdown writes the summary as tables.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    last = p.stdout.strip().splitlines()[-1]
    return json.loads(last), wall, p.stdout


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--json", default="")
    ap.add_argument("--markdown", default="")
    args = ap.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for name in names:
        runs, walls = [], []
        for i in range(args.runs):
            res, wall, _ = run_once(bench, name, args.seed0 + i, seconds, args.trace)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{name} seed {args.seed0 + i}: correct={res['correct']} failed={res['failed']}")
            runs.append(res)
            walls.append(wall)
        metrics = {}
        for k in runs[0]["metrics"]:
            vals = [r["metrics"][k]["value"] for r in runs]
            metrics[k] = dict(summarize(vals), unit=runs[0]["metrics"][k]["unit"], values=vals)
        out["workloads"][name] = {
            "metrics": metrics,
            "attempted": [r["attempted"] for r in runs],
            "run_wall_s": walls,
        }
        print(f"== {name}: {len(runs)} runs, wall per run median {statistics.median(walls):.1f} s")
        for k, m in metrics.items():
            b = bounds.get(k)
            flag = ""
            if b is not None and k != "setup_s":
                flag = "ok" if m["spread"] < b / 3 else ("WITHIN" if m["spread"] <= b else "OVER")
            print(f"  {k:28s} median {m['median']:14.6g} {m['unit']:9s} q1 {m['q1']:12.6g} q3 {m['q3']:12.6g}"
                  f" spread {m['spread']:.4f} n={m['n']} {flag}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(markdown(out, bounds))


def markdown(out, bounds):
    lines = []
    for name, w in out["workloads"].items():
        lines += [
            f"### {name} (--trace {out['trace']}, --seconds {out['seconds']}, "
            f"{len(w['attempted'])} runs)",
            "",
            "| metric | unit | median | q1 | q3 | spread | n | bound |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for k, m in w["metrics"].items():
            b = bounds.get(k)
            lines.append(
                f"| {k} | {m['unit']} | {m['median']:.6g} | {m['q1']:.6g} | {m['q3']:.6g} "
                f"| {m['spread']:.4f} | {m['n']} | {'' if b is None else b} |")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    main()
