"""Run the benchmark over several seeds and write benchmarks/BENCH_<tag>.json.

    python3 benchmarks/record.py --tag baseline --seeds 1-10 --traced-seeds 1
    python3 benchmarks/record.py --tag after --seeds 11-20 --against benchmarks/BENCH_baseline.json

For every workload in BENCHMARK.json, runs ``run.py`` for run_seconds once
per seed untraced and once per traced seed traced, one run at a time.
Writes, per workload, every run's result line and statistics, and per
end-to-end metric the median and quartiles over the runs with the spread
(q3 - q1) / median beside the metric's bound; per-layer values come from
the traced runs.  With ``--against``, each end-to-end median is also
compared with the same median in an earlier BENCH file: ``change`` is the
share by which it got worse (negative: better), beside the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return {"seed": seed, "result": result, "detail": detail}


def _summary(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "n_runs": len(values), "values": values}


def _change(median: float, earlier: float, better: str) -> float:
    worse = median / earlier - 1
    return worse if better == "lower" else -worse


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--seeds", default="1-10", help="untraced seeds, e.g. 1-10 or 1,4,7")
    p.add_argument("--traced-seeds", default="1")
    p.add_argument("--against", type=Path, help="earlier BENCH_*.json to compare medians with")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}

    out = {"tag": args.tag, "command": spec["command"], "run_seconds": seconds,
           "against": args.against and args.against.name, "workloads": {}}
    for name in names:
        runs = [_run(spec, name, s, seconds, 0) for s in _seeds(args.seeds)]
        traced = [_run(spec, name, s, seconds, 1) for s in _seeds(args.traced_seeds)]
        out.setdefault("environment", runs[0]["detail"]["environment"])
        e2e = {m: _summary([r["result"]["metrics"][m]["value"] for r in runs], b)
               for m, b in bounds.items()}
        per_layer = {}
        if traced:
            for m in traced[0]["result"]["metrics"]:
                per_layer[m] = statistics.median(
                    t["result"]["metrics"][m]["value"] for t in traced)
        out["workloads"][name] = {
            "attempted": sum(r["result"]["attempted"] for r in runs + traced),
            "failed": sum(r["result"]["failed"] for r in runs + traced),
            "end_to_end": e2e,
            "per_layer": per_layer,
            "top_self_s": traced[0]["detail"]["top_self_s"] if traced else [],
            "runs": [{"seed": r["seed"], "metrics": r["result"]["metrics"],
                      "stats": r["detail"].get("stats")} for r in runs],
        }
        for m, s in e2e.items():
            print(f"  {name} {m}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"({s['spread'] / s['bound']:.2f} of bound {s['bound']})", flush=True)
            before = earlier.get(name, {}).get("end_to_end", {}).get(m)
            if before is not None:
                s["against_median"] = before["median"]
                s["change"] = _change(s["median"], before["median"], better[m])
                print(f"  {name} {m}: change {s['change']:+.4f} against median "
                      f"{before['median']:.6g} (bound {s['bound']})", flush=True)

    target = HERE / f"BENCH_{args.tag}.json"
    target.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
