"""Compare two result sets (parent and change) written by run.py --out.

    python3 perfbench/compare.py parent.jsonl change.jsonl

One row per workload and end-to-end metric: each side's median and
quartiles, the pairs won by the change (runs paired by seed), the change
of the median, and a verdict against the bound in BENCHMARK.json.  Each
workload also gets its failed-op counts and the number of seeds whose
report bytes are identical on both sides.  The verdicts:

    unresolved  either side's quartile spread is wider than the bound,
                and not every change run beats every parent run
    regression  the change's median is worse by more than the bound
    gain        the change wins at least 9 in 10 pairs and the medians
                differ by more than the parent's quartile spread
    same        none of the above
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{workload: {seed: record}} for the untraced runs in a file."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            bound: float, lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    worse = sign * (cm - pm) / pm
    every_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not every_better:
        return "unresolved"
    if worse > bound:
        return "regression"
    if pairs and wins >= 0.9 * pairs and -worse * pm > (p3 - p1):
        return "gain"
    return "same"


def compare(parent: dict, change: dict, spec: dict) -> list[str]:
    rows = [f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':>32s} "
            f"{'change median [q1, q3]':>32s} {'delta':>8s} {'won':>6s}  verdict"]
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            pval = {s: r["result"]["metrics"][name]["value"] for s, r in p_runs.items()}
            cval = {s: r["result"]["metrics"][name]["value"] for s, r in c_runs.items()}
            wins = sum((cval[s] < pval[s]) if lower else (cval[s] > pval[s]) for s in seeds)
            pv, cv = list(pval.values()), list(cval.values())
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            rows.append(f"{workload:14s} {name:12s} {pm:12.6g} [{p1:.4g}, {p3:.4g}]"
                        f"{'':>2s} {cm:12.6g} [{c1:.4g}, {c3:.4g}]  {(cm - pm) / pm:+7.1%}"
                        f" {wins:>2d}/{len(seeds):<3d} "
                        f"{verdict(pv, cv, wins, len(seeds), m['bound'], lower)}")
        pf = sum(r["result"]["failed"] for r in p_runs.values())
        cf = sum(r["result"]["failed"] for r in c_runs.values())
        pa = sum(r["result"]["attempted"] for r in p_runs.values())
        ca = sum(r["result"]["attempted"] for r in c_runs.values())
        rows.append(f"{workload:14s} {'failed':12s} {pf}/{pa} ops on the parent, "
                    f"{cf}/{ca} on the change")
        same = sum(p_runs[s]["digests"] == c_runs[s]["digests"] for s in seeds)
        rows.append(f"{workload:14s} {'report bytes':12s} identical in {same} of {len(seeds)} "
                    f"seeds")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two result sets of run.py --out")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(BENCHMARK))
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    print("\n".join(compare(load(args.parent), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
