"""Benchmark entry point: generate a workload from its seed, run it in a
fresh closed-loop worker, check every answer, print the metrics.

    python3 perfbench/run.py --workload ring-ladder --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0        # every workload, one table

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace 1 the per-layer ones).
Lines before it name each metric with its unit, the failed-op ratio and
every failed op with its input files.  --out FILE appends the full record
of the run to FILE for compare.py.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import check
import pace
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_REPS = 7
WORKER_TIMEOUT_S = 150
# Whole passes a run makes at least; the tail percentile is fixed from
# this so that every run reports the same percentile.
MIN_PASSES = {"verify": 1}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import topring.cli
from topring.fields import GF
for pd in sys.argv[3:]:
    GF(*map(int, pd.split(":")))
took = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import pace
print(took, pace.block())
"""


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                capture_output=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count()}


def measure_setup(fields) -> list[tuple[float, float]]:
    """Import topring.cli and build the workload's fields in fresh
    processes: (raw time, time scaled to the reference speed) of each."""
    args = [f"{p}:{d}" for p, d in fields]
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), *args],
                             capture_output=True, text=True, timeout=60, check=True)
        took, ref = map(float, out.stdout.split())
        times.append((took, took * pace.REFERENCE_S / ref))
    return times


def tail_level(n: int) -> float:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return 100.0 if n <= 10 else float(math.floor(100 * (1 - 10 / n)))


def nearest_rank(values: list[float], level: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(level / 100 * len(ordered))) - 1]


def end_to_end(op_times: dict, level: float) -> dict:
    """wall_s, op_p50_s and op_tail_s from each op's times over the passes.

    wall_s is one pass's time to all verdicts, with each op at its median
    time.  The percentiles are taken over every op execution of the run."""
    times = [t for ts in op_times.values() for t in ts]
    return {"wall_s": sum(statistics.median(ts) for ts in op_times.values()),
            "op_p50_s": statistics.median(times),
            "op_tail_s": nearest_rank(times, level)}


def warmup_ops(ops) -> list[int]:
    """The first op of each verb: run once, untimed, before the passes, so
    that no pass pays for first calls.  verify, one 30-s op, has none."""
    first: dict[str, int] = {}
    for i, op in enumerate(ops):
        if op.argv[0] != "verify":
            first.setdefault(op.argv[0], i)
    return list(first.values())


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def judge(ops, res: dict, seed: int, workload: str) -> tuple[int, int, dict]:
    """(attempted, failed, problems by label) over every op execution.

    An execution fails when its exit code is not 0, its report differs
    from the construction's answer, its bytes differ from the first pass
    (or, traced, from the untraced pass), or, at the default seed, its
    digest differs from the one stored with the benchmark."""
    stored = load_digests().get(workload, {}) if seed == DEFAULT_SEED else {}
    passes = res["passes"] + ([res["traced"]] if res["traced"] else [])
    problems = {}
    for i, op in enumerate(ops):
        kept = res["reports"][op.label]
        probs = check.check(op.expect, kept["code"], kept["report"])
        if op.label in stored and stored[op.label] != kept["digest"]:
            probs.append("report digest differs from the stored default-seed digest")
        if any(p["ops"][i][2] != kept["digest"] for p in passes):
            probs.append("report bytes differ between passes")
        if kept["code"] != 0 and kept["stderr"]:
            probs.append(kept["stderr"].strip().splitlines()[-1])
        problems[op.label] = probs
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(bool(row[1] != 0 or problems[op.label])
                 for p in passes for op, row in zip(ops, p["ops"]))
    return attempted, failed, {k: v for k, v in problems.items() if v}


def run_worker(manifest: dict, work: Path) -> dict:
    man_path, res_path = work / "manifest.json", work / "result.json"
    man_path.write_text(json.dumps(manifest), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(man_path), str(res_path)],
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(res_path.read_text(encoding="utf-8"))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    if work.exists():
        shutil.rmtree(work)
    ops = workloads.build(workload, seed, str(work))
    setup = None if trace else measure_setup(workloads.FIELDS[workload])
    min_passes = MIN_PASSES.get(workload, 2)
    span_path = out_dir / f"spans-{workload}-s{seed}.npz"
    res = run_worker({"src": str(SRC), "workdir": str(work), "fields": workloads.FIELDS[workload],
                      "ops": [{"label": op.label, "argv": op.argv} for op in ops],
                      "warmup": warmup_ops(ops),
                      "seconds": seconds, "min_passes": min_passes, "trace": trace,
                      "spans": str(span_path)}, work)
    attempted, failed, problems = judge(ops, res, seed, workload)
    level = tail_level(len(ops) * min_passes)
    record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "env": environment(), "passes": len(res["passes"]), "ops_per_pass": len(ops),
              "tail_level": level, "failed_ratio": failed / attempted,
              "failed_ops": {op.label: {"argv": op.argv, "problems": problems[op.label]}
                             for op in ops if op.label in problems},
              "digests": {op.label: res["reports"][op.label]["digest"] for op in ops},
              "sizes": {op.label: op.size for op in ops}}
    if trace:
        with np.load(span_path) as data:
            metrics = spans.layer_metrics(data)
        base = res["passes"][0]["wall"]
        metrics["trace.overhead_ratio"] = (res["traced"]["wall"] / base - 1, "ratio")
    else:
        # column 0 of an op row is its raw time, column 5 the scaled one
        record["op_times"] = {op.label: [p["ops"][i][5] for p in res["passes"]]
                              for i, op in enumerate(ops)}
        record["raw_op_times"] = {op.label: [p["ops"][i][0] for p in res["passes"]]
                                  for i, op in enumerate(ops)}
        record["raw_metrics"] = {"setup_s": statistics.median(t for t, _ in setup),
                                 **end_to_end(record["raw_op_times"], level)}
        metrics = {"setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
                   **{k: (v, "s") for k, v in end_to_end(record["op_times"], level).items()},
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    record["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if problems:
        record["kept_inputs"] = str(work)
    else:
        shutil.rmtree(work)
    return record


def summary(rec: dict) -> list[str]:
    res = rec["result"]
    passes = f"{rec['passes']} pass{'es' if rec['passes'] > 1 else ''}"
    passes += " + 1 traced pass" if rec["trace"] else ""
    lines = [f"# {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
             f"{passes} of {rec['ops_per_pass']} ops; "
             f"commit {rec['env']['commit'][:12]} python {rec['env']['python']} "
             f"numpy {rec['env']['numpy']} nproc {rec['env']['nproc']}"]
    for name, m in res["metrics"].items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{rec['tail_level']:g} of {rec['passes'] * rec['ops_per_pass']} ops)"
        if name in rec.get("raw_metrics", {}):
            note += f"  (raw {rec['raw_metrics'][name]:.6g} s)"
        lines.append(f"{name:44s} {m['value']:.6g} {m['unit']}{note}")
    lines.append(f"{'failed_ratio':44s} {rec['failed_ratio']:.6g} ratio  "
                 f"({res['failed']} of {res['attempted']} ops)")
    for label, info in rec["failed_ops"].items():
        lines.append(f"FAILED {label}: inputs {' '.join(info['argv'])}: "
                     + "; ".join(info["problems"]))
    if "kept_inputs" in rec:
        lines.append(f"inputs of the failed ops kept in {rec['kept_inputs']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record of each run to this file")
    args = ap.parse_args(argv)
    if not (SRC / "topring" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'topring'} is missing", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_one(name, args.seed, args.seconds, args.trace)
        records.append(rec)
        print("\n".join(summary(rec)), flush=True)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
