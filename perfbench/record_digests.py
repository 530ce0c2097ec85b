"""Rewrite digests.json: the SHA-256 of every op's report at the default seed.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run it only when report bytes change on purpose; run.py counts an op whose
default-seed report no longer matches its stored digest as failed.
"""

import json
import shutil
import sys

import check
import run
import workloads


def record(workload: str) -> dict[str, str]:
    work = run.ROOT / ".perfbench_work" / f"digests-{workload}"
    ops = workloads.build(workload, run.DEFAULT_SEED, str(work))
    res = run.run_worker({"src": str(run.SRC), "workdir": str(work),
                          "fields": workloads.FIELDS[workload],
                          "ops": [{"label": op.label, "argv": op.argv} for op in ops],
                          "warmup": [], "seconds": 0, "min_passes": 1, "trace": 0, "spans": ""}, work)
    bad = [op.label for op in ops if check.check(
        op.expect, res["reports"][op.label]["code"], res["reports"][op.label]["report"])]
    if bad:
        raise SystemExit(f"{workload}: wrong answers, digests not recorded: {bad}")
    shutil.rmtree(work)
    return {op.label: res["reports"][op.label]["digest"] for op in ops}


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    digests = run.load_digests()
    for name in names:
        digests[name] = record(name)
    with open(run.HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
