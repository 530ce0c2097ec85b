"""Closed-loop worker: one process, one client, ops run one after another.

Usage: python3 worker.py MANIFEST.json RESULT.json

Each op is an in-process call of topring.cli.main on files the benchmark
generated.  Ops are timed from outside with perf_counter; stdout is
captured so its bytes can be digested and checked after the loop.  The
warm-up ops run once, untimed, first.  The loop then runs whole passes
over the pool while one more pass, as long as the median pass so far, ends
within the requested seconds, and until at least min_passes passes are
done.  Untraced passes time pace's reference task in blocks while they run,
and each op's row also gets its time scaled to the reference speed.  With
trace set, one untraced pass is followed by one traced pass.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import pace


def run_op(cli, argv: list[str], pacer=None) -> tuple[float, float, float, int, str, str]:
    """(start, end, time taken by the op itself, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        spent = pacer.spent if pacer else 0.0
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that crashes is a failed op, not a failed run
            code = -1
            traceback.print_exc()
        t1 = time.perf_counter()
        dt = t1 - t0 - ((pacer.spent - spent) if pacer else 0.0)
    return t0, t1, dt, code, out.getvalue(), err.getvalue()


def run_pass(cli, ops, keep: dict, tracer=None, pacer=None) -> dict:
    """Rows [op time, exit code, report digest, start, end] of one pass."""
    t0 = time.perf_counter()
    rows = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        start, end, dt, code, out, err = run_op(cli, op["argv"], pacer)
        d = hashlib.sha256(out.encode("utf-8")).hexdigest()
        rows.append([dt, code, d, start, end])
        keep.setdefault(op["label"], {"digest": d, "code": code, "report": out, "stderr": err})
    return {"wall": time.perf_counter() - t0, "ops": rows}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        man = json.load(fh)
    sys.path.insert(0, man["src"])
    import topring
    import topring.cli as cli
    from topring.fields import GF

    for p, d in man["fields"]:
        GF(p, d)
    os.chdir(man["workdir"])
    ops = man["ops"]
    reports: dict = {}
    passes = []
    for i in man["warmup"]:
        run_op(cli, ops[i]["argv"])
    t0 = time.perf_counter()
    if man["trace"]:
        import spans

        passes.append(run_pass(cli, ops, reports))
        tracer = spans.Tracer()
        suites = spans.install(tracer, topring)
        traced = run_pass(cli, ops, {}, tracer)
        tracer.save(man["spans"], suites)
    else:
        pacer = pace.Pacer()
        pacer.start()
        try:
            while (len(passes) < man["min_passes"]
                   or time.perf_counter() - t0 + statistics.median(p["wall"] for p in passes)
                   <= man["seconds"]):
                passes.append(run_pass(cli, ops, reports, pacer=pacer))
        finally:
            pacer.stop()
        for p in passes:
            for row in p["ops"]:
                row.append(row[0] * pacer.scale(row[3], row[4]))
        traced = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "traced": traced, "reports": reports,
                   "peak_rss_mb": rss_mb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
