"""Tests of the benchmark itself: reproducible inputs, failure counting,
span arithmetic and the traced worker.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import check
import pace
import run
import spans
import workloads


def _files(root) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", ["ring-ladder", "tower-module", "matrix-window"])
def test_same_seed_gives_identical_files(workload, tmp_path):
    a = workloads.build(workload, 7, str(tmp_path / "a"))
    b = workloads.build(workload, 7, str(tmp_path / "b"))
    c = workloads.build(workload, 8, str(tmp_path / "c"))
    assert [(o.label, o.argv) for o in a] == [(o.label, o.argv) for o in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    # the pool's shape does not depend on the seed
    assert [o.size for o in a] == [o.size for o in c]


def _run_ops(ops, root):
    from topring import cli

    rows, reports = [], {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for op in ops:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(op.argv)
            text = buf.getvalue()
            d = hashlib.sha256(text.encode()).hexdigest()
            rows.append([0.01, code, d])
            reports[op.label] = {"digest": d, "code": code, "report": text, "stderr": ""}
    finally:
        os.chdir(cwd)
    return {"passes": [{"wall": 1.0, "ops": rows}], "traced": None, "reports": reports}


def test_planted_wrong_answer_is_counted_failed(tmp_path):
    ops = workloads.build("matrix-window", 3, str(tmp_path))
    ops = [op for op in ops
           if op.label == "matmul/f2x2/finite/w16" or op.label.startswith("contratensor/gf9")]
    res = _run_ops(ops, tmp_path)
    assert run.judge(ops, res, 3, "matrix-window")[:2] == (len(ops), 0)

    # flip one coordinate of one product entry in one report
    label = ops[0].label
    text = res["reports"][label]["report"]
    line = next(ln for ln in text.splitlines() if ln.startswith("entry "))
    *head, v = line.split()
    wrong = text.replace(line + "\n", " ".join(head + [str(1 - int(v))]) + "\n", 1)
    res["reports"][label]["report"] = wrong
    attempted, failed, problems = run.judge(ops, res, 3, "matrix-window")
    assert (attempted, failed) == (len(ops), 1)
    assert list(problems) == [label]

    # a wrong closed form for contratensor is caught too
    res = _run_ops(ops, tmp_path)
    ct = next(op for op in ops if op.argv[0] == "contratensor")
    ct.expect["fp_dim"] += 1
    assert run.judge(ops, res, 3, "matrix-window")[1] == 1


def test_nonzero_exit_and_drifting_bytes_fail():
    op = workloads.Op("x", ["verify"], 1, {"verb": "verify", "suites": 1})
    good = "report verify\ncorpus_in_sync 1\nsuite s pass 3\nend\n"
    d = hashlib.sha256(good.encode()).hexdigest()
    res = {"passes": [{"wall": 1, "ops": [[1, 0, d]]}, {"wall": 1, "ops": [[1, 0, "other"]]},
                      {"wall": 1, "ops": [[1, 4, d]]}],
           "traced": None,
           "reports": {"x": {"digest": d, "code": 0, "report": good, "stderr": ""}}}
    attempted, failed, _ = run.judge([op], res, 5, "verify")
    assert (attempted, failed) == (3, 3)   # bytes that drift fail every run of the op


def test_wrong_lift_and_decomposition_answers():
    lift = {"verb": "lift-idempotents", "algebra_dim": 3, "radical_dim": 1, "members": 2}
    ok = ("report lift-idempotents\nseed 0\nalgebra_dim 3\nradical_dim 1\nmembers 2\n"
          "check 0 1 1 1\ncheck 1 1 1 1\nsums_to_unit 1\nend\n")
    assert check.check(lift, 0, ok) == []
    assert check.check(lift, 0, ok.replace("radical_dim 1", "radical_dim 0"))
    assert check.check(lift, 0, ok.replace("check 1 1 1 1", "check 1 1 0 1"))
    dec = {"verb": "decompose-module", "module_dim": 5, "summand_dims": [1, 2, 2],
           "class_sizes": [1, 2]}
    ok = ("report decompose-module\nseed 0\nmodule_dim 5\nsummands 3\nsummand 0 2\n"
          "summand 1 2\nsummand 2 1\nclass 0 0 1\nclass 1 2\nend\n")
    assert check.check(dec, 0, ok) == []
    split = ok.replace("class 0 0 1\nclass 1 2\n", "class 0 0\nclass 1 1\nclass 2 2\n")
    assert check.check(dec, 0, split) == ["class sizes [1, 1, 1], expected [1, 2]"]


def _tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 8]; c has b's name too
    return {
        "names": np.array(["cli.main", "linalg.rref", "algebras.radical"]),
        "name": np.array([0, 1, 2, 2], dtype=np.int32),
        "parent": np.array([-1, 0, 0, 2]),
        "op": np.zeros(4, dtype=np.int32),
        "start": np.array([0.0, 1.0, 5.0, 6.0]),
        "end": np.array([10.0, 4.0, 9.0, 8.0]),
        "count": np.array([0, 12, 0, 0]),
        "suite_fn": np.array([], dtype=str),
        "suite_name": np.array([], dtype=str),
    }


def test_self_time_arithmetic_on_a_span_tree():
    t = _tree()
    assert spans.self_times(t["start"], t["end"], t["parent"]).tolist() == [3.0, 3.0, 2.0, 2.0]
    assert spans.outermost(t["name"], t["parent"], 2).tolist() == [2]
    m = spans.layer_metrics(t)
    assert m["cli.self_s"] == (3.0, "s")
    assert m["linalg.rref.self_s"] == (3.0, "s")
    assert m["linalg.rref.calls"] == (1.0, "count")
    assert m["linalg.rref.cells"] == (12.0, "count")
    assert m["linalg.self_s"] == (3.0, "s")
    assert m["algebras.self_s"] == (4.0, "s")
    assert m["algebras.radical.total_s"] == (4.0, "s")   # nested call counted once
    assert m["poly.self_s"] == (0.0, "s")


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (11, 26, 52, 60, 120, 1000):
        level = run.tail_level(n)
        values = list(range(n))
        assert sum(v > run.nearest_rank(values, level) for v in values) >= 10
    assert run.tail_level(1) == 100.0


def test_traced_worker_keeps_report_bytes(tmp_path):
    ops = workloads.build("tower-module", 2, str(tmp_path))
    ops = [op for op in ops if "adic" in op.label] + ops[:1]
    man = {"src": str(run.SRC), "workdir": str(tmp_path), "fields": [[2, 1]],
           "ops": [{"label": o.label, "argv": o.argv} for o in ops], "warmup": [0],
           "seconds": 0, "min_passes": 1, "trace": 1, "spans": str(tmp_path / "spans.npz")}
    (tmp_path / "m.json").write_text(json.dumps(man))
    subprocess.run([sys.executable, str(run.HERE / "worker.py"), str(tmp_path / "m.json"),
                    str(tmp_path / "r.json")], check=True, timeout=120)
    res = json.loads((tmp_path / "r.json").read_text())
    assert [r[2] for r in res["traced"]["ops"]] == [r[2] for r in res["passes"][0]["ops"]]
    assert run.judge(ops, res, 2, "tower-module")[1] == 0
    with np.load(tmp_path / "spans.npz") as data:
        names = [str(n) for n in data["names"]]
        ran = {names[i] for i in np.unique(data["name"])}
        m = spans.layer_metrics(data)
    # reached only through cli._HANDLERS and `from ... import` names
    assert {"cli.main", "cli.cmd_classify_perfect", "towers.classify_perfect",
            "algebras.radical", "modules.decompose_indecomposable"} <= ran
    assert m["towers.classify_perfect.total_s"][0] > 0
    assert m["modules.find_isomorphism.calls"][0] >= 1


def test_pacer_scale_uses_the_blocks_around_an_op():
    p = pace.Pacer()
    p.at = [0.0, 1.0, 2.0, 3.0]
    p.took = [0.001, 0.002, 0.004, 0.001]
    # no block inside: the last one before and the first one after
    assert p.scale(1.5, 1.8) == pytest.approx(pace.REFERENCE_S / 0.003)
    # blocks at 1.0 and 2.0 inside, and 0.0 and 3.0 on either side
    assert p.scale(0.5, 2.5) == pytest.approx(pace.REFERENCE_S / 0.002)


def test_untimed_blocks_are_taken_out_of_op_times(tmp_path):
    ops = workloads.build("matrix-window", 4, str(tmp_path))[:3]
    man = {"src": str(run.SRC), "workdir": str(tmp_path), "fields": [[2, 1]],
           "ops": [{"label": o.label, "argv": o.argv} for o in ops], "warmup": [],
           "seconds": 0, "min_passes": 2, "trace": 0, "spans": ""}
    (tmp_path / "m.json").write_text(json.dumps(man))
    subprocess.run([sys.executable, str(run.HERE / "worker.py"), str(tmp_path / "m.json"),
                    str(tmp_path / "r.json")], check=True, timeout=120)
    res = json.loads((tmp_path / "r.json").read_text())
    assert len(res["passes"]) == 2
    for p in res["passes"]:
        for dt, code, _, start, end, scaled in p["ops"]:
            assert code == 0 and 0 < dt <= end - start and scaled > 0
    assert run.judge(ops, res, 4, "matrix-window")[1] == 0
