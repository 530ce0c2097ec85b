"""The ten gate criteria, one test each, at their stated runtime budgets.

Run with -s to see the per-criterion summary lines; each test also
stands alone as the pass/fail line for its criterion.
"""

from __future__ import annotations

import hashlib
import time

from topring import acceptance

REPORTS: dict[str, str] = {}

# sha256 of each suite's seed-0 report, so a change to any report byte
# fails here
TRANSCRIPTS = {
    "radical-correctness": "7c84821030fc59951a852debe2a908c580f4b705cb18243025db3aea266681df",
    "wedderburn-round-trip": "57e95ddaee1d1f9568c79e9fc4532f5afb7cbedff190fe53603e22f5afe3694b",
    "idempotent-lifting": "f21fdcbb1ba3de65994e3cc31073d9e85d7e4bdfd4981d742720b4dd782e799e",
    "matrix-topology": "f5b9b39748e70c4d1ea25d161c399efd7ad5f2501eb0bf16ea9a5d069072596b",
    "contratensor": "7012d0fbaf6380dd8da707ccff9b5afc387ca73f8a091222c99a2eda1289fb54",
    "tp-formula": "dca735183e0df183be7483e3f057ace097942971a82f6e6e20f9a38c34e79ecc",
    "perfectness-coherence": "e0e31ed4eff8cb2378c6d1296011b6d1fe297e87563b1dcb9219286ad962f1d1",
    "negative-showcase": "3220d973b311ce44c7dbc9bab3157bf379ffc525f7a0e4b4d4f0c8b5a02cb6c0",
    "semisimple-recognition": "5e1f30da391c12995c2359da1a08e8c570a6727a396e6ed36463166667cd72b8",
}


def _run(number, name, fn, budget_s, expect_checks=None):
    t0 = time.perf_counter()
    result = fn(0)
    elapsed = time.perf_counter() - t0
    assert result.name == name
    assert result.checks > 0
    if expect_checks is not None:
        assert result.checks == expect_checks
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s over the {budget_s}s budget"
    assert hashlib.sha256(result.report.encode()).hexdigest() == TRANSCRIPTS[name]
    REPORTS[name] = result.report
    print(f"PASS criterion-{number} {name}: {result.checks} checks "
          f"in {elapsed:.2f}s (budget {budget_s}s)")
    return result


def test_criterion_01_radical_against_bruteforce():
    r = _run(1, "radical-correctness", acceptance.suite_radical, 30, 60)
    assert "named F2[C3] 3 0" in r.report
    assert "named T2(F2) 3 1" in r.report
    assert "named Mat2(F4) 4 0" in r.report
    assert sum(1 for ln in r.report.splitlines() if ln.startswith("random ")) == 50


def test_criterion_02_wedderburn_round_trip():
    r = _run(2, "wedderburn-round-trip", acceptance.suite_wedderburn, 30, 20)
    assert sum(1 for ln in r.report.splitlines() if ln.startswith("instance ")) == 20


def test_criterion_03_idempotent_lifting():
    r = _run(3, "idempotent-lifting", acceptance.suite_lifting, 30, 75)
    assert "single_lifts 50" in r.report
    assert "family_lifts 20" in r.report
    assert "u_equals_one 5" in r.report


def test_criterion_04_matrix_topology():
    r = _run(4, "matrix-topology", acceptance.suite_matrix_topology, 60, 450)
    assert "associativity_triples 300" in r.report
    assert "delta_rule 16" in r.report
    assert "right_ideal_products 100" in r.report
    assert sum(1 for ln in r.report.splitlines() if ln.startswith("hom_pair ")) == 10
    assert "corner_checks 9" in r.report


def test_criterion_05_contratensor():
    r = _run(5, "contratensor", acceptance.suite_contratensor, 10, 10)
    assert sum(1 for ln in r.report.splitlines() if ln.startswith("instance ")) == 10


def test_criterion_06_tp_formula_on_bundled_towers():
    r = _run(6, "tp-formula", acceptance.suite_tp_formula, 30)
    for name in acceptance.BUNDLED_TOWERS:
        assert f"tower {name} " in r.report


def test_criterion_07_perfectness_coherence():
    r = _run(7, "perfectness-coherence", acceptance.suite_perfectness, 60, 1010)
    body = r.report.splitlines()
    assert sum(1 for ln in body if " PERFECT 100" in ln) == 10


def test_criterion_08_negative_showcase():
    r = _run(8, "negative-showcase", acceptance.suite_showcase, 60, 4)
    assert "decomposition NOT_PERFECT 5" in r.report
    assert "split NOT_SPLIT 0 1 2 3 4 5" in r.report
    assert "sigma witness" in r.report
    assert "bridge NOT_PERFECT witness" in r.report


def test_criterion_09_semisimple_recognition():
    r = _run(9, "semisimple-recognition", acceptance.suite_semisimple, 10, 2)
    assert "blocks2 SEMISIMPLE 2 1 2 2 4 1" in r.report
    assert "adic4 NOT 1" in r.report


def test_criterion_10_determinism():
    # reuse the reports stored by the earlier criteria when available so
    # this is a true independent rerun; standalone invocation runs twice
    result = acceptance.suite_determinism(0, first_runs=REPORTS or None)
    assert result.checks == len(acceptance.BASE_SUITES)
    for name, _ in acceptance.BASE_SUITES:
        assert f"identical {name} 1" in result.report
    print(f"PASS criterion-10 determinism: {result.checks} suites byte-identical")
