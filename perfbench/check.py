"""Compare each op's report with the answer its construction fixes.

Checks run after the timed loop, on the report bytes the op produced.  A
check returns a list of problems; an empty list means the op is correct.
"""

import numpy as np


def parse_report(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("report ") or lines[-1] != "end":
        raise ValueError("not a framed report")
    return lines[0].split()[1], [ln.split() for ln in lines[1:-1]]


def _one(recs, key) -> list[str]:
    hits = [r[1:] for r in recs if r[0] == key]
    if len(hits) != 1:
        raise ValueError(f"expected one {key!r} line, found {len(hits)}")
    return hits[0]


def _ints(recs, key) -> list[int]:
    return [int(t) for t in _one(recs, key)]


def _all(recs, key) -> list[list[int]]:
    return [[int(t) for t in r[1:]] for r in recs if r[0] == key]


def _lift_idempotents(exp, recs) -> list[str]:
    out = []
    for key in ("algebra_dim", "radical_dim", "members"):
        got = _ints(recs, key)[0]
        if got != exp[key]:
            out.append(f"{key} {got}, expected {exp[key]}")
    checks = _all(recs, "check")
    if len(checks) != exp["members"] or any(flag != 1 for c in checks for flag in c[1:]):
        out.append(f"check lines {checks}")
    if _ints(recs, "sums_to_unit") != [1]:
        out.append("family does not sum to the unit")
    return out


def _decompose_module(exp, recs) -> list[str]:
    out = []
    if _ints(recs, "module_dim")[0] != exp["module_dim"]:
        out.append("module_dim differs")
    dims = sorted(s[1] for s in _all(recs, "summand"))
    if dims != exp["summand_dims"]:
        out.append(f"summand dims {dims}, expected {exp['summand_dims']}")
    sizes = sorted(len(c) - 1 for c in _all(recs, "class"))
    if sizes != exp["class_sizes"]:
        out.append(f"class sizes {sizes}, expected {exp['class_sizes']}")
    return out


def _factors(recs, key) -> list[tuple[int, int]]:
    return sorted((f[0], f[1]) for f in _all(recs, key))


def _classify_perfect(exp, recs) -> list[str]:
    out = []
    if _one(recs, "verdict") != [exp["verdict"]]:
        out.append(f"verdict {_one(recs, 'verdict')}")
    if _ints(recs, "radical_dims") != exp["radical_dims"]:
        out.append(f"radical dims {_ints(recs, 'radical_dims')}, expected {exp['radical_dims']}")
    if _factors(recs, "quotient_factor") != [tuple(f) for f in exp["quotient_factors"]]:
        out.append(f"quotient factors {_factors(recs, 'quotient_factor')}")
    return out


def _classify_tower(exp, recs) -> list[str]:
    out = []
    if _one(recs, "kind") != [exp["kind"]]:
        return [f"kind {_one(recs, 'kind')}, expected {exp['kind']}"]
    if exp["kind"] == "SEMISIMPLE":
        if _factors(recs, "factor") != [tuple(f) for f in exp["factors"]]:
            out.append(f"factors {_factors(recs, 'factor')}, expected {exp['factors']}")
    elif _ints(recs, "witness_level") != [exp["witness_level"]]:
        out.append(f"witness level {_ints(recs, 'witness_level')}")
    return out


def _matmul(exp, recs) -> list[str]:
    out = []
    W = exp["window"]
    if _one(recs, "y_kind") != [exp["y_kind"]] or _ints(recs, "window") != [W]:
        return ["index kind or window differs"]
    ent = np.zeros_like(np.asarray(exp["entries"]))
    for x, z, t, v in _all(recs, "entry"):
        ent[x, z, t] = v
    if not np.array_equal(ent, exp["entries"]):
        out.append(f"{int((ent != exp['entries']).sum())} product coordinates differ")
    if _all(recs, "extra") or _all(recs, "precision"):
        out.append("unexpected extra or precision lines")
    dim = ent.shape[2]
    for x in range(W):
        rows = [r[1:] for r in _all(recs, "tail") if r[0] == x]
        want = np.asarray(exp["tails"][x]).reshape(-1, dim)
        got = np.zeros((want.shape[0], dim), dtype=np.int64)
        try:
            for i, t, v in rows:
                got[i, t] = v
        except IndexError:
            got = None
        if got is None or not np.array_equal(got, want):
            out.append(f"row {x}: tail ideal differs")
    return out


def _contratensor(exp, recs) -> list[str]:
    out = []
    for key in ("p", "x_count", "tensor_dim", "relation_rank", "fp_dim"):
        got = _ints(recs, key)[0]
        if got != exp[key]:
            out.append(f"{key} {got}, expected {exp[key]}")
    if _ints(recs, "cardinality") != [exp["p"] ** exp["fp_dim"]]:
        out.append("cardinality differs from p^fp_dim")
    return out


def _verify(exp, recs) -> list[str]:
    suites = [r for r in recs if r[0] == "suite"]
    if len(suites) != exp["suites"] or any(r[2] != "pass" for r in suites):
        return [f"suite lines {suites}"]
    return [] if _ints(recs, "corpus_in_sync") == [1] else ["bundled corpus out of sync"]


CHECKS = {
    "lift-idempotents": _lift_idempotents,
    "decompose-module": _decompose_module,
    "classify-perfect": _classify_perfect,
    "classify-tower": _classify_tower,
    "matmul": _matmul,
    "contratensor": _contratensor,
    "verify": _verify,
}


def check(expect: dict, exit_code: int, text: str) -> list[str]:
    """Problems with one op's outcome; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        verb, recs = parse_report(text)
        if verb != expect["verb"]:
            return [f"report for {verb}, expected {expect['verb']}"]
        return CHECKS[verb](expect, recs)
    except (ValueError, IndexError) as exc:
        return [f"malformed report: {exc}"]
