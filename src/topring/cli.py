"""Command line driver: parse description files, run pipelines, report.

Reports are whitespace-split records between a `report <verb>` header and
a closing `end`, with a fixed field order per verb and the seed always
recorded, so the same inputs and flags reproduce the same bytes.  Exit
codes separate the failure kinds: 2 for files or arguments that do not
parse and for an --out path that cannot be written, 3 for inputs that
parse but fail validation or run out of memory, 4 for a disagreement
between two routes that must agree (a bug, never silent), which is an
InternalInconsistencyError and nothing else.
"""

import argparse
import functools
import sys

import numpy as np

from . import acceptance, corpus, linalg, serialize
from .algebras import InternalInconsistencyError, quotient, radical
from .endo import (
    OmegaSystem,
    bass_flat,
    perfectness_bridge,
    sample_sequence,
    sigma_coperfect_check,
    split_omega_limit_check,
    system_family,
)
from .lifting import lift_family_from_quotient
from .matrixtop import contratensor, mat_mul, transport_discrete
from .modules import FiniteModule, decompose_indecomposable, hom_space
from .towers import RingTower, classify_perfect, classify_semisimple, topological_jacobson_radical
from .wedderburn import wedderburn


def _rep(verb: str, args) -> serialize.Report:
    rep = serialize.Report(verb)
    rep.add("seed", args.seed)
    return rep


def cmd_radical(args, loader: serialize.Loader) -> serialize.Report:
    A = loader.algebra(args.inputs[0])
    H = radical(A)
    rep = _rep("radical", args)
    rep.add("algebra_dim", A.dim)
    rep.add("radical_dim", H.dim)
    rep.add("nilpotency_index", H.nilpotency_index())
    rep.sparse("basis", (), H.basis)
    return rep


def cmd_wedderburn(args, loader: serialize.Loader) -> serialize.Report:
    A = loader.algebra(args.inputs[0])
    W = wedderburn(A, seed=args.seed)
    rep = _rep("wedderburn", args)
    rep.add("algebra_dim", A.dim)
    rep.add("factors", len(W.factors))
    for card, n in W.summary():
        rep.add("factor", card, n)
    return rep


def cmd_decompose_module(args, loader: serialize.Loader) -> serialize.Report:
    M = loader.module(args.inputs[0])
    cert = decompose_indecomposable(M, seed=args.seed)
    rep = _rep("decompose-module", args)
    rep.add("module_dim", M.dim)
    rep.add("summands", len(cert.summands))
    for z, S in enumerate(cert.summands):
        rep.add("summand", z, S.dim)
    for z, members in enumerate(cert.classes):
        rep.add("class", z, *members)
    for z, e in enumerate(cert.idempotents):
        rep.sparse("projector", (z,), e)
    return rep


def cmd_classify_tower(args, loader: serialize.Loader) -> serialize.Report:
    T = loader.tower(args.inputs[0])
    res = classify_semisimple(T)
    rep = _rep("classify-tower", args)
    rep.add("depth", res.depth)
    rep.add("kind", res.kind)
    if res.kind == "SEMISIMPLE":
        for card, n in res.factors:
            rep.add("factor", card, n)
    else:
        rep.add("witness_level", res.witness_level)
    return rep


def cmd_classify_perfect(args, loader: serialize.Loader) -> serialize.Report:
    T = loader.tower(args.inputs[0])
    res = classify_perfect(T, seed=args.seed)
    rep = _rep("classify-perfect", args)
    rep.add("depth", res.depth)
    rep.add("verdict", res.verdict)
    rep.add("radical_dims", *[I.dim for I in res.radical_tower.ideals])
    for n, I in enumerate(res.radical_tower.ideals):
        rep.sparse("radical_basis", (n,), I.basis)
    rep.add("t_nilpotency", res.t_nilpotency.kind, *res.t_nilpotency.indices)
    strong = res.strong_closedness
    rep.add("strong_closedness", strong.families_lifted, strong.repairs,
            int(strong.identity_lift))
    rep.add("quotient_kind", res.semisimple_quotient.kind)
    for card, n in res.semisimple_quotient.factors:
        rep.add("quotient_factor", card, n)
    for line in res.caveats:
        rep.add("caveat", line)
    return rep


def cmd_lift_idempotents(args, loader: serialize.Loader) -> serialize.Report:
    obj = loader.load(args.inputs[0])
    if isinstance(obj, RingTower):
        A = obj.levels[-1]
        H = topological_jacobson_radical(obj).ideals[-1]
    else:
        A = loader.algebra(args.inputs[0])
        H = radical(A)
    Q, proj, section = quotient(A, H)
    prim = wedderburn(Q, seed=args.seed).primitive_family()
    fam = lift_family_from_quotient(A, H, proj, section, prim, side="left")
    rep = _rep("lift-idempotents", args)
    rep.add("algebra_dim", A.dim)
    rep.add("radical_dim", H.dim)
    rep.add("members", fam.rows.shape[0])
    rep.add("side", fam.side)
    for z in range(fam.rows.shape[0]):
        rep.add("member", z, *fam.rows[z])
    rep.add("u", *fam.u)
    rep.add("u_inv", *fam.u_inv)
    # re-derive the certificate rather than echoing the constructor
    prods = A.mul_pairs(fam.rows, fam.rows)
    for z, e in enumerate(fam.rows):
        ortho = not np.delete(prods[z], z, axis=0).any()
        projects = np.array_equal(linalg.matvec(A.field, e, proj), prim[z])
        rep.add("check", z, int(np.array_equal(prods[z, z], e)), int(ortho), int(projects))
    rep.add("sums_to_unit", int(np.array_equal(A.field.fsum(fam.rows, axis=0), A.unit)))
    return rep


def cmd_matmul(args, loader: serialize.Loader) -> serialize.Report:
    a = loader.matrix(args.inputs[0])
    b = loader.matrix(args.inputs[1])
    c = mat_mul(a, b)
    rep = _rep("matmul", args)
    rep.add("y_kind", c.y_kind)
    rep.add("window", c.window)
    rep.sparse("entry", (), c.entries)
    for x in range(c.window):
        for col, vec in c.extras[x]:
            rep.add("extra", x, col, *vec)
    for x in range(c.window):
        rep.sparse("tail", (x,), c.tails[x])
        rep.sparse("precision", (x,), c.precisions[x])
    return rep


def cmd_transport(args, loader: serialize.Loader) -> serialize.Report:
    N = loader.module(args.inputs[0])
    tr = transport_discrete(N, args.window)
    end_before = hom_space(N, N).shape[0]
    end_after = hom_space(tr.module, tr.module).shape[0]
    if end_before != end_after:
        raise InternalInconsistencyError(
            f"row transport changed the endomorphism count: "
            f"{end_before} before, {end_after} after")
    rep = _rep("transport", args)
    rep.add("size", tr.k)
    rep.add("source_dim", N.dim)
    rep.add("ring_dim", tr.ring.dim)
    rep.add("module_dim", tr.module.dim)
    rep.add("end_dim_source", end_before)
    rep.add("end_dim_transported", end_after)
    rep.add("fully_faithful", 1)
    return rep


def cmd_contratensor(args, loader: serialize.Loader) -> serialize.Report:
    N = loader.module(args.inputs[0])
    res = contratensor(N, args.window)
    rep = _rep("contratensor", args)
    rep.add("p", res.p)
    rep.add("x_count", res.x_count)
    rep.add("tensor_dim", res.tensor_dim)
    rep.add("relation_rank", res.relation_rank)
    rep.add("fp_dim", res.fp_dim)
    rep.add("cardinality", res.cardinality)
    return rep


# Longest bass-flat sequence.  The report lists every term and bass_flat
# takes one product per term, so time and memory grow with --depth; without
# a cap, --depth 10^9 fills memory with sampled terms before any check fails.
MAX_BASS_FLAT_DEPTH = 4096


def cmd_bass_flat(args, loader: serialize.Loader) -> serialize.Report:
    if args.depth > MAX_BASS_FLAT_DEPTH:
        raise ValueError(f"bass-flat --depth {args.depth} exceeds the cap of "
                         f"{MAX_BASS_FLAT_DEPTH} terms")
    R = loader.algebra(args.inputs[0])
    seq = sample_sequence(R, args.depth, args.seed)
    d = bass_flat(R, seq)
    rep = _rep("bass-flat", args)
    rep.add("ring_dim", R.dim)
    rep.add("length", seq.shape[0])
    for i in range(seq.shape[0]):
        rep.add("term", i, *seq[i])
    rep.add("image_ranks", *d.image_ranks)
    rep.add("stabilization_index", d.stabilization_index)
    rep.add("kernel_dim", d.kernel_basis.shape[0])
    rep.add("colimit_dim", d.colimit.dim)
    rep.add("verdict", d.verdict)
    rep.sparse("projection", (), d.projection)
    rep.sparse("section", (), d.section)
    return rep


def cmd_split_limit(args, loader: serialize.Loader) -> serialize.Report:
    S = loader.system(args.inputs[0])
    v = split_omega_limit_check(S)
    rep = _rep("split-limit", args)
    rep.add("levels", v.depth)
    rep.add("kind", v.kind)
    if v.slot is not None:
        rep.add("slot", v.slot)
        rep.sparse("section", (), v.section)
    if v.obstruction is not None:
        rep.add("socle_heights", *v.obstruction.socle_heights)
        rep.add("sum_height_bound", v.obstruction.sum_height_bound)
    return rep


def _chain_target(loader: serialize.Loader, path: str):
    obj = loader.load(path)
    if isinstance(obj, FiniteModule):
        return obj
    if isinstance(obj, OmegaSystem):
        return system_family(obj)
    raise serialize.ParseError(f"{path}: expected a module or system file")


def cmd_coperfect(args, loader: serialize.Loader) -> serialize.Report:
    target = _chain_target(loader, args.inputs[0])
    refinement = _chain_target(loader, args.inputs[1]) if len(args.inputs) > 1 else None
    res = sigma_coperfect_check(target, depth=args.depth, seed=args.seed,
                                refinement=refinement)
    rep = _rep("coperfect", args)
    rep.add("depth", res.depth)
    rep.add("kind", res.kind)
    rep.add("evidence", res.evidence)
    rep.add("copies", res.copies)
    rep.add("max_length", res.max_length)
    if res.bound is not None:
        rep.add("bound", res.bound)
    if res.bases is not None:
        rep.add("chain_dims", *[b.shape[0] for b in res.bases])
    if res.generators is not None:
        rep.sparse("generator", (), res.generators)
    if refinement is not None and res.kind == "certificate":
        rep.add("note", res.detail)
    rep.add("refinement_verified", int(res.refinement_verified))
    return rep


def cmd_bridge(args, loader: serialize.Loader) -> serialize.Report:
    target = _chain_target(loader, args.inputs[0])
    refinement = _chain_target(loader, args.inputs[1]) if len(args.inputs) > 1 else None
    res = perfectness_bridge(target, depth=args.depth, seed=args.seed,
                             refinement=refinement)
    rep = _rep("bridge", args)
    rep.add("depth", res.depth)
    rep.add("perfect_verdict", res.perfect.verdict)
    rep.add("sigma_kind", res.sigma.kind)
    rep.add("consistent", int(res.consistent))
    if res.module_semisimple is not None:
        rep.add("module_semisimple", int(res.module_semisimple))
    for line in res.notes or []:
        rep.add("note", line)
    return rep


def cmd_verify(args, loader: serialize.Loader) -> serialize.Report:
    rendered = corpus.render_all()
    drift = [name for name in sorted(rendered) if corpus.read(name) != rendered[name]]
    if drift:
        raise InternalInconsistencyError(
            "bundled files disagree with their constructors: " + " ".join(drift))
    rep = _rep("verify", args)
    rep.add("corpus_files", len(rendered))
    rep.add("corpus_in_sync", 1)
    total = 0
    for result in acceptance.run_all(args.seed):
        if result.checks <= 0:
            raise InternalInconsistencyError(f"suite {result.name} ran no checks")
        rep.add("suite", result.name, "pass", result.checks)
        total += result.checks
    rep.add("total_checks", total)
    return rep


_HANDLERS = {
    "radical": (cmd_radical, 1, "algebra file: radical basis and nilpotency index"),
    "wedderburn": (cmd_wedderburn, 1, "semisimple algebra file: simple factor multiset"),
    "decompose-module": (cmd_decompose_module, 1,
                         "module file: indecomposable summands and projectors"),
    "classify-tower": (cmd_classify_tower, 1,
                       "tower file: levelwise semisimplicity verdict"),
    "classify-perfect": (cmd_classify_perfect, 1,
                         "tower file: perfectness verdict with radical and quotient data"),
    "lift-idempotents": (cmd_lift_idempotents, 1,
                         "algebra or tower file: lifted orthogonal idempotent family"),
    "matmul": (cmd_matmul, 2, "two windowed matrix files: certified product"),
    "transport": (cmd_transport, 1,
                  "module file: rows over the matrix ring of size --window"),
    "contratensor": (cmd_contratensor, 1,
                     "module file: contraction against the free family ring on --window points"),
    "bass-flat": (cmd_bass_flat, 1,
                  "algebra file: colimit of a seeded multiplication sequence"),
    "split-limit": (cmd_split_limit, 1,
                    "system file: does the limit split off a level"),
    "coperfect": (cmd_coperfect, (1, 2),
                  "module or system file, optional refinement: descending chain verdict"),
    "bridge": (cmd_bridge, (1, 2),
               "module or system file, optional refinement: cross-checked verdicts"),
    "verify": (cmd_verify, 0, "run every verification suite on the bundled corpus"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: building the 16 subparsers costs about a
    # hundred times more than one parse
    parser = argparse.ArgumentParser(
        prog="topring",
        description="Exact structure reports for finite algebras, towers, "
                    "and windowed matrix rings.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, arity, help_text) in _HANDLERS.items():
        sp = sub.add_parser(name, help=help_text)
        if arity == 1:
            sp.add_argument("inputs", nargs=1, metavar="FILE")
        elif arity == 2:
            sp.add_argument("inputs", nargs=2, metavar="FILE")
        elif arity == (1, 2):
            sp.add_argument("inputs", nargs="+", metavar="FILE")
        sp.add_argument("--depth", type=int, default=6)
        sp.add_argument("--window", type=int, default=2)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.depth < 1:
            raise ValueError("depth must be at least 1")
        if args.window < 1:
            raise ValueError("window must be at least 1")
        inputs = getattr(args, "inputs", [])
        if len(inputs) > 2:
            raise ValueError("at most two input files")
        handler = _HANDLERS[args.subcommand][0]
        text = handler(args, serialize.Loader()).text()
        if args.out:
            # written first, so a path that cannot be written prints no report
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as e:
                print(f"error: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
                return 2
    except serialize.ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as e:
        print(f"inconsistency: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
