"""Pinned report bytes of the verbs that print idempotents.

lift-idempotents prints the lifted primitive family of A/rad A and
decompose-module the projectors onto the summands; both come from the
Wedderburn blocks that wedderburn.primitive_orthogonal_family cuts with
proper idempotents, drawn with a seeded rng.  The hidden products of
tests/oracles.py (radicals, repeated and extension blocks, fields up to
GF(256)) and every bundled algebra, tower and module are written to a
temporary directory and run at seeds 0-3 through cli.main; the sha256 of
every (verb, file, seed, exit code) line and report must equal the
digest committed in tests/idempotent_pin.sha256, so a change that moves
any of these bytes fails here and not only at the benchmark's seed 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

from oracles import hidden_block_algebras, hidden_matrix_block_products
from topring import cli, corpus, serialize

PIN = Path(__file__).resolve().with_name("idempotent_pin.sha256")
SEEDS = range(4)


def pinned_runs(directory: Path) -> list[tuple[str, str]]:
    """Write every input into directory; (verb, file name) for each run."""
    files = corpus.render_all()
    hidden = hidden_block_algebras() + hidden_matrix_block_products()
    files.update({f"hidden{i}.alg": serialize.write_algebra(A) for i, A in enumerate(hidden)})
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    names = sorted(files)
    return ([("lift-idempotents", n) for n in names if n.endswith((".alg", ".twr"))]
            + [("decompose-module", n) for n in names if n.endswith(".mod")])


def report_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for verb, name in pinned_runs(directory):
        for seed in SEEDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main([verb, str(directory / name), "--seed", str(seed)])
            h.update(f"{verb} {name} {seed} {rc}\n".encode())
            h.update(out.getvalue().encode())
    return h.hexdigest()


def test_idempotent_report_bytes_are_pinned(tmp_path):
    assert report_digest(tmp_path) == PIN.read_text(encoding="utf-8").split()[0]
