"""Hostile inputs at verb level: does any mutant leak exit 4 or a traceback?

Copies the bundled corpus into a temporary directory.  For every integer
token of every bundled file, and for each value in 0-3, -1 and 2^63
other than the token's own, it writes that one-token mutant next to the unmutated copies
(so the files it references resolve to them) and runs one verb of the
file's kind on it through `cli.main`, cycling through that kind's verbs.
A mutant may parse (exit 2 otherwise), fail validation (exit 3) or pass
(exit 0); an exit 4 or an exception that escapes `cli.main` is a bug.

Each run is one record: the file, the mutated token's line and position,
the new value, the verb, the exit code and the first line of stderr, with
the temporary directory cut out of it.  The sha256 of the sorted records
pins every outcome: it must equal the digest committed in
tests/verb_sweep.sha256, so a change that moves any mutant's exit code or
first error message fails the sweep too.  A deliberate change re-records
the digest with --record.

    python tests/verb_sweep.py            # check against the committed digest
    python tests/verb_sweep.py --record   # rewrite tests/verb_sweep.sha256

Prints the count of each exit code, the digest and every failing run;
exits 0 when there is none and the digest matches, 1 otherwise.  The file
name does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

DIGEST = Path(__file__).resolve().with_name("verb_sweep.sha256")

from topring import cli, corpus  # noqa: E402

# 0-3 are small field values and indices; -1 and 2^63 are out of range both
# ways, the second past int64
VALUES = (0, 1, 2, 3, -1, 2 ** 63)

VERBS = {
    ".alg": ["radical", "wedderburn", "lift-idempotents", "bass-flat"],
    ".twr": ["classify-tower", "classify-perfect", "lift-idempotents"],
    ".mod": ["decompose-module", "transport", "contratensor", "coperfect", "bridge"],
    ".sys": ["split-limit", "coperfect", "bridge"],
    ".mat": ["matmul"],
}


def mutants(text: str):
    """(line, token, value, text): each text with one integer token
    replaced by a different value in VALUES."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        toks = line.split()
        for j, tok in enumerate(toks):
            if not tok.lstrip("-").isdigit():
                continue
            for value in VALUES:
                if str(value) != tok:
                    lines[i] = " ".join(toks[:j] + [str(value)] + toks[j + 1:])
                    yield i, j, value, "\n".join(lines) + "\n"
            lines[i] = line


def main(argv: list[str]) -> int:
    files = corpus.render_all()
    codes = Counter()
    bad = []
    records = []
    cycles = {kind: itertools.cycle(verbs) for kind, verbs in VERBS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        roots = sorted({str(root), str(root.resolve())}, key=len, reverse=True)
        for name, text in files.items():
            (root / name).write_text(text)
        for name, text in sorted(files.items()):
            suffix = Path(name).suffix
            target = root / f"mutant{suffix}"
            for line, token, value, mutant in mutants(text):
                target.write_text(mutant)
                verb = next(cycles[suffix])
                # matmul reads two matrices: the mutant times itself
                cmd = [verb] + [str(target)] * (2 if verb == "matmul" else 1)
                err = io.StringIO()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        rc = cli.main(cmd)
                except Exception:
                    rc = "traceback"
                    err.write(traceback.format_exc())
                codes[rc] += 1
                first = next(iter(err.getvalue().splitlines()), "")
                for r in roots:
                    first = first.replace(r, "")
                records.append("\t".join(map(str, (name, line, token, value, verb, rc, first))))
                if rc not in (0, 2, 3):
                    bad.append(f"{name} line {line} token {token} = {value}, {verb}: exit {rc}\n"
                               f"{err.getvalue()}")
    digest = hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()
    print(f"{sum(codes.values())} runs: "
          + " ".join(f"exit{rc}={n}" for rc, n in sorted(codes.items(), key=str)))
    print(f"outcome digest {digest}")
    for entry in bad:
        print(entry)
    if "--record" in argv:
        DIGEST.write_text(digest + "\n")
    elif DIGEST.read_text().strip() != digest:
        print(f"digest differs from {DIGEST.name}: {DIGEST.read_text().strip()}")
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
