"""Hostile inputs at verb level: does any mutant leak exit 4 or a traceback?

Copies the bundled corpus into a temporary directory.  For every integer
token of every bundled file, and for each value 0-3 other than the
token's own, it writes that one-token mutant next to the unmutated copies
(so the files it references resolve to them) and runs one verb of the
file's kind on it through `cli.main`, cycling through that kind's verbs.
A mutant may parse (exit 2 otherwise), fail validation (exit 3) or pass
(exit 0); an exit 4 or an exception that escapes `cli.main` is a bug.

    python tests/verb_sweep.py

Prints the count of each exit code and every failing run; exits 0 when
there is none, 1 otherwise.  The file name does not match test_*.py, so
pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from topring import cli, corpus  # noqa: E402

VERBS = {
    ".alg": ["radical", "wedderburn", "lift-idempotents", "bass-flat"],
    ".twr": ["classify-tower", "classify-perfect", "lift-idempotents"],
    ".mod": ["decompose-module", "transport", "contratensor", "coperfect", "bridge"],
    ".sys": ["split-limit", "coperfect", "bridge"],
    ".mat": ["matmul"],
}


def mutants(text: str):
    """Each text with one integer token replaced by a different value in 0-3."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        toks = line.split()
        for j, tok in enumerate(toks):
            if not tok.lstrip("-").isdigit():
                continue
            for value in range(4):
                if str(value) != tok:
                    lines[i] = " ".join(toks[:j] + [str(value)] + toks[j + 1:])
                    yield "\n".join(lines) + "\n"
            lines[i] = line


def main() -> int:
    files = corpus.render_all()
    codes = Counter()
    bad = []
    cycles = {kind: itertools.cycle(verbs) for kind, verbs in VERBS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).write_text(text)
        for name, text in sorted(files.items()):
            suffix = Path(name).suffix
            target = root / f"mutant{suffix}"
            for k, mutant in enumerate(mutants(text)):
                target.write_text(mutant)
                verb = next(cycles[suffix])
                # matmul reads two matrices: the mutant times itself
                argv = [verb] + [str(target)] * (2 if verb == "matmul" else 1)
                err = io.StringIO()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        rc = cli.main(argv)
                except Exception:
                    rc = "traceback"
                    err.write(traceback.format_exc())
                codes[rc] += 1
                if rc not in (0, 2, 3):
                    bad.append(f"{name} mutant {k}, {verb}: exit {rc}\n{err.getvalue()}")
    print(f"{sum(codes.values())} runs: "
          + " ".join(f"exit{rc}={n}" for rc, n in sorted(codes.items(), key=str)))
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
