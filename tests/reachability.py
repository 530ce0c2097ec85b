"""Which functions of topring do the command line verbs reach?

Runs `topring verify --seed 0` and every verb of the README on every
bundled file it applies to, in this process, under sys.setprofile, and
records each code object entered.  A module-level function or a method,
public or private (dunder methods aside), that no run enters must either
be wired into a verb, be deleted, or be on ALLOWED below with the reason
it stays.  ALLOWED cannot go stale: a listed name that a run enters, or
that no longer exists, fails the sweep too.

    python tests/reachability.py

Exits 0 when every function is reached or allowed, 1 otherwise.
The file name does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import os
import pkgutil
import sys
from collections import Counter
from pathlib import Path
from types import CodeType

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import topring  # noqa: E402
from topring import cli, corpus  # noqa: E402

# library entry points that no verb enters, keyed "module.qualname"
ALLOWED = {
    "algebras.StructureAlgebra.inverse": "lifting.orthogonalize's route when the sum of the "
                                         "family is a unit outside 1 + H; no bundled input "
                                         "has such a family",
    "modules.find_isomorphism": "class witness; no bundled module has a summand class "
                                "with two members",
}


def _modules():
    yield topring
    for info in pkgutil.walk_packages(topring.__path__, "topring."):
        yield importlib.import_module(info.name)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def functions() -> dict[str, CodeType]:
    """'module.qualname' -> code object of every module-level function and
    method defined in topring, private ones included, dunders left out."""
    out = {}
    for mod in _modules():
        short = mod.__name__.removeprefix("topring.")
        for name, obj in vars(mod).items():
            if _dunder(name) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if _dunder(attr):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        out[f"{short}.{name}.{attr}"] = member.__code__
            elif callable(obj):
                fn = inspect.unwrap(obj)
                if inspect.isfunction(fn):
                    out[f"{short}.{name}"] = fn.__code__
    return out


def runs() -> list[list[str]]:
    """verify, then each verb on every bundled file of the kinds it reads."""
    verbs = {
        ".alg": ["radical", "wedderburn", "lift-idempotents", "bass-flat"],
        ".twr": ["classify-tower", "classify-perfect", "lift-idempotents"],
        ".mod": ["decompose-module", "transport", "contratensor", "coperfect", "bridge"],
        ".sys": ["split-limit", "coperfect", "bridge"],
    }
    files = sorted(corpus.render_all())
    out = [["verify", "--seed", "0"]]
    for name in files:
        for verb in verbs.get(Path(name).suffix, []):
            out.append([verb, corpus.path(name)])
    mats = [corpus.path(n) for n in files if n.endswith(".mat")]
    out += [["matmul", a, b] for a, b in itertools.product(mats, repeat=2)]
    systems = [corpus.path(n) for n in files if n.endswith(".sys")]
    for a, b in itertools.permutations(systems, 2):
        out += [["coperfect", a, b], ["bridge", a, b]]
    return out


def sweep() -> tuple[set[CodeType], Counter]:
    """Code objects entered over all runs, and the count of each exit code."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = Counter()
    with open(os.devnull, "w") as sink:
        for argv in runs():
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                sys.setprofile(profile)
                try:
                    codes[cli.main(argv)] += 1
                finally:
                    sys.setprofile(None)
    return entered, codes


def main() -> int:
    funcs = functions()
    entered, codes = sweep()
    unreached = sorted(n for n, code in funcs.items() if code not in entered)
    bad = [f"unreached: {n}" for n in unreached if n not in ALLOWED]
    bad += [f"allowed but reached: {n}" for n in sorted(ALLOWED)
            if n in funcs and n not in unreached]
    bad += [f"allowed but missing: {n}" for n in sorted(ALLOWED) if n not in funcs]
    runs_by_code = " ".join(f"exit{rc}={k}" for rc, k in sorted(codes.items()))
    print(f"{len(funcs)} functions, {len(funcs) - len(unreached)} reached, "
          f"{len(unreached)} unreached; runs: {runs_by_code}")
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
