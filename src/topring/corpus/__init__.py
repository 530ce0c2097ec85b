"""Bundled description files and the constructions they came from.

The text files shipped next to this module are the canonical inputs for
the command line examples and the verification suites.  render_all()
rebuilds every file from the library constructors; the test suite and
the `verify` subcommand compare those bytes against the shipped files,
so the corpus can never drift from the code that explains it.
"""

from importlib import resources

import numpy as np

from .. import serialize
from ..algebras import (
    cyclic_group_algebra,
    field_algebra,
    field_extension_algebra,
    matrix_algebra,
    truncated_poly_algebra,
    upper_triangular_algebra,
)
from ..endo import polynomial_adic_system
from ..fields import GF
from ..matrixtop import lower_shift_matrix, shift_matrix
from ..modules import FiniteModule, right_regular_module
from ..towers import adic_tower, block_product_tower, constant_tower


def path(name: str) -> str:
    return str(resources.files(__package__) / name)


def read(name: str) -> str:
    return (resources.files(__package__) / name).read_text(encoding="utf-8")


def mat2_natural_module(A) -> FiniteModule:
    rows = np.stack([
        np.array([[1, 0], [0, 0]]),
        np.array([[0, 1], [0, 0]]),
        np.array([[0, 0], [1, 0]]),
        np.array([[0, 0], [0, 1]]),
    ]).astype(np.int64)
    return FiniteModule(A, rows, side="right")


def render_all() -> dict[str, str]:
    """Every bundled file, rebuilt from constructors, keyed by file name."""
    F2 = GF(2)
    out: dict[str, str] = {}

    f2 = field_algebra(F2)
    f4 = field_extension_algebra(F2, 2)
    f2c3 = cyclic_group_algebra(F2, 3)
    mat2 = matrix_algebra(F2, 2)
    t2 = upper_triangular_algebra(F2, 2)
    truncs = {n: truncated_poly_algebra(F2, n) for n in range(2, 8)}

    out["f2.alg"] = serialize.write_algebra(f2)
    out["f3.alg"] = serialize.write_algebra(field_algebra(GF(3)))
    out["f4.alg"] = serialize.write_algebra(f4)
    out["f2c3.alg"] = serialize.write_algebra(f2c3)
    out["mat2_f2.alg"] = serialize.write_algebra(mat2)
    out["t2_f2.alg"] = serialize.write_algebra(t2)
    for n in range(2, 8):
        out[f"f2x{n}.alg"] = serialize.write_algebra(truncs[n])

    # truncation stages of F_2[[x]]: levels F_2[x]/(x^(n+1)), n = 0..4
    adic = adic_tower(F2, 4)
    out["adic4.twr"] = serialize.write_tower(
        adic, ["f2.alg"] + [f"f2x{n}.alg" for n in range(2, 6)])

    # growing product of semisimple blocks, new factor per level
    blocks = block_product_tower([f2, mat2, f4], 2, intent="truncation")
    out["blocks_l1.alg"] = serialize.write_algebra(blocks.levels[1])
    out["blocks_l2.alg"] = serialize.write_algebra(blocks.levels[2])
    out["blocks2.twr"] = serialize.write_tower(
        blocks, ["f2.alg", "blocks_l1.alg", "blocks_l2.alg"])

    out["const_f2c3.twr"] = serialize.write_tower(
        constant_tower(f2c3, 2, intent="exact"), ["f2c3.alg"] * 3)

    out["dual2_reg.mod"] = serialize.write_module(
        right_regular_module(truncs[2]), "f2x2.alg")
    out["f2c3_reg.mod"] = serialize.write_module(
        right_regular_module(f2c3), "f2c3.alg")
    out["mat2_nat.mod"] = serialize.write_module(
        mat2_natural_module(mat2), "mat2_f2.alg")

    # the chain family F_2[x]/(x^n) with multiplication-by-x inclusions,
    # at truncation depths 6 and 7 (the second refines the first)
    for depth in (6, 7):
        system = polynomial_adic_system(F2, depth)
        refs = []
        for i, N in enumerate(system.modules):
            name = f"chain{depth}_n{i + 1}.mod"
            out[name] = serialize.write_module(N, f"f2x{depth}.alg")
            refs.append(name)
        out[f"chain{depth}.sys"] = serialize.write_system(system, refs)

    out["shift_f2.mat"] = serialize.write_matrix(shift_matrix(f2, 6), "f2.alg")
    out["lshift_f2.mat"] = serialize.write_matrix(lower_shift_matrix(f2, 7), "f2.alg")
    return out
