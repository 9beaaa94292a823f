"""The golden reports' move from schema v1 to schema v2.

Schema v1 printed every wall cell in the one field Q(zeta_N) of its instance
(N = ``ProblemInstance.conductor``), labelled ``zeta_N^k``.  Schema v2 prints
the cell at zeta_d^j (d the order) in its own field Q(zeta_d), labelled
``zeta_d^j``.  The v1 reports stay in ``golden/v1``.  For every golden case
this test renders the current report, embeds each v2 cell back into
Q(zeta_N) with ``promoted(N)`` and compares it exactly with the v1 cell at
zeta_N^(jN/d).  Every field without wall cells must be equal as it stands.
"""

import json
from fractions import Fraction
from math import gcd

import pytest

from quantred import Cyclotomic, catalog, load_instance, phi_degree
from quantred.exactnum import polynomial_text
from test_golden import GOLDEN, cases, render

V1 = GOLDEN / "v1"
IDS = [name for name, _ in cases()]


def _conductor(argv) -> int:
    p = catalog(argv[1]) if argv[0] == "--catalog" else load_instance(argv[0])
    return p.conductor


def _v2_label(label: str, n: int) -> str:
    # zeta_N^k has order d = N / gcd(N, k): it is zeta_d^(k / gcd(N, k))
    if not label.startswith("zeta_"):
        return label
    k = int(label.split("^")[1])
    g = gcd(n, k)
    return f"zeta_{n // g}^{k // g}"


def _v1_cell(value, n: int):
    if isinstance(value, str):
        return Fraction(value)
    assert value["conductor"] == n
    return Cyclotomic(n, [Fraction(c) for c in value["coeffs"]])


def _v2_cell_in_v1_field(value, label: str, n: int):
    """A v2 cell, checked to be printed in Q(zeta_d) with d the order in its
    label, then embedded into Q(zeta_N)."""
    if isinstance(value, str):
        return Fraction(value)
    d = value["conductor"]
    assert label.startswith(f"zeta_{d}^"), label
    assert len(value["coeffs"]) == phi_degree(d), label
    assert value["str"] == polynomial_text(value["coeffs"]), label
    x = Cyclotomic(d, [Fraction(c) for c in value["coeffs"]])
    assert not x.is_rational(), label
    return x.promoted(n)


def _assert_cells_migrate(old: dict, new: dict, n: int, where) -> int:
    assert sorted(new) == sorted(_v2_label(label, n) for label in old), where
    for label, value in old.items():
        moved = _v2_label(label, n)
        got = _v2_cell_in_v1_field(new[moved], moved, n)
        want = _v1_cell(value, n)
        # same type (an embedding keeps a cell irrational) and, in one field,
        # the same integers
        assert type(got) is type(want) and got == want, (where, label, moved)
    return len(old)


def _assert_rows_migrate(old_rows, new_rows, n, where) -> int:
    assert [r["component"] for r in new_rows] == [r["component"] for r in old_rows], where
    cells = 0
    for old, new in zip(old_rows, new_rows):
        assert list(new) == list(old), where
        assert new["sum"] == old["sum"], (where, old["component"])
        cells += _assert_cells_migrate(old["values"], new["values"], n, (where, old["component"]))
    return cells


@pytest.mark.parametrize("name,argv", cases(), ids=IDS)
def test_residues_report_migrates(name, argv):
    n = _conductor(argv)
    old = json.loads((V1 / f"{name}.residues.json").read_text(encoding="utf-8"))
    new = json.loads(render("residues", argv))
    assert new.pop("schema") == 2
    assert list(new) == list(old)
    assert new["instance"] == old["instance"]
    cells = _assert_rows_migrate(old["rows"], new["rows"], n, name)
    cells += _assert_cells_migrate(old["column_sums"], new["column_sums"], n, (name, "sums"))
    assert cells >= 3 * (len(old["rows"]) + 1)  # zero, t = 1, infinity at least


@pytest.mark.parametrize("name,argv", cases(), ids=IDS)
def test_verify_report_migrates(name, argv):
    n = _conductor(argv)
    old = json.loads((V1 / f"{name}.verify.json").read_text(encoding="utf-8"))
    new = json.loads(render("verify", argv))
    assert new.pop("schema") == 2
    assert new["instance"]["conductor"] == n
    _assert_rows_migrate(old.pop("residues"), new.pop("residues"), n, name)
    old_reduction, new_reduction = old.pop("reduction"), new.pop("reduction")
    by_exponent = old_reduction.pop("residues_by_exponent")
    _assert_cells_migrate({f"zeta_{n}^{k}": v for k, v in by_exponent.items()},
                          new_reduction.pop("residues_by_root"), n, (name, "reduction"))
    # main, corrections, total and every other field, keys in the same order
    assert list(new_reduction.items()) == list(old_reduction.items())
    assert list(new.items()) == list(old.items())
