"""Acceptance suite: ten criteria, one test each, every tolerance exact.

Each test prints a single CRITERION line; run with ``pytest -s
tests/test_acceptance.py`` to see them all.  Everything is integer or
rational equality: there are no numeric tolerances anywhere.
"""

import time
from fractions import Fraction
from math import gcd

from conftest import wall_roots
from quantred import (
    WeylFactor,
    automatic_degree_bound,
    catalog,
    catalog_names,
    character_polynomial,
    component_form,
    residue_row,
    residue_table,
    tensor_power,
    validate,
    verify_quantization,
)

# entries whose hypotheses hold, per the verification contract
IDENTITY_CASES = (
    [("cp1-k", k) for k in range(1, 7)]
    + [("cp2-k", k) for k in range(1, 5)]
    + [("cp1xcp1", None)]
    + [("so3-coadjoint", 2), ("so3-coadjoint", 3)]
    + [("cp1-double", None)]
    + [("cp1-triple", None), ("cp2-line", None), ("cp2-line-double", None),
       ("so3-s2xs2", None)]
)


def _ok(n, text):
    print(f"CRITERION {n:2d} PASS: {text}")


def test_criterion_01_calibration():
    start = time.perf_counter()
    p = catalog("cp1-k", 2)
    character = character_polynomial(p)
    assert character == {-1: 1, 0: 1, 1: 1}
    report = verify_quantization(p)
    lef, red = report.lefschetz, report.reduced
    assert lef == 1 and red.total == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"calibration took {elapsed:.3f}s, budget is 1s"
    _ok(1, f"character t^-1 + 1 + t, both counts 1, {elapsed * 1000:.0f} ms")


def test_criterion_02_quantization_identity():
    start = time.perf_counter()
    for name, k in IDENTITY_CASES:
        p = catalog(name, k) if k is not None else catalog(name)
        report = verify_quantization(p)
        assert report.verdict == "PASS", (name, k, report.verdict)
        assert report.lefschetz == report.reduced.total == report.oracle, (name, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"identity suite took {elapsed:.1f}s, budget is 30s"
    _ok(2, f"{len(IDENTITY_CASES)} instances, exact equality, {elapsed:.2f} s")


def test_criterion_03_window_vanishing():
    checked = 0
    for name in catalog_names():
        p = catalog(name)
        for f in p.components:
            for r in range(-2, 3):
                if -f.n_plus < f.moment + r < f.n_minus:
                    # the row of t**r h_F
                    at_zero, _, at_infinity, _ = residue_row(*component_form(f, ({r: 1}, 1)))
                    assert at_zero == 0 and at_infinity == 0, (name, f.name, r)
                    checked += 1
    assert checked > 0
    _ok(3, f"{checked} in-window residues all exactly zero")


def test_criterion_04_global_residue_theorem():
    rows = 0
    for name in catalog_names():
        p = catalog(name)
        weyl = WeylFactor(p.group).poly
        for f in p.components:
            at_zero, cells, at_infinity, _ = residue_row(*component_form(f, weyl))
            assert tuple(cells) == wall_roots(f.weights), (name, f.name)
            total = at_zero + at_infinity
            for cell in cells.values():
                total = total + cell
            assert total == 0, (name, f.name)
            rows += 1
    _ok(4, f"residues over 0, walls and infinity sum to zero for {rows} components")


def test_criterion_05_character_finiteness():
    for name in catalog_names():
        p = catalog(name)
        auto = automatic_degree_bound(p)
        base = character_polynomial(p)  # raises if the tail is nonzero
        assert all(abs(m) <= auto for m in base.support()), name
        assert base == character_polynomial(p, 2 * auto), name
    _ok(5, "tails vanish beyond the automatic bound; doubling changes nothing")


def test_criterion_06_quasi_free_specialization():
    count = 0
    for name in catalog_names():
        p = catalog(name)
        if not all(abs(b) == 1 for f in p.components for b in f.weights):
            continue
        if any(f.level in ("ERROR", "WARN") for f in validate(p)):
            continue
        report = verify_quantization(p)
        assert report.reduced.corrections == {}, name
        assert report.reduced.main == report.lefschetz, name
        count += 1
    assert count >= 4
    _ok(6, f"{count} quasi-free instances: no corrections, two-term identity")


def test_criterion_07_kawasaki_necessity():
    report = verify_quantization(catalog("cp1-double"))
    lef, red = report.lefschetz, report.reduced
    assert red.main != lef
    assert red.main == Fraction(1, 2) and lef == 0
    assert red.main + red.corrections[2] == lef
    _ok(7, "main term 1/2 alone is wrong; the order-2 correction -1/2 restores 0")


def test_criterion_08_galois_rationality():
    # a correction is a trace; it must equal the explicit sum, over the
    # positive-moment rows, of the row's cells at zeta_d^j over all j
    # coprime to d, and that orbit sum must be exactly rational
    orbits = 0
    for name in catalog_names():
        for p in (catalog(name), tensor_power(catalog(name), 2)):
            orbit_sums = {}
            for f, row in zip(p.components, residue_table(p)):
                if f.moment <= 0:
                    continue
                for d in sorted({d for d, _ in wall_roots(f.weights)} - {1}):
                    for j in (j for j in range(1, d) if gcd(j, d) == 1):
                        orbit_sums[d] = orbit_sums.get(d, 0) + row.walls[d, j]
            corr = verify_quantization(p).reduced.corrections
            assert corr == orbit_sums, p.name
            orbits += len(corr)
            for value in corr.values():
                assert isinstance(value, Fraction)
    assert orbits > 0
    _ok(8, f"{orbits} correction orbits, each its explicit orbit sum, all exactly rational")


def test_criterion_09_tensor_power_polynomiality():
    for name in ("cp1-k", "cp2-k"):
        base = catalog(name)
        degree = base.dimension() // 2 - 1  # dim K = 1 for the circle
        totals = [verify_quantization(tensor_power(base, k)).reduced.total for k in range(1, 7)]
        diffs = list(totals)
        for _ in range(degree + 1):
            diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        assert all(d == 0 for d in diffs), (name, totals)
    _ok(9, "degree-0 fit for the line, degree-1 fit for the plane, k = 1..6")


def test_criterion_10_negative_control():
    report = verify_quantization(catalog("su2-excluded"))
    assert report.verdict == "NOT-ASSERTED"
    assert report.lefschetz == 1
    assert report.reduced.total == 0
    _ok(10, "excluded SU(2) data: sides differ (1 vs 0), verdict NOT-ASSERTED")
