"""The golden reports are sensitive to the kernels they are meant to guard.

Each test perturbs one kernel slightly, empties every process cache, and
checks that at least one golden report no longer matches its committed
bytes.  A perturbation that left every golden unchanged would mean the
byte-identity check could not see a fault in that kernel.  The kernels are
restored and the caches emptied again afterwards.
"""

import inspect

import pytest

from quantred import laurent, lefschetz
from test_caches import lru_caches
from test_golden import COMMANDS, GOLDEN, cases, render


def _changed_reports() -> set:
    """The golden cases whose report differs from the committed bytes, or
    whose command no longer exits 0."""
    changed = set()
    for name, argv in cases():
        for command in COMMANDS:
            try:
                text = render(command, argv)
            except AssertionError:  # render asserts exit status 0
                changed.add(name)
                continue
            if text.encode("utf-8") != (GOLDEN / f"{name}.{command}.json").read_bytes():
                changed.add(name)
    return changed


@pytest.fixture
def cold_caches():
    for cache in lru_caches().values():
        cache.cache_clear()
    yield
    for cache in lru_caches().values():
        cache.cache_clear()


def _site_mutant(anchor: str, replacement: str):
    """``laurent._site`` with the one line ``anchor`` of its source replaced."""
    source = inspect.getsource(laurent._site)
    assert source.count(anchor) == 1
    namespace = {}
    exec(compile(source.replace(anchor, replacement), laurent.__file__, "exec"),
         vars(laurent).copy(), namespace)
    return namespace["_site"]


# the line after the Taylor rows T_n of Q(zeta e^u) / u^P are made, where the
# reciprocal of u**P / Q starts
TAYLOR = "    # u**P / Q(zeta e^u) = sum_n r_n u**n, the reciprocal of sum_n T_n u**n:"


def _doubled_rows(low: int, off_wall: bool) -> str:
    # double T_n for n >= low at the sites with (or, for off_wall False,
    # without) a factor off the walls
    wanted = "lead is not None" if off_wall else "lead is None"
    return (f"    taylor = [x + x if n >= {low} and {wanted} else x"
            f" for n, x in enumerate(taylor)]\n{TAYLOR}")


def test_goldens_read_the_regular_series_past_u0(monkeypatch, cold_caches):
    # a pole of order 2 at -1 where a weight-3 factor is regular (the point
    # e0 of cp3-0223-k3-c4) reads the Taylor row T_1 of a site with an
    # off-wall factor
    monkeypatch.setattr(laurent, "_site", _site_mutant(TAYLOR, _doubled_rows(1, True)))
    assert "cp3-0223-k3-c4" in _changed_reports()


def test_goldens_read_the_regular_series_past_u1(monkeypatch, cold_caches):
    # a pole of order 3 at zeta_3 where a weight-1 factor is regular (the
    # point e0 of cp4-03331-k2-c1) reads T_2 there
    monkeypatch.setattr(laurent, "_site", _site_mutant(TAYLOR, _doubled_rows(2, True)))
    assert "cp4-03331-k2-c1" in _changed_reports()


def test_goldens_read_the_regular_series_past_u2(monkeypatch, cold_caches):
    # a pole of order 4 at zeta_3 where a weight-1 factor is regular (the
    # point e0 of cp5-033331-k2-c1) reads T_3 there
    monkeypatch.setattr(laurent, "_site", _site_mutant(TAYLOR, _doubled_rows(3, True)))
    assert "cp5-033331-k2-c1" in _changed_reports()


def test_goldens_read_the_running_sum_of_the_ramp_product(monkeypatch, cold_caches):
    # drop the coset sum from the running sum of a lead's second and later
    # factors off the walls: the points of the binary forms have several
    source = inspect.getsource(laurent._ramp_product)
    term = "y += total - e * x"
    assert source.count(term) == 1
    namespace = {}
    exec(compile(source.replace(term, "y -= e * x"), laurent.__file__, "exec"),
         vars(laurent).copy(), namespace)
    monkeypatch.setattr(laurent, "_ramp_product", namespace["_ramp_product"])
    assert {"binary-quintic-k6", "binary-septic-k12"} <= _changed_reports()


def test_goldens_read_every_term_of_the_grouped_recursion(monkeypatch, cold_caches):
    # drop x_j h_0 from h_1 for every direction after the first of a weight
    # that repeats on nonzero classes: only the cp3-lines goldens have one
    source = inspect.getsource(lefschetz._integral_table)
    term = "row[n] = row[n] + x * row[n - 1]"
    assert source.count(term) == 1
    mutant = source.replace(term, f"{term} if n > 1 or not row[n].num else row[n]")
    namespace = {}
    exec(compile(mutant, lefschetz.__file__, "exec"), vars(lefschetz).copy(), namespace)
    monkeypatch.setattr(lefschetz, "_integral_table", namespace["_integral_table"])
    changed = _changed_reports()
    assert {"cp3-lines-q1-k3", "cp3-lines-q2-k3"} <= changed


# CP^4 and CP^5 with a pointwise-fixed hyperplane of normal weight 2: the
# hyperplane's ring has x^3 != 0, and both components have a pole of order
# n = 4 or 5 at t = 1 and at t = -1
CP4, CP5 = "cp4-hyperplane-q2-k8", "cp5-hyperplane-q2-k8"


def test_goldens_read_the_wall_series_past_u3(monkeypatch, cold_caches):
    # the poles of order 5 at t = +-1, where every factor is a wall, read T_4
    monkeypatch.setattr(laurent, "_site", _site_mutant(TAYLOR, _doubled_rows(4, False)))
    assert CP5 in _changed_reports()


def test_goldens_read_the_todd_coefficients_from_degree_4(monkeypatch, cold_caches):
    # drop the terms T_k r_(n-k), k >= 4, from the reciprocal recurrence of
    # u^P / Q(zeta e^u), as dropping g_k, k >= 4, of (1 - e^-x)/x would
    # from the Todd series
    term = "for k in range(2, n + 1):"
    monkeypatch.setattr(laurent, "_site",
                        _site_mutant(term, "for k in range(2, min(n + 1, 4)):"))
    assert CP5 in _changed_reports()


def test_goldens_read_the_integral_table_past_x3(monkeypatch, cold_caches):
    # double every I_k with some k_beta >= 3, the entries built from h_3 on
    real = lefschetz._integral_table

    def perturbed(f):
        return {k: (n + n if max(k) >= 3 else n, d) for k, (n, d) in real(f).items()}

    monkeypatch.setattr(lefschetz, "_integral_table", perturbed)
    assert {CP4, CP5} <= _changed_reports()


def test_goldens_read_the_high_powers_of_the_root_accumulation(monkeypatch, cold_caches):
    # double the site record's weight vectors W_i that multiply r^i, i >= 3
    real = laurent._site

    def perturbed(*args):
        site = real(*args)
        return site._replace(weights=tuple(tuple(x + x for x in w) if i >= 3 else w
                                           for i, w in enumerate(site.weights)))

    monkeypatch.setattr(laurent, "_site", perturbed)
    assert {CP4, CP5} <= _changed_reports()
