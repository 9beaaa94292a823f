"""Randomized whole-engine properties.

Seven families of fixed-point data that provably close up to compact
manifolds (two-point spheres with a common weight, circle actions on the
projective plane, a plane with a pointwise-fixed line, CP^3 with two
pointwise-fixed lines, CP^n with a pointwise-fixed hyperplane, SU(2) on
binary forms, whose count is checked against Cayley-Sylvester, and circle
actions on CP^n with isolated fixed points, whose count is the number of
monomials of a given weight), plus per-component identities that hold for
arbitrary data.  Every check is an exact equality; stabilization of the
oracle expansion certifies each random instance before the residue engine
is trusted with it.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, lcm, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import chart_character, twisted, wall_roots
from quantred import (
    FixedComponent,
    GroupKind,
    ProblemInstance,
    RingPresentation,
    WeylFactor,
    catalog,
    catalog_names,
    character_polynomial,
    component_form,
    hypotheses_hold,
    invariant_multiplicity,
    load_instance,
    rational_part,
    residue_row,
    tensor_power,
    verify_quantization,
)

POINT = RingPresentation.point()
P1 = RingPresentation.projective_line()


def pt(name, moment, weights):
    return FixedComponent(
        name, POINT, moment, weights,
        [POINT.zero() for _ in weights], POINT.zero(), POINT.one(),
    )


def curve(name, moment, weights, chern_mult, omega_mult):
    x = P1.gen("x")
    return FixedComponent(
        name, P1, moment, weights,
        [x * m for m in chern_mult], x * omega_mult, P1.one() + x,
    )


# -- family 1: two-point spheres ------------------------------------------------
# two fixed points with weights +-q and moments differing by a multiple of q

@st.composite
def sphere_instances(draw):
    q = draw(st.integers(min_value=1, max_value=4))
    sections = draw(st.integers(min_value=0, max_value=4))
    low = draw(st.integers(min_value=-6, max_value=6))
    hi = low + q * sections
    assume(low != 0 and hi != 0)
    return ProblemInstance(
        GroupKind.U1,
        [pt("north", hi, [q]), pt("south", low, [-q])],
        f"sphere(q={q},s={sections},low={low})",
    )


@settings(max_examples=40, deadline=None)
@given(p=sphere_instances())
def test_sphere_family_identity(p):
    character = character_polynomial(p)  # stabilization certifies the data
    expected = invariant_multiplicity(character, p.group)
    report = verify_quantization(p)
    assert report.lefschetz == expected
    red = report.reduced
    assert red.total == expected
    assert red.total == red.main + sum(red.corrections.values())


@settings(max_examples=25, deadline=None)
@given(p=sphere_instances())
def test_sphere_family_two_chart_agreement(p):
    from quantred import automatic_degree_bound

    top = automatic_degree_bound(p)
    assert chart_character(p, 1, top) == chart_character(p, -1, top)


# -- family 2: circle actions on the projective plane -----------------------------
# coordinate weights (w0, w1, w2) distinct, degree k, fiber shift C:
# three isolated points, tangent weights {w_i - w_j}, moments C - k*w_j

@st.composite
def plane_instances(draw):
    ws = draw(
        st.lists(st.integers(min_value=-3, max_value=4), min_size=3, max_size=3,
                 unique=True)
    )
    k = draw(st.integers(min_value=1, max_value=3))
    c_shift = draw(st.integers(min_value=-5, max_value=8))
    assume(all(c_shift != k * w for w in ws))
    comps = [
        pt(f"e{j}", c_shift - k * ws[j], [ws[i] - ws[j] for i in range(3) if i != j])
        for j in range(3)
    ]
    return ProblemInstance(GroupKind.U1, comps, f"plane(w={ws},k={k},C={c_shift})")


@settings(max_examples=40, deadline=None)
@given(p=plane_instances())
def test_plane_family_identity(p):
    character = character_polynomial(p)
    expected = invariant_multiplicity(character, p.group)
    report = verify_quantization(p)
    assert report.lefschetz == report.reduced.total == expected


@settings(max_examples=25, deadline=None)
@given(p=plane_instances())
def test_plane_family_dimension_count(p):
    # the total dimension is the number of degree-k monomials in 3 variables
    k = int(p.name.split("k=")[1].split(",")[0])
    character = character_polynomial(p)
    assert character.total_dimension() == (k + 1) * (k + 2) // 2


# -- family 3: plane with a pointwise-fixed line -----------------------------------
# a fixed curve with normal weight q and Chern class x, and an isolated point
# with weights (-q, -q); consistency forces omega = ((mu_L - mu_p)/q) x

@st.composite
def fixed_line_instances(draw):
    q = draw(st.integers(min_value=1, max_value=3))
    mu_p = draw(st.integers(min_value=-4, max_value=4))
    area = draw(st.integers(min_value=1, max_value=4))
    mu_l = mu_p + q * area
    assume(mu_p != 0 and mu_l != 0)
    return ProblemInstance(
        GroupKind.U1,
        [
            curve("line", mu_l, [q], [1], area),
            pt("apex", mu_p, [-q, -q]),
        ],
        f"fixed-line(q={q},mu_p={mu_p},a={area})",
    )


@settings(max_examples=40, deadline=None)
@given(p=fixed_line_instances())
def test_fixed_line_family_identity(p):
    character = character_polynomial(p)
    expected = invariant_multiplicity(character, p.group)
    report = verify_quantization(p)
    assert report.lefschetz == expected
    red = report.reduced
    assert red.total == expected


# -- family 4: CP^3 under the weights (0, 0, q, q) ---------------------------------
# two pointwise-fixed lines, each with normal bundle O(1) + O(1) of weights
# (q, q) and (-q, -q): the one family where a weight repeats on nonzero Chern
# classes.  O(k) restricts to omega = k x on both; the moments are C and C - kq

@st.composite
def cp3_line_pair_instances(draw):
    q = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=4))
    c_shift = draw(st.integers(min_value=-4, max_value=k * q + 4))
    assume(c_shift != 0 and c_shift != k * q)
    return ProblemInstance(
        GroupKind.U1,
        [
            curve("line01", c_shift, [q, q], [1, 1], k),
            curve("line23", c_shift - k * q, [-q, -q], [1, 1], k),
        ],
        f"cp3-lines(q={q},k={k},C={c_shift})",
    )


@settings(max_examples=30, deadline=None)
@given(p=cp3_line_pair_instances())
def test_cp3_line_pair_family_identity(p):
    character = character_polynomial(p)
    expected = invariant_multiplicity(character, p.group)
    report = verify_quantization(p)
    assert report.lefschetz == expected
    red = report.reduced
    assert red.total == expected
    assert red.total == red.main + sum(red.corrections.values())
    # the total dimension is the number of degree-k monomials in 4 variables
    k = int(p.name.split("k=")[1].split(",")[0])
    assert character.total_dimension() == comb(k + 3, 3)


# -- family 5: CP^n under the weights (0, .., 0, q) ------------------------------------
# a pointwise-fixed hyperplane CP^(n-1) over Q[x]/x^n with normal weight q,
# class x and Td = (x / (1 - e^-x))^n, and an apex with n weights -q.  O(1)
# restricts to omega = x; the moments are C and C - q, before the k-th power

@st.composite
def cp_hyperplane_instances(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    q = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=8))
    c_shift = draw(st.integers(min_value=-3, max_value=q + 3))
    assume(c_shift != 0 and c_shift != q)
    ring = RingPresentation(("x",), (n,), 2 * (n - 1), {(n - 1,): 1})
    x = ring.gen("x")
    todd = prod([x.todd_factor()] * n, start=ring.one())
    p = ProblemInstance(
        GroupKind.U1,
        [
            FixedComponent("hyperplane", ring, c_shift, [q], [x], x, todd),
            pt("apex", c_shift - q, [-q] * n),
        ],
        f"cp-hyperplane(n={n},q={q},C={c_shift})",
    )
    return tensor_power(p, k), n, k


@settings(max_examples=30, deadline=None)
@given(case=cp_hyperplane_instances())
def test_cp_hyperplane_family_identity(case):
    p, n, k = case
    character = character_polynomial(p)
    expected = invariant_multiplicity(character, p.group)
    report = verify_quantization(p)
    assert report.lefschetz == expected
    red = report.reduced
    assert red.total == expected
    assert red.total == red.main + sum(red.corrections.values())
    # the total dimension is the number of degree-k monomials in n + 1 variables
    assert character.total_dimension() == comb(k + n, n)


# -- family 6: SU(2) on binary n-ics -------------------------------------------------
# P(Sym^n C^2) with O(k), n odd: the points e_i, i = 0..n, with moment
# k(n - 2i) and tangent weights 2(j - i), j != i.  Its invariant count is the
# number of degree-k invariants of a binary n-ic, which Cayley-Sylvester gives
# without the fixed-point data: p(nk/2; k, n) - p(nk/2 - 1; k, n), with
# p(m; k, n) the number of partitions of m into at most k parts, each at
# most n (none when nk is odd)

def binary_form(n, k):
    return ProblemInstance(
        GroupKind.SU2,
        [pt(f"e{i}", k * (n - 2 * i), [2 * (j - i) for j in range(n + 1) if j != i])
         for i in range(n + 1)],
        f"binary(n={n},k={k})",
    )


def partitions_in_box(m, parts, largest):
    """The partitions of m into at most ``parts`` parts, each at most ``largest``."""
    if m < 0:
        return 0
    ways = [[0] * (m + 1) for _ in range(parts + 1)]  # [c][s]: c parts summing to s
    ways[0][0] = 1
    for size in range(1, largest + 1):
        for c in range(1, parts + 1):
            for s in range(size, m + 1):
                ways[c][s] += ways[c - 1][s - size]
    return sum(row[m] for row in ways)


def cayley_sylvester(n, k):
    if n * k % 2:
        return 0
    return partitions_in_box(n * k // 2, k, n) - partitions_in_box(n * k // 2 - 1, k, n)


def test_cayley_sylvester_known_counts():
    # the discriminant of the binary cubic; none in degree 6 for the quintic;
    # five invariants of degree 20 for the quintic and thirteen of degree 8
    # for the 11-ic
    assert [cayley_sylvester(n, k) for n, k in [(3, 4), (3, 2), (5, 6), (5, 20), (11, 8)]] \
        == [1, 0, 0, 5, 13]


# and the 21-ic at k = 2: leads with up to 20 factors off the walls, and
# walls of every order up to 21 and every even order up to 42
@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 3, 5, 7, 9) for k in range(1, 9)] + [(21, 2)])
def test_binary_form_counts_match_cayley_sylvester(n, k):
    p = binary_form(n, k)
    expected = cayley_sylvester(n, k)
    report = verify_quantization(p)
    assert report.lefschetz == report.reduced.total == expected
    assert invariant_multiplicity(character_polynomial(p), p.group) == expected


# -- family 7: U(1) on CP^n with isolated fixed points ------------------------------
# distinct coordinate weights w_0..w_n, the bundle O(k) and a fibre shift C:
# the points e_j with moment C - k*w_j and tangent weights w_i - w_j.  The
# sections of O(k) are the degree-k monomials x^a, of weight C - sum a_i w_i,
# so the invariant count is #{a in N^(n+1) : |a| = k, sum a_i w_i = C}

def monomials_of_weight(ws, k, c_shift):
    return sum(sum(a) == c_shift for a in combinations_with_replacement(ws, k))


@st.composite
def cp_point_instances(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    ws = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=n + 1,
                       max_size=n + 1, unique=True))
    k = draw(st.integers(min_value=1, max_value=4))
    # every monomial's weight lies in [k min w, k max w]; one step past each end
    c_shift = draw(st.integers(min_value=k * min(ws) - 1, max_value=k * max(ws) + 1))
    assume(all(c_shift != k * w for w in ws))
    comps = [pt(f"e{j}", c_shift - k * w, [v - w for v in ws if v != w])
             for j, w in enumerate(ws)]
    return ProblemInstance(GroupKind.U1, comps, f"cp{n}(w={ws},k={k},C={c_shift})"), ws, k, c_shift


def test_monomials_of_weight_known_counts():
    # CP^1 with weights (0, 1): one monomial x0^(k-C) x1^C for 0 <= C <= k;
    # CP^2 with weights (-1, 0, 1) and k = 2: x0 x2 and x1^2 have weight 0
    assert [monomials_of_weight([0, 1], 3, c) for c in range(-1, 5)] == [0, 1, 1, 1, 1, 0]
    assert monomials_of_weight([-1, 0, 1], 2, 0) == 2


@settings(max_examples=40, deadline=None)
@given(case=cp_point_instances())
def test_cp_point_family_counts_monomials_of_weight(case):
    p, ws, k, c_shift = case
    expected = monomials_of_weight(ws, k, c_shift)
    report = verify_quantization(p)
    assert report.verdict == "PASS"
    assert report.lefschetz == report.reduced.total == report.oracle == expected


# -- mirror symmetry -----------------------------------------------------------------
# reversing the circle negates moments and weights and keeps the Chern data;
# the character reflects, so the invariant count is unchanged

def mirror(p):
    comps = [
        FixedComponent(
            f.name, f.ring, -f.moment, [-b for b in f.weights],
            f.normal_chern, f.omega, f.todd,
        )
        for f in p.components
    ]
    return ProblemInstance(p.group, comps, f"mirror({p.name})")


@settings(max_examples=30, deadline=None)
@given(p=st.one_of(sphere_instances(), fixed_line_instances()))
def test_mirror_preserves_the_count(p):
    m = mirror(p)
    c_p = character_polynomial(p)
    c_m = character_polynomial(m)
    assert c_m.coefficients == {-k: v for k, v in c_p.coefficients.items()}
    mirrored, report = verify_quantization(m), verify_quantization(p)
    assert mirrored.lefschetz == report.lefschetz
    assert mirrored.reduced.total == report.reduced.total


# -- per-component identities for arbitrary (even inconsistent) data ------------------
# the residue theorem on the sphere holds for every single component, whether
# or not the instance closes up to a manifold

@st.composite
def arbitrary_components(draw):
    isolated = draw(st.booleans())
    n_weights = draw(st.integers(min_value=1, max_value=2))
    weights = draw(
        st.lists(
            st.integers(min_value=-3, max_value=3).filter(bool),
            min_size=n_weights, max_size=n_weights,
        )
    )
    moment = draw(st.integers(min_value=-4, max_value=4).filter(bool))
    if isolated:
        return pt("f", moment, weights)
    chern = draw(st.lists(st.integers(min_value=-2, max_value=2),
                          min_size=n_weights, max_size=n_weights))
    omega = draw(st.integers(min_value=0, max_value=3))
    return curve("f", moment, weights, chern, omega)


@settings(max_examples=60, deadline=None)
@given(
    f=arbitrary_components(),
    group=st.sampled_from([GroupKind.U1, GroupKind.SO3, GroupKind.SU2]),
    twist=st.integers(min_value=-2, max_value=2),
)
def test_residue_theorem_for_arbitrary_components(f, group, twist):
    # every cell of the row of t**twist times the Weyl density times h_F
    form = component_form(f, twisted(twist, WeylFactor(group)))
    at_zero, cells, at_infinity, _ = residue_row(*form)
    assert tuple(cells) == wall_roots(f.weights)
    total = at_zero + at_infinity
    for cell in cells.values():
        total = total + cell
    assert rational_part(total) == 0


@st.composite
def windowed_cases(draw):
    # build data whose (moment + twist) lies strictly inside the vanishing
    # window (-n_plus, n_minus); with two or more nonzero weights the window
    # always contains an integer
    weights = draw(
        st.lists(st.integers(min_value=-3, max_value=3).filter(bool),
                 min_size=2, max_size=3)
    )
    n_plus = sum(b for b in weights if b > 0)
    n_minus = sum(-b for b in weights if b < 0)
    target = draw(st.integers(min_value=-n_plus + 1, max_value=n_minus - 1))
    twist = draw(st.integers(min_value=-2, max_value=2))
    moment = target - twist
    assume(moment != 0)
    if draw(st.booleans()):
        return pt("f", moment, weights), twist
    chern = draw(st.lists(st.integers(min_value=-2, max_value=2),
                          min_size=len(weights), max_size=len(weights)))
    omega = draw(st.integers(min_value=0, max_value=3))
    return curve("f", moment, weights, chern, omega), twist


@settings(max_examples=60, deadline=None)
@given(case=windowed_cases())
def test_window_vanishing_for_arbitrary_components(case):
    f, twist = case
    assert -f.n_plus < f.moment + twist < f.n_minus
    at_zero, _, at_infinity, _ = residue_row(*component_form(f, twisted(twist)))
    assert at_zero == 0 and at_infinity == 0


# -- the main/correction split in k ----------------------------------------------------
# Under the k-th tensor power the main term (the t = 1 residue) is a
# polynomial in k of degree at most dim_C M - 1 = dim_C M_red, with the
# symplectic volume of M_red as its k**(dim_C M - 1) coefficient, and the
# correction of order d is a polynomial of the same degree on each residue
# class of k mod d.  The oracle checks only their total, so these properties
# catch value that moves between the two.

def differences(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def assert_polynomial_split(p):
    """Check the split on the tensor powers k = 1 .. K, K giving dim_C M + 1
    values of k in each residue class mod every correction order; returns
    dim_C M and their reduced counts."""
    n = p.dimension() // 2
    top = max(verify_quantization(p).reduced.corrections, default=1) * (n + 1)
    parts = [verify_quantization(tensor_power(p, k)).reduced for k in range(1, top + 1)]
    assert not any(differences([r.main for r in parts], n)), p.name
    for d in parts[0].corrections:
        for c in range(d):  # k = c + 1, c + 1 + d, ...
            values = [r.corrections[d] for r in parts[c::d]]
            assert len(values) > n
            assert not any(differences(values, n)), (p.name, d, c)
    return n, parts


def point_volume(p):
    """sum over the fixed points with mu > 0 of mu**(r-1) / ((r-1)! prod beta),
    r = dim_C M: the k**(r-1) coefficient of Res_{u=0} e^{k mu u} / prod (beta u),
    the volume of M_red, written out without the residue engine."""
    r = p.dimension() // 2
    return sum(Fraction(f.moment ** (r - 1), factorial(r - 1) * prod(f.weights))
               for f in p.components if f.moment > 0)


def assert_leading_coefficient_is_the_volume(p):
    n, parts = assert_polynomial_split(p)
    leading = differences([r.main for r in parts], n - 1)[0] / factorial(n - 1)
    assert leading == point_volume(p), p.name
    return leading


U1_ENTRIES = [name for name in catalog_names() if catalog(name).group is GroupKind.U1]


@pytest.mark.parametrize("name", U1_ENTRIES)
def test_catalog_split_is_polynomial_in_k(name):
    p = catalog(name)
    if all(f.ring.rank == 0 for f in p.components):
        assert_leading_coefficient_is_the_volume(p)
    else:
        assert_polynomial_split(p)


def test_catalog_volumes():
    assert assert_leading_coefficient_is_the_volume(catalog("cp1-double")) == Fraction(1, 2)
    assert assert_leading_coefficient_is_the_volume(catalog("cp1-triple")) == Fraction(1, 3)
    assert assert_leading_coefficient_is_the_volume(catalog("cp2-k", 1)) == Fraction(1, 6)


@settings(max_examples=20, deadline=None)
@given(p=st.one_of(sphere_instances(), plane_instances()))
def test_point_families_split_is_polynomial_in_k(p):
    assert_leading_coefficient_is_the_volume(p)


@settings(max_examples=15, deadline=None)
@given(p=fixed_line_instances())
def test_fixed_line_family_split_is_polynomial_in_k(p):
    assert_polynomial_split(p)


# -- the tensor-power family as quasi-polynomials in k ----------------------------------
# Kawasaki's formula fixes the shape of each piece of the reduced count of
# L**k (Meinrenken, J. AMS 9, 1996).  With E the shift k -> k + 1 and
# n = dim_C M: (E - 1)**n annihilates the main term, (E**d - 1)**n the
# correction c_d(k) and (E**L - 1)**n the invariant count, L the lcm of the
# wall orders.  The sweep reads every piece off verify_quantization, whose
# verdict checks the three counts against each other at each k.  For the
# circle the main term is a polynomial of exact degree n - 1, the dimension
# of the reduced space, with a positive leading difference.

GOLDEN_INSTANCES = Path(__file__).resolve().with_name("golden") / "instances"
SWEEP = 60  # tensor powers per instance: the binary septic's 60 take the longest


def annihilates(step, n, values):
    """Whether (E**step - 1)**n maps the sequence to zero, on at least one
    value: a sweep too short to tell fails."""
    for _ in range(n):
        values = [b - a for a, b in zip(values, values[step:])]
    return bool(values) and not any(values)


def _sweeps():
    # (name, k, top): a few catalog entries at set lengths, then every other
    # catalog entry at its default k and every golden instance document over
    # SWEEP powers; the negative control su2-excluded is left out
    listed = [("cp1-triple", None, 12), ("cp2-line-double", None, 16), ("cp2-k", 1, 24),
              ("so3-s2xs2", None, 16)]
    seen = {name for name, k, _ in listed if k is None} | {"su2-excluded"}
    listed += [(name, None, SWEEP) for name in catalog_names() if name not in seen]
    return listed + [(path.stem, None, SWEEP)
                     for path in sorted(GOLDEN_INSTANCES.glob("*.json"))]


@pytest.mark.parametrize("name,k,top", _sweeps())
def test_tensor_powers_are_quasi_polynomials(name, k, top):
    if name not in catalog_names():
        base = load_instance(GOLDEN_INSTANCES / f"{name}.json")
    else:
        base = catalog(name) if k is None else catalog(name, k)
    n = base.dimension() // 2
    reports = [verify_quantization(tensor_power(base, j)) for j in range(1, top + 1)]
    for j, r in enumerate(reports, 1):
        assert r.verdict == ("PASS" if hypotheses_hold(r.findings) else "NOT-ASSERTED"), j
    main = [r.reduced.main for r in reports]
    assert annihilates(1, n, main)
    if base.group is GroupKind.U1:
        lead = differences(main, n - 1)
        assert lead[0] > 0 and len(set(lead)) == 1, lead
    # a piece is checked where the sweep has a value for its annihilator
    for d in reports[0].reduced.corrections:
        if n * d < top:
            assert annihilates(d, n, [r.reduced.corrections[d] for r in reports]), d
    period = lcm(*(d for f in base.components for d, _ in wall_roots(f.weights)))
    if n * period < top:
        assert annihilates(period, n, [r.lefschetz for r in reports]), period
