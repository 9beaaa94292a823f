"""Built-in worked examples.

Every entry is fixed-point data that closes up to a genuine compact
manifold, so the infinity-chart character expansion stabilizes and the
invariant count and the reduced-space count agree (except for the SU(2)
entries marked as hypothesis violations, which exist precisely to show the
identity failing outside its range of validity).

Parametrized entries take ``k`` (bundle degree or moment radius); fixed
entries ignore it at this level (the CLI applies a tensor power instead).
"""

from __future__ import annotations

from .cohomology import RingPresentation
from .fixedpoint import FixedComponent, GroupKind, ProblemInstance, SchemaError


class UnknownCatalogError(KeyError):
    __str__ = Exception.__str__  # the message, not KeyError's quoted repr


_POINT = RingPresentation.point()
_P1 = RingPresentation.projective_line()


def _pt(name, moment, weights):
    return FixedComponent(
        name, _POINT, moment, weights,
        [_POINT.zero() for _ in weights], _POINT.zero(), _POINT.one(),
    )


def _curve(name, moment, weights, chern_multiples, omega_multiple):
    """A projective-line component: ring Q[x]/x^2, integral of x equal 1,
    Todd class 1 + x, omega = a*x, normal Chern classes n_j*x."""
    x = _P1.gen("x")
    return FixedComponent(
        name, _P1, moment, weights,
        [x * n for n in chern_multiples], x * omega_multiple, _P1.one() + x,
    )


def cp1(k: int = 2) -> ProblemInstance:
    """The projective line with the degree-k bundle, rotation action.

    Two isolated fixed points with tangent weights +1 and -1.  For even k the
    linearization is symmetric (moments +-k/2); for odd k >= 3 it is shifted
    by a half step (moments (k+1)/2 and -(k-1)/2).  For k = 1 no integer
    linearization puts the zero level strictly inside the moment image, so we
    use moments (2, 1): the zero level is empty and both counts vanish.
    k = 0 is kept only as a character-expansion example; its moments are both
    zero, which validation rejects for the residue computations.
    """
    if k < 0:
        raise SchemaError("bundle degree must be >= 0")
    if k == 1:
        hi, lo = 2, 1
    elif k % 2 == 0:
        hi, lo = k // 2, -k // 2
    else:
        hi, lo = (k + 1) // 2, -(k - 1) // 2
    return ProblemInstance(
        GroupKind.U1,
        [_pt("north", hi, [1]), _pt("south", lo, [-1])],
        f"cp1-k(k={k})",
    )


def cp1_double() -> ProblemInstance:
    """The projective line under the doubled rotation (weights +-2) with the
    symmetric degree-1 bundle.  The generic orbit has a two-element
    stabilizer, so the reduced point is an orbifold: the naive count (main
    term 1) is wrong and the correction at t = -1 repairs it to 0."""
    return ProblemInstance(
        GroupKind.U1,
        [_pt("north", 1, [2]), _pt("south", -1, [-2])],
        "cp1-double",
    )


def cp1_triple() -> ProblemInstance:
    """Weights +-3: corrections live on the two primitive cube roots of
    unity, whose individual residues are irrational but whose orbit sum is
    rational.  Exercises the Galois bookkeeping."""
    return ProblemInstance(
        GroupKind.U1,
        [_pt("north", 1, [3]), _pt("south", -2, [-3])],
        "cp1-triple",
    )


def cp2(k: int = 4) -> ProblemInstance:
    """The projective plane under the circle with coordinate weights
    (0, 1, 3), three isolated fixed points, degree-k bundle.

    Tangent weights are {1,3}, {-1,2}, {-3,-2}; the moment at each point is
    C - k*w with a shift C(k) chosen so no moment vanishes and the zero
    level is interior.  The default k = 4 (C = 6) is the entry whose tensor
    powers have exactly linear growth: the corrections at the cube and
    square roots of unity are then constant in the power.
    """
    if k < 1:
        raise SchemaError("bundle degree must be >= 1")
    shift = 2 if k == 1 else 3 * ((k + 1) // 2)
    moments = (shift, shift - k, shift - 3 * k)
    return ProblemInstance(
        GroupKind.U1,
        [
            _pt("e0", moments[0], [1, 3]),
            _pt("e1", moments[1], [-1, 2]),
            _pt("e2", moments[2], [-3, -2]),
        ],
        f"cp2-k(k={k})",
    )


def cp1xcp1() -> ProblemInstance:
    """A product of two projective lines, the circle rotating only the
    second factor: the fixed set is two copies of the first factor, each a
    curve with trivial normal bundle.  Bundle bidegree (1, 2)."""
    return ProblemInstance(
        GroupKind.U1,
        [
            _curve("top", 1, [1], [0], 1),
            _curve("bottom", -1, [-1], [0], 1),
        ],
        "cp1xcp1",
    )


def cp2_line() -> ProblemInstance:
    """The projective plane under a circle fixing a line pointwise: the
    fixed set is that line (normal bundle of degree 1, so a genuinely
    nonzero normal Chern class) plus the opposite point.  Degree-3 bundle:
    ten sections, two of weight zero."""
    return ProblemInstance(
        GroupKind.U1,
        [
            _curve("line", 2, [1], [1], 3),
            _pt("apex", -1, [-1, -1]),
        ],
        "cp2-line",
    )


def cp2_line_double() -> ProblemInstance:
    """Same geometry with the doubled circle: the fixed line has normal
    weight 2, so the correction at t = -1 rides on top of the nilpotent
    Chern corrections.  The hardest code path in one small instance."""
    return ProblemInstance(
        GroupKind.U1,
        [
            _curve("line", 3, [2], [1], 2),
            _pt("apex", -1, [-2, -2]),
        ],
        "cp2-line-double",
    )


def so3_coadjoint(k: int = 2) -> ProblemInstance:
    """The sphere of radius k as a coadjoint orbit of SO(3): two fixed
    points with moments +-k and tangent weights +-1.  The zero level of the
    full moment map is empty, so both counts vanish; the interest is in the
    Weyl-factor residues conspiring to zero."""
    if k < 1:
        raise SchemaError("moment radius must be >= 1")
    return ProblemInstance(
        GroupKind.SO3,
        [_pt("north", k, [1]), _pt("south", -k, [-1])],
        f"so3-coadjoint(k={k})",
    )


def so3_s2xs2() -> ProblemInstance:
    """SO(3) rotating a product of two spheres of radii 2 and 1 diagonally:
    four fixed points, moments +-3 and +-1, all tangent weights +-1."""
    return ProblemInstance(
        GroupKind.SO3,
        [
            _pt("nn", 3, [1, 1]),
            _pt("ns", 1, [1, -1]),
            _pt("sn", -1, [-1, 1]),
            _pt("ss", -3, [-1, -1]),
        ],
        "so3-s2xs2",
    )


def su2_sphere(k: int = 1) -> ProblemInstance:
    """The projective line as a coadjoint orbit of SU(2): moments +-k,
    tangent weights +-2 (the root directions).  For k <= 2 the smallness
    hypotheses fail and the verdict is NOT-ASSERTED, though for this family
    both sides happen to vanish anyway."""
    if k < 1:
        raise SchemaError("moment radius must be >= 1")
    return ProblemInstance(
        GroupKind.SU2,
        [_pt("north", k, [2]), _pt("south", -k, [-2])],
        f"su2-sphere(k={k})",
    )


def su2_excluded() -> ProblemInstance:
    """Negative control: formally consistent fixed-point data (the weight
    +-1 two-point sphere) labeled as an SU(2) action.  It lands exactly in
    the excluded range (moment, positive-weight sum) = (1, 1), and the two
    sides genuinely differ: invariant count 1, reduced count 0."""
    return ProblemInstance(
        GroupKind.SU2,
        [_pt("north", 1, [1]), _pt("south", -1, [-1])],
        "su2-excluded",
    )


_PARAMETRIC = {
    "cp1-k": cp1,
    "cp2-k": cp2,
    "so3-coadjoint": so3_coadjoint,
    "su2-sphere": su2_sphere,
}

_FIXED = {
    "cp1-double": cp1_double,
    "cp1-triple": cp1_triple,
    "cp1xcp1": cp1xcp1,
    "cp2-line": cp2_line,
    "cp2-line-double": cp2_line_double,
    "so3-s2xs2": so3_s2xs2,
    "su2-excluded": su2_excluded,
}


def catalog_names() -> list[str]:
    return sorted(_PARAMETRIC) + sorted(_FIXED)


def is_parametric(name: str) -> bool:
    return name in _PARAMETRIC


def catalog(name: str, k: int | None = None) -> ProblemInstance:
    """Look up a built-in instance.  Parametrized entries (cp1-k, cp2-k,
    so3-coadjoint, su2-sphere) accept ``k``; the rest reject it here (the
    CLI turns ``--k`` into a tensor power for those)."""
    if name in _PARAMETRIC:
        return _PARAMETRIC[name]() if k is None else _PARAMETRIC[name](k)
    if name in _FIXED:
        if k is not None:
            raise SchemaError(
                f"catalog entry {name!r} is not parametrized; apply "
                "tensor_power for bundle powers"
            )
        return _FIXED[name]()
    raise UnknownCatalogError(
        f"unknown catalog entry {name!r}; available: {', '.join(catalog_names())}"
    )
