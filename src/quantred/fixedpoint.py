"""Input data model: a rank-one group, the components of the circle-fixed
set with their localization data, validation, and a JSON schema.

Each fixed component carries:

* ``moment``       the integer weight of the circle action on the line
                   bundle's fiber over the component;
* ``weights``      the nonzero integer weights on the normal directions;
* ``normal_chern`` one first Chern class per normal direction;
* ``omega``        the nilpotent part of the symplectic class restricted
                   to the component;
* ``todd``         the Todd class of the component's tangent bundle.

Sign conventions are fixed once and for all by the calibration test: the
two-point projective-line instance with weights +1/-1 and moments +1/-1
must produce the character t**-1 + 1 + t.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod

from .cohomology import CohomologyClass, RingPresentation
from .exactnum import phi_degree


# The largest field degree phi(|beta|) a weight beta may bring; a wall cell
# at zeta_d, d | beta, lives in Q(zeta_d).  On one core, verify takes 0.3 s
# and 30 MB on the +-2040 sphere (phi 512), 0.6 s and 87 MB on +-2310 (480).
MAX_FIELD_DEGREE = 512

# The largest expansion window (see :func:`expansion_window`) an instance
# may need.  The oracle's series and the residue engine's infinity-chart
# windows grow with it, and so does the cost, linearly: measured on one
# core, windows of 10^4 (powers of the catalog planes and spheres) verify in
# 0.02-0.04 s and 20-24 MB, windows of 2 * 10^4 in 0.04-0.09 s and 24-33 MB.
# Catalog, golden and benchmark instances need at most 197.
MAX_EXPANSION_WINDOW = 20000

# The largest integral table a component may need, counted as C(N + d, d):
# the multi-indices k with |k| <= N that can be nonzero, N the ring's
# nilpotency bound and d the number of distinct weights on a nonzero normal
# Chern class (see :func:`quantred.lefschetz.component_form`).  Measured on
# one core over Q[x]/x^m with dense classes, component_form takes 0.2 s at
# C(33, 2) = 528 (m = 32, two weights) and at C(18, 3) = 816 (m = 16, three),
# 0.7 s at C(49, 2) = 1176 and 2.3 s at C(65, 2) = 2080; verify of two such
# points takes 2.0, 0.9, 6.8 and 22 s.  Catalog, golden and benchmark
# instances need at most 3.
MAX_INTEGRAL_TABLE = 1000

# The largest pole order at t = 1 a component may have, bounded from the
# data as len(weights) + d * N, d and N as for MAX_INTEGRAL_TABLE: the pole
# order is the sum of M_beta = r_beta + K_beta over the weights, and K_beta
# <= N is positive only on a weight with a nonzero Chern class.  A root's
# site record takes O(P**2) field operations for pole order P there,
# whatever the number of factors.  Measured on one core, verify of two
# points with n normal directions (which then stops: such data come from no
# manifold) takes 0.13 s at n = 128 for weights +-1; for weights cycling
# through 1..6, 1..12 and 1..30 it takes 0.16, 0.28 and 0.6 s at n = 96, 96
# and 90, and 0.37, 0.53 and 1.1 s at n = 128, 128 and 120.  Catalog,
# golden and benchmark instances need at most 8.
MAX_POLE_ORDER = 128

# The largest work the character oracle may need, counted as the sum over
# components of r * P * (T + |moment|): r the normal directions with a
# nonzero Chern class, P the monomial pairs x^i x^j with x^i != 1 that the
# ring keeps (prod m(m+1)/2 - prod m over its truncation orders m), and
# T + |moment| the length of the oracle's integer columns, T = 2A + 4 at the
# automatic bound A (see :func:`expansion_window`).  The oracle makes one
# pass over a column per such pair and direction.  Measured on one core,
# verify of CP^n under weights (0, .., 0, 1, .., 1) with O(2), whose two
# fixed projective spaces have dimensions about n/2, takes 0.02 s at n = 16
# (work 82,620), 0.15 s at 24 (575,874), 0.69 s at 32 (2,331,448), 1.8 s at
# 36 (4,147,605), 3.0 s at 40 (6,953,310) and 8.4 s at 48 (17,046,900),
# nearly all of it in the oracle.  Catalog, golden and benchmark instances
# need at most 732.
MAX_ORACLE_WORK = 4_000_000


class GroupKind(Enum):
    U1 = "U1"
    SU2 = "SU2"
    SO3 = "SO3"

    @property
    def is_rank_one_nonabelian(self) -> bool:
        return self is not GroupKind.U1


class SchemaError(ValueError):
    """An instance document failed to parse against the input schema."""


class InvalidInstanceError(ValueError):
    """Validation found errors that block computation.

    ``findings`` holds every finding of the validation that failed (empty
    when another input check raised the error)."""

    def __init__(self, message, findings=()):
        super().__init__(message)
        self.findings = list(findings)


class Finding(namedtuple("Finding", "level code message component", defaults=(None,))):
    # level is "ERROR" | "WARN" | "INFO"; component is None for the instance
    __slots__ = ()

    def __str__(self):
        where = f" [{self.component}]" if self.component else ""
        return f"{self.level}{where}: {self.message}"


class FixedComponent:
    """One connected component of the fixed-point set."""

    __slots__ = ("name", "ring", "moment", "weights", "normal_chern", "omega", "todd")

    def __init__(self, name, ring, moment, weights, normal_chern, omega, todd):
        weights = tuple(int(b) for b in weights)
        normal_chern = tuple(normal_chern)
        if len(weights) != len(normal_chern):
            raise ValueError(
                f"component {name!r}: {len(weights)} weights but "
                f"{len(normal_chern)} normal Chern classes"
            )
        if not isinstance(moment, int):
            raise ValueError(f"component {name!r}: moment must be an integer")
        for c in normal_chern:
            if c.presentation != ring:
                raise ValueError(f"component {name!r}: Chern class in wrong ring")
            if not c.is_nilpotent():
                raise ValueError(
                    f"component {name!r}: normal Chern classes must have zero "
                    "constant term"
                )
        if omega.presentation != ring or not omega.is_nilpotent():
            raise ValueError(
                f"component {name!r}: omega must be nilpotent in the "
                "component's ring"
            )
        if todd.presentation != ring or todd.num.get((0,) * ring.rank) != todd.den:
            raise ValueError(
                f"component {name!r}: Todd class must have constant term 1"
            )
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "moment", int(moment))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "normal_chern", normal_chern)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "todd", todd)

    def __setattr__(self, *args):
        raise AttributeError("components are immutable")

    @property
    def n_plus(self) -> int:
        """Sum of the positive normal weights."""
        return sum(b for b in self.weights if b > 0)

    @property
    def n_minus(self) -> int:
        """Sum of absolute values of the negative normal weights."""
        return sum(-b for b in self.weights if b < 0)

    @property
    def dimension(self) -> int:
        """Real dimension of the ambient manifold seen from this component."""
        return self.ring.top_degree + 2 * len(self.weights)

    def __repr__(self):
        return (
            f"FixedComponent({self.name!r}, moment={self.moment}, "
            f"weights={list(self.weights)})"
        )


class ProblemInstance:
    __slots__ = ("group", "components", "name")

    def __init__(self, group, components, name="instance"):
        components = tuple(components)
        if not components:
            raise ValueError("an instance needs at least one fixed component")
        names = [f.name for f in components]
        if len(set(names)) != len(names):
            raise ValueError("component names must be unique")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "name", str(name))

    def __setattr__(self, *args):
        raise AttributeError("instances are immutable")

    @property
    def conductor(self) -> int:
        """lcm of 4 and every nonzero |weight|: one cyclotomic field holding
        every wall root of unity, reported as ``instance.conductor``.  Neither
        validation nor the residue engine uses it: validation bounds
        phi(|beta|) per weight, and a cell at zeta_d**j lives in Q(zeta_d)."""
        return lcm(4, *(abs(b) for f in self.components for b in f.weights if b))

    def dimension(self) -> int:
        dims = {f.dimension for f in self.components}
        if len(dims) != 1:
            raise ValueError(f"components disagree about dim M: {sorted(dims)}")
        return dims.pop()

    def component(self, name: str) -> FixedComponent:
        for f in self.components:
            if f.name == name:
                return f
        raise KeyError(name)

    def __repr__(self):
        return (
            f"ProblemInstance({self.name!r}, {self.group.value}, "
            f"{len(self.components)} components)"
        )


def expansion_window(p: ProblemInstance) -> int:
    """Support bound for the character, from the data alone: beyond
    max(|moment| + sum |weights| * (1 + top_degree/2)) + 1 every coefficient
    of the expansion at t -> infinity must vanish."""
    bound = 0
    for f in p.components:
        slack = 1 + f.ring.top_degree // 2
        bound = max(bound, abs(f.moment) + slack * sum(abs(b) for b in f.weights))
    return bound + 1


def oracle_work(p: ProblemInstance, top: int) -> int:
    """The work of the character oracle (see ``MAX_ORACLE_WORK``) when it
    expands up to the exponent ``top``."""
    work = 0
    for f in p.components:
        r = sum(1 for c in f.normal_chern if c.num)
        if r:  # most components are points, with no class at all
            pairs = prod(m * (m + 1) // 2 for m in f.ring.orders) - prod(f.ring.orders)
            work += r * pairs * (top + abs(f.moment))
    return work


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(p: ProblemInstance) -> list[Finding]:
    """Structured findings about an instance.

    ERROR-level findings make the residue computations meaningless (a fixed
    component sitting on the zero level, a zero normal weight, components
    disagreeing about dim M, moments not mirrored for a nonabelian group) or
    too costly (a cyclotomic field of degree above ``MAX_FIELD_DEGREE``, an
    expansion window above ``MAX_EXPANSION_WINDOW``, an integral table above
    ``MAX_INTEGRAL_TABLE``, a pole at t = 1 of order above
    ``MAX_POLE_ORDER``, oracle work above ``MAX_ORACLE_WORK``).
    WARN findings flag instances for which the two sides are not asserted to
    agree; INFO findings are informational.
    """
    findings = []
    for f in p.components:
        if f.moment == 0:
            findings.append(Finding(
                "ERROR", "moment-zero",
                "moment value 0: the component meets the zero level, so 0 is "
                "not a regular value", f.name))
        if any(b == 0 for b in f.weights):
            findings.append(Finding(
                "ERROR", "weight-zero",
                "zero normal weight: the circle must act nontrivially on "
                "every normal direction", f.name))
        d = len({b for b, c in zip(f.weights, f.normal_chern) if c.num})
        n = f.ring.nilpotency_bound
        if d and comb(n + d, d) > MAX_INTEGRAL_TABLE:
            findings.append(Finding(
                "ERROR", "integral-table",
                f"the integral table needs up to {comb(n + d, d)} entries ({d} weights "
                f"on nonzero Chern classes, nilpotency bound {n}), above the limit "
                f"of {MAX_INTEGRAL_TABLE}", f.name))
        pole = len(f.weights) + d * n
        if pole > MAX_POLE_ORDER:
            findings.append(Finding(
                "ERROR", "pole-order",
                f"the pole at t = 1 can have order up to {pole} "
                f"({len(f.weights)} normal directions, {d} weights on nonzero Chern "
                f"classes, nilpotency bound {n}), above the limit of {MAX_POLE_ORDER}",
                f.name))
    # phi(d) <= phi(|beta|) for d | beta, and phi(n) >= sqrt(n/2), so a
    # weight above 2 * limit**2 fails unfactored
    for n in sorted({abs(b) for f in p.components for b in f.weights if b}, reverse=True):
        if n > 2 * MAX_FIELD_DEGREE**2 or phi_degree(n) > MAX_FIELD_DEGREE:
            findings.append(Finding(
                "ERROR", "field-degree",
                f"the wall roots of unity need Q(zeta_{n}), whose degree "
                f"phi({n}) is above the limit of {MAX_FIELD_DEGREE}"))
            break
    window = expansion_window(p)
    if window > MAX_EXPANSION_WINDOW:
        findings.append(Finding(
            "ERROR", "expansion-window",
            f"the expansion at t -> infinity needs a window of {window} "
            f"exponents, above the limit of {MAX_EXPANSION_WINDOW}"))
    work = oracle_work(p, 2 * window + 4)  # the oracle's window at the automatic bound
    if work > MAX_ORACLE_WORK:
        findings.append(Finding(
            "ERROR", "oracle-work",
            f"the character oracle needs {work} column steps (normal directions "
            f"on nonzero Chern classes times monomial pairs times window length), "
            f"above the limit of {MAX_ORACLE_WORK}"))
    dims = sorted({f.dimension for f in p.components})
    if len(dims) > 1:
        findings.append(Finding(
            "ERROR", "dimension-mismatch",
            f"components disagree about dim M: {dims}"))
    if all(abs(b) == 1 for f in p.components for b in f.weights):
        findings.append(Finding(
            "INFO", "quasi-free",
            "all weights are +1/-1: the action is quasi-free and no "
            "corrections at nontrivial roots of unity arise"))
    if p.group.is_rank_one_nonabelian:
        moments = sorted(f.moment for f in p.components)
        if moments != sorted(-m for m in moments):
            findings.append(Finding(
                "ERROR", "weyl-asymmetry",
                "moments are not symmetric under negation, impossible for an "
                f"action of {p.group.value}"))
    if p.group is GroupKind.SO3:
        if not any(abs(f.moment) > 1 for f in p.components):
            findings.append(Finding(
                "WARN", "so3-small-moments",
                "no component has |moment| > 1: equality of the two sides is "
                "not asserted for SO(3) in this range"))
    if p.group is GroupKind.SU2:
        if not any(abs(f.moment) > 2 for f in p.components):
            findings.append(Finding(
                "WARN", "su2-small-moments",
                "no component has |moment| > 2: equality of the two sides is "
                "not asserted for SU(2) in this range"))
        for f in p.components:
            if (f.moment, f.n_plus) == (1, 1) or (f.moment, f.n_minus) == (-1, 1):
                findings.append(Finding(
                    "WARN", "su2-excluded-component",
                    "moment +1 with positive-weight sum 1 (or the mirrored "
                    "case): equality is not asserted for SU(2)", f.name))
    return findings


def hypotheses_hold(findings) -> bool:
    """True when no WARN-level hypothesis failure is present."""
    return not any(f.level == "WARN" for f in findings)


def has_errors(findings) -> bool:
    return any(f.level == "ERROR" for f in findings)


def require_valid(p: ProblemInstance) -> list[Finding]:
    """The validation findings; raises InvalidInstanceError, carrying them,
    on any ERROR."""
    findings = validate(p)
    if has_errors(findings):
        raise InvalidInstanceError(
            "; ".join(str(f) for f in findings if f.level == "ERROR"), findings
        )
    return findings


def wall_set(f: FixedComponent) -> tuple[tuple[int, int], ...]:
    """The roots of unity zeta_d**j with zeta**beta = 1 for some normal
    weight beta, as sorted pairs (d, j): d divides a weight, 0 <= j < d and
    gcd(j, d) = 1, so each order d brings its whole Galois orbit.  Always
    contains (1, 0), the point t = 1.  Built once per weight tuple."""
    return _wall_set(f.weights)


@lru_cache(maxsize=None)
def _wall_set(weights: tuple) -> tuple[tuple[int, int], ...]:
    orders = {d for b in weights if b for d in range(1, abs(b) + 1) if b % d == 0}
    return tuple((d, j) for d in sorted(orders | {1}) for j in range(d) if gcd(j, d) == 1)


def tensor_power(p: ProblemInstance, k: int) -> ProblemInstance:
    """Replace the line bundle by its k-th tensor power: every moment and
    every omega scales by k.  Weights and Chern data are untouched."""
    if k < 1:
        raise SchemaError("tensor power must be a positive integer")
    comps = [
        FixedComponent(
            f.name, f.ring, f.moment * k, f.weights, f.normal_chern,
            f.omega * k, f.todd,
        )
        for f in p.components
    ]
    return ProblemInstance(p.group, comps, f"{p.name}^({k})")


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------
#
# {
#   "group": "U1",
#   "components": [
#     {"name": "north", "moment": 1, "weights": [1],
#      "ring": {"generators": [["x", 2]], "top_degree": 2,
#               "integrals": {"x": "1"}},
#      "omega": {"x": "3"},
#      "todd": {"1": "1", "x": "1"},
#      "normal_chern": [{"x": "1"}]}
#   ]
# }
#
# Polynomials are maps from monomial strings ("1", "x", "x^2*y") to exact
# rational literals: integers or ASCII strings like "-7/3".  No floats.

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_MONO_PART = re.compile(rf"({_NAME})(?:\^([0-9]+))?")
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


# The most characters of a key or literal a schema message echoes
_ECHO = 40


def _cut(text: str) -> str:
    # a piece of the input as a schema message shows it
    return text if len(text) <= _ECHO else text[:_ECHO] + "..."


def _parse_rational(value, where) -> tuple[int, int]:
    """(numerator, denominator) of a rational literal, the denominator
    positive and not reduced."""
    if isinstance(value, bool):
        raise SchemaError(f"{where}: booleans are not numbers")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise SchemaError(f"{where}: floats are not accepted; write an exact "
                          "rational string like \"7/3\"")
    if isinstance(value, str):
        num, _, den = value.partition("/")
        try:
            if _RATIONAL.fullmatch(value) and int(den or 1):
                return int(num), int(den or 1)
        except ValueError as exc:  # more digits than int() converts
            raise SchemaError(f"{where}: bad rational literal: {exc}") from exc
        raise SchemaError(f"{where}: bad rational literal {_cut(repr(value))}")
    raise SchemaError(f"{where}: expected a rational literal, got {_cut(repr(value))}")


def _parse_monomial(key, generators, where):
    expo = [0] * len(generators)
    if key == "1":
        return tuple(expo)
    for part in key.split("*"):
        m = _MONO_PART.fullmatch(part)
        if not m:
            raise SchemaError(f"{where}: bad monomial {_cut(repr(key))}")
        try:
            name, power = m.group(1), int(m.group(2) or 1)
        except ValueError as exc:  # more digits than int() converts
            raise SchemaError(f"{where}: bad monomial: {exc}") from exc
        try:
            i = generators.index(name)
        except ValueError:
            raise SchemaError(f"{where}: unknown generator {_cut(repr(name))}") from None
        expo[i] += power
    return tuple(expo)


def _parse_class(obj, pres, where) -> CohomologyClass:
    # integer numerators over the lcm of the literals' denominators
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a monomial->rational map")
    if not obj:  # most classes of a point
        return pres.zero()
    terms = []
    for key, value in obj.items():
        here = f"{where}.{_cut(key)}"
        terms.append((_parse_monomial(key, pres.generators, here),
                      *_parse_rational(value, here)))
    den = lcm(*(d for _, _, d in terms))
    num = {}
    for expo, n, d in terms:
        num[expo] = num.get(expo, 0) + n * (den // d)
    return CohomologyClass.from_integers(pres, num, den)


def _format_monomial(expo, pres) -> str:
    parts = [
        (g if e == 1 else f"{g}^{e}")
        for g, e in zip(pres.generators, expo) if e
    ]
    return "*".join(parts) if parts else "1"


def _class_to_dict(cls: CohomologyClass) -> dict:
    return {
        _format_monomial(e, cls.presentation): str(v)
        for e, v in sorted(cls.coeffs.items())
    }


def _shared(seen: dict, key, parse):
    # what was parsed from an earlier part of the document equal to key, else
    # parse(), remembered: looked up by repr, which tells apart the 1, 1.0
    # and True that == equates, and confirmed by ==
    try:
        text = repr(key)
    except (RecursionError, ValueError):  # too deep, or an int too long to print
        return parse()
    earlier = seen.get(text)
    if earlier is not None and earlier[0] == key:
        return earlier[1]
    obj = parse()
    seen[text] = key, obj
    return obj


def _ring_fields(obj):
    # what _parse_ring reads of a ring document
    if not isinstance(obj, dict):
        return None
    return obj.get("generators", []), obj.get("top_degree", 0), obj.get("integrals")


def _parse_ring(obj, where) -> RingPresentation:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a ring description")
    gens = obj.get("generators", [])
    if not isinstance(gens, list):
        raise SchemaError(f"{where}.generators: expected a list")
    names, orders = [], []
    for g in gens:
        if not (isinstance(g, (list, tuple)) and len(g) == 2):
            raise SchemaError(f"{where}.generators: entries are [name, order]")
        if not isinstance(g[1], int) or isinstance(g[1], bool):
            raise SchemaError(
                f"{where}.generators: order {_cut(repr(g[1]))} is not an integer")
        if not (isinstance(g[0], str) and re.fullmatch(_NAME, g[0])):
            raise SchemaError(
                f"{where}.generators: name {_cut(repr(g[0]))} is not an identifier")
        names.append(g[0])
        orders.append(g[1])
    top = obj.get("top_degree", 0)
    if not isinstance(top, int) or isinstance(top, bool):
        raise SchemaError(f"{where}.top_degree: expected an integer")
    raw = obj.get("integrals")
    if raw is None:
        # a point integrates the empty monomial to 1; anything bigger must
        # spell its pushforward out
        raw = {"1": 1} if not names and top == 0 else {}
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}.integrals: expected a map")
    try:
        # an error of the ring's shape is reported before a bad key or literal
        RingPresentation.check_shape(names, orders, top)
        table = {}
        for key, value in raw.items():
            here = f"{where}.integrals.{_cut(key)}"
            expo = _parse_monomial(key, names, here)
            n, d = _parse_rational(value, here)
            table[expo] = n if d == 1 else Fraction(n, d)
        return RingPresentation(names, orders, top, table)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def instance_from_dict(doc: dict, name="instance") -> ProblemInstance:
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    try:
        group = GroupKind(doc.get("group", "U1"))
    except ValueError:
        raise SchemaError(
            f"group: expected one of U1/SU2/SO3, got {_cut(repr(doc.get('group')))}"
        ) from None
    comps_doc = doc.get("components")
    if not isinstance(comps_doc, list) or not comps_doc:
        raise SchemaError("components: expected a nonempty list")
    rings = {}  # repr of ring fields -> (fields, (ring, its parsed classes))
    comps = []
    for i, cd in enumerate(comps_doc):
        where = f"components[{i}]"
        if not isinstance(cd, dict):
            raise SchemaError(f"{where}: expected an object")
        cname = cd.get("name", f"F{i}")
        if not isinstance(cname, str):
            raise SchemaError(f"{where}.name: expected a string")
        ring_doc = cd.get("ring", {})
        ring, classes = _shared(rings, _ring_fields(ring_doc),
                                lambda: (_parse_ring(ring_doc, f"{where}.ring"), {}))
        moment = cd.get("moment")
        if not isinstance(moment, int) or isinstance(moment, bool):
            raise SchemaError(f"{where}.moment: expected an integer (no floats)")
        weights = cd.get("weights")
        if not isinstance(weights, list) or not all(
            isinstance(b, int) and not isinstance(b, bool) for b in weights
        ):
            raise SchemaError(f"{where}.weights: expected a list of integers")
        chern_doc = cd.get("normal_chern")
        if chern_doc is None:
            chern_doc = [{} for _ in weights]
        if not isinstance(chern_doc, list):
            raise SchemaError(f"{where}.normal_chern: expected a list")

        def parse_class(obj, where):
            return _shared(classes, obj, lambda: _parse_class(obj, ring, where))

        chern = [parse_class(c, f"{where}.normal_chern[{j}]") for j, c in enumerate(chern_doc)]
        omega = parse_class(cd.get("omega", {}), f"{where}.omega")
        todd = parse_class(cd.get("todd", {"1": 1}), f"{where}.todd")
        try:
            comps.append(FixedComponent(cname, ring, moment, weights, chern, omega, todd))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    try:
        return ProblemInstance(group, comps, name)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def instance_to_dict(p: ProblemInstance) -> dict:
    comps = []
    for f in p.components:
        ring = {
            "generators": [[g, m] for g, m in zip(f.ring.generators, f.ring.orders)],
            "top_degree": f.ring.top_degree,
            "integrals": {
                _format_monomial(e, f.ring): str(v)
                for e, v in sorted(f.ring.integrals.items())
            },
        }
        comps.append({
            "name": f.name,
            "moment": f.moment,
            "weights": list(f.weights),
            "ring": ring,
            "omega": _class_to_dict(f.omega),
            "todd": _class_to_dict(f.todd),
            "normal_chern": [_class_to_dict(c) for c in f.normal_chern],
        })
    return {"group": p.group.value, "components": comps}


def load_instance(path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except (ValueError, RecursionError) as exc:  # too many digits, too deep
            raise SchemaError(f"{path}: unreadable JSON: {exc}") from exc
    import os

    name = os.path.splitext(os.path.basename(str(path)))[0]
    return instance_from_dict(doc, name=name)
