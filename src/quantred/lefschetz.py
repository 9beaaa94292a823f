"""The invariant count: per-component character contributions, their
residues in every chart, and the equivariant index as minus the sum of
residues at infinity, weighted by the group's Weyl factor.

The contribution of a fixed component F is the meromorphic function

    chi_F(t) = t**mu_F * integral_F( e^omega Td(F) /
                                     prod_j (1 - t**(-beta_j) e^{-c_j}) )

and h_F = chi_F(t) dt/t as a 1-form on the Riemann sphere.  Everything here
builds chart expansions of chi_F (times an optional Laurent multiplier) and
extracts exact residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import rational_part
from .fixedpoint import FixedComponent, GroupKind, ProblemInstance, require_valid
from .laurent import (
    Chart,
    RingSeries,
    expand_lefschetz_factor,
    laurent_polynomial_series,
    lefschetz_denominator,
    residue,
    series_constant,
)


class NonIntegerResultError(ArithmeticError):
    """An invariant count came out non-integral: inconsistent input data."""


@dataclass(frozen=True)
class WeylFactor:
    """The density from the Weyl integration formula, as a Laurent
    polynomial in t: trivial for the circle, (2 - t - 1/t)/2 for SO(3),
    (2 - t^2 - 1/t^2)/2 for SU(2) (whose positive root is twice the weight
    lattice generator)."""

    group: GroupKind

    @property
    def poly(self) -> dict[int, Fraction]:
        if self.group is GroupKind.U1:
            return {0: Fraction(1)}
        if self.group is GroupKind.SO3:
            return {0: Fraction(1), 1: Fraction(-1, 2), -1: Fraction(-1, 2)}
        return {0: Fraction(1), 2: Fraction(-1, 2), -2: Fraction(-1, 2)}

    @classmethod
    def for_group(cls, group: GroupKind) -> "WeylFactor":
        return cls(group)


# ---------------------------------------------------------------------------
# chart assembly
# ---------------------------------------------------------------------------

def _piece_low(chart: Chart, f: FixedComponent, beta: int) -> int:
    """Conservative (never too high) lowest exponent of one denominator
    factor's expansion in the chart."""
    if chart.kind == "inf":
        return 0 if beta > 0 else -beta
    if chart.kind == "zero":
        return beta if beta > 0 else 0
    if chart.is_wall_for(beta):
        return -(1 + f.ring.nilpotency_bound)
    return 0


def _poly_low(chart: Chart, poly: dict[int, Fraction]) -> int:
    if chart.kind == "zero":
        return min(poly)
    if chart.kind == "inf":
        return -max(poly)
    return 0


def component_series(
    f: FixedComponent,
    chart: Chart,
    multiplier: dict[int, Fraction] | None = None,
    order: int = 0,
) -> RingSeries:
    """Chart expansion of chi_F(t) * (multiplier Laurent polynomial), as a
    ring-valued series valid at least up to ``order``: t**mu * multiplier *
    e^omega Td(F), multiplied by each normal factor's Taylor sum at a wall
    and divided by its ``lefschetz_denominator`` everywhere else."""
    poly = {f.moment: Fraction(1)}
    if multiplier:
        poly = {}
        for r, a in multiplier.items():
            if a:
                poly[f.moment + r] = poly.get(f.moment + r, Fraction(0)) + a
    if not poly:
        return series_constant(chart, f.ring, f.ring.zero(), max(order, 0) + 1)
    poly_low = _poly_low(chart, poly)
    total_low = poly_low + sum(_piece_low(chart, f, b) for b in f.weights)
    if total_low > order:
        # the product provably starts above every exponent of interest;
        # report a window of certified zeros just below it
        return RingSeries(chart, f.ring, total_low - 1, [f.ring.zero()])
    # every factor below keeps the running window length, so the result is
    # valid from its true low exponent (>= total_low) up to at least order
    out = laurent_polynomial_series(poly, chart, f.ring, order - total_low + poly_low)
    out = out * (f.omega.exp() * f.todd)
    for b, c in zip(f.weights, f.normal_chern):
        n = len(out.coeffs) - 1
        if chart.is_wall_for(b):
            out = out * expand_lefschetz_factor(b, c, chart, n)
        else:
            out = out / lefschetz_denominator(b, c, chart, n)
    return out


def _chart_for(at, conductor: int | None) -> Chart:
    if at == "zero":
        return Chart.at_zero()
    if at in ("infinity", "inf"):
        return Chart.at_infinity()
    if isinstance(at, int):
        if conductor is not None:
            return Chart.at_root(conductor, at)
        if at == 0:
            return Chart.at_one()
        raise ValueError(f"the root zeta^{at} needs a conductor")
    raise ValueError(f"unknown pole location {at!r}")


def residue_of_h(
    f: FixedComponent,
    at,
    weyl: WeylFactor | None = None,
    twist: int = 0,
    conductor: int | None = None,
):
    """Exact residue of (weyl factor) * t**twist * h_F at a pole site.

    ``at`` is "zero", "infinity", or an integer k meaning the root of unity
    zeta_N**k (N the conductor, required unless k = 0, the point t = 1).
    The returned scalar is rational at 0, 1 and infinity, and cyclotomic at
    other roots of unity.
    """
    chart = _chart_for(at, conductor)
    poly = weyl.poly if weyl is not None else {0: Fraction(1)}
    if twist:
        poly = {r + twist: a for r, a in poly.items()}
    target = -1 if chart.kind == "root" else 0
    series = component_series(f, chart, poly, order=target)
    return residue(series).integrate()


def rr_invariant(p: ProblemInstance) -> Fraction:
    """The virtual dimension of the invariant part: minus the sum over
    components of the residue at infinity of (Weyl factor) * h_F.

    Always an integer for consistent data; a non-integer result raises.
    """
    require_valid(p)
    weyl = WeylFactor.for_group(p.group)
    return invariant_from_residues(
        [residue_of_h(f, "infinity", weyl) for f in p.components]
    )


def invariant_from_residues(infinity_residues) -> Fraction:
    """Minus the sum of the given residues at infinity (one per component):
    the invariant count.  Raises NonIntegerResultError unless integral."""
    total = Fraction(0)
    for value in infinity_residues:
        total -= rational_part(value)
    if total.denominator != 1:
        raise NonIntegerResultError(
            f"invariant count {total} is not an integer; the fixed-point "
            "data is inconsistent"
        )
    return total


def character_from_chart(p: ProblemInstance, kind: str, top: int) -> dict[int, Fraction]:
    """Coefficients of sum_F chi_F read from one chart's expansion; used to
    check that the 0-chart and the infinity-chart assemble the same finite
    Laurent polynomial.  Returns {t-exponent: coefficient} for |m| <= top."""
    if kind == "zero":
        chart = Chart.at_zero()
    elif kind in ("inf", "infinity"):
        chart = Chart.at_infinity()
    else:
        raise ValueError("chart kind must be 'zero' or 'infinity'")
    out: dict[int, Fraction] = {}
    for f in p.components:
        series = component_series(f, chart, None, order=top)
        for m in range(-top, top + 1):
            e = m if kind == "zero" else -m
            v = series.coefficient(e).integrate()
            if v:
                out[m] = out.get(m, Fraction(0)) + v
    return {m: v for m, v in out.items() if v}
