"""Command line front end.

Three subcommands over the same inputs (a JSON instance document or a
catalog entry):

* ``verify``     compute the invariant count, the reduced count with its
                 corrections, and the oracle character count, and compare;
* ``character``  print the character as an exact Laurent polynomial;
* ``residues``   print the per-component, per-pole residue table.

Exit status: 0 on PASS or NOT-ASSERTED, 1 on FAIL, 2 on input errors,
3 on computation errors and on internal errors (any other exception).
All numbers are printed exactly; ``--decimal`` (``verify``, ``residues``)
adds clearly marked approximations.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .catalog import UnknownCatalogError, catalog, catalog_names, is_parametric
from .exactnum import Cyclotomic, polynomial_text
from .fixedpoint import (
    InvalidInstanceError,
    SchemaError,
    load_instance,
    require_valid,
    tensor_power,
)
from .oracle import character_polynomial
from .reduction import Report, residue_table, verify_quantization

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_COMPUTE = 3
SCHEMA = 2  # report layout of --json: a wall cell at zeta_d^j lives in Q(zeta_d)


def scalar_str(x, decimal=False) -> str:
    if isinstance(x, Cyclotomic):
        if x.is_rational():
            return scalar_str(x.rational_part(), decimal)
        body = f"{x} (z = zeta_{x.conductor})"
        if decimal:
            z = complex(x)
            body += f" ~ {z.real:.6g}{z.imag:+.6g}i"
        return body
    x = Fraction(x)
    body = str(x)
    if decimal and x.denominator != 1:
        body += f" ~ {float(x):.6g}"
    return body


def scalar_json(x):
    if isinstance(x, Cyclotomic) and not x.is_rational():
        coeffs = x.coefficient_strings()
        return {
            "conductor": x.conductor,
            "coeffs": coeffs,
            "str": polynomial_text(coeffs),
        }
    if isinstance(x, Cyclotomic):
        x = x.rational_part()
    return str(x)  # an int or a Fraction


def _add_flags(sub, degree_bound: bool, decimal: bool):
    sub.add_argument("input", nargs="?", help="path to a JSON instance document")
    sub.add_argument(
        "--catalog",
        metavar="NAME",
        help="built-in instance (%s)" % ", ".join(catalog_names()),
    )
    sub.add_argument(
        "--k",
        type=int,
        default=None,
        metavar="INT",
        help="bundle power: selects k for parametrized catalog entries, "
        "applies a tensor power to fixed entries and file inputs",
    )
    if degree_bound:
        sub.add_argument(
            "--degree-bound",
            type=int,
            default=None,
            metavar="INT",
            help="raise the character expansion bound (never lowers the "
            "automatic bound)",
        )
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    if decimal:
        sub.add_argument(
            "--decimal",
            action="store_true",
            help="append decimal approximations (clearly marked) to exact values",
        )


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only the command line needs it; library users skip its import

    parser = argparse.ArgumentParser(
        prog="quantred",
        description="Exact residue check that the invariant section count "
        "of circle-equivariant fixed-point data equals the reduced-space "
        "count with its orbifold corrections.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags it reads: the character is an
    # integer polynomial, and the residue table runs no oracle
    for name, doc, degree_bound, decimal in (
        ("verify", "compute both sides and the oracle, compare", True, True),
        ("character", "print the character Laurent polynomial", True, False),
        ("residues", "print the per-component per-pole residue table", False, True),
    ):
        _add_flags(subs.add_parser(name, help=doc), degree_bound, decimal)
    return parser


def resolve_instance(args):
    if bool(args.input) == bool(args.catalog):
        raise SchemaError("provide exactly one of an input path or --catalog NAME")
    if args.catalog:
        if is_parametric(args.catalog):
            p = catalog(args.catalog, args.k)
            return p
        p = catalog(args.catalog)
    else:
        try:
            p = load_instance(args.input)
        except OSError as exc:  # missing, a directory, unreadable, ...
            raise SchemaError(str(exc)) from exc
    if args.k is not None:
        p = tensor_power(p, args.k)
    return p


def _print_findings(findings, out):
    for f in findings:
        print(f"  {f}", file=out)


def _findings_json(findings):
    return [
        {"level": f.level, "code": f.code, "message": f.message,
         "component": f.component}
        for f in findings
    ]


def root_label(d: int, j: int) -> str:
    """The column label of zeta_d**j: ``t=1`` for d = 1, else ``zeta_d^j``."""
    return "t=1" if d == 1 else f"zeta_{d}^{j}"


def residue_columns(rows):
    """The printed layout of a residue table: the column labels (zero, the
    wall roots of all rows sorted by (d, j), t = 1 first, then infinity) and
    each row's cells under them.  A root off a row's walls is no pole of its
    form, so its cell there is a rational 0."""
    roots = sorted(set().union(*(row.walls for row in rows)))
    off_wall = Fraction(0)
    labels = ["zero", *(root_label(*root) for root in roots), "infinity"]
    cells = [[row.zero, *(row.walls.get(root, off_wall) for root in roots), row.infinity]
             for row in rows]
    return labels, cells


def _rows_json(rows, labels, cells, cell=scalar_json) -> list:
    return [{"component": row.component,
             "values": {label: cell(v) for label, v in zip(labels, values)},
             "sum": cell(row.total)} for row, values in zip(rows, cells)]


def report_to_json(report: Report) -> dict:
    # each Cyclotomic of the report is rendered once, by id: one that appears
    # twice (a row cell and its residues_by_root entry, a rational cell and
    # its Galois images) is one object in the document too
    rendered = {}

    def cell(x):
        if not isinstance(x, Cyclotomic):
            return str(x)  # an int or a Fraction
        out = rendered.get(id(x))
        if out is None:
            out = rendered[id(x)] = scalar_json(x)
        return out

    reduced = report.reduced
    return {
        "schema": SCHEMA,
        "instance": {
            "name": report.instance_name,
            "group": report.group,
            "components": report.n_components,
            "conductor": report.conductor,
            "dimension": report.dimension,
        },
        "findings": _findings_json(report.findings),
        "hypotheses_ok": report.hypotheses_ok,
        "lefschetz": cell(report.lefschetz),
        "reduction": {
            "main": cell(reduced.main),
            "corrections": {str(d): cell(v) for d, v in reduced.corrections.items()},
            "residues_by_root": {
                root_label(*root): cell(v) for root, v in reduced.residues_by_root.items()
            },
            "total": cell(reduced.total),
        },
        "oracle": cell(report.oracle),
        "character": {str(m): c for m, c in sorted(report.character.coefficients.items())},
        "residues": _rows_json(report.residue_table, *residue_columns(report.residue_table), cell),
        "verdict": report.verdict,
        "timings": report.timings,
    }


def cmd_verify(args) -> int:
    report = verify_quantization(resolve_instance(args), args.degree_bound)
    if args.json:
        print(json.dumps(report_to_json(report), indent=2))
    else:
        dec = args.decimal
        print(f"instance   : {report.instance_name}  "
              f"(group {report.group}, {report.n_components} components, "
              f"conductor {report.conductor}, dim M = {report.dimension})")
        if report.findings:
            print("validation :")
            _print_findings(report.findings, sys.stdout)
        else:
            print("validation : clean")
        print(f"character  : {report.character}")
        print(f"invariant  : {scalar_str(report.lefschetz, dec)}")
        corr = ", ".join(
            f"order {d}: {scalar_str(v, dec)}"
            for d, v in report.reduced.corrections.items()
        ) or "none"
        print(f"reduced    : main {scalar_str(report.reduced.main, dec)}, "
              f"corrections {corr}, total {scalar_str(report.reduced.total, dec)}")
        print(f"oracle     : {report.oracle}")
        print(f"verdict    : {report.verdict}")
    return EXIT_OK if report.verdict in ("PASS", "NOT-ASSERTED") else EXIT_FAIL


def cmd_character(args) -> int:
    p = resolve_instance(args)
    character = character_polynomial(p, args.degree_bound)
    if args.json:
        print(json.dumps({
            "instance": p.name,
            "coefficients": {str(m): c for m, c in sorted(character.coefficients.items())},
            "str": str(character),
        }, indent=2))
    else:
        print(character)
    return EXIT_OK


def _sum_nonzero(values):
    # a zero cell adds nothing: a rational 0 would only be promoted into
    # the column's Q(zeta_d)
    total = Fraction(0)
    for value in values:
        if value:
            total = total + value
    return total


def cmd_residues(args) -> int:
    p = resolve_instance(args)
    require_valid(p)
    rows = residue_table(p)
    labels, cells = residue_columns(rows)
    col_sums = [_sum_nonzero(column) for column in zip(*cells)]
    grand = _sum_nonzero(row.total for row in rows)
    if args.json:
        print(json.dumps({
            "schema": SCHEMA,
            "instance": p.name,
            "rows": _rows_json(rows, labels, cells),
            "column_sums": {label: scalar_json(v) for label, v in zip(labels, col_sums)},
        }, indent=2))
        return EXIT_OK
    headers = ["component", *labels, "sum"]
    body = [[row.component, *values, row.total] for row, values in zip(rows, cells)]
    body.append(["(total)", *col_sums, grand])
    body = [[name, *(scalar_str(v, args.decimal) for v in rest)] for name, *rest in body]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body))
        for i in range(len(headers))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in body:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "character":
            return cmd_character(args)
        return cmd_residues(args)
    except InvalidInstanceError as exc:
        if exc.findings:
            print("invalid instance:", file=sys.stderr)
            _print_findings(exc.findings, sys.stderr)
        else:
            print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SchemaError, UnknownCatalogError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError) as exc:
        # every input check raises one of the types above, so anything else
        # (non-stabilizing expansions, non-integer counts, internal bugs) is a
        # failure of the computation
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except Exception as exc:
        # a bug, not a broken identity: exit 1 is kept for FAIL
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
