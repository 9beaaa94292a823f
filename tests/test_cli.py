import json
from fractions import Fraction

import pytest

from quantred import (
    Cyclotomic,
    catalog,
    catalog_names,
    instance_to_dict,
    verify_quantization,
)
from quantred.cli import main, root_label
from quantred.cohomology import MAX_RING_MONOMIALS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify ------------------------------------------------------------------

def test_verify_calibration_pass(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "cp1-k", "--k", "2")
    assert code == 0
    assert "PASS" in out
    assert "character  : t^-1 + 1 + t" in out
    assert "invariant  : 1" in out
    assert "oracle     : 1" in out


def test_verify_cp1_double_lists_correction(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "cp1-double")
    assert code == 0
    assert "PASS" in out
    assert "order 2: -1/2" in out


def test_verify_not_asserted_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "su2-excluded")
    assert code == 0
    assert "NOT-ASSERTED" in out


def test_verify_fail_maps_to_exit_one(capsys, monkeypatch):
    # a genuine FAIL requires an engine bug, so fake the verdict to pin down
    # the exit-status contract
    import quantred.cli as cli_mod

    real = cli_mod.verify_quantization

    def doctored(p, degree_bound=None):
        report = real(p, degree_bound)
        report.verdict = "FAIL"
        return report

    monkeypatch.setattr(cli_mod, "verify_quantization", doctored)
    code, out, _ = run(capsys, "verify", "--catalog", "cp1-k", "--k", "2")
    assert code == 1


def test_verify_invalid_instance_exit_two(capsys, tmp_path):
    # every finding of the failed validation, carried by InvalidInstanceError
    doc = instance_to_dict(catalog("cp1-k", 2))
    doc["components"][0]["moment"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    expected = (
        "invalid instance:\n"
        "  ERROR [north]: moment value 0: the component meets the zero level, "
        "so 0 is not a regular value\n"
        "  INFO: all weights are +1/-1: the action is quasi-free and no "
        "corrections at nontrivial roots of unity arise\n"
    )
    for command in ("verify", "residues"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", expected), command


def test_verify_validates_once(capsys, monkeypatch):
    import quantred.cli as cli_mod
    import quantred.fixedpoint as fp
    import quantred.lefschetz as lef
    import quantred.reduction as red

    calls = []
    real = fp.validate

    def counted(p):
        calls.append(p)
        return real(p)

    for module in (fp, cli_mod, lef, red):  # wherever the name is bound
        if hasattr(module, "validate"):
            monkeypatch.setattr(module, "validate", counted)
    code, _, _ = run(capsys, "verify", "--catalog", "cp1-double", "--json")
    assert code == 0
    assert len(calls) == 1


def test_unreadable_input_exit_two(capsys, tmp_path):
    # a directory (or any file the OS refuses to read) is bad input, not FAIL
    code, out, err = run(capsys, "verify", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    code, _, err = run(capsys, "residues", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("input error:")


def test_malformed_json_exit_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "line" in err
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "UTF-8" in err


def test_oversized_json_exit_two(capsys, tmp_path):
    # nesting past the recursion limit and numbers past int()'s digit limit
    # make a malformed document, not a FAIL or a computation error
    doc = instance_to_dict(catalog("cp1-k", 2))
    doc["components"][0]["moment"] = 123456789
    texts = {
        "deep": "[" * 200000 + "]" * 200000,
        "long_moment": json.dumps(doc).replace("123456789", "7" * 5000),
        "long_rational": json.dumps(dict(doc, components=[
            dict(doc["components"][0], moment=1, omega={"1": "7" * 5000}),
            doc["components"][1]])),
    }
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, ""), name
        assert err.startswith("input error:"), name


def test_ring_size_limit_exit_two(capsys, tmp_path):
    def document(generators):
        ring = {"generators": generators, "top_degree": 2, "integrals": {"x": "1"}}
        doc = {"group": "U1", "components": [
            {"name": "north", "moment": 1, "weights": [1], "ring": ring},
            {"name": "south", "moment": -1, "weights": [-1], "ring": ring},
        ]}
        path = tmp_path / f"ring{len(generators)}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    code, out, _ = run(capsys, "verify", document([["x", MAX_RING_MONOMIALS]]))
    assert code == 0 and "verdict    : PASS" in out
    # 5 * 13 monomials: the limit counts the product of the orders
    above = document([["x", 5], ["y", 13]])
    for command in ("verify", "character", "residues"):
        code, out, err = run(capsys, command, above)
        assert (code, out) == (2, ""), command
        assert "65 monomials, above the limit of 64" in err, command


def test_dimension_mismatch_exit_two(capsys, tmp_path):
    # a point with two normal directions next to one with a single one: the
    # components disagree about dim M, which validation rejects up front
    doc = instance_to_dict(catalog("cp1-k", 2))
    doc["components"][0]["weights"] = [1, 1]
    doc["components"][0]["normal_chern"] = [{}, {}]
    path = tmp_path / "mixed_dims.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "residues"):
        code, _, err = run(capsys, command, str(path))
        assert code == 2, command
        assert "dim M" in err


def test_repeated_generator_name_exit_two(capsys, tmp_path):
    doc = instance_to_dict(catalog("cp1xcp1"))
    doc["components"][0]["ring"]["generators"] = [["x", 2], ["x", 2]]
    path = tmp_path / "repeated_generator.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("input error:")
    assert "not distinct" in err


def test_field_degree_limit_exit_two(capsys, tmp_path):
    # weights +-10^6 need Q(zeta_1000000); without the limit, building
    # Phi_1000000 alone runs for minutes
    doc = instance_to_dict(catalog("cp1-k", 2))
    doc["components"][0]["weights"] = [10**6]
    doc["components"][1]["weights"] = [-10**6]
    path = tmp_path / "huge_field.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "residues"):
        code, _, err = run(capsys, command, str(path))
        assert code == 2, command
        assert "phi(1000000)" in err and "limit of 512" in err


def test_expansion_window_limit_exit_two(capsys, tmp_path):
    # moments +-10^6 with weights +-1: the field is Q(i), but the expansion
    # windows grow with |moment| and would run for minutes
    doc = instance_to_dict(catalog("cp1-k", 2))
    doc["components"][0]["moment"] = 10**6
    doc["components"][1]["moment"] = -10**6
    path = tmp_path / "huge_moment.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "residues", "character"):
        code, _, err = run(capsys, command, str(path))
        assert code == 2, command
        assert "1000002" in err and "limit of 20000" in err, command


def test_integral_table_limit_exit_two(capsys, tmp_path, monkeypatch):
    # two points over Q[x]/x^64 with two distinct weights on dense classes:
    # C(65, 2) = 2080 table entries, rejected before any table is built
    from quantred import lefschetz

    def no_table(f):
        raise AssertionError("the integral table was built")

    monkeypatch.setattr(lefschetz, "_integral_table", no_table)
    ring = {"generators": [["x", 64]], "top_degree": 126, "integrals": {"x^63": "1"}}
    doc = {"group": "U1", "components": [
        {"name": name, "moment": mu, "weights": [s, 2 * s], "ring": ring, "omega": {"x": "1"},
         "todd": {"1": "1", "x": "1"}, "normal_chern": [{"x": "1"}, {"x": "1"}]}
        for name, mu, s in (("a", 1, 1), ("b", -1, -1))
    ]}
    path = tmp_path / "dense_table.json"
    path.write_text(json.dumps(doc))
    # `character` runs only the oracle, which builds no integral table
    for command in ("verify", "residues"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert "2080 entries" in err and "limit of 1000" in err, command


def test_pole_order_limit_exit_two(capsys, tmp_path, monkeypatch):
    # two points with 300 normal directions of weight +-1: a pole of order
    # 300 at t = 1, rejected before any residue is computed
    from quantred import reduction

    def no_form(*args):
        raise AssertionError("a component form was built")

    monkeypatch.setattr(reduction, "component_form", no_form)
    doc = {"group": "U1", "components": [
        {"name": name, "moment": s, "weights": [s] * 300, "ring": {"generators": [],
         "top_degree": 0, "integrals": {"1": "1"}}, "normal_chern": [{}] * 300}
        for name, s in (("p", 1), ("q", -1))
    ]}
    path = tmp_path / "deep_pole.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "residues"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert "order up to 300" in err and "limit of 128" in err, command


def test_oracle_work_limit_exit_two(capsys, tmp_path, monkeypatch):
    # CP^48 with two fixed projective spaces of dimensions 23 and 24: oracle
    # work 17,046,900, rejected before any expansion
    from quantred import oracle, reduction
    from test_fixedpoint import projective_pair

    def no_oracle(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(reduction, "character_polynomial", no_oracle)
    monkeypatch.setattr(oracle, "_monomials", no_oracle)
    path = tmp_path / "cp48_pair.json"
    path.write_text(json.dumps(instance_to_dict(projective_pair(48))))
    for command in ("verify", "character"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert "17046900 column steps" in err and "limit of 4000000" in err, command


def test_degree_bound_above_limit_exit_two(capsys):
    for command in ("verify", "character"):
        code, _, err = run(capsys, command, "--catalog", "cp1-k", "--degree-bound", "20001")
        assert code == 2, command
        assert "input error" in err and "limit of 20000" in err, command
    code, _, _ = run(capsys, "character", "--catalog", "cp1-k", "--degree-bound", "20000")
    assert code == 0


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    # residues runs no oracle, so a degree bound would be ignored, and the
    # character prints integers only, so --decimal would be: argparse
    # rejects both with a usage error before any input is read
    for command, flag in (("residues", ["--degree-bound", "999999"]),
                          ("character", ["--decimal"])):
        with pytest.raises(SystemExit) as exited:
            main([command, "--catalog", "cp1-k", *flag])
        captured = capsys.readouterr()
        assert exited.value.code == 2, command
        assert captured.out == "", command
        assert captured.err.startswith("usage: quantred "), command
        assert f"error: unrecognized arguments: {flag[0]}" in captured.err, command
    # each is still taken where it is read
    for command, flag in (("verify", ["--degree-bound", "20", "--decimal"]),
                          ("character", ["--degree-bound", "20"]),
                          ("residues", ["--decimal"])):
        code, _, _ = run(capsys, command, "--catalog", "cp1-k", *flag)
        assert code == 0, command


def test_degree_bound_checked_before_residues(capsys, monkeypatch, tmp_path):
    # the oracle's limits at --degree-bound are checked before the residue table
    import quantred.reduction as reduction_mod

    def residue_table(p):
        raise AssertionError("residue_table called for a rejected degree bound")

    monkeypatch.setattr(reduction_mod, "residue_table", residue_table)
    code, _, err = run(capsys, "verify", "--catalog", "cp2-line-double", "--k", "64",
                       "--degree-bound", "20001")
    assert code == 2
    assert "input error" in err
    # the oracle's own message for the same bound
    from quantred.fixedpoint import InvalidInstanceError, tensor_power
    from quantred.oracle import character_polynomial

    with pytest.raises(InvalidInstanceError) as rejected:
        character_polynomial(tensor_power(catalog("cp2-line-double"), 64), 20001)
    assert str(rejected.value) == "the character expansion bound 20001 is above the limit of 20000"
    assert str(rejected.value) in err
    # so is its work limit: (P^1)^5 under one normal weight on a nonzero
    # class has automatic bound 9 and work 211 * (9 + 9 + 4 + 2) = 5,064,
    # but 211 * (20000 + 9 + 4 + 2) = 4,223,165 column steps at bound 20000
    from quantred import (FixedComponent, GroupKind, ProblemInstance, RingPresentation,
                          has_errors, validate)

    ring = RingPresentation(tuple("abcde"), (2,) * 5, 10, {(1,) * 5: 1})
    x = ring.gen("a")
    p = ProblemInstance(GroupKind.U1, [FixedComponent("F", ring, 2, [1], [x], x, ring.one())])
    assert not has_errors(validate(p))  # admitted at the automatic bound
    path = tmp_path / "p1_power.json"
    path.write_text(json.dumps(instance_to_dict(p)))
    code, _, err = run(capsys, "verify", str(path), "--degree-bound", "20000")
    assert code == 2
    with pytest.raises(InvalidInstanceError) as rejected:
        character_polynomial(p, 20000)
    assert str(rejected.value) == (
        "the character oracle needs 4223165 column steps, above the limit of 4000000")
    assert str(rejected.value) in err


def test_zero_weight_character_exit_two(capsys, tmp_path):
    doc = instance_to_dict(catalog("cp1-k", 2))
    doc["components"][0]["weights"] = [0]
    path = tmp_path / "zero_weight.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "character", str(path))
    assert code == 2
    assert "zero weight" in err


def test_bad_bundle_power_exit_two(capsys):
    for argv in (("--catalog", "cp1xcp1", "--k", "0"),
                 ("--catalog", "cp1-k", "--k", "-1"),
                 ("--catalog", "cp2-k", "--k", "0")):
        code, _, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert "input error" in err


def test_internal_errors_exit_three(capsys, monkeypatch):
    # an error that is not an input check must not be reported as bad input
    import quantred.cli as cli_mod
    from quantred import SymmetryError

    for exc in (ValueError("internal bug"), SymmetryError("asymmetric character")):
        def broken(p, degree_bound=None, exc=exc):
            raise exc

        monkeypatch.setattr(cli_mod, "verify_quantization", broken)
        code, _, err = run(capsys, "verify", "--catalog", "cp1-k", "--k", "2")
        assert code == 3, exc
        assert "computation error" in err
    # any other exception is a bug: exit 3 too, never 1 (FAIL), and no traceback
    for exc in (TypeError("unsupported operand"), KeyError("walls")):
        def broken(p, degree_bound=None, exc=exc):
            raise exc

        monkeypatch.setattr(cli_mod, "verify_quantization", broken)
        code, _, err = run(capsys, "verify", "--catalog", "cp1-k", "--k", "2")
        assert code == 3, exc
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_missing_input_and_catalog(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "exactly one" in err


def test_unknown_catalog_name(capsys):
    code, _, err = run(capsys, "verify", "--catalog", "nope")
    assert code == 2
    assert err == (f"input error: unknown catalog entry 'nope'; available: "
                   f"{', '.join(catalog_names())}\n")


def test_file_input_round_trips_catalog(capsys, tmp_path):
    doc = instance_to_dict(catalog("cp2-line"))
    path = tmp_path / "cp2_line.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "PASS" in out


def test_tensor_power_flag_on_fixed_entry(capsys):
    # --k on a non-parametrized entry applies a tensor power
    code, out, _ = run(capsys, "verify", "--catalog", "cp1xcp1", "--k", "2")
    assert code == 0
    assert "PASS" in out
    assert "invariant  : 3" in out  # sections of the (2, 4)-bidegree bundle


# -- machine-readable output ----------------------------------------------------

def test_json_report_round_trips_exact_values(capsys):
    p = catalog("cp1-double")
    code, out, _ = run(capsys, "verify", "--catalog", "cp1-double", "--json")
    assert code == 0
    doc = json.loads(out)
    report = verify_quantization(p)
    assert Fraction(doc["lefschetz"]) == report.lefschetz
    red = report.reduced
    assert Fraction(doc["reduction"]["main"]) == red.main
    assert Fraction(doc["reduction"]["total"]) == red.total
    assert {int(d): Fraction(v) for d, v in doc["reduction"]["corrections"].items()} \
        == red.corrections
    assert doc["verdict"] == "PASS"
    assert doc["character"] == {"-1": 1, "1": 1}


def test_json_report_cyclotomic_diagnostics_round_trip(capsys):
    p = catalog("cp1-triple")
    code, out, _ = run(capsys, "verify", "--catalog", "cp1-triple", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 2
    residues = verify_quantization(p).reduced.residues_by_root
    entries = doc["reduction"]["residues_by_root"]
    assert list(entries) == ["zeta_3^1", "zeta_3^2"]
    for (d, j), value in residues.items():
        entry = entries[root_label(d, j)]
        assert entry["conductor"] == d and len(entry["coeffs"]) == 2  # phi(3)
        rebuilt = Cyclotomic(entry["conductor"], [Fraction(c) for c in entry["coeffs"]])
        assert rebuilt == value


def test_residues_text_names_the_field_of_each_cell(capsys):
    # an irrational cell is printed with the root its z stands for, the same
    # zeta_d as in its column label
    code, out, _ = run(capsys, "residues", "--catalog", "cp1-triple")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["component", "zero", "t=1", "zeta_3^1", "zeta_3^2",
                                "infinity", "sum"]
    assert lines[1].split()[:7] == ["north", "0", "1/3", "1/3*z", "(z", "=", "zeta_3)"]
    assert "-1/3 - 1/3*z (z = zeta_3)" in lines[1]
    assert out.count("(z = zeta_3)") == 4
    assert "root of unity" not in out
    assert lines[3].split() == ["(total)", "0", "0", "0", "0", "0", "0"]


# -- character subcommand ---------------------------------------------------------

def test_character_output(capsys):
    code, out, _ = run(capsys, "character", "--catalog", "cp1-k", "--k", "2")
    assert code == 0
    assert out.strip() == "t^-1 + 1 + t"


def test_character_trivial_bundle(capsys):
    code, out, _ = run(capsys, "character", "--catalog", "cp1-k", "--k", "0")
    assert code == 0
    assert out.strip() == "1"


def test_character_json(capsys):
    code, out, _ = run(capsys, "character", "--catalog", "cp2-line", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == {"-1": 1, "0": 2, "1": 3, "2": 4}


def test_character_stabilization_failure_exit_three(capsys, tmp_path):
    pres = {"generators": [], "top_degree": 0, "integrals": {"1": "1"}}
    doc = {"group": "U1", "components": [
        {"name": "only", "moment": 1, "weights": [1], "ring": pres,
         "omega": {}, "todd": {"1": 1}, "normal_chern": [{}]},
    ]}
    path = tmp_path / "free_point.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "character", str(path))
    assert code == 3
    assert "stabilize" in err
    # the same data passes validation, so verify reaches the oracle and
    # surfaces the failure as a computation error too
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3
    assert "stabilize" in err


# -- residues subcommand ------------------------------------------------------------

def test_residues_quasi_free_columns(capsys):
    code, out, _ = run(capsys, "residues", "--catalog", "cp1-k", "--k", "2")
    assert code == 0
    assert "zeta" not in out
    assert "t=1" in out


def test_residues_wall_column_present(capsys):
    code, out, _ = run(capsys, "residues", "--catalog", "cp1-double")
    assert code == 0
    assert "zeta_2^1" in out


def test_residues_json_rows_sum_to_zero(capsys):
    code, out, _ = run(capsys, "residues", "--catalog", "cp2-k", "--json")
    assert code == 0
    doc = json.loads(out)
    # a row sum is rational cells plus traces, so always a rational string
    assert [row["sum"] for row in doc["rows"]] == ["0"] * len(doc["rows"])
    # the infinity column sums to minus the invariant count
    lefschetz = verify_quantization(catalog("cp2-k")).lefschetz
    assert Fraction(doc["column_sums"]["infinity"]) == -lefschetz


def test_residues_text_totals_row(capsys):
    code, out, _ = run(capsys, "residues", "--catalog", "cp1-k", "--k", "2")
    assert code == 0
    assert "(total)" in out


def test_decimal_flag_marks_approximations(capsys):
    code, out, _ = run(capsys, "residues", "--catalog", "cp1-double", "--decimal")
    assert code == 0
    assert "~ 0.5" in out or "~ -0.5" in out
