"""Golden reports: the exact ``verify --json`` output (timings removed) and
``residues --json`` output for every catalog entry at its default k and for
the instance documents in ``golden/instances``, compared byte for byte.
They are in report schema 2; ``golden/v1`` keeps the schema 1 reports that
``test_schema_migration.py`` compares them with.

After a deliberate change to these outputs, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and record the change.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quantred import catalog_names, phi_degree
from quantred.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden")
INSTANCES = GOLDEN / "instances"
COMMANDS = ("verify", "residues")


def cases():
    """(report name, command-line input arguments) for every golden case."""
    out = [(name, ["--catalog", name]) for name in catalog_names()]
    out += [(path.stem, [str(path)]) for path in sorted(INSTANCES.glob("*.json"))]
    return out


def render(command, argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([command, *argv, "--json"])
    assert code == 0, (command, argv, code)
    text = buf.getvalue()
    if command == "verify":
        doc = json.loads(text)
        del doc["timings"]  # wall clock, never reproducible
        text = json.dumps(doc, indent=2) + "\n"
    return text


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_golden_report(name, argv, command):
    expected = (GOLDEN / f"{name}.{command}.json").read_bytes()
    assert render(command, argv).encode("utf-8") == expected


def _wall_cells(doc):
    """(label, cell) for every cell of a committed report."""
    for row in doc.get("rows", doc.get("residues", [])):
        yield from row["values"].items()
    yield from doc.get("column_sums", {}).items()
    yield from doc.get("reduction", {}).get("residues_by_root", {}).items()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", [name for name, _ in cases()])
def test_golden_rows_sum_to_zero_and_cells_fit_their_field(name, command):
    # the residue theorem on the report path: every row sums to exactly 0;
    # and every irrational cell at zeta_d^j carries phi(d) coefficients
    doc = json.loads((GOLDEN / f"{name}.{command}.json").read_text(encoding="utf-8"))
    assert doc["schema"] == 2
    rows = doc.get("rows", doc.get("residues"))
    assert rows and all(row["sum"] == "0" for row in rows)
    for label, cell in _wall_cells(doc):
        if isinstance(cell, dict):
            d = int(label.removeprefix("zeta_").split("^")[0])
            assert cell["conductor"] == d, (label, cell["conductor"])
            assert len(cell["coeffs"]) == phi_degree(d), label


if __name__ == "__main__":
    for name, argv in cases():
        for command in COMMANDS:
            (GOLDEN / f"{name}.{command}.json").write_bytes(
                render(command, argv).encode("utf-8"))
