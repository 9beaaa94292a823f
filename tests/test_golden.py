"""Golden reports: the exact ``verify --json`` output (timings removed) and
``residues --json`` output for every catalog entry at its default k and for
the instance documents in ``golden/instances``, compared byte for byte.

After a deliberate change to these outputs, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and record the change.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quantred import catalog_names
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


if __name__ == "__main__":
    for name, argv in cases():
        for command in COMMANDS:
            (GOLDEN / f"{name}.{command}.json").write_bytes(
                render(command, argv).encode("utf-8"))
