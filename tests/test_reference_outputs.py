"""Every benchmark command still prints the bytes recorded in perfbench/reference.json.

The file is only read here; it is written by perfbench/record_reference.py.
"""

import hashlib
import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from fglops.cli import main

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text("utf-8"))


@pytest.mark.parametrize("command", sorted(REFERENCE))
def test_command_prints_the_recorded_bytes(command):
    want = REFERENCE[command]
    out = StringIO()
    with redirect_stdout(out):
        rc = main(command.split())
    assert rc == want["rc"] == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == want["sha256"]
