"""`enumerate` output is pinned byte for byte for each matching and
partition variant: the order of the list is the sort order of the
diagrams' parts, which no stored field of a diagram gives directly, so
a change to the diagram values must leave it alone. The text goldens
are in `tests/golden/`; the JSON output, about 120 KB in all, is pinned
by its SHA-256 digest."""

import hashlib
from pathlib import Path

import pytest

from diagcat.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "brauer": ("3", "3", "adbf3d857afe0fc83298358aa9189aa10524c3c70c241890922ac627263e4926"),
    "temperley_lieb": ("3", "3", "ed4c18ba4ca79246824bed3a67de38577129915fafab0bf2dc60653880d60b13"),
    "signed": ("3", "3", "15b41a8ee669d4d49cd190e26858e344b5a73c8d338019d40b626c7313be3620"),
    "walled": ("2+1", "2+1", "dd2a09b70c2a54135e8ee13f811e7f7c08b1cebf2db3c0796c1f358223842075"),
    "partition": ("3", "3", "3ea96f8d89503bdbb08488beefd048b029352826907df11ebf405e3d66dff9f1"),
    "degenerate": ("3", "3", "9e3f1bc190e58e66ac4b1a29806c57d7d0a95ac801a4f93462e36a31de446e6f"),
}


@pytest.mark.parametrize("variant", CASES)
def test_enumerate_output_pinned(variant, capsys):
    bottom, top, json_digest = CASES[variant]
    argv = ["enumerate", "--category", variant, bottom, top]
    assert run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"enumerate_{variant}.txt").read_text()
    assert run(argv + ["--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == json_digest
