"""`enumerate` output is pinned byte for byte for each variant: the
order of the list is the sort order of the diagrams' parts (of a
partial injection's pairs), which no stored field of a diagram gives
directly, so a change to the diagram values must leave it alone. The
text goldens are in `tests/golden/`; the JSON output, about 120 KB in
all, is pinned by its SHA-256 digest. `compose` and `taut` on oriented
operands whose arrows point against the reference orientation, and
`compose` on partial injections, are pinned the same way, and so are
small `verify --taut` sweeps, which read the shared composition
tables, and the `verify --axioms` and `verify --t3` reports. The
library's `compose` is pinned per variant by one digest over every
composable pair of small hom spaces, `factorize` by one digest over
every diagram of small hom spaces, the composition tables by one digest
over every table the taut sweeps of the benchmark and of criterion 2
read, and the axiom checks by one digest over the reports of criterion
3's range."""

import hashlib
import json
from itertools import combinations, product
from pathlib import Path

import pytest

from diagcat import (
    check_triangular_axioms,
    compose,
    enumerate_diagrams,
    factorize,
    make_diagram,
    verify_t3,
)
from diagcat.algebra import composition_table
from diagcat.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "brauer": ("3", "3", "adbf3d857afe0fc83298358aa9189aa10524c3c70c241890922ac627263e4926"),
    "temperley_lieb": ("3", "3", "ed4c18ba4ca79246824bed3a67de38577129915fafab0bf2dc60653880d60b13"),
    "signed": ("3", "3", "15b41a8ee669d4d49cd190e26858e344b5a73c8d338019d40b626c7313be3620"),
    "walled": ("2+1", "2+1", "dd2a09b70c2a54135e8ee13f811e7f7c08b1cebf2db3c0796c1f358223842075"),
    "partition": ("3", "3", "3ea96f8d89503bdbb08488beefd048b029352826907df11ebf405e3d66dff9f1"),
    "degenerate": ("3", "3", "9e3f1bc190e58e66ac4b1a29806c57d7d0a95ac801a4f93462e36a31de446e6f"),
    "fisharp": ("2", "3", "bdf35ce072429e87ce9be021470462c8019bb4f938ade71aa7fe885336cc99e6"),
}

# argv, text output, SHA-256 of the output with --json
COMMANDS = {
    "signed_flipped": (
        ["compose", "--category", "signed", "2->2:(b2>b1)(t1>t2)", "2->2:(b2>b1)(t1>t2)"],
        "d^1 * -1 * (2->2:(b1>b2)(t2>t1))\n",
        "0b84f9c568b0eff8591c2c48e54f4c21de58c8a26b57ef49c2fa61c204f083bc",
    ),
    "signed_flipped_vertical": (
        ["compose", "--category", "signed", "3->1:(b3>b1)(b2 t1)", "3->3:(b2>b1)(b3 t1)(t2>t3)"],
        "d^0 * 1 * (3->1:(b1>b2)(b3 t1))\n",
        "705c0d0b126710ec2f200379115bae7db76bb628386b7439a2e9c5c9c4df82fa",
    ),
    "taut_signed_flipped": (
        ["taut", "--category", "signed", "--dim", "2", "2->2:(b2>b1)(t1>t2)"],
        "0 0 0 0\n0 -1 1 0\n0 1 -1 0\n0 0 0 0\n",
        "17e4cdbc472d9d879c980f42aac84db3a15f98a118480eda3481b2132e80c26d",
    ),
    "fisharp_cycle": (
        ["compose", "--category", "fisharp", "3->3:[b1->t2, b2->t3, b3->t1]", "3->3:[b1->t2, b2->t3, b3->t1]"],
        "d^0 * 1 * (3->3:[b1->t3, b2->t1, b3->t2])\n",
        "6fdc0730dbb0f51df1ab8bc396f8b10f1a2333fc3afe9db0c4c1d61e82334879",
    ),
    "fisharp_partial": (
        ["compose", "--category", "fisharp", "3->2:[b1->t2, b3->t1]", "2->3:[b1->t3, b2->t1]"],
        "d^0 * 1 * (2->2:[b1->t1, b2->t2])\n",
        "dca18cfd7dde3d54d34d9c2bb4740513421f67c1b7c8df416d1b5d26e11cfa8d",
    ),
}


# `verify --taut --max-size 2 --json`: the context's flags, SHA-256 of the output
TAUT_SWEEPS = {
    "partition": (
        ["--category", "partition", "--dim", "2"],
        "0c9065022806101d9a0c6725ffa93031f2104c792d9b7e42947e746da6773850",
    ),
    "signed": (
        ["--category", "signed", "--dim", "2"],
        "94900687c3ebcae77c6d3b129015fdf42bc64b17431bcd7bb6189de937906591",
    ),
    "temperley_lieb": (
        ["--category", "temperley_lieb", "--q", "2/3"],
        "37b8b2b06593bb7ddec52a15f9726eff3ecd5933868d5e64c3b8901f45b2e86c",
    ),
}

# `verify --json` with these flags, per variant: SHA-256 of the output
AXIOM_REPORTS = {
    ("brauer", "axioms"): (
        ["--axioms", "--max-size", "3"],
        "aaa0fd51983e0d8cee029ab45cf3db6a94ac12042512d40931b082a432613ecb",
    ),
    ("brauer", "t3"): (
        ["--t3", "3", "3"],
        "7f98c1f83370e57b3c07e5161eb20b1f6041ba4f7dbfe0957bcc5c2d1e094d6d",
    ),
    ("partition", "axioms"): (
        ["--axioms", "--max-size", "3"],
        "61688a07b29ca07dfabf1aa137040aad94a3744d067b14afeeb41f123f59eb51",
    ),
    ("partition", "t3"): (
        ["--t3", "3", "3"],
        "8a57f79730b1931a67f12502b9f54eedbeeda453630f9ab2b6d28aef2155ee22",
    ),
    ("temperley_lieb", "axioms"): (
        ["--axioms", "--max-size", "3"],
        "cdafd115776e30dfc68456455518d9681f2d09fd78501be855e50cf4383f1df6",
    ),
    ("temperley_lieb", "t3"): (
        ["--t3", "3", "3"],
        "a840b42f7f25c9bd8dd3569aeae87da5a0325447273f6ca1c9df6365ff9f5dbb",
    ),
}

# largest object, number of composable pairs and SHA-256 of one line
# (closed, sign, is_zero, result text) per pair; a walled object's
# colors add up to at most the size, and signed operands come in every
# orientation
COMPOSITIONS = {
    "brauer": (3, 360, "0eaca9294ef5bdfc082d3d99b865b817efb75f919c2ec4e392470cfcc6cf6735"),
    "signed": (3, 2426, "ef3329cb5c1527dc298122dce04306b7844fb16dcef83436e3c165035176aee4"),
    "walled": (3, 239, "06d9e289ba82c1261eb67c75f420a6dfad6aa5a31c8ecb5c28306bfcc921fc9d"),
    "temperley_lieb": (4, 579, "4734288cdc067fdbe3b37a80cbe410f7e40dae9ddd33e55ed659ec6fe85ef7fc"),
    "partition": (2, 564, "d2c28fa86150babffa0603d27ca885f75565f706fbe1174f32ecbcd8cc930314"),
    "degenerate": (2, 564, "f658917490de32bdcd77d486db4c4580c184bdf6b6f7bf1be3091b3106379acc"),
    "fisharp": (3, 3396, "b086f8d53239f2128edc15f94a452d909a4c833ae1f3b10e6ea8b0f4b7b878d8"),
}


# largest object, number of diagrams and SHA-256 of one line
# (middle, down text, up text) per diagram of every hom space
FACTORIZATIONS = {
    "brauer": (4, 169, "4d208db6fa5d0352a2ad9b0710d86169f76e423bd6c1d5462db8b17041d1f732"),
    "temperley_lieb": (5, 123, "f7cdf8e15b4804844294cd7253607604f54c7a045e1f48fc60a4d952d73a79c4"),
    "partition": (3, 381, "38746d7b1199f6df9669a5648b7a97bb64ee8ca894de6902e1c296d3e386d7e6"),
    "degenerate": (3, 381, "38746d7b1199f6df9669a5648b7a97bb64ee8ca894de6902e1c296d3e386d7e6"),
    "walled": (4, 203, "42f60bacadcd0fe7d7fd7760135af91ae4ee2e0243cd92db7949c5913f3d744a"),
}


# SHA-256 of one line of sorted JSON per report: verify_t3 on every
# Hom([n], [m]) with n + m <= 8, then check_triangular_axioms at every
# size up to the largest given
T3_REPORTS = "b8a1072332fc634e695c37c385b66243494ddd97bd8b64d156b9b57809016923"
AXIOM_CHECKS = (
    {"brauer": 4, "partition": 3, "temperley_lieb": 5},
    "dbc2b4349d402ea5193fb1c333b24657a4519ac35b0aeb81548a7037edfdf736",
)


# largest object per variant, number of tables and SHA-256 of one line
# (x, y, z, repr of the table) per hom triple
TABLES = (
    {"partition": 3, "brauer": 4, "signed": 3, "walled": 3, "temperley_lieb": 3},
    1317,
    "36d7e74e578fa722b152780e839eb63b62caf9fbb607b53e711f9f58c1061975",
)


def _objects(variant, size):
    # a walled object's colors add up to at most the size
    if variant == "walled":
        return [(a, s - a) for s in range(size + 1) for a in range(s + 1)]
    return range(size + 1)


def _orientations(d):
    """d with each subset of its horizontal edges pointing against the
    reference orientation."""
    vertical = [e for e in d.edges if e[0][0] != e[1][0]]
    arrows = d.arrows
    for k in range(len(arrows) + 1):
        for flipped in combinations(arrows, k):
            data = vertical + [a[::-1] if a in flipped else a for a in arrows]
            yield make_diagram("signed", d.n, d.m, data)


def _hom(variant, x, y):
    homs = enumerate_diagrams(variant, x, y)
    if variant == "signed":
        return [o for d in homs for o in _orientations(d)]
    return homs


@pytest.mark.parametrize("variant", COMPOSITIONS)
def test_compositions_pinned(variant):
    size, pairs, digest = COMPOSITIONS[variant]
    objects = _objects(variant, size)
    homs = {(x, y): _hom(variant, x, y) for x, y in product(objects, repeat=2)}
    h = hashlib.sha256()
    count = 0
    for x, y, z in product(objects, repeat=3):
        for alpha in homs[x, y]:
            for beta in homs[y, z]:
                res = compose(beta, alpha)
                line = f"{res.closed_count} {res.sign} {res.is_zero} {res.result.to_text()}\n"
                h.update(line.encode())
                count += 1
    assert count == pairs
    assert h.hexdigest() == digest


@pytest.mark.parametrize("variant", FACTORIZATIONS)
def test_factorizations_pinned(variant):
    size, count, digest = FACTORIZATIONS[variant]
    h = hashlib.sha256()
    diagrams = [
        d for x, y in product(_objects(variant, size), repeat=2) for d in enumerate_diagrams(variant, x, y)
    ]
    for d in diagrams:
        fac = factorize(d)
        h.update(f"{fac.middle} {fac.down.to_text()} {fac.up.to_text()}\n".encode())
    assert len(diagrams) == count
    assert h.hexdigest() == digest


@pytest.mark.parametrize("variant", CASES)
def test_enumerate_output_pinned(variant, capsys):
    bottom, top, json_digest = CASES[variant]
    argv = ["enumerate", "--category", variant, bottom, top]
    assert run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"enumerate_{variant}.txt").read_text()
    assert run(argv + ["--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == json_digest


@pytest.mark.parametrize("case", COMMANDS)
def test_command_output_pinned(case, capsys):
    argv, text, json_digest = COMMANDS[case]
    assert run(argv) == 0
    assert capsys.readouterr().out == text
    assert run(argv + ["--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == json_digest


@pytest.mark.parametrize("case", TAUT_SWEEPS)
def test_taut_sweep_pinned(case, capsys):
    flags, json_digest = TAUT_SWEEPS[case]
    assert run(["verify", "--taut", *flags, "--max-size", "2", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == json_digest


@pytest.mark.parametrize("case", AXIOM_REPORTS, ids="-".join)
def test_axiom_report_pinned(case, capsys):
    flags, json_digest = AXIOM_REPORTS[case]
    assert run(["verify", "--category", case[0], *flags, "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == json_digest


def _report_digest(reports):
    h = hashlib.sha256()
    for rep in reports:
        h.update((json.dumps(rep, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def test_t3_reports_pinned():
    reports = [
        verify_t3(variant, n, m)
        for variant in ("brauer", "partition", "temperley_lieb")
        for n in range(9)
        for m in range(9 - n)
    ]
    assert len(reports) == 135
    assert _report_digest(reports) == T3_REPORTS


def test_axiom_checks_pinned():
    largest, digest = AXIOM_CHECKS
    reports = [
        check_triangular_axioms(variant, size)
        for variant, top in largest.items()
        for size in range(top + 1)
    ]
    assert _report_digest(reports) == digest


def _tables_digest():
    largest, _, _ = TABLES
    h = hashlib.sha256()
    count = 0
    for variant, size in largest.items():
        for x, y, z in product(_objects(variant, size), repeat=3):
            h.update(f"{variant} {x} {y} {z} {composition_table(variant, x, y, z)!r}\n".encode())
            count += 1
    return count, h.hexdigest()


def test_composition_tables_pinned():
    assert _tables_digest() == TABLES[1:]


def test_composition_tables_do_not_call_compose(monkeypatch):
    def compose_forbidden(*args):
        raise AssertionError("a table entry went through compose")

    monkeypatch.setattr("diagcat.algebra.compose", compose_forbidden, raising=False)
    composition_table.cache_clear()
    try:
        assert _tables_digest() == TABLES[1:]
    finally:
        composition_table.cache_clear()
