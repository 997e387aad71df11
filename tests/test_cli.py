import json
import time

import pytest

from diagcat.cli import parse_diagram, run
from diagcat.errors import DiagramSyntaxError, NotAMatching


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseDiagram:
    def test_three_to_five_example(self):
        d = parse_diagram("3->5:(b1 b3)(b2 t4)(t1 t2)(t3 t5)")
        assert d.to_text() == "3->5:(b1 b3)(b2 t4)(t1 t2)(t3 t5)"

    def test_empty(self):
        assert parse_diagram("0->0:").to_text() == "0->0:"

    def test_round_trip(self):
        from diagcat import enumerate_diagrams

        cases = [
            ("brauer", 2, 2),
            ("brauer", 3, 1),
            ("signed", 2, 2),
            ("partition", 2, 2),
            ("walled", (1, 1), (1, 1)),
            ("fisharp", 2, 2),
        ]
        for variant, bot, top in cases:
            for d in enumerate_diagrams(variant, bot, top):
                assert parse_diagram(d.to_text(), variant) == d

    def test_whitespace_tolerated(self):
        d = parse_diagram(" 2 -> 0 : ( b1 b2 ) ")
        assert d.to_text() == "2->0:(b1 b2)"

    def test_semantic_error(self):
        with pytest.raises(NotAMatching) as exc:
            parse_diagram("2->1:(b1 b2)")
        assert "t1" in str(exc.value)

    def test_syntax_error_position(self):
        with pytest.raises(DiagramSyntaxError) as exc:
            parse_diagram("2->0:(b1 x2)")
        assert exc.value.position == 9  # the offending 'x'
        with pytest.raises(DiagramSyntaxError):
            parse_diagram("2->0")
        with pytest.raises(DiagramSyntaxError):
            parse_diagram("2->0:(b1 b2) trailing")

    def test_signed_requires_orientation(self):
        with pytest.raises(DiagramSyntaxError):
            parse_diagram("2->0:(b1 b2)", "signed")
        d = parse_diagram("2->0:(b2>b1)", "signed")
        assert d.arrows == (((0, 2), (0, 1)),)

    def test_fisharp(self):
        d = parse_diagram("2->2:[b1->t2]", "fisharp")
        assert d.pairs == ((1, 2),)
        assert parse_diagram("2->2:[]", "fisharp").pairs == ()


class TestCommands:
    def test_compose_golden(self, capsys):
        code, out, _ = capture(
            capsys,
            ["compose", "--category", "brauer", "2->0:(b1 b2)", "0->2:(t1 t2)"],
        )
        assert code == 0
        assert out == "d^1 * 1 * (0->0:)\n"

    def test_compose_json(self, capsys):
        code, out, _ = capture(
            capsys,
            [
                "compose",
                "--category",
                "brauer",
                "--json",
                "2->0:(b1 b2)",
                "0->2:(t1 t2)",
            ],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["closed_count"] == 1
        assert obj["sign"] == 1
        assert obj["result"]["variant"] == "brauer"

    def test_compose_delta_evaluated(self, capsys):
        code, out, _ = capture(
            capsys,
            [
                "compose",
                "--category",
                "brauer",
                "--delta",
                "1/2",
                "2->0:(b1 b2)",
                "0->2:(t1 t2)",
            ],
        )
        assert code == 0
        assert out == "1/2 * (0->0:)\n"

    def test_compose_delta_zero(self, capsys):
        code, out, _ = capture(
            capsys,
            [
                "compose",
                "--category",
                "brauer",
                "--delta",
                "0",
                "2->0:(b1 b2)",
                "0->2:(t1 t2)",
            ],
        )
        assert code == 0
        assert out == "0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "--delta", "-1/2", "2->0:(b1 b2)", "0->2:(t1 t2)"],
            ["semisimple", "--n", "2", "--delta", "-1/2"],
            ["taut", "--category", "temperley_lieb", "--q", "-2/3", "2->0:(b1 b2)"],
            ["verify", "--taut", "--category", "temperley_lieb", "--q", "-2/3", "--max-size", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_rational_after_its_flag(self, capsys, argv):
        # "--delta -1/2" reads as "--delta=-1/2"
        k = next(i for i, a in enumerate(argv) if a.startswith("-") and "/" in a)
        joined = argv[: k - 1] + [f"{argv[k - 1]}={argv[k]}"] + argv[k + 1 :]
        code, out, err = capture(capsys, argv)
        assert (code, err) == (0, "")
        assert capture(capsys, joined) == (0, out, "")
        if argv[0] == "compose":
            assert out == "-1/2 * (0->0:)\n"

    def test_compose_signed(self, capsys):
        code, out, _ = capture(
            capsys,
            ["compose", "--category", "signed", "2->0:(b1>b2)", "0->2:(t2>t1)"],
        )
        assert code == 0
        assert out == "d^1 * -1 * (0->0:)\n"

    def test_enumerate_count_golden(self, capsys):
        code, out, _ = capture(
            capsys, ["enumerate", "--category", "temperley_lieb", "3", "3", "--count"]
        )
        assert code == 0
        assert out == "5\n"

    def test_json_reports_the_value_class(self, capsys):
        # a planar or degenerate value names its own variant, not the
        # plain family it shares a grammar with
        for category, beta, alpha, is_zero in (
            ("temperley_lieb", "2->2:(b1 b2)(t1 t2)", "2->2:(b1 b2)(t1 t2)", False),
            ("degenerate", "2->1:{b1 t1}{b2}", "1->2:{b1 t1}{t2}", False),
            ("degenerate", "2->0:{b1 b2}", "0->2:{t1 t2}", True),
        ):
            argv = ["compose", "--category", category, beta, alpha, "--json"]
            code, out, _ = capture(capsys, argv)
            obj = json.loads(out)
            assert code == 0 and obj["variant"] == category
            assert obj["is_zero"] is is_zero
            if not is_zero:
                assert obj["result"]["variant"] == category
        for category in ("temperley_lieb", "degenerate"):
            argv = ["enumerate", "--category", category, "1", "1", "--json"]
            code, out, _ = capture(capsys, argv)
            obj = json.loads(out)
            assert {d["variant"] for d in obj["diagrams"]} == {category}
        argv = ["factor", "--category", "temperley_lieb", "2->2:(b1 b2)(t1 t2)", "--json"]
        code, out, _ = capture(capsys, argv)
        obj = json.loads(out)
        assert obj["down"]["variant"] == obj["up"]["variant"] == "temperley_lieb"

    def test_enumerate_list(self, capsys):
        code, out, _ = capture(capsys, ["enumerate", "1", "1"])
        assert code == 0
        assert out == "1->1:(b1 t1)\n"

    def test_enumerate_walled(self, capsys):
        code, out, _ = capture(
            capsys, ["enumerate", "--category", "walled", "1+1", "1+1", "--count"]
        )
        assert code == 0
        assert out == "2\n"

    def test_taut(self, capsys):
        code, out, _ = capture(
            capsys, ["taut", "--category", "brauer", "--dim", "3", "0->0:"]
        )
        assert code == 0
        assert out == "1\n"

    def test_taut_json(self, capsys):
        code, out, _ = capture(
            capsys,
            ["taut", "--category", "temperley_lieb", "--q", "2", "2->0:(b1 b2)", "--json"],
        )
        obj = json.loads(out)
        assert obj["parameter"] == "-5/2"
        assert obj["entries"] == [["0", "-1/2", "1", "0"]]

    def test_mult(self, capsys):
        code, out, _ = capture(capsys, ["mult", "--delta-of", "2,1", "--weight", "3,1,1"])
        assert code == 0 and out == "1\n"
        code, out, _ = capture(capsys, ["mult", "--ptilde", "2", "--weight", ""])
        assert code == 0 and out == "1\n"

    def test_mult_table_json(self, capsys):
        code, out, _ = capture(
            capsys, ["mult", "--delta-of", "", "--weights-of-size", "2", "--json"]
        )
        obj = json.loads(out)
        assert obj["entries"] == {"2": 1, "1,1": 0}

    def test_char(self, capsys):
        code, out, _ = capture(capsys, ["char", "--lambda", "2,1", "--mu", "3"])
        assert code == 0 and out == "-1\n"
        code, out, _ = capture(capsys, ["char", "--lambda", "2,1"])
        assert code == 0 and out == "2\n"

    def test_semisimple(self, capsys):
        code, out, _ = capture(
            capsys, ["semisimple", "--category", "brauer", "--n", "2", "--delta", "0"]
        )
        assert code == 0 and out == "false\n"
        code, out, _ = capture(capsys, ["semisimple", "--discriminant", "--n", "2"])
        assert code == 0 and out == "4*d^2\n"

    def test_semisimple_refuses_an_oversize_discriminant(self, capsys):
        # brauer n=4 has 105 basis diagrams; its determinant does not finish
        argv = ["semisimple", "--category", "brauer", "--n", "4", "--delta", "1"]
        start = time.perf_counter()
        code, out, err = capture(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == "error: 105 basis diagrams exceed the budget 42\n"
        code, out, err = capture(capsys, argv + ["--json"])
        assert code == 1
        assert json.loads(err)["error"] == "dimension_budget_exceeded"

    def test_oversized_hom_space_refused_at_once(self, capsys):
        # Bell(10000) is not counted in full: the count stops past the budget
        for argv in [
            ["semisimple", "--category", "partition", "--n", "5000", "--delta", "1"],
            ["verify", "--category", "partition", "--t3", "5000", "5000"],
            ["verify", "--t3", "5000", "5000"],
        ]:
            start = time.perf_counter()
            code, out, err = capture(capsys, argv + ["--json"])
            assert time.perf_counter() - start < 1.0
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == "dimension_budget_exceeded"

    def test_semisimple_temperley_lieb_five_roots(self, capsys):
        # of the values 2cos(pi k / m), m <= 5, at which TL_5 is not
        # semisimple, only -1 and 1 are rational (0 is not: 5 is odd)
        argv = ["semisimple", "--category", "temperley_lieb", "--n", "5", "--roots", "--json"]
        code, out, _ = capture(capsys, argv)
        assert code == 0
        assert json.loads(out)["rational_roots"] == ["-1", "1"]

    def test_verify_axioms(self, capsys):
        code, out, _ = capture(
            capsys, ["verify", "--axioms", "--category", "brauer", "--max-size", "2"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert obj["reports"]["axioms"]["t3"]["pass"] is True

    def test_verify_principal(self, capsys):
        code, out, _ = capture(capsys, ["verify", "--principal", "1", "1"])
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_factor(self, capsys):
        code, out, _ = capture(
            capsys,
            ["factor", "--category", "brauer", "3->5:(b1 b3)(b2 t4)(t1 t2)(t3 t5)"],
        )
        assert code == 0
        assert out.splitlines() == [
            "middle: 1",
            "down: 3->1:(b1 b3)(b2 t1)",
            "up: 1->5:(b1 t4)(t1 t2)(t3 t5)",
        ]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "dump.json"
        code, out, _ = capture(
            capsys,
            ["enumerate", "1", "1", "--count", "--out", str(path)],
        )
        assert code == 0 and out == "1\n"
        obj = json.loads(path.read_text())
        assert obj["count"] == 1


class TestExitCodes:
    def test_domain_error(self, capsys):
        code, _, err = capture(
            capsys, ["compose", "2->1:(b1 b2)", "0->2:(t1 t2)"]
        )
        assert code == 1
        assert "error" in err

    def test_syntax_error_json(self, capsys):
        code, _, err = capture(
            capsys, ["compose", "--json", "2->0:(b1", "0->2:(t1 t2)"]
        )
        assert code == 1
        obj = json.loads(err)
        assert obj["error"] == "syntax_error"
        assert obj["position"] == 8

    def test_usage_error(self, capsys):
        code, _, _ = capture(capsys, ["compose"])
        assert code == 2
        code, _, _ = capture(capsys, ["unknown-subcommand"])
        assert code == 2

    def test_failed_parse_leaves_parser_usable(self, capsys):
        code, _, _ = capture(capsys, ["bogus"])
        assert code == 2
        code, out, _ = capture(
            capsys, ["taut", "--category", "brauer", "--dim", "3", "0->0:"]
        )
        assert code == 0
        assert out == "1\n"

    def test_unsupported_variant_names_what_is_supported(self, capsys):
        code, out, err = capture(capsys, ["verify", "--axioms", "--category", "walled"])
        assert code == 1 and out == ""
        assert err == (
            "error: the triangular-axiom check supports brauer, partition, "
            "temperley_lieb; not walled\n"
        )

    def test_negative_size(self, capsys):
        argv = ["semisimple", "--category", "brauer", "--n", "-1", "--delta", "1"]
        code, out, err = capture(capsys, argv)
        assert code == 1 and out == ""
        assert err == "error: row size -1 is negative\n"

    @pytest.mark.parametrize("sizes", [["2", "-2"], ["-1", "-1"]])
    def test_verify_principal_refuses_negative_sizes(self, capsys, sizes):
        code, out, err = capture(capsys, ["verify", "--principal", *sizes])
        assert code == 1 and out == ""
        assert err == f"error: row size {min(sizes, key=int)} is negative\n"

    def test_mult_refuses_negative_weight_size(self, capsys):
        argv = ["mult", "--delta-of", "1", "--weights-of-size", "-2"]
        code, out, err = capture(capsys, argv)
        assert code == 1 and out == ""
        assert err == "error: partition size -2 is negative\n"

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (
                ["enumerate", "--category", "walled", "1", "1"],
                {
                    "error": "syntax_error",
                    "message": "at position 0: expected an object n1+n2",
                    "position": 0,
                    "expected": "an object n1+n2",
                },
            ),
            (
                ["verify", "--taut", "--category", "signed", "--dim", "3"],
                {"error": "invalid_parameter", "message": "the oriented variant needs even dimension"},
            ),
            (
                ["verify", "--taut", "--category", "temperley_lieb", "--q", "0"],
                {"error": "invalid_parameter", "message": "q must be nonzero"},
            ),
            (
                ["taut", "--dim", "-1", "0->0:"],
                {"error": "invalid_parameter", "message": "dim must be a non-negative integer"},
            ),
            (
                ["verify", "--taut"],
                {"error": "invalid_parameter", "message": "dim must be a non-negative integer"},
            ),
            (
                ["char", "--lambda", "x"],
                {"error": "not_an_integer_partition", "message": "parts must be integers: 'x'"},
            ),
            (
                ["mult", "--delta-of", "1,2", "--weight", "3"],
                {
                    "error": "not_an_integer_partition",
                    "message": "parts must be weakly decreasing: (1, 2)",
                },
            ),
            (
                ["char", "--lambda", "2", "--mu", "2,-1"],
                {"error": "not_an_integer_partition", "message": "negative part in (2, -1)"},
            ),
            (
                ["verify", "--t3", "7", "7"],
                {
                    "error": "dimension_budget_exceeded",
                    "message": "681080400 pairs up to size 7 exceed the pair budget 200000",
                },
            ),
            (
                ["verify", "--axioms", "--max-size", "7"],
                {
                    "error": "dimension_budget_exceeded",
                    "message": "7647592 pairs up to size 6 exceed the pair budget 200000",
                },
            ),
        ],
    )
    def test_every_error_follows_json(self, capsys, argv, payload):
        code, out, err = capture(capsys, argv + ["--json"])
        assert code == 1 and out == ""
        assert json.loads(err) == payload
        code, out, err = capture(capsys, argv)
        assert code == 1 and err == f"error: {payload['message']}\n"

    def test_verify_failure_exit(self, capsys):
        # nothing-to-verify is a domain error
        code, _, _ = capture(capsys, ["verify"])
        assert code == 1


class TestDeterminism:
    def test_identical_invocations(self, capsys):
        argv = ["enumerate", "--category", "partition", "2", "2", "--json"]
        outs = set()
        for _ in range(3):
            code, out, _ = capture(capsys, argv)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1


class TestJsonSchema:
    def test_outputs_validate(self, capsys):
        import jsonschema
        from pathlib import Path

        schema = json.loads(
            (Path(__file__).resolve().parent.parent / "docs" / "schema.json").read_text()
        )
        cases = {
            "compose": ["compose", "--json", "2->0:(b1 b2)", "0->2:(t1 t2)"],
            "enumerate": ["enumerate", "--json", "2", "2"],
            "taut": ["taut", "--json", "--dim", "2", "2->2:(b1 t1)(b2 t2)"],
            "mult": ["mult", "--json", "--delta-of", "2", "--weight", "2"],
            "char": ["char", "--json", "--lambda", "2,1", "--mu", "1,1,1"],
            "semisimple": [
                "semisimple", "--json", "--n", "2", "--delta", "1/2",
            ],
            "verify": ["verify", "--json", "--t3", "2", "2"],
            "verify_taut": [
                "verify", "--taut", "--category", "signed", "--dim", "2",
                "--max-size", "2",
            ],
            "factor": ["factor", "--json", "2->2:(b1 b2)(t1 t2)"],
        }
        for name, argv in cases.items():
            code, out, _ = capture(capsys, argv)
            assert code == 0, name
            ref = name.split("_")[0]
            jsonschema.validate(
                json.loads(out), {**schema, "$ref": f"#/$defs/{ref}"}
            )
