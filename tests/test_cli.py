"""Command-line interface: verbs, formats, configuration, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncgl2
from ncgl2.cli import main
from ncgl2.ncalg import ExprSyntaxError, parse_expression
from ncgl2.weights import LambdaSyntaxError, parse_lambda, parse_weight


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestVerbs:
    def test_nf(self, capsys):
        code, payload = run_json(capsys, "nf", "d*a")
        assert code == 0
        assert payload == {"input": "d*a", "normalForm": "b*c + D"}

    def test_basis(self, capsys):
        code, payload = run_json(capsys, "basis", "--len", "1")
        assert code == 0
        assert payload["count"] == 7
        assert payload["words"] == ["1", "Di", "D", "a", "b", "c", "d"]

    def test_dim_O(self, capsys):
        code, payload = run_json(capsys, "dim-O", "3")
        assert code == 0
        # 1 + 6 + 30 + 142
        assert payload == {"len": 3, "dimension": 179}

    def test_nabla(self, capsys):
        code, payload = run_json(capsys, "nabla", "d^2")
        assert code == 0
        assert payload["dimNabla"] == 3
        assert payload["dimDelta"] == 4
        assert payload["dimL"] == 3
        assert payload["multiset"] == {"D": 1, "d^2": 1}
        assert payload["char"] == {"d^2": 1, "a*d": 1, "a^2": 1}

    @pytest.mark.parametrize(
        "label, stdout",
        [
            (
                "d^3",
                '{\n  "lambda": "d^3",\n  "dimDelta": 8,\n  "multiset": {\n    "d^3": 1\n  },\n'
                '  "char": {\n    "d^3": 1,\n    "a*d^2": 3,\n    "a^2*d": 3,\n    "a^3": 1\n  }\n}\n',
            ),
            (
                "d.Di.d^2.D",
                '{\n  "lambda": "d.Di.d^2.D",\n  "dimDelta": 6,\n  "multiset": {\n    "d.D": 1,\n'
                '    "d.Di.d^2.D": 1\n  },\n  "char": {\n    "d^3": 1,\n    "a*d^2": 2,\n'
                '    "a^2*d": 2,\n    "a^3": 1\n  }\n}\n',
            ),
        ],
        ids=["d^3", "d.Di.d^2.D"],
    )
    def test_delta(self, capsys, label, stdout):
        # dimDelta is read off the character; the output is pinned byte for
        # byte from when it was taken from the built comodule
        code, out = run(capsys, "delta", label)
        assert code == 0
        assert out == stdout

    def test_simple(self, capsys):
        code, payload = run_json(capsys, "simple", "d^2")
        assert code == 0
        assert payload["expression"] == "S2"
        assert payload["dim"] == 3
        assert payload["verified"] is True

    def test_simple_larger(self, capsys):
        code, payload = run_json(capsys, "simple", "d.Di.d^2")
        assert code == 0
        assert payload["expression"] == "T2 * S1"
        assert payload["dim"] == 6

    def test_multiset(self, capsys):
        code, payload = run_json(capsys, "multiset", "d^4")
        assert code == 0
        assert payload["nabla"] == {
            "D^2": 1,
            "D.d^2": 1,
            "d.D.d": 1,
            "d^2.D": 1,
            "d^4": 1,
        }

    def test_hom(self, capsys):
        code, payload = run_json(capsys, "hom", "d", "d")
        assert code == 0
        assert payload["dimHomDeltaNabla"] == 1

    def test_hom_off_diagonal(self, capsys):
        code, payload = run_json(capsys, "hom", "d^2", "d.Di.d")
        assert code == 0
        assert payload["dimHomDeltaNabla"] == 0

    def test_hom_between_nablas_points_down_the_order(self, capsys):
        # nabla(d.Di.d) maps onto the line nabla(1), and nothing maps back
        code, payload = run_json(capsys, "hom", "d.Di.d", "1")
        assert code == 0
        assert (payload["dimHomDeltaNabla"], payload["dimHomNablaNabla"]) == (0, 1)
        code, payload = run_json(capsys, "hom", "1", "d.Di.d")
        assert code == 0
        assert (payload["dimHomDeltaNabla"], payload["dimHomNablaNabla"]) == (0, 0)

    def test_hom_reads_delta_off_its_top_row(self):
        # Delta(d^10) has 1,024 basis vectors; the read-off computes one of
        # its rows, while a solve over all of them builds the whole
        # coaction and runs past the timeout; the child runs under a 400 MB
        # address-space limit, so a regression cannot take the machine's memory
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400_000_000, 400_000_000))\n"
            "from ncgl2.cli import main\n"
            "sys.exit(main(['hom', 'd^10', 'd^10']))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(ncgl2.__file__).parent.parent)},
            timeout=10,
        )
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert payload["dimHomDeltaNabla"] == payload["dimHomNablaNabla"] == 1

    def test_poset_below(self, capsys):
        code, payload = run_json(capsys, "poset-below", "d^3")
        assert code == 0
        assert payload == {"lambda": "d^3", "count": 2, "below": ["D.d", "d.D"]}

    def test_induce(self, capsys):
        code, payload = run_json(capsys, "induce", "--weight", "d", "--len", "1")
        assert code == 0
        assert payload["basis"] == ["b", "d"]
        assert payload["dim"] == payload["predictedDim"] == 2

    @pytest.mark.parametrize(
        "weight",
        ["a^1000000000", "d^1000000000", "a^-1000000000*d^1000000000"],
        ids=["a", "d", "a-inverse-d"],
    )
    def test_induce_unreachable_weight_returns_at_once(self, weight):
        # no word of length <= 2 has such a column weight, so the solve
        # returns before it builds g_t; the timeout fails a regression
        done = subprocess.run(
            [sys.executable, "-m", "ncgl2.cli", "induce", "--weight", weight, "--len", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(ncgl2.__file__).parent.parent)},
            timeout=10,
        )
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert payload["dim"] == payload["predictedDim"] == 0

    def test_nf_hundred_nested_parentheses(self, capsys):
        code, payload = run_json(capsys, "nf", "(" * 100 + "a" + ")" * 100)
        assert code == 0
        assert payload["normalForm"] == "a"

    def test_induce_predicted_only(self, capsys):
        code, payload = run_json(
            capsys, "induce", "--weight", "d", "--len", "2", "--predicted"
        )
        assert code == 0
        assert payload["predicted"] == ["b", "d"]
        assert "dim" not in payload

    def test_check(self, capsys):
        code, payload = run_json(capsys, "check", "confluence", "--len", "2")
        assert code == 0
        assert payload["pass"] is True
        names = [r["name"] for r in payload["results"]]
        assert "confluence.overlaps-joinable" in names
        assert all(r["pass"] for r in payload["results"])


class TestFormats:
    def test_tsv(self, capsys):
        code, out = run(capsys, "--format", "tsv", "nf", "d*a")
        assert code == 0
        assert "input\td*a" in out
        assert "normalForm\tb*c + D" in out

    def test_pretty_check(self, capsys):
        code, out = run(capsys, "--format", "pretty", "check", "confluence", "--len", "2")
        assert code == 0
        assert "[pass] confluence.overlaps-joinable" in out
        assert "overall = true" in out
        assert "runtime" in out

    def test_json_omits_runtime(self, capsys):
        code, payload = run_json(capsys, "check", "confluence", "--len", "2")
        assert "runtime" not in payload

    def test_check_all_matches_frozen_output(self, capsys):
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
        code, out = run(capsys, "check", "all", "--len", "4")
        assert code == 0
        assert out == (reference / "check_all_len4.stdout").read_text(encoding="utf-8")


class TestConfig:
    def test_config_sets_default_len(self, capsys, tmp_path):
        cfg = tmp_path / "ncgl2.cfg"
        cfg.write_text("# defaults\nlen = 1\n")
        code, payload = run_json(capsys, "--config", str(cfg), "basis")
        assert code == 0
        assert payload["len"] == 1
        assert payload["count"] == 7

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "ncgl2.cfg"
        cfg.write_text("len = 3\n")
        code, payload = run_json(
            capsys, "--config", str(cfg), "basis", "--len", "0"
        )
        assert payload["len"] == 0
        assert payload["count"] == 1

    def test_missing_config_errors(self, capsys, tmp_path):
        code = main(["--config", str(tmp_path / "absent.cfg"), "basis", "--len", "0"])
        assert code == 2

    def test_undecodable_config_errors(self, capsys, tmp_path):
        cfg = tmp_path / "ncgl2.cfg"
        cfg.write_bytes(b"len = 2\n\xff\xfe\n")
        code = main(["--config", str(cfg), "basis", "--len", "0"])
        assert code == 2
        assert "config file cannot be read as UTF-8 text" in capsys.readouterr().err


class TestErrors:
    def test_syntax_error_exit(self, capsys):
        code = main(["nf", "d**a"])
        err = capsys.readouterr()
        assert code == 2
        assert "column 3" in err.out + err.err

    def test_lambda_syntax_error(self, capsys):
        code = main(["nabla", "x"])
        assert code == 2

    @pytest.mark.parametrize("digit", ["²", "٣"], ids=["superscript", "arabic-indic"])
    @pytest.mark.parametrize(
        "parse,text",
        [(parse_expression, "a^{}"), (parse_lambda, "d^{}"), (parse_weight, "a^{}")],
        ids=["expression", "lambda", "weight"],
    )
    def test_non_ascii_digit_is_a_syntax_error(self, parse, text, digit):
        # exponents are ASCII digits: a superscript two or an Arabic-Indic
        # three is no number
        with pytest.raises((ExprSyntaxError, LambdaSyntaxError)) as info:
            parse(text.format(digit))
        assert info.value.column == 3

    @pytest.mark.parametrize("digit", ["²", "٣"], ids=["superscript", "arabic-indic"])
    @pytest.mark.parametrize(
        "argv",
        [["nf", "a^{}"], ["nabla", "d^{}"], ["induce", "--weight", "a^{}"]],
        ids=["nf", "nabla", "induce"],
    )
    def test_non_ascii_digit_exits_two(self, capsys, argv, digit):
        assert main([arg.format(digit) for arg in argv]) == 2
        assert "syntax error at column 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,column",
        [
            (["nabla", "d^100000000"], 1),
            (["nf", "(a+b)^24"], 6),
            (["nf", "(a+b)^30"], 6),
            (["nf", "a^100000000"], 2),
            # numbers past the 4,300 digits that int() and str() convert
            (["nf", "1" * 5_000], 1),
            (["nf", "3/" + "1" * 5_000], 3),
            (["nabla", "d^" + "1" * 5_000], 3),
            (["induce", "--weight", "a^" + "1" * 5_000], 3),
            # coefficients past 4,000 digits, at the operator that builds them
            (["nf", "(2^999)^999"], 8),
            (["nf", "*".join(["2^999"] * 15)], 78),
            (["nf", "((2^999)^999)^999"], 9),
            (["nf", f"1/{'9' * 2_999} + 1/{'9' * 2_998}"], 3_003),
            # nesting past _MAX_DEPTH, at the '(' that opens level 101
            (["nf", "(" * 300 + "a" + ")" * 300], 101),
        ],
        ids=[
            "label",
            "power-terms-24",
            "power-terms-30",
            "power-letters",
            "number-digits",
            "denominator-digits",
            "label-exponent-digits",
            "weight-exponent-digits",
            "power-coefficient",
            "product-coefficient",
            "nested-power-coefficient",
            "sum-coefficient",
            "nesting-depth",
        ],
    )
    def test_oversized_input_exits_two(self, argv, column):
        # the parsers refuse these before they allocate them; the child runs
        # under a 400 MB address-space limit and a timeout, so a regression
        # fails this test instead of taking the machine's memory
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400_000_000, 400_000_000))\n"
            "from ncgl2.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(ncgl2.__file__).parent.parent)},
            timeout=30,
        )
        assert done.returncode == 2, done.stderr
        assert f"syntax error at column {column}" in done.stderr

    def test_unknown_suite(self, capsys):
        code = main(["check", "nonsense", "--len", "1"])
        assert code == 2

    def test_internal_key_error_propagates(self, capsys, monkeypatch):
        # a KeyError from inside the engine is a bug, not a usage error
        import ncgl2.cli

        def broken(names, bounds):
            raise KeyError("internal")

        monkeypatch.setattr(ncgl2.cli, "run_check_suite", broken)
        with pytest.raises(KeyError):
            main(["check", "confluence", "--len", "1"])

    def test_internal_value_error_propagates(self, capsys, monkeypatch):
        # only syntax errors, UsageError and a missing config file exit 2
        import ncgl2.cli

        def broken(names, bounds):
            raise ValueError("internal")

        monkeypatch.setattr(ncgl2.cli, "run_check_suite", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["check", "confluence", "--len", "1"])

    def test_check_bad_config_len(self, capsys, tmp_path):
        cfg = tmp_path / "ncgl2.cfg"
        cfg.write_text("len = abc\n")
        code = main(["--config", str(cfg), "check", "confluence"])
        assert code == 2
        assert "config len is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--len", "-1"],
            ["dim-O", "-2"],
            ["check", "nab", "--len", "-1"],
            ["induce", "--weight", "d", "--len", "-1"],
        ],
    )
    def test_negative_length_exits_two(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "length must be nonnegative" in captured.err

    def test_negative_config_len_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "ncgl2.cfg"
        cfg.write_text("len = -1\n")
        assert main(["--config", str(cfg), "check", "nab"]) == 2
        assert "length must be nonnegative: -1" in capsys.readouterr().err

    def test_zero_length_is_valid(self, capsys):
        code, payload = run_json(capsys, "dim-O", "0")
        assert (code, payload) == (0, {"len": 0, "dimension": 1})
        code, payload = run_json(capsys, "check", "nab", "--len", "0")
        assert code == 0
        assert payload["pass"] is True

    def test_no_argv_shows_usage(self, capsys):
        assert main([]) == 2

    def test_failed_claim_exits_one(self, capsys, monkeypatch):
        # a word of nabla(d)'s top row that no entry of Delta(d)'s top row
        # holds leaves Hom(Delta, nabla) = 0, against the claim that it
        # is one dimensional
        import ncgl2.standard
        from ncgl2.ncalg import gen

        factor_parts = ncgl2.standard._factor_parts

        def foreign_word(word):
            parts = factor_parts(word)
            if word != (("S", 1),):
                return parts
            ((weights, entry),) = parts
            return [(weights, lambda k, l: gen("a") if (k, l) == (1, 0) else entry(k, l))]

        monkeypatch.setattr(ncgl2.standard, "_factor_parts", foreign_word)
        assert main(["nabla", "d"]) == 1
        assert "expected 1" in capsys.readouterr().err
        assert main(["nf", "d**a"]) == 2
        assert main(["check", "nonsense", "--len", "1"]) == 2

    def test_classifier_error_fails_its_results(self, capsys, monkeypatch):
        # a ClassifierError on one label fails the crosscheck and the
        # adjacency table; it does not escape from the suite
        import ncgl2.simples
        from ncgl2.simples import ClassifierError

        classify = ncgl2.simples.classify

        def broken(lam):
            if str(lam) == "d^2":
                raise ClassifierError("adjacency violated")
            return classify(lam)

        monkeypatch.setattr(ncgl2.simples, "classify", broken)
        code, out = run(capsys, "--format", "pretty", "check", "classifier", "--len", "2")
        assert code == 1
        assert out.splitlines()[:3] == [
            "[FAIL] classifier.crosscheck-len2: 11 words: block dim = canonical rank, characters agree",
            "[pass] classifier.named-examples: three reference classifications",
            "[FAIL] classifier.adjacency-table-len2: every emitted expression passes",
        ]

    def test_failing_verification_exit_code(self, capsys):
        # the simple verb reports and exits nonzero if inconsistent; on a
        # consistent label it exits zero (guards the exit-code contract)
        assert main(["simple", "d"]) == 0
        capsys.readouterr()
