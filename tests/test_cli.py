import json

import pytest

from bwmlink.bratteli import young_level
from bwmlink.cli import (DEPTH_CAP, M_CAP, N_CAP, SIGNS_CAP, _value_json,
                         build_parser, main)
from bwmlink.laurent import LaurentPoly1, Quotient
from bwmlink.skein import SkeinEngine


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariant:
    def test_trefoil_text(self, capsys):
        code, out, err = run(capsys, "invariant", "--braid", "B2: 1^3")
        assert code == 0
        assert "strands: 2" in out
        assert "exponent_sum: 3" in out
        assert "components: 1" in out
        assert "crossings: 3" in out
        assert ("F(r,s) = r^-5*s^-1 - r^-5*s - r^-4*s^-2 + r^-4 - r^-4*s^2"
                " - r^-3*s^-1 + r^-3*s + r^-2*s^-2 + r^-2*s^2") in out
        assert "elapsed" in err and "elapsed" not in out

    def test_value_json_has_no_quotient_form(self):
        # specialized engine values are Laurent polynomials (see the skein
        # module docstring), so a quotient is a caller's error
        with pytest.raises(TypeError):
            _value_json(Quotient(LaurentPoly1.term(1), LaurentPoly1.term(2, 1)))

    def test_unknot_specialized(self, capsys):
        code, out, _ = run(capsys, "invariant", "--braid", "B2: 1",
                           "--spec", "osp:1")
        assert code == 0
        assert "value[osp:1](q) = 1" in out

    def test_identity_so(self, capsys):
        code, out, _ = run(capsys, "invariant", "--braid", "B2:",
                           "--spec", "so:1")
        assert code == 0
        assert "value[so:1](q) = -q^-1 + 1 - q" in out

    def test_json_deterministic(self, capsys):
        code, out1, _ = run(capsys, "invariant", "--braid", "B3: 1 -2",
                            "--format", "json")
        code2, out2, _ = run(capsys, "invariant", "--braid", "B3: 1 -2",
                             "--format", "json")
        assert code == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["schema"] == 1
        assert doc["value"]["variables"] == ["r", "s"]

    @pytest.mark.parametrize("braid", ["B3: 1 2 1", "B4: 1 -2 3 -2",
                                       "B3: 2 2 1 -2 1", "B4: 2 3 2 -1"])
    def test_osp_and_so_values_agree(self, capsys, braid):
        # the paper's corollary, as printed: equal values for osp:n, so:n
        for n in (1, 2, 3):
            values = []
            for spec in (f"osp:{n}", f"so:{n}"):
                code, out, _ = run(capsys, "invariant", "--braid", braid,
                                   "--spec", spec, "--format", "json")
                assert code == 0
                values.append(json.loads(out)["value"])
            assert values[0] == values[1], (braid, n)

    def test_parse_error_exits_2(self, capsys):
        code, out, err = run(capsys, "invariant", "--braid", "B2: 7")
        assert code == 2
        assert "error" in err

    def test_oversized_power_exits_2(self, capsys):
        # rejected before expansion, so no 10^9-letter word is built
        code, out, err = run(capsys, "invariant", "--braid", "B2: 1^999999999")
        assert code == 2 and out == ""
        assert "error" in err and "letters" in err

    @pytest.mark.parametrize("braid", ["B2: 1^" + "9" * 5000,
                                       "B" + "9" * 5000 + ": 1"])
    def test_huge_number_exits_2(self, capsys, braid):
        code, out, err = run(capsys, "invariant", "--braid", braid)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "digits" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_deep_word_exits_2(self, capsys):
        # under the letter cap, but the kink chain nests past the limit
        code, out, err = run(capsys, "invariant", "--braid", "B2: 1^700")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "recursion limit" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_strand_cap_exits_2(self, capsys):
        # rejected before x^199 for the free loops is built
        code, out, err = run(capsys, "invariant", "--braid", "B200:")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "strand count" in err
        assert err.count("\n") == 1

    def test_parser_reused_after_usage_error(self, capsys):
        import bwmlink.cli as cli

        argv = ("invariant", "--braid", "B3: 1 -2 1", "--spec", "so:1")
        assert run(capsys, "invariant", "--format", "json")[0] == 2
        _, after_error, _ = run(capsys, *argv)
        cli.build_parser.cache_clear()
        _, fresh, _ = run(capsys, *argv)
        assert after_error == fresh and "value[so:1](q)" in fresh

    def test_spec_evaluated_in_q(self, capsys, monkeypatch):
        # --spec builds the engine in Z[q^+-1]: its memo holds no
        # two-variable numerator
        import bwmlink.cli as cli
        built = []

        class Recording(SkeinEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "SkeinEngine", Recording)
        code, out, _ = run(capsys, "invariant", "--braid", "B3: 1 2 1 2",
                           "--spec", "so:2")
        assert code == 0 and "value[so:2](q) = " in out
        (engine,) = built
        assert engine.cache_size > 0
        assert all(type(num) is LaurentPoly1
                   for num, _ in engine._cache.values())

    def test_bad_spec_exits_2(self, capsys):
        code, _, _ = run(capsys, "invariant", "--braid", "B2: 1",
                         "--spec", "sp:1")
        assert code == 2

    def test_spec_at_rank_cap(self, capsys):
        code, out, _ = run(capsys, "invariant", "--braid", "B4: 1 1 2 2 3 3",
                           "--spec", f"osp:{N_CAP}")
        assert code == 0 and f"value[osp:{N_CAP}](q) = " in out

    @pytest.mark.parametrize("argv", [
        ["invariant", "--braid", "B2:", "--spec", f"osp:{N_CAP + 1}"],
        ["invariant", "--braid", "B2:", "--spec", "so:1000000000000"],
        ["bratteli", "--spec", f"osp:{N_CAP + 1}"],
        ["bratteli", "--spec", "so:1000000000000"],
    ], ids=" ".join)
    def test_spec_over_rank_cap_exits_2(self, capsys, argv):
        # rejected by the parser, before any invariant or graph is computed
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "argument --spec: specialization rank" in err
        assert f"over cap {N_CAP}" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "value.txt"
        code, out, _ = run(capsys, "invariant", "--braid", "B2: 1",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert "F(r,s) = 1" in target.read_text()


class TestDispatch:
    """A named command is parsed by its own parser; help, a missing and an
    unknown command go through the top-level parser.  Exit codes and help
    text are those of one top-level parse."""

    @pytest.mark.parametrize("argv", [
        [], ["nope"], ["invariant"], ["invariant", "--braid", "B2: 1", "--bogus"],
        ["verify"], ["torus", "--m", "x"],
    ], ids=repr)
    def test_usage_errors_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: bwmlink")

    @pytest.mark.parametrize("argv", [[], ["nope"], ["--bogus"]], ids=repr)
    def test_top_level_errors(self, capsys, argv):
        _, _, err = run(capsys, *argv)
        assert err.startswith("usage: bwmlink [-h] ")
        assert err.splitlines()[-1].startswith("bwmlink: error: ")

    def test_unrecognized_argument_names_the_command(self, capsys):
        # the one message that differs from a top-level parse, which
        # printed the top-level usage and "bwmlink: error: ..." here
        code, _, err = run(capsys, "invariant", "--braid", "B2: 1", "--bogus")
        assert code == 2
        assert err.startswith("usage: bwmlink invariant [-h] --braid BRAID")
        assert err.splitlines()[-1] == (
            "bwmlink invariant: error: unrecognized arguments: --bogus")

    def test_missing_argument_names_the_command(self, capsys):
        _, _, err = run(capsys, "invariant")
        assert err.splitlines()[-1] == ("bwmlink invariant: error: the "
                                        "following arguments are required: "
                                        "--braid")

    @pytest.mark.parametrize("argv, command", [
        (["--help"], None), (["-h"], None), (["invariant", "--help"], "invariant"),
        (["torus", "-h"], "torus"), (["bratteli", "--help"], "bratteli"),
        (["verify", "--help"], "verify"),
    ], ids=repr)
    def test_help(self, capsys, argv, command):
        parser, commands = build_parser()
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (commands[command] if command else parser).format_help()

    def test_named_command_skips_top_level(self, capsys, monkeypatch):
        parser, _ = build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("top-level parse of a named command")

        monkeypatch.setattr(parser, "parse_args", refuse)
        code, out, _ = run(capsys, "invariant", "--braid", "B2: 1")
        assert code == 0 and "F(r,s) = 1" in out

    def test_m_range_join(self, capsys):
        # "--m -3..3" is joined to "--m=-3..3" before dispatch
        code, out, _ = run(capsys, "verify", "oracle", "--m", "-3..3")
        assert code == 0
        assert out.count("PASS oracle m=") == 7
        assert out.endswith("total: 7 failures: 0\n")


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["invariant", "--braid", "B2: 1"],
        ["verify", "omega", "--max-f", "2"],
        ["torus", "--m", "5"],
        ["verify", "oracle", "--m", "1..3"],
    ], ids=" ".join)
    @pytest.mark.parametrize("missing_parent", [False, True])
    def test_exits_2(self, capsys, monkeypatch, tmp_path, argv, missing_parent):
        # checked before any work: an evaluation would raise here
        def no_work(self, word):
            raise AssertionError("evaluated before --out was checked")

        monkeypatch.setattr(SkeinEngine, "kauffman_polynomial", no_work)
        target = tmp_path / "missing" / "x" if missing_parent else tmp_path
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out: ")
        assert err.count("\n") == 1


class TestTorus:
    def test_match(self, capsys):
        code, out, _ = run(capsys, "torus", "--m", "2")
        assert code == 0
        assert "match: yes" in out
        assert "symmetry((r,s) -> (-r,-s)): yes" in out

    def test_unknot(self, capsys):
        code, out, _ = run(capsys, "torus", "--m", "1")
        assert code == 0
        assert "closed_form = 1" in out

    def test_negative(self, capsys):
        code, out, _ = run(capsys, "torus", "--m", "-3")
        assert code == 0
        assert "match: yes" in out


class TestBratteli:
    def test_generic_text(self, capsys):
        code, out, _ = run(capsys, "bratteli", "--depth", "2")
        assert code == 0
        assert "level 2: []:1 [1,1]:1 [2]:1" in out

    def test_truncated_level_counts(self, capsys):
        # truncated path counts for n=1 recomputed by hand:
        # level 3 has [1]:3 [1,1,1]:1 [2,1]:2 [3]:1, so level 4 gets
        # []:3, [1,1]:3+1+2, [2]:3+2+1, [3,1]:2+1, [4]:1
        code, out, _ = run(capsys, "bratteli", "--spec", "osp:1",
                           "--depth", "4")
        assert code == 0
        assert "level 3: [1]:3 [1,1,1]:1 [2,1]:2 [3]:1" in out
        assert "level 4: []:3 [1,1]:6 [2]:6 [3,1]:3 [4]:1" in out

    def test_dot_byte_identical_across_specs(self, capsys):
        code, out_osp, _ = run(capsys, "bratteli", "--spec", "osp:1",
                               "--depth", "6", "--format", "dot")
        code2, out_so, _ = run(capsys, "bratteli", "--spec", "so:1",
                               "--depth", "6", "--format", "dot")
        assert code == code2 == 0
        assert out_osp.replace("osp:1", "X") == out_so.replace("so:1", "X")

    def test_depth_cap(self, capsys):
        code, _, err = run(capsys, "bratteli", "--depth", "9")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("spec", [[], ["--spec", "osp:1"]])
    def test_negative_depth_exits_2(self, capsys, spec):
        code, out, err = run(capsys, "bratteli", "--depth", "-1", *spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bratteli", "--depth", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "generic" and doc["depth"] == 3


class TestVerify:
    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--m", "-3..4")
        assert code == 0
        assert "FAIL" not in out
        assert "failures: 0" in out

    def test_parity(self, capsys):
        # 15 torus cases from the engine, then the 30 corpus words
        code, out, _ = run(capsys, "verify", "parity")
        assert code == 0
        assert out.count("PASS") == 45
        assert out.endswith("total: 45 failures: 0\n")

    def test_parity_catches_an_engine_fault(self, capsys, monkeypatch):
        # the mutant of TestNumeratorParity: each smoothing lifted by the
        # other's power of delta
        from bwmlink.laurent import NumeratorRing
        from test_skein import step_copy

        mutant = step_copy(
            "((par, e_par, state), (cap, e_cap, -state))",
            "((par, e_cap, state), (cap, e_par, -state))")
        monkeypatch.setattr(NumeratorRing, "step", mutant)
        code, out, _ = run(capsys, "verify", "parity")
        assert code == 1
        assert "FAIL parity " in out

    def test_symmetry(self, capsys):
        # 15 torus cases, then the 20 Markov and 10 braid-relation words
        code, out, _ = run(capsys, "verify", "symmetry", "--m", "-6..8")
        assert code == 0
        assert out.count("PASS") == 45

    def test_omega(self, capsys):
        code, out, _ = run(capsys, "verify", "omega", "--max-f", "6")
        assert code == 0
        assert out.count("PASS") == 6

    def test_sumrule(self, capsys):
        code, out, _ = run(capsys, "verify", "sumrule", "--max-f", "4")
        assert code == 0
        assert "failures: 0" in out

    def test_sumrule_to_8(self, capsys):
        code, out, _ = run(capsys, "verify", "sumrule", "--max-f", "8")
        assert code == 0
        assert out.endswith("total: 9 failures: 0\n")

    def test_lemma2_small(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma2", "--max-size", "3",
                           "--max-n", "2", "--random-signs", "5")
        assert code == 0
        assert "failures: 0" in out

    def test_markov_small(self, capsys):
        code, out, _ = run(capsys, "verify", "markov", "--words", "4")
        assert code == 0
        assert "failures: 0" in out

    def test_report_sorted(self, capsys):
        _, out, _ = run(capsys, "verify", "parity", "--m", "1..3")
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert lines == sorted(lines)

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "nosuchsuite")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "omega", "--max-f", str(DEPTH_CAP + 1)],
        ["verify", "sumrule", "--max-f", str(DEPTH_CAP + 1)],
        ["verify", "parity", "--m", f"0..{M_CAP + 1}"],
        ["verify", "parity", "--m", f"-{M_CAP + 1}..0"],
        ["verify", "oracle", "--m", f"0..{M_CAP + 1}"],
        ["verify", "oracle", "--m", f"-{M_CAP + 1}..0"],
        ["verify", "symmetry", "--m", f"0..{M_CAP + 1}"],
        ["verify", "symmetry", "--m", f"-{M_CAP + 1}..0"],
        ["torus", "--m", str(M_CAP + 1)],
        ["torus", "--m", str(-M_CAP - 1)],
        ["verify", "lemma2", "--max-size", str(DEPTH_CAP + 1)],
        ["verify", "lemma2", "--max-n", str(DEPTH_CAP + 1)],
        ["verify", "lemma2", "--random-signs", str(SIGNS_CAP + 1)],
    ], ids=" ".join)
    def test_over_cap_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "over cap" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "markov", "--words", "-1"],
        ["verify", "omega", "--max-f", "-2"],
        ["verify", "sumrule", "--max-f", "-1"],
        ["verify", "lemma2", "--max-size", "-1"],
        ["verify", "lemma2", "--max-n", "-1"],
        ["verify", "lemma2", "--random-signs", "-1"],
    ], ids=" ".join)
    def test_negative_count_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "negative" in err

    def test_parity_at_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "parity", "--m", f"1..{M_CAP}")
        assert code == 0
        assert out.count("PASS parity m=") == M_CAP
        assert out.endswith(f"total: {M_CAP + 30} failures: 0\n")

    def test_parity_at_negative_cap(self, capsys):
        # negative m: the engine evaluates the mirror words
        code, out, _ = run(capsys, "verify", "parity", "--m", f"-{M_CAP}..-1")
        assert code == 0
        assert out.count("PASS parity m=-") == M_CAP
        assert out.endswith(f"total: {M_CAP + 30} failures: 0\n")

    def test_lemma2_at_caps(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma2",
                           "--max-size", str(DEPTH_CAP),
                           "--max-n", str(DEPTH_CAP),
                           "--random-signs", str(SIGNS_CAP))
        assert code == 0
        shapes = sum(len(young_level(size)) for size in range(DEPTH_CAP + 1))
        assert out.count("PASS lemma2 ") == shapes * DEPTH_CAP
        assert out.count("PASS sign-identity ") == SIGNS_CAP
        assert out.endswith(" failures: 0\n")

    def test_failure_exits_1(self, capsys, monkeypatch):
        import bwmlink.cli as cli

        def broken(args, report):
            report("forced case", False)

        monkeypatch.setitem(cli._SUITES, "parity", broken)
        code, out, _ = run(capsys, "verify", "parity")
        assert code == 1
        assert "FAIL forced case" in out
        assert "failures: 1" in out
