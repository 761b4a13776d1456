"""CLI tests drive ltw.cli.main with argv lists and capture the streams;
exit codes and line formats are pinned."""

import pathlib

import pytest

from ltw import words
from ltw.cli import main
from ltw.core import domain_defined, evaluate
from ltw.ltwfile import parse_ltw, parse_tree

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

EX3 = str(FIXTURES / "ex3.ltw")
EX5A = str(FIXTURES / "ex5a.ltw")
EX5B = str(FIXTURES / "ex5b.ltw")
EX6 = str(FIXTURES / "ex6.ltw")
EX7 = str(FIXTURES / "ex7.ltw")
STRESS = str(FIXTURES / "stress_doubling.ltw")


# -- run ----------------------------------------------------------------------

def test_run_prints_output(capsys):
    assert main(["run", EX3, "--tree", "f(f(g))"]) == 0
    assert capsys.readouterr().out == "aaaabcabc\n"


def test_run_undefined_input(capsys):
    assert main(["run", EX3, "--tree", "f(g)"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("UndefinedInput:")
    assert "q1" in out and "g" in out


def test_run_reports_exact_length_above_cap(capsys):
    assert main(["run", STRESS, "--tree", "f(g)"]) == 3
    err = capsys.readouterr().err
    assert "len=1152921504606846976" in err
    assert "max-len 1000000" in err


def test_run_max_len_flag(capsys):
    assert main(["run", EX3, "--tree", "f(f(g))", "--max-len", "5"]) == 3
    assert "len=9" in capsys.readouterr().err


def test_run_deep_tree(tmp_path, capsys):
    # a depth-1500 input runs without Python recursion
    from _support import chain_text
    f = tmp_path / "chain.ltw"
    f.write_text(chain_text(3))
    tree = "f(" * 1499 + "g" + ")" * 1499
    assert main(["run", str(f), "--tree", tree]) == 0
    assert capsys.readouterr().out == "abc" * 1499 + "\n"


def test_run_bad_tree(capsys):
    assert main(["run", EX3, "--tree", "f(f(g)"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# -- check --------------------------------------------------------------------

def test_check_equivalent_pair(capsys):
    assert main(["check", EX5A, EX5B]) == 0
    cap = capsys.readouterr()
    assert cap.out == "equivalent\n"
    assert cap.err.strip() == "span"


def test_check_machine_against_golden_form(capsys):
    assert main(["check", EX3, str(GOLDEN / "ex3_pnf.ltw")]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_check_output_difference(tmp_path, capsys):
    mutated = tmp_path / "m.ltw"
    mutated.write_text(FIXTURES.joinpath("ex3.ltw").read_text()
                       .replace('"aa" q2(x1) "ab"', '"aa" q2(x1) "ba"'))
    assert main(["check", EX3, str(mutated)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not equivalent: output\n")
    witness = out.splitlines()[1].removeprefix("witness: ")
    M = parse_ltw(FIXTURES.joinpath("ex3.ltw").read_text())
    N = parse_ltw(mutated.read_text())
    t = parse_tree(witness, M.alphabet)
    assert not words.equals(evaluate(M, t), evaluate(N, t))


def test_check_domain_difference(capsys):
    assert main(["check", EX3, EX7]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not equivalent: domain\n")
    witness = out.splitlines()[1].removeprefix("witness: ")
    M = parse_ltw(FIXTURES.joinpath("ex3.ltw").read_text())
    N = parse_ltw(FIXTURES.joinpath("ex7.ltw").read_text())
    t = parse_tree(witness, M.alphabet)
    assert domain_defined(M, t) != domain_defined(N, t)


def test_check_exact_mode_hits_cap(tmp_path, capsys):
    # the witness f(g) prints a^(2^60) against b^(2^60); --exact must expand
    # both to re-verify it, which the cap forbids
    other = tmp_path / "b.ltw"
    other.write_text(FIXTURES.joinpath("stress_doubling.ltw").read_text()
                     .replace('slp A0 = "a"', 'slp A0 = "b"'))
    assert main(["check", STRESS, str(other), "--exact"]) == 3
    assert "exceeds cap" in capsys.readouterr().err
    assert main(["check", STRESS, str(other)]) == 1
    assert capsys.readouterr().out == "not equivalent: output\nwitness: f(g)\n"


def test_check_deep_witness_verified(tmp_path, capsys):
    # the only difference sits at the end of a 1200-state chain, so the
    # witness is 1200 deep; re-running it on both machines must not recurse
    from _support import chain_text
    text = chain_text(1200)
    a, b = tmp_path / "a.ltw", tmp_path / "b.ltw"
    a.write_text(text)
    b.write_text(text.replace('rule q1200 g = ""', 'rule q1200 g = "x"'))
    assert main(["check", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["not equivalent: output",
                   "witness: " + "f(" * 1199 + "g" + ")" * 1199]


def test_check_sampled_verdict_reproducible(tmp_path, capsys):
    deep = """
input b:2 n:0
axiom = q1(x)
rule q1 b(x1, x2) = "a" q2(x1) q2(x2)
rule q1 n = "d"
rule q2 b(x1, x2) = "a" q3(x1) q3(x2)
rule q2 n = "d"
rule q3 b(x1, x2) = "a" q1(x1) q1(x2)
rule q3 n = "d"
"""
    f = tmp_path / "deep.ltw"
    f.write_text(deep)
    g = tmp_path / "deeper.ltw"
    g.write_text(deep.replace('rule q3 n = "d"', 'rule q3 n = "dd"'))
    runs = []
    for _ in range(2):
        assert main(["check", str(f), str(f), "--seed", "1"]) == 0
        assert main(["check", str(f), str(g), "--seed", "1"]) == 1
        runs.append(capsys.readouterr())
    assert runs[0] == runs[1]
    out = runs[0].out.splitlines()
    assert out[:2] == ["equivalent", "not equivalent: output"]
    assert runs[0].err.split() == ["span", "span"]
    M, N = parse_ltw(deep), parse_ltw(g.read_text())
    t = parse_tree(out[2].removeprefix("witness: "), M.alphabet)
    assert not words.equals(evaluate(M, t), evaluate(N, t))


# -- normalize ----------------------------------------------------------------

def test_normalize_stdout_and_stderr_defaults(capsys):
    assert main(["normalize", EX3]) == 0
    cap = capsys.readouterr()
    assert cap.out == (GOLDEN / "ex3_pnf.ltw").read_text()
    lines = cap.err.splitlines()
    assert lines[0] == "earliest-state q left handle_len=9 period_len=3"
    assert lines[-1] == "# parts-passes: 1"


def test_normalize_to_files(tmp_path, capsys):
    out = tmp_path / "pnf.ltw"
    rep = tmp_path / "report.txt"
    assert main(["normalize", EX7, "-o", str(out), "--report", str(rep)]) == 0
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == ""
    assert out.read_text() == (GOLDEN / "ex7_pnf.ltw").read_text()
    report = rep.read_text().splitlines()
    assert report[0] == ("earliest-part q h pos=1 callee=q1 "
                         "handle_len=1 period_len=3")
    assert report[1] == "reorder-run q h pos=1..2"
    assert report[-1] == "# parts-passes: 2"


def test_normalize_empty_domain(tmp_path, capsys):
    f = tmp_path / "empty.ltw"
    f.write_text("""
input f:1 g:0
axiom = q(x)
rule q f(x1) = "a" q(x1)
""")
    assert main(["normalize", str(f)]) == 0
    cap = capsys.readouterr()
    assert cap.err == "empty-domain\n"
    empty = parse_ltw(cap.out)
    assert empty.alphabet.arity("f") == 1 and empty.alphabet.arity("g") == 0
    assert not domain_defined(empty, parse_tree("g", empty.alphabet))


# -- analyze ------------------------------------------------------------------

def test_analyze_state_block(capsys):
    assert main(["analyze", EX3, "--state", "q"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "state q"
    assert lines[1] == "shortest: len=9 word=aaaabcabc"
    assert lines[2] == "erasing: no"
    assert lines[3] == "quasi-periodic(left): handle=aaaabcabc period=abc"
    assert lines[4] == "shifts: q=0 q1=1 q2=3"
    assert lines[5] == ("part q f pos=1 callee=q1: "
                        "quasi-periodic(left): handle=aaabcabc period=abc")


@pytest.mark.parametrize("name", ["ex5a", "ex7"])
def test_analyze_matches_golden(name, capsys):
    assert main(["analyze", str(FIXTURES / f"{name}.ltw")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}_analyze.txt").read_text()


def test_analyze_part_line(capsys):
    assert main(["analyze", EX6]) == 0
    out = capsys.readouterr().out
    assert ("part p h pos=1 callee=q: "
            "quasi-periodic(left): handle=bc period=abc") in out


def test_analyze_direction_restriction(capsys):
    assert main(["analyze", EX3, "--state", "q", "--direction", "right"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "not quasi-periodic"
    # rule parts are probed on the left side only, so those lines remain
    assert not any("quasi-periodic(right)" in l for l in lines)


def test_analyze_giant_words_stay_symbolic(capsys):
    assert main(["analyze", STRESS]) == 0
    out = capsys.readouterr().out
    assert "shortest: len=0 word=" in out
    assert "quasi-periodic(left): handle= period=a" in out


def test_analyze_long_handle_prints_length_only(tmp_path, capsys):
    f = tmp_path / "long.ltw"
    word = "a" * 50
    f.write_text(f"""
input f:1 g:0
axiom = q(x)
rule q f(x1) = "{word}" q(x1)
rule q g = "{word}"
""")
    assert main(["analyze", str(f)]) == 0
    out = capsys.readouterr().out
    assert "quasi-periodic(left): handle_len=50 period=a" in out


def test_analyze_unknown_state(capsys):
    assert main(["analyze", EX3, "--state", "nope"]) == 2
    assert "no state named nope" in capsys.readouterr().err


# -- oracle -------------------------------------------------------------------

def test_oracle_equivalent(capsys):
    assert main(["oracle", EX5A, EX5B, "--depth", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("equivalent (checked ")
    assert "trees" in out


def test_oracle_budget_hit_is_reported(capsys):
    assert main(["oracle", EX5A, EX5B, "--depth", "4", "--max-trees", "2"]) == 0
    assert "budget hit" in capsys.readouterr().out


def test_oracle_witness(tmp_path, capsys):
    mutated = tmp_path / "m.ltw"
    mutated.write_text(FIXTURES.joinpath("ex3.ltw").read_text()
                       .replace('"abc" q2(x1)', '"abz" q2(x1)'))
    assert main(["oracle", EX3, str(mutated)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not equivalent:")
    assert "witness: " in out


def test_oracle_arity_conflict(tmp_path, capsys):
    other = tmp_path / "o.ltw"
    other.write_text("""
input f:2 g:0
axiom = q(x)
rule q g = "a"
rule q f(x1, x2) = q(x1) q(x2)
""")
    assert main(["oracle", EX3, str(other)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# -- usage and parse errors ---------------------------------------------------

def test_missing_file(capsys):
    assert main(["check", "no_such_file.ltw", EX3]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ltw"
    bad.write_text("this is not a transducer\n")
    assert main(["normalize", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate", EX3]) == 2


def test_removed_check_flags_are_usage_errors(capsys):
    assert main(["check", EX5A, EX5B, "--jobs", "2"]) == 2
    assert main(["check", EX5A, EX5B, "--depth", "6"]) == 2
    assert main(["run", EX5A, "--tree", "g", "--seed", "1"]) == 2
    assert main(["oracle", EX5A, EX5B, "--exact"]) == 2


def test_seed_changes_fingerprint_configuration(capsys):
    # the flag must reach the word pool configuration layer
    assert main(["check", EX5A, EX5B, "--seed", "7"]) == 0
    assert words.equality_seed() == 7
