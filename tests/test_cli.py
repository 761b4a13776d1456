"""CLI tests drive ltw.cli.main with argv lists and capture the streams;
exit codes and line formats are pinned."""

import os
import pathlib
import subprocess
import sys

import pytest

from ltw import analysis, words
from ltw.cli import build_parser, main
from ltw.core import domain_defined, evaluate
from ltw.ltwfile import parse_ltw, parse_tree, print_ltw
from ltw.oracle import EnumerationBudget

from _support import STRANDED_BY_REUSE, pow_family_text

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"

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


def test_option_defaults_are_the_library_defaults():
    # each default is stated once, in the library, and the parser reads it
    parser = build_parser()
    run = parser.parse_args(["run", EX3, "--tree", "g"])
    oracle = parser.parse_args(["oracle", EX3, EX3])
    budget = EnumerationBudget()
    assert run.max_len == words.DEFAULT_EXPAND_CAP
    assert (oracle.depth, oracle.max_trees) == (budget.max_depth, budget.max_trees)


def test_run_max_len_flag(capsys):
    assert main(["run", EX3, "--tree", "f(f(g))", "--max-len", "5"]) == 3
    assert "len=9" in capsys.readouterr().err


def test_run_rejects_a_negative_max_len(tmp_path, capsys):
    assert main(["run", EX3, "--tree", "f(f(g))", "--max-len", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    # zero is a cap like any other: the empty output fits under it
    from _support import chain_text
    f = tmp_path / "chain.ltw"
    f.write_text(chain_text(1))
    assert main(["run", str(f), "--tree", "g", "--max-len", "0"]) == 0
    assert capsys.readouterr().out == "\n"
    assert main(["run", str(f), "--tree", "f(g)", "--max-len", "0"]) == 3


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


def test_check_stress_doubling_witness(tmp_path, capsys):
    # the witness f(g) prints a^(2^60) against b^(2^60): re-verified by
    # fingerprint, never expanded
    other = tmp_path / "b.ltw"
    other.write_text(FIXTURES.joinpath("stress_doubling.ltw").read_text()
                     .replace('slp A0 = "a"', 'slp A0 = "b"'))
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


@pytest.mark.parametrize("flag", ["-o", "--report"])
def test_normalize_writes_nothing_when_a_target_cannot_open(flag, tmp_path, capsys):
    # both targets are opened before either is written, so a bad path
    # leaves stdout empty and writes nothing into the other target
    bad = tmp_path / "missing" / "x.txt"
    other = tmp_path / "other.txt"
    other_flag = "--report" if flag == "-o" else "-o"
    assert main(["normalize", EX3, flag, str(bad), other_flag, str(other)]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error:") and "missing" in cap.err
    assert main(["normalize", EX3, flag, str(bad)]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error:") and "missing" in cap.err
    assert not bad.exists() and (not other.exists() or other.read_text() == "")


def test_normalize_refuses_one_file_for_both_targets(tmp_path, capsys, monkeypatch):
    # the normal form and the report would share, and spoil, one file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    os.symlink("x.txt", "link")
    for out, report in [("x.txt", "x.txt"), ("x.txt", "sub/../x.txt"),
                        (str(tmp_path / "x.txt"), "./x.txt"), ("link", "x.txt")]:
        assert main(["normalize", EX3, "-o", out, "--report", report]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.startswith("error:")
        assert sorted(os.listdir(tmp_path)) == ["link", "sub"]
    assert main(["normalize", EX3, "-o", "x.txt", "--report", "sub/x.txt"]) == 0
    assert (tmp_path / "x.txt").read_text().startswith("input")


def test_normalize_deeply_nested_word(tmp_path, capsys):
    # a word built by 1500 nested concatenations prints without recursion
    lines = ["input f:1 g:0", 'slp W0 = "%s"' % ("ab" * 21)]
    lines += [f'slp W{i} = "c" W{i - 1}' for i in range(1, 1500)]
    lines += ["axiom = $W1499 q(x)", 'rule q f(x1) = "a" q(x1)',
              'rule q g = "b"']
    f = tmp_path / "deep.ltw"
    f.write_text("\n".join(lines) + "\n")
    assert main(["normalize", str(f)]) == 0
    out = capsys.readouterr().out
    M, N = parse_ltw(f.read_text()), parse_ltw(out)
    t = parse_tree("f(f(g))", M.alphabet)
    assert words.expand(evaluate(N, t)) == words.expand(evaluate(M, t))
    assert out.count("\nslp ") == 1500


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
    assert empty.alphabet == {"f": 1, "g": 0}
    assert not domain_defined(empty, parse_tree("g", empty.alphabet))


def test_normalize_a_machine_whose_part_rewrite_cuts_off_a_state(tmp_path):
    src, normal = tmp_path / "src.ltw", tmp_path / "normal.ltw"
    src.write_text(STRANDED_BY_REUSE)
    rc, out, err = _cli("normalize", str(src))
    assert rc == 0 and "Traceback" not in err, err
    normal.write_bytes(out)
    rc, out, err = _cli("check", str(src), str(normal))
    assert (rc, out) == (0, b"equivalent\n"), err


# -- analyze ------------------------------------------------------------------

@pytest.mark.parametrize("state", [[], ["--state", "q"]])
def test_analyze_empty_domain(tmp_path, capsys, state):
    f = tmp_path / "empty.ltw"
    f.write_text('input f:1 g:0\naxiom = q(x)\nrule q f(x1) = "a" q(x1)\n')
    assert main(["analyze", str(f), *state]) == 0
    assert capsys.readouterr() == ("empty domain\n", "")


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


@pytest.mark.parametrize("b", [52, 64])
def test_pow_family_normalizes_without_factoring(b, tmp_path, capsys, monkeypatch):
    # no call of q has a neighbour, so stage 4 tests no periodicity; and a
    # periodicity test reads the shortest nonempty word, never its root
    def refuse(n, *args):
        raise AssertionError(f"factorized {n}")

    monkeypatch.setattr(words, "_factorize", refuse)
    path = tmp_path / "pow.ltw"
    path.write_text(pow_family_text(b))
    assert main(["normalize", str(path)]) == 0
    assert capsys.readouterr().out == print_ltw(parse_ltw(path.read_text()))


@pytest.mark.parametrize("b", [52, 64])
def test_analyze_exits_3_on_a_length_rho_cannot_split(b, tmp_path, capsys):
    # q's period is the primitive root of a^N, and N's two prime factors
    # lie past the rho step cap; q's block is not printed, not even in part
    path = tmp_path / "pow.ltw"
    path.write_text(pow_family_text(b))
    assert main(["analyze", str(path)]) == 3
    cap = capsys.readouterr()
    assert cap.out == ""
    n = parse_ltw(path.read_text()).rule("q", "h").words[0].length
    assert cap.err == (f"error: factoring length {n} gave up at the limit "
                       f"of {words.RHO_STEPS} Pollard rho steps\n")


def test_analyze_factors_no_length_for_a_state_that_is_not_quasi_periodic(
        tmp_path, capsys, monkeypatch):
    # q k = a^N z breaks q's fit to any period, so the length N, which rho
    # cannot split, is never factored
    def refuse(n, *args):
        raise AssertionError(f"factorized {n}")

    monkeypatch.setattr(words, "_factorize", refuse)
    path = tmp_path / "pow.ltw"
    path.write_text(pow_family_text(52).replace("input f:1 g:0 h:0",
                                                "input f:1 g:0 h:0 k:0")
                    + 'rule q k = $W "z"\n')
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out == ("state q\nshortest: len=0 word=\n"
                                       "erasing: no\nnot quasi-periodic\n"
                                       "shifts: q=0\n")


def test_analyze_builds_no_hat_state(tmp_path, capsys, monkeypatch):
    # part verdicts read the callee's span; the hat state a rewrite starts
    # from is only built by normalize, and only for a quasi-periodic part
    from ltw import normalize
    from _support import comb_text
    hats = []
    real = normalize.hat_state_machine
    monkeypatch.setattr(normalize, "hat_state_machine",
                        lambda *a: hats.append(a) or real(*a))
    path = tmp_path / "comb.ltw"
    path.write_text(comb_text(25))
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.count("\npart ") == 50
    assert hats == []


def test_analyze_unknown_state(capsys):
    assert main(["analyze", EX3, "--state", "nope"]) == 2
    assert "no state named nope" in capsys.readouterr().err


def test_analyze_trimmed_state_is_named_as_such(tmp_path, capsys):
    f = tmp_path / "t.ltw"
    f.write_text(FIXTURES.joinpath("ex3.ltw").read_text()
                 + 'rule lost g = "a"\nrule stuck f(x1) = stuck(x1)\n')
    for name in ("lost", "stuck"):
        assert main(["analyze", str(f), "--state", name]) == 2
        err = capsys.readouterr().err
        assert f"state {name} is trimmed away" in err
        assert "no state named" not in err


def test_analyze_bottom_up_file_runs_one_fixpoint(tmp_path, capsys, monkeypatch):
    # states declared callee-first, axiom last: asking them in declaration
    # order must not restart the span fixpoint below every state
    n = 200
    rules = [f'rule q{i} f(x1) = "abc" q{i + 1}(x1)' for i in range(1, n)]
    rules += [f'rule q{n} f(x1) = "abc" q{n}(x1)', f'rule q{n} g = ""']
    f = tmp_path / "bottom_up.ltw"
    f.write_text("\n".join(["input f:1 g:0", *rules[::-1], "axiom = q1(x)"]) + "\n")
    nodes = []
    real = analysis.pair_spans

    def counted(ps, **kw):
        spans = real(ps, **kw)
        nodes.append(len(spans))
        return spans

    monkeypatch.setattr(analysis, "pair_spans", counted)
    assert main(["analyze", str(f)]) == 0
    out = capsys.readouterr().out
    assert out.index(f"state q{n}\n") < out.index("state q1\n")
    assert sum(nodes) <= 2 * n


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


def test_oracle_rejects_budgets_that_check_no_tree(tmp_path, capsys):
    # with no tree checked, "equivalent" would be claimed for a pair that
    # `check` tells apart
    mutated = tmp_path / "m.ltw"
    mutated.write_text(FIXTURES.joinpath("ex3.ltw").read_text()
                       .replace('"abc" q2(x1)', '"abz" q2(x1)'))
    assert main(["check", EX3, str(mutated)]) == 1
    capsys.readouterr()
    for flags in (["--depth", "0"], ["--depth", "-2"], ["--max-trees", "0"],
                  ["--max-trees", "-1"]):
        assert main(["oracle", EX3, str(mutated), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


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


def test_parse_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.ltw"
    bad.write_text("input g:0\naxiom = q(x\n")
    assert main(["check", EX3, str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: expected ')' (line 2, col 12)\n"


def _cli(*argv, encoding=None):
    """Exit code, stdout bytes and stderr text of `python -m ltw.cli`."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if encoding:
        env["PYTHONIOENCODING"] = encoding
    done = subprocess.run([sys.executable, "-m", "ltw.cli", *argv],
                          capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr.decode("latin-1")


@pytest.mark.parametrize("encoding", [None, "ascii", "utf-8"])
def test_stdout_carries_latin1_machines_and_words(tmp_path, encoding):
    src = str(FIXTURES / "latin1.ltw")
    rc, out, err = _cli("normalize", src, encoding=encoding)
    assert rc == 0 and "Traceback" not in err
    normal = tmp_path / "normal.ltw"
    normal.write_bytes(out)
    assert b"\xe9" in out
    rc, out, err = _cli("check", src, str(normal), encoding=encoding)
    assert (rc, out) == (0, b"equivalent\n"), err
    rc, out, err = _cli("run", src, "--tree", "f(g)", encoding=encoding)
    assert (rc, out) == (0, b"\xe9\xe0b\xa0\xff\n"), err
    rc, out, err = _cli("analyze", src, encoding=encoding)
    assert (rc, out) == (0, b"state q\nshortest: len=1 word=\xa0\nerasing: no\n"
                             b"not quasi-periodic\nshifts: q=0\n"), err


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate", EX3]) == 2


def test_removed_check_flags_are_usage_errors(capsys):
    assert main(["check", EX5A, EX5B, "--jobs", "2"]) == 2
    assert main(["check", EX5A, EX5B, "--depth", "6"]) == 2
    assert main(["run", EX5A, "--tree", "g", "--seed", "1"]) == 2
    assert main(["oracle", EX5A, EX5B, "--exact"]) == 2
    assert main(["check", EX5A, EX5B, "--exact"]) == 2
    assert main(["normalize", EX5A, "--exact"]) == 2
    assert main(["analyze", EX5A, "--exact"]) == 2


def test_seed_changes_fingerprint_configuration(capsys):
    # the flag must reach the word pool configuration layer
    assert main(["check", EX5A, EX5B, "--seed", "7"]) == 0
    assert words.fingerprinter().seed == 7


# -- one parser and one fingerprinter per process ---------------------------

def _differing_pair(tmp_path):
    b = tmp_path / "ex5a_changed.ltw"
    b.write_text(pathlib.Path(EX5A).read_text().replace('"abab"', '"abba"'))
    return EX5A, str(b)


def test_main_reentrant_after_another_seed(tmp_path, capsys):
    a, b = _differing_pair(tmp_path)
    fresh = subprocess.run([sys.executable, "-m", "ltw.cli", "check", a, b],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(SRC)})
    assert fresh.returncode == 1 and fresh.stdout.startswith("not equivalent")
    assert main(["check", "--seed", "7", a, b]) == 1
    capsys.readouterr()
    assert main(["check", a, b]) == 1
    assert words.fingerprinter().seed == 0
    assert words.fingerprinter().base == words.Fingerprinter(0).base
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == (fresh.stdout, fresh.stderr)


def test_usage_error_between_calls_changes_nothing(tmp_path, capsys):
    a, b = _differing_pair(tmp_path)
    assert main(["check", a, b]) == 1
    first = capsys.readouterr()
    assert main(["check", "--seed", "7", a]) == 2      # b is missing
    assert main(["check", "--seed", "x", a, b]) == 2
    capsys.readouterr()
    assert main(["check", a, b]) == 1
    assert capsys.readouterr() == first
    assert words.fingerprinter().seed == 0
