"""Self-tests of the benchmark: seeded inputs are reproducible, the traced
counts and the failing inputs repeat exactly, a wrong answer-key entry shows up
as a failure, tracing leaves no patch behind, and the command refuses to run
without the program's sources.

    PYTHONPATH=src python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# a few ops per workload keep the repeated traced runs short
SUBSETS = {"chain": slice(None), "corpus": slice(None, None, 8),
           "recursive": slice(0, 6)}


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Every workload generated twice from seed 5, once from seed 6."""
    out = {}
    for name in workloads.WORKLOADS:
        runs = []
        for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
            if name == "corpus" and tag == "c":
                continue        # the slowest generator; two runs suffice
            d = str(tmp_path_factory.mktemp(f"{name}-{tag}"))
            runs.append((d, workloads.generate(name, seed, d)))
        out[name] = runs
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_files(generated, name):
    (d1, ops1), (d2, ops2) = generated[name][:2]
    assert ops1 == ops2
    assert _files(d1) == _files(d2)
    if len(generated[name]) > 2:
        d3, _ = generated[name][2]
        assert _files(d3) != _files(d1)


def test_workload_shapes(generated):
    (_, chain), = generated["chain"][:1]
    assert [op["kind"] for op in chain] == ["normalize"]
    _, corpus = generated["corpus"][0]
    families = [op["family"] for op in corpus]
    assert [families.count(f) for f in
            ("mutate", "normal-form", "periodic-run", "doubling")] == [80, 60, 60, 4]
    _, rec = generated["recursive"][0]
    assert len(rec) == 54
    assert sum(op["expect"] == "equivalent" for op in rec) == 27


def _traced_subset(src_dir, ops, workdir):
    shutil.copytree(src_dir, workdir)
    with open(os.path.join(workdir, "ops.json"), "w") as f:
        json.dump(ops, f)
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--worker", workdir, "--seconds", "0", "--trace", "1"],
                       cwd=workdir, capture_output=True, text=True, timeout=300,
                       env=dict(os.environ, PYTHONHASHSEED="5"))
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


# counts that must repeat exactly on every workload
EXACT = ("ops", "normalize.states_out", "normalize.eliminated",
         "normalize.parts_passes", "analysis.pairs", "equivalence.verdicts",
         "equivalence.sampled")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_across_runs(generated, name, tmp_path):
    d, ops = generated[name][0]
    ops = ops[SUBSETS[name]]
    first = _traced_subset(d, ops, str(tmp_path / "one"))
    second = _traced_subset(d, ops, str(tmp_path / "two"))
    assert first["counts"]["ops"] == len(ops) * len(first["passes"])
    for key in EXACT:
        assert first["counts"].get(key) == second["counts"].get(key), key
    assert first["failed_ops"] == second["failed_ops"]
    assert first["plain"]["failed_ops"] == second["plain"]["failed_ops"]
    assert first["wrong"] == second["wrong"]
    if name != "recursive":
        # on recursive, equivalence's id()-keyed memo makes whether one op
        # fails, the witness it makes up and the work spent re-evaluating it
        # (pool nodes, equality calls) depend on object addresses; which
        # inputs fail at least once repeats
        assert first["failures"] == second["failures"]
        assert first["plain"]["failures"] == second["plain"]["failures"]
        assert first["counts"] == second["counts"]
        assert first["span_counts"] == second["span_counts"]
    assert os.path.getsize(tmp_path / "one" / "spans.tsv") > 0


def test_wrong_answer_key_is_a_failure(generated, monkeypatch):
    d, ops = generated["corpus"][0]
    monkeypatch.chdir(d)
    i = next(i for i, op in enumerate(ops) if op["family"] == "normal-form")
    dt, rc, exc, stdout = harness.call_op(ops[i])
    assert harness.Checker(ops).check(i, rc, exc, stdout) == (None, False)
    flipped = [dict(op) for op in ops]
    flipped[i]["expect"] = "not equivalent"
    assert harness.Checker(flipped).check(i, rc, exc, stdout) == (
        "wrong-verdict", True)
    tally = harness.Tally()
    tally.new_pass()
    tally.add(i, dt, *harness.Checker(flipped).check(i, rc, exc, stdout))
    assert tally.failures == {"wrong-verdict": 1} and tally.wrong == 1
    assert tally.failed_ops == {i}


def test_escaped_exception_is_a_failure_not_a_wrong_answer(generated):
    _, ops = generated["recursive"][0]
    assert harness.Checker(ops).check(1, None, "RuntimeError", "") == (
        "exception:RuntimeError", False)


def test_tracer_restores_every_patch():
    import ltw.cli
    import ltw.normalize
    import ltw.words
    before = (ltw.cli.trim, ltw.normalize.quasi_periodicity, ltw.words.equals,
              ltw.words.SlpPool.__init__)
    t = tracer.Tracer()
    t.start_op(0)
    try:
        assert ltw.cli.trim is not before[0]
        assert ltw.words.equals is not before[2]
    finally:
        t.end_op()
    after = (ltw.cli.trim, ltw.normalize.quasi_periodicity, ltw.words.equals,
             ltw.words.SlpPool.__init__)
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "chain",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60,
                       env={k: v for k, v in os.environ.items()
                            if k != "PYTHONPATH"})
    assert p.returncode != 0
    assert "correct" not in p.stdout
