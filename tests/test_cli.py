import concurrent.futures
import errno
import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from support import table

from core_picker import cli, verify
from core_picker.cli import main, run_single, trial_streams
from core_picker.games import MAX_PLAYERS, gen_strictly_convex
from core_picker.geometry import simplex_width

OUT = Path(__file__).resolve().parent.parent / "out"
SUMMARIZE = OUT.parent / "scripts" / "summarize_sweep.py"
REPRODUCE = OUT.parent / "scripts" / "reproduce.sh"
README = OUT.parent / "README.md"


def shell_commands(path, prefix):
    """The argvs of the lines of path that start with prefix, continued lines joined."""
    lines = path.read_text().replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith(prefix)]


def reproduce_cases():
    """(output file name, argv without --out) of each command of scripts/reproduce.sh."""
    cases = []
    for argv in shell_commands(REPRODUCE, "core-picker "):
        i = argv.index("--out")
        cases.append((Path(argv[i + 1]).name, argv[1:i] + argv[i + 2:]))
    return cases


def read_rows(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return header, [line.strip().split(",") for line in fh]


def test_learn_strict_run_stops_and_is_stable(tmp_path, capsys):
    out = tmp_path / "learn.csv"
    code = main(["learn", "--n", "3", "--gen", "strict", "--delta", "0.1",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["n", "delta", "perm_choice", "seed", "epochs", "samples",
                      "stopped", "violation_max"]
    (row,) = rows
    assert row[0] == "3" and row[6] == "true"
    assert float(row[7]) <= 0.0
    assert int(row[5]) == 9 * int(row[4])
    alloc_line = capsys.readouterr().out.strip()
    assert alloc_line.startswith("allocation: ")
    assert len(alloc_line.split()) == 4


def test_learn_exits_one_when_a_stopped_run_lands_outside_the_core(tmp_path, monkeypatch):
    outside = verify.MembershipReport(is_member=False, max_violation=0.25, efficiency_gap=0.0)
    monkeypatch.setattr(cli, "core_membership", lambda game, x, tol: outside)
    out = tmp_path / "outside.csv"
    assert main(["learn", "--n", "3", "--seed", "1", "--out", str(out)]) == 1
    _, rows = read_rows(out)  # the row is written before the exit code is decided
    assert rows[0][6] == "true" and rows[0][7] == "0.25"


def test_learn_unit_game_hits_cap_with_flag(tmp_path):
    out = tmp_path / "unit.csv"
    code = main(["learn", "--n", "4", "--gen", "unit", "--max-epochs", "100",
                 "--seed", "2", "--out", str(out)])
    assert code == 0  # not stopping naturally is the expected, flagged outcome
    _, rows = read_rows(out)
    assert rows[0][6] == "false"
    assert rows[0][4] == "100"


def test_learn_cyclic_choice_also_accepts(tmp_path):
    out = tmp_path / "cyc.csv"
    code = main(["learn", "--n", "3", "--perms", "cyclic", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert rows[0][6] == "true" and float(rows[0][7]) <= 0.0


def test_learn_stops_inside_the_core_at_the_least_positive_delta(tmp_path):
    # n ep / delta overflows here, and an infinite bonus used to run a strict game to the cap
    out = tmp_path / "least_delta.csv"
    assert main(["learn", "--n", "3", "--delta", "5e-324", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0][6] == "true" and float(rows[0][7]) <= 0.0


def test_readme_learn_examples_run():
    commands = shell_commands(README, "core-picker learn ")
    assert commands
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def test_sweep_csv_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--n-min", "2", "--n-max", "3", "--trials", "1",
            "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args", [
    ["cw", "--n", "6", "--trials", "6", "--seed", "9"],
    ["sweep", "--n-min", "2", "--n-max", "3", "--trials", "2", "--seed", "9"],
], ids=["cw", "sweep"])
def test_sweep_parallel_and_serial_agree(tmp_path, monkeypatch, args):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    # the second call starts a pool on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setenv("CORE_PICKER_THREADS", "1")
    assert main(args + ["--out", str(a)]) == 0
    monkeypatch.setenv("CORE_PICKER_THREADS", "3")
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_pool_size_is_capped_by_cpus_and_jobs(monkeypatch):
    monkeypatch.delenv("CORE_PICKER_THREADS", raising=False)
    for cpus, expected in ((2, 2), (16, 8)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert cli._worker_count() == expected
    for requested, cpus, expected in (("5000", 2, 2), ("3", 16, 3), ("0", 4, 1)):
        monkeypatch.setenv("CORE_PICKER_THREADS", requested)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert cli._worker_count() == expected
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # a platform without affinity
    monkeypatch.delenv("CORE_PICKER_THREADS")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count() == 1

    started = []

    class FakePool:  # records the pool size and maps in process; no worker starts
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setenv("CORE_PICKER_THREADS", "6")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    for jobs in (2, 10, 1, 0):
        assert cli._parallel_map(abs, list(range(-jobs, 0))) == list(range(jobs, 0, -1))
    assert started == [2, 6]


def test_pool_size_follows_the_cpus_this_process_may_run_on(monkeypatch):
    # one CPU allowed of four counted: a larger pool would only share it
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.delenv("CORE_PICKER_THREADS", raising=False)
    assert cli._worker_count() == 1
    monkeypatch.setenv("CORE_PICKER_THREADS", "8")
    assert cli._worker_count() == 1


def test_importing_the_cli_loads_no_process_pool():
    # learn and the package import never start a pool, so they skip its import cost
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = ("import sys, core_picker, core_picker.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


def test_cw_output_columns_and_positive_width(tmp_path):
    out = tmp_path / "cw.csv"
    assert main(["cw", "--n", "10", "--trials", "5", "--seed", "0",
                 "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["n", "trial", "width", "c_w"]
    assert len(rows) == 5
    for row in rows:
        assert float(row[2]) > 0.0
        assert float(row[3]) > 0.0


@pytest.mark.parametrize("n", range(2, MAX_PLAYERS + 1))
def test_cw_rows_are_those_of_the_strict_games(n):
    # cw draws the increments that the strict generator builds its game from:
    # the differences of the size values mu(first k players), k = 0..n
    for trial in range(3):
        game = gen_strictly_convex(n, trial_streams(5, n, trial)[0])
        increments = np.diff(table(game)[[(1 << k) - 1 for k in range(n + 1)]])
        vertices = increments[(np.arange(n)[:, None] + np.arange(n)) % n]
        width = simplex_width(vertices)
        c_w = n * float(np.min(np.diff(increments))) / width
        row = cli._cw_worker((n, trial, 5))
        assert row[:2] == (n, trial)
        np.testing.assert_allclose(row[2:], (width, c_w), rtol=1e-12)


def test_sweep_takes_every_player_count_that_learn_takes(tmp_path):
    # a cap of 70 epochs keeps the n = 11 row short; no check that early can stop
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n-min", "11", "--n-max", "11", "--trials", "1",
                 "--max-epochs", "70", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["n", "trial", "samples", "stopped", "violation_max"]
    assert [row[:4] for row in rows] == [["11", "0", str(70 * 11 * 11), "false"]]


def test_usage_errors_exit_two(tmp_path, capsys, monkeypatch):
    def no_workers(fn, jobs):
        raise AssertionError("a usage error started the worker pool")

    monkeypatch.setattr(cli, "_parallel_map", no_workers)
    missing = str(tmp_path / "missing" / "out.csv")
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    for argv in (
        ["sweep", "--n-min", "2", "--n-max", "21"],
        ["learn", "--n", "1"],
        ["learn", "--n", "3", "--noise", "gaussian"],
        ["learn", "--n", "3", "--delta", "1.5"],
        ["cw", "--n", "1"],
        ["learn", "--n", "21"],
        ["learn", "--n", "-1"],
        ["learn", "--n", "3", "--noise", "uniform:0"],
        ["learn", "--n", "3", "--noise", "uniform:0.1"],
        ["learn", "--n", "3", "--noise", "uniform:nan"],
        ["learn", "--n", "3", "--noise", "uniform:inf"],
        ["learn", "--n", "3", "--gen", "unit", "--max-epochs", "1000000000000000000000"],
        ["sweep", "--n-max", "2", "--trials", "1", "--max-epochs", "0"],
        ["cw", "--n", "201"],
        ["cw", "--n", "101"],
        ["learn", "--n", "3", "--seed", "-1"],
        ["sweep", "--n-max", "2", "--trials", "1", "--seed", "-1"],
        ["cw", "--n", "10", "--trials", "1", "--seed", "-1"],
        ["sweep", "--n-max", "2", "--trials", "1000000000"],
        ["cw", "--n", "10", "--trials", "10001"],
        ["cw", "--n", "10", "--trials", "0"],
        ["cw", "--n", "10", "10", "--trials", "2"],
        ["learn", "--n", "3", "--delta", "nan"],
        ["learn", "--n", "3", "--out", missing],
        ["sweep", "--n-max", "2", "--trials", "1", "--out", missing],
        ["cw", "--n", "10", "--trials", "1", "--out", str(tmp_path)],
        # writable --out paths, rejected by the learner config after the probe
        ["learn", "--n", "3", "--delta", "2", "--out", str(fresh)],
        ["sweep", "--n-max", "2", "--trials", "1", "--delta", "2", "--out", str(fresh)],
        ["learn", "--n", "3", "--delta", "2", "--out", str(kept)],
        ["sweep", "--n-max", "2", "--trials", "1", "--delta", "2", "--out", str(kept)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: core-picker {argv[0]} "), argv
        assert "error: " in err
        if "--seed" in argv:
            assert "error: --seed must be nonnegative" in err
        if argv[0] == "learn" and argv[2] in ("1", "21", "-1"):
            assert "error: --n must be in 2..20" in err
        if argv[0] == "sweep" and "21" in argv:
            assert "error: need 2 <= n-min <= n-max <= 20" in err
        if argv[:4] == ["cw", "--n", "10", "10"]:
            assert "error: --n entries must be distinct" in err
        if "--out" in argv and argv[-1] not in (str(fresh), str(kept)):
            assert "error: --out " in err
        assert not fresh.exists(), argv  # a usage error leaves no empty output file
        assert kept.read_text() == "earlier output\n", argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["learn", "--n", "3"],
                                  ["sweep", "--n-max", "2", "--trials", "1"],
                                  ["cw", "--n", "3", "--trials", "1"]])
def test_a_failed_output_write_is_a_usage_error(capsys, argv):
    # /dev/full opens, so the --out probe passes, and every write to it fails
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", "/dev/full"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: core-picker {argv[0]} ")
    assert err.endswith(f"error: --out /dev/full: {os.strerror(errno.ENOSPC)}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", ""])
def test_bad_thread_count_is_named_before_any_worker_starts(capsys, monkeypatch, value):
    def no_pool(*args, **kwargs):
        pytest.fail("workers started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("CORE_PICKER_THREADS", value)
    for argv in (["sweep", "--n-max", "2", "--trials", "1"], ["cw", "--n", "3", "--trials", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: core-picker {argv[0]} ")
        assert f"error: CORE_PICKER_THREADS must be an integer, not {value!r}" in err


def test_pool_jobs_start_with_the_largest_n(tmp_path, monkeypatch):
    # a job's cost grows with n, so the pool should end on the cheap ones
    started = []
    monkeypatch.setattr(cli, "_parallel_map", lambda fn, jobs: started.append(jobs) or [])
    out = str(tmp_path / "out.csv")
    assert main(["sweep", "--n-min", "2", "--n-max", "4", "--trials", "2", "--out", out]) == 0
    assert main(["cw", "--n", "10", "50", "20", "--trials", "2", "--out", out]) == 0
    assert [[job[:2] for job in jobs] for jobs in started] == [
        [(4, 0), (4, 1), (3, 0), (3, 1), (2, 0), (2, 1)],
        [(50, 0), (50, 1), (20, 0), (20, 1), (10, 0), (10, 1)],
    ]


def test_bad_learner_settings_fail_before_any_worker_starts(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_parallel_map", lambda fn, jobs: pytest.fail("workers started"))
    missing = str(tmp_path / "missing" / "out.csv")
    for argv in (["sweep", "--n-max", "3", "--trials", "4", "--max-epochs", "0"],
                 ["sweep", "--n-max", "3", "--trials", "4", "--max-epochs", str(2**63)],
                 ["sweep", "--n-max", "3", "--trials", "4", "--delta", "1.5"],
                 ["sweep", "--n-max", "3", "--trials", "4", "--out", missing],
                 ["cw", "--n", "10", "--trials", "4", "--out", missing]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_bad_noise_tag_fails_before_the_game_is_built(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "GENERATORS", {
        gen: lambda n, seed: pytest.fail("game built") for gen in cli.GENERATORS})
    for argv in (["learn", "--n", "20", "--noise", "gaussian"],
                 ["learn", "--n", "20", "--out", str(tmp_path / "missing" / "out.csv")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_reproduce_script_pins_every_output_file():
    names = {name for name, _ in reproduce_cases()}
    medians = {name.replace("_sweep", "_medians") for name in names}
    assert names | medians == {p.name for p in OUT.glob("*.csv")}


@pytest.mark.parametrize("name, argv", reproduce_cases())
def test_sweep_reproduces_committed_output(tmp_path, name, argv):
    # every file in out/ is part of the output contract
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (OUT / name).read_bytes()
    if argv[0] == "sweep":
        summary = subprocess.run([sys.executable, str(SUMMARIZE), str(out)],
                                 capture_output=True, check=True)
        assert summary.stdout == (OUT / name.replace("_sweep", "_medians")).read_bytes()


@pytest.mark.parametrize("workload, name", [("sweep", "strict_sweep.csv"), ("cw", "cw.csv")])
def test_benchmark_references_are_the_committed_outputs(monkeypatch, workload, name):
    # the benchmark's first call of a CLI workload must reproduce a file of
    # out/, so a regeneration of out/ that leaves a digest behind fails here
    monkeypatch.syspath_prepend(str(OUT.parent / "perfbench"))
    import run as bench

    seed, digest = bench.WORKLOADS[workload].reference
    assert hashlib.sha256((OUT / name).read_bytes()).hexdigest() == digest
    assert [*bench.WORKLOADS[workload].args, "--seed", str(seed)] == dict(reproduce_cases())[name]


@pytest.mark.parametrize("argv", shell_commands(REPRODUCE, "python3 scripts/summarize_sweep.py "),
                         ids=lambda argv: Path(argv[2]).name)
def test_committed_medians_summarize_the_committed_sweeps(argv):
    _, _, sweep, redirect, medians = argv
    assert redirect == ">"
    summary = subprocess.run([sys.executable, str(SUMMARIZE), str(OUT.parent / sweep)],
                             capture_output=True, check=True)
    assert summary.stdout == (OUT.parent / medians).read_bytes()


def test_csv_fields_spell_numpy_floats_as_python_floats():
    assert cli._fmt(np.float64(0.1)) == "0.1"
    assert cli._fmt(0.1) == "0.1"
    assert cli._fmt(True) == "true"


def test_trial_streams_are_stable_and_distinct():
    a1, b1 = trial_streams(0, 4, 7)
    a2, b2 = trial_streams(0, 4, 7)
    assert a1.generate_state(2).tolist() == a2.generate_state(2).tolist()
    assert a1.generate_state(2).tolist() != b1.generate_state(2).tolist()
    other, _ = trial_streams(0, 4, 8)
    assert other.generate_state(2).tolist() != a1.generate_state(2).tolist()


def test_run_single_reports_membership_fields():
    r = run_single(3, "strict", "adjacent", 0.1, 4, "bernoulli", 10**12)
    assert r["stopped"]
    assert r["is_member"]
    assert r["efficiency_gap"] <= 1e-10
    assert len(r["allocation"]) == 3
