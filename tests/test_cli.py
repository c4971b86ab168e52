import subprocess
import sys
from pathlib import Path

import pytest

import tuplesieve.apps as apps_mod
from tuplesieve.cli import _config_kw, build_parser, main


def cli_argv(*argv):
    """The command line run in a process of its own."""
    src = str(Path(__file__).parents[1] / "src")
    return [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {src!r}); "
            "from tuplesieve.cli import main; sys.exit(main())", *argv]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_search_quadruplets(capsys):
    rc, out, _ = run_cli(
        capsys, "search", "--pattern", "x,x+2,x+6,x+8", "--n", "1000",
        "--wheel", "2,3,5,7",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count=5"
    rows = [ln.split() for ln in lines[:-1]]
    assert [int(r[0]) for r in rows] == [5, 11, 101, 191, 821]
    assert rows[1] == ["11", "11", "13", "17", "19"]


def test_search_out_file(tmp_path, capsys):
    dest = tmp_path / "tuples.txt"
    rc, out, _ = run_cli(
        capsys, "search", "--pattern", "x,x+2", "--n", "100", "--out", str(dest)
    )
    assert rc == 0
    assert out.strip() == "count=8"
    got = [int(ln.split()[0]) for ln in dest.read_text().splitlines()]
    assert got == [3, 5, 11, 17, 29, 41, 59, 71]


def test_search_unsorted_same_set(capsys):
    # W = 210 splits the search over 3 residues, so the stream is out of order
    rc, out, _ = run_cli(
        capsys, "search", "--pattern", "x,x+2,x+6,x+8", "--n", "100000", "--unsorted",
        "--wheel", "2,3,5,7",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    unsorted_xs = [int(ln.split()[0]) for ln in lines[:-1]]
    rc, out, _ = run_cli(
        capsys, "search", "--pattern", "x,x+2,x+6,x+8", "--n", "100000"
    )
    sorted_xs = [int(ln.split()[0]) for ln in out.strip().splitlines()[:-1]]
    assert sorted(unsorted_xs) == sorted_xs
    assert unsorted_xs != sorted_xs or len(unsorted_xs) < 3


def test_twins_summary(capsys):
    import math

    from conftest import sieve_table

    rc, out, _ = run_cli(capsys, "twins", "--x", "100000")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count=1224"
    t = sieve_table(100002)
    want = math.fsum(
        1.0 / p + 1.0 / (p + 2) for p in range(2, 100000) if t[p] and t[p + 2]
    )
    assert lines[1].startswith("sum=")
    assert abs(float(lines[1][4:]) - want) <= 1e-13 * want


def test_quads_summary(capsys):
    rc, out, _ = run_cli(capsys, "quads", "--x", "5050")
    assert rc == 0
    assert out.strip().splitlines()[0] == "count=10"


def test_chains_list(capsys):
    rc, out, _ = run_cli(
        capsys, "chains", "--kind", "second", "--length", "2", "--cap", "100"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count=8"
    assert [int(ln.split()[0]) for ln in lines[:-1]] == [2, 3, 7, 19, 31, 37, 79, 97]


def test_chains_smallest(capsys):
    rc, out, _ = run_cli(
        capsys, "chains", "--kind", "first", "--length", "6", "--cap", "10000",
        "--smallest",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["89", "89", "179", "359", "719", "1439", "2879"]
    assert lines[1] == "count=1"


def test_capacity_error_exit_code(capsys):
    # at x = 0 the value is the top ladder bound, a strong pseudoprime to
    # the bases 2-41, and sieving to 2 leaves (B+1)^2 far below it
    # two processes each meet such a value; the error ends the run the same way
    for workers in ("1", "2"):
        rc, _, err = run_cli(
            capsys, "search", "--pattern", "x+3317044064679887385961981",
            "--n", "3317044064679887385962200", "--sieve-bound", "2", "--workers", workers,
        )
        assert rc == 3
        assert err.startswith("error:")
    # the pseudosquares subcommand is gone
    with pytest.raises(SystemExit) as exc:
        main(["pseudosquares", "--limit", "300"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "pseudosquares" in err


WIDE = str(2**127)  # one past the widest supported value
# the primes up to 101, whose product is the first primorial past 2^127
TOO_WIDE_WHEEL = "2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61,67,71,73,79,83,89,97,101"


@pytest.mark.parametrize("argv", [
    ["search", "--pattern", "x,x+2", "--n", WIDE],
    ["twins", "--x", WIDE],
    ["search", "--pattern", "x,x+2", "--n", "1000", "--wheel", TOO_WIDE_WHEEL],
    ["search", "--pattern", f"{WIDE}x+1", "--n", "1000"],
], ids=["n", "twins-x", "wheel", "multiplier"])
def test_out_of_width_input_exit_code(capsys, argv):
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")


def test_inadmissible_pattern_exit_code(capsys):
    rc, _, err = run_cli(capsys, "search", "--pattern", "x,x+1", "--n", "100")
    assert rc == 2
    assert "admissible" in err


def test_bad_pattern_text_exit_code(capsys):
    rc, _, err = run_cli(capsys, "search", "--pattern", "x,y+2", "--n", "100")
    assert rc == 2


def test_checkpoint_cli_roundtrip(tmp_path, capsys):
    ck = tmp_path / "run.ckpt"
    args = ["search", "--pattern", "x,x+2,x+6,x+8", "--n", "100000",
            "--checkpoint", str(ck)]
    rc, out1, _ = run_cli(capsys, *args)
    assert rc == 0 and ck.exists()
    rc, out2, _ = run_cli(capsys, *args)  # resume over a completed file
    assert rc == 0
    assert out1.strip().splitlines()[-1] == out2.strip().splitlines()[-1]


def test_workers_flag_same_output(capsys):
    rc, out1, _ = run_cli(
        capsys, "search", "--pattern", "x,x+2,x+6,x+8", "--n", "200000"
    )
    rc, out4, _ = run_cli(
        capsys, "search", "--pattern", "x,x+2,x+6,x+8", "--n", "200000",
        "--workers", "4",
    )
    assert out1 == out4


def test_early_abort_left_to_planner(capsys):
    # where sieving stops is the planner's call unless a bound is given
    argv = ["search", "--pattern", "x,x+2", "--n", "100"]
    kw = _config_kw(build_parser().parse_args(argv))
    assert set(kw) == {"nu", "sieve_bound", "space_exp", "wheel"}
    assert (kw["sieve_bound"], kw["space_exp"]) == (None, None)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-early-abort"])
    assert exc.value.code == 2


def test_search_bound_3(capsys):
    rc, out, err = run_cli(capsys, "search", "--pattern", "x", "--n", "3")
    assert (rc, out, err) == (0, "2 2\n3 3\ncount=2\n", "")
    rc, out, _ = run_cli(capsys, "search", "--pattern", "x,x+2", "--n", "3")
    assert (rc, out) == (0, "count=0\n")


def test_search_x_range_from_zero(capsys):
    # x = 0 gives the prime 3, although max_value(1) = 4 is past the bound
    rc, out, err = run_cli(capsys, "search", "--pattern", "x+3", "--n", "3")
    assert (rc, out, err) == (0, "0 3\ncount=1\n", "")
    # no x has a value in [2, n]: an empty answer, not an error
    rc, out, err = run_cli(capsys, "search", "--pattern", "x-5", "--n", "-4")
    assert (rc, out, err) == (0, "count=0\n", "")


def test_chains_progress_on_stderr(capsys):
    # wheel 2*3*...*17 leaves 22275 residues for x, 2x+1
    rc, out, err = run_cli(
        capsys, "chains", "--kind", "first", "--length", "2", "--cap", "100000",
        "--sieve-bound", "20", "--wheel", "2,3,5,7,11,13,17", "--progress",
    )
    assert rc == 0 and out.splitlines()[-1] == "count=1171"
    assert err == "progress: 10000 residues\nprogress: 20000 residues\n"


def test_wheel_help_names_x_range_budget(capsys):
    with pytest.raises(SystemExit):
        main(["search", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--wheel P,..." in text and "e.g. 2,3,5,7" in text
    assert ("the segment bytes each saves over the x range cost more than its sieve rows, "
            "both priced in ns") in text
    assert "at most 2^22 bytes" in text
    assert "x_top/B" not in text and "n/B" not in text
    # one wheel flag: the product budget and the exclusion set are gone
    assert "--wheel-limit" not in text and "--exclude-wheel-prime" not in text


@pytest.mark.parametrize("wheel", ["", "0", "4", "2,2", "2,x", TOO_WIDE_WHEEL],
                         ids=["empty", "zero", "four", "repeat", "text", "too-wide"])
def test_bad_wheel_exit_code_without_traceback(wheel):
    # the command line in a process of its own: exit code 2 and an error line
    out = subprocess.run(cli_argv("search", "--pattern", "x,x+2", "--n", "1000", "--wheel", wheel),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    # text is argparse's to refuse, integers the search's
    parsed = wheel not in ("", "2,x")
    assert out.stderr.startswith("error: wheel (") == parsed
    assert ("argument --wheel: invalid prime_list value" in out.stderr) != parsed


def test_wheel_left_out_prime_same_chain(capsys):
    # 7 is sieved, not in the wheel: the README's length-6 chain all the same
    argv = ["chains", "--kind", "first", "--length", "6", "--cap", "10000", "--smallest"]
    rc, out, err = run_cli(capsys, *argv, "--wheel", "2,3,5,11,13")
    assert (rc, out, err) == (0, "89 89 179 359 719 1439 2879\ncount=1\n", "")


def test_twins_x_too_small_exit_code(capsys):
    rc, _, err = run_cli(capsys, "twins", "--x", "4")
    assert rc == 2
    assert "--x >= 5" in err


# README examples, byte for byte
GOLDEN = [
    (["search", "--pattern", "x,x+2,x+6,x+8", "--n", "1000", "--wheel", "2,3,5,7"],
     "5 5 7 11 13\n11 11 13 17 19\n101 101 103 107 109\n191 191 193 197 199\n"
     "821 821 823 827 829\ncount=5\n"),
    (["twins", "--x", "100000"], "count=1224\nsum=1.6727995848277415\n"),
    (["quads", "--x", "5050"], "count=10\nsum=0.86260190012786719\n"),
    (["chains", "--kind", "first", "--length", "6", "--cap", "10000", "--smallest"],
     "89 89 179 359 719 1439 2879\ncount=1\n"),
]


@pytest.mark.parametrize("argv,want", GOLDEN, ids=[g[0][0] for g in GOLDEN])
def test_readme_examples_exact(capsys, argv, want):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (0, want, "")


def test_chains_checkpoint_written_and_resumed(tmp_path, capsys):
    ck, dest = tmp_path / "run.ckpt", tmp_path / "starts.txt"
    args = ["chains", "--kind", "second", "--length", "2", "--cap", "100",
            "--checkpoint", str(ck), "--out", str(dest)]
    rc, out1, _ = run_cli(capsys, *args)
    assert rc == 0 and ck.exists()
    got = [int(ln.split()[0]) for ln in dest.read_text().splitlines()]
    assert got == [2, 3, 7, 19, 31, 37, 79, 97]
    rc, out2, _ = run_cli(capsys, *args)  # resume over a completed file
    assert rc == 0
    assert out1 == out2 == "count=8\n"


def test_out_file_survives_resume(tmp_path, capsys):
    # the second run resumes a completed checkpoint: it keeps the 38 lines and adds none
    ck, dest = tmp_path / "run.ckpt", tmp_path / "quads.txt"
    args = ["search", "--pattern", "x,x+2,x+6,x+8", "--n", "100000",
            "--checkpoint", str(ck), "--out", str(dest)]
    for _ in range(2):
        rc, out, _ = run_cli(capsys, *args)
        assert rc == 0 and out == "count=38\n"
        xs = [int(ln.split()[0]) for ln in dest.read_text().splitlines()]
        assert len(xs) == 38 and xs == sorted(xs) and xs[:4] == [5, 11, 101, 191]


def test_out_resume_cuts_file_to_checkpoint(tmp_path, capsys):
    # lines written after the last checkpoint (a kill) are cut off, then re-found
    ck, dest = tmp_path / "run.ckpt", tmp_path / "quads.txt"
    args = ["search", "--pattern", "x,x+2,x+6,x+8", "--n", "100000",
            "--checkpoint", str(ck), "--out", str(dest), "--workers", "2"]
    assert run_cli(capsys, *args)[0] == 0
    want = dest.read_text()
    fields = ck.read_text().splitlines()
    assert fields[5] == f"output {len(want)}"
    # as if killed at position 0, after writing the boundary tuples and a partial line
    cut = len("".join(want.splitlines(keepends=True)[:4]))
    ck.write_text("\n".join(fields[:2] + ["position 0", "count 0", "sum 0", f"output {cut}"])
                  + "\n")
    with open(dest, "a") as f:
        f.write("99131 99131 99133")
    rc, out, _ = run_cli(capsys, *args)
    assert (rc, out) == (0, "count=38\n")
    assert dest.read_text() == want


def test_resume_refuses_a_shorter_out_file(tmp_path, capsys):
    # truncating a file up to the checkpoint's length would pad it with NUL bytes
    ck = tmp_path / "run.ckpt"
    args = ["search", "--pattern", "x,x+2,x+6,x+8", "--n", "1000000", "--checkpoint", str(ck)]
    assert run_cli(capsys, *args, "--out", str(tmp_path / "a.txt"))[0] == 0
    size = (tmp_path / "a.txt").stat().st_size
    rc, out, err = run_cli(capsys, *args, "--out", str(tmp_path / "b.txt"))
    assert (rc, out) == (2, "")
    assert err == f"error: output file holds 0 bytes, fewer than the {size} its checkpoint recorded\n"
    assert b"\0" not in (tmp_path / "b.txt").read_bytes()


def test_chains_rejects_bad_space_exp(capsys):
    rc, _, err = run_cli(
        capsys, "chains", "--kind", "second", "--length", "2", "--cap", "100",
        "--space-exp", "1.5",
    )
    assert rc == 2
    assert "space exponent" in err


def test_chains_smallest_rejects_checkpoint(tmp_path, capsys):
    ck = tmp_path / "run.ckpt"
    rc, out, err = run_cli(
        capsys, "chains", "--kind", "first", "--length", "6", "--cap", "10000",
        "--smallest", "--checkpoint", str(ck),
    )
    assert rc == 2
    assert out == "" and "--checkpoint" in err
    assert not ck.exists()


def test_chains_smallest_honours_out_and_workers(tmp_path, capsys):
    dest = tmp_path / "chain.txt"
    argv = ["chains", "--kind", "first", "--length", "6", "--cap", "10000",
            "--smallest", "--out", str(dest)]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and out == "count=1\n"
    assert dest.read_text() == "89 89 179 359 719 1439 2879\n"
    rc, _, err = run_cli(capsys, *argv, "--workers", "0")
    assert rc == 2 and "worker count" in err


@pytest.mark.parametrize("argv, count", [
    (["search", "--pattern", "x,x+2,x+6,x+8", "--n", "100000"], 38),
    (["search", "--pattern", "x,x+2,x+6,x+8", "--n", "100000", "--unsorted", "--workers", "2"], 38),
    (["chains", "--kind", "second", "--length", "2", "--cap", "1000"], 35),
], ids=["search", "search-unsorted", "chains"])
@pytest.mark.parametrize("out_file", [False, True], ids=["stdout", "out"])
def test_listings_keep_no_x_list(tmp_path, capsys, monkeypatch, argv, count, out_file):
    # the CLI reads only the count: the lines are written as found, so a run
    # that keeps every x for its result lists the same lines
    seen, real = [], apps_mod.run_striped

    def recording(cfg, keep_xs=True, **kw):
        seen.append(keep_xs)
        return real(cfg, keep_xs=keep_xs or force, **kw)

    monkeypatch.setattr(apps_mod, "run_striped", recording)
    dest = tmp_path / "lines.txt"
    if out_file:
        argv = argv + ["--out", str(dest)]
    runs = []
    for force in (False, True):
        rc, out, err = run_cli(capsys, *argv)
        runs.append((rc, out, err, dest.read_text() if out_file else None))
    assert seen == [False, False]
    assert runs[0] == runs[1]
    rc, out, _, lines = runs[0]
    assert rc == 0 and out.splitlines()[-1] == f"count={count}"
    assert len((lines or out).splitlines()) == count + (not out_file)


def test_census_out_file_sorted(tmp_path, capsys):
    dest = tmp_path / "twins.txt"
    rc, out, _ = run_cli(capsys, "twins", "--x", "2000", "--out", str(dest))
    assert rc == 0
    assert out.splitlines()[0] == "count=61"
    xs = [int(ln.split()[0]) for ln in dest.read_text().splitlines()]
    assert len(xs) == 61
    assert xs == sorted(xs)


@pytest.mark.parametrize("argv", [
    ["search", "--pattern", "x,x+2", "--n", "10000000"],
    ["search", "--pattern", "x,x+2", "--n", "10000000", "--unsorted"],
    ["search", "--pattern", "x,x+2", "--n", "10000000", "--unsorted", "--workers", "2"],
    ["twins", "--x", "10000000", "--unsorted"],
], ids=["sorted", "unsorted", "two-workers", "census"])
def test_closed_stdout_exits_141_without_traceback(argv):
    # the reader takes one line and closes the pipe, as `| head -n 1` does
    proc = subprocess.Popen(cli_argv(*argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"3 3 5\n"
    proc.stdout.close()
    # stderr ends only when every process holding it has, forked workers included
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=120) == 141


@pytest.mark.parametrize("flag, where, error", [
    ("--out", "dir", "error: cannot write --out: [Errno 21]"),
    ("--out", "missing/tuples.txt", "error: cannot write --out: [Errno 2]"),
    ("--checkpoint", "missing/ck", "error: cannot write checkpoint: [Errno 2]"),
    ("--checkpoint", "dir", "error: cannot read checkpoint: [Errno 21]"),
], ids=["out-directory", "out-missing-directory", "checkpoint-missing-directory",
        "checkpoint-directory"])
def test_unwritable_path_exits_2_before_the_search(tmp_path, flag, where, error):
    (tmp_path / "dir").mkdir()
    # the census of 10^10 takes longer than the timeout: the error must come first
    out = subprocess.run(cli_argv("twins", "--x", "10000000000", flag, str(tmp_path / where)),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith(error) and out.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
