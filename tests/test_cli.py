import pytest

from tuplesieve.cli import _config_kw, build_parser, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_search_quadruplets(capsys):
    rc, out, _ = run_cli(
        capsys, "search", "--pattern", "x,x+2,x+6,x+8", "--n", "1000",
        "--wheel-limit", "210",
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
        "--wheel-limit", "210",
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
    # the bases 2-41, and sieving to 2 leaves it past the pseudosquare table
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


@pytest.mark.parametrize("argv", [
    ["search", "--pattern", "x,x+2", "--n", WIDE],
    ["twins", "--x", WIDE],
    ["search", "--pattern", "x,x+2", "--n", "1000", "--wheel-limit", "-5"],
    ["search", "--pattern", f"{WIDE}x+1", "--n", "1000"],
], ids=["n", "twins-x", "wheel-limit", "multiplier"])
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
    assert set(kw) == {"nu", "sieve_bound", "space_exp", "wheel_limit",
                       "excluded_wheel_primes"}
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
        "--sieve-bound", "20", "--wheel-limit", "510510", "--progress",
    )
    assert rc == 0 and out.splitlines()[-1] == "count=1171"
    assert err == "progress: 10000 residues\nprogress: 20000 residues\n"


def test_wheel_limit_help_names_x_range_budget(capsys):
    with pytest.raises(SystemExit):
        main(["search", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "saves more segment bytes over the x range than its sieve rows cost" in text
    assert "at most 2^22 bytes" in text
    assert "x_top/B" not in text and "n/B" not in text


def test_twins_x_too_small_exit_code(capsys):
    rc, _, err = run_cli(capsys, "twins", "--x", "4")
    assert rc == 2
    assert "--x >= 5" in err


# README examples, byte for byte
GOLDEN = [
    (["search", "--pattern", "x,x+2,x+6,x+8", "--n", "1000", "--wheel-limit", "210"],
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


def test_checkpoint_interval_needs_checkpoint(capsys):
    rc, out, err = run_cli(
        capsys, "search", "--pattern", "x,x+2", "--n", "100", "--checkpoint-interval", "5"
    )
    assert rc == 2 and out == ""
    assert "--checkpoint-interval needs --checkpoint" in err


def test_census_out_file_sorted(tmp_path, capsys):
    dest = tmp_path / "twins.txt"
    rc, out, _ = run_cli(capsys, "twins", "--x", "2000", "--out", str(dest))
    assert rc == 0
    assert out.splitlines()[0] == "count=61"
    xs = [int(ln.split()[0]) for ln in dest.read_text().splitlines()]
    assert len(xs) == 61
    assert xs == sorted(xs)
