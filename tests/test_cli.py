import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quasisep import qs_orders_bruteforce, reconstruct, verifysuite
from quasisep.cli import BENCH_HEADER
from quasisep.textio import read_generator, read_matrix

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "quasisep.cli", *args],
                          capture_output=True, text=True, env=env)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run_cli("generate", "--n", "12", "--rl", "2", "--ru", "1",
            "--seed", "42", "--out", str(a))
    run_cli("generate", "--n", "12", "--rl", "2", "--ru", "1",
            "--seed", "42", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    M, field = read_matrix(a)
    orders = qs_orders_bruteforce(M, field)
    assert orders.r_l <= 2 and orders.r_u <= 1


def test_generate_zero_targets_is_diagonal(tmp_path):
    out = tmp_path / "d.txt"
    run_cli("generate", "--n", "6", "--rl", "0", "--ru", "0",
            "--seed", "3", "--out", str(out))
    M, _ = read_matrix(out)
    assert np.array_equal(M, np.diag(M.diagonal()))


def test_generate_rejects_bad_modulus(tmp_path):
    proc = run_cli("generate", "--n", "4", "--prime", "10",
                   "--out", str(tmp_path / "x.txt"), check=False)
    assert proc.returncode == 2


def test_analyze_diagonal(tmp_path):
    out = tmp_path / "d.txt"
    run_cli("generate", "--n", "6", "--rl", "0", "--ru", "0",
            "--seed", "5", "--out", str(out))
    proc = run_cli("analyze", str(out))
    lines = dict(line.split() for line in proc.stdout.splitlines())
    assert lines["r_l"] == "0" and lines["r_u"] == "0"


def test_analyze_embedded_worked_example(tmp_path):
    # lower part chosen so that J @ strict_lower(M) is the worked 3x3 example
    path = tmp_path / "m.txt"
    path.write_text("3 3 5\n0 0 0\n1 0 0\n1 1 0\n")
    proc = run_cli("analyze", str(path))
    lines = dict(line.split() for line in proc.stdout.splitlines())
    assert lines["r_l"] == "1"
    assert lines["pivots_lower"] == "1"
    assert lines["rank_lower"] == "2"


def test_analyze_matches_oracle(tmp_path):
    out = tmp_path / "m.txt"
    run_cli("generate", "--n", "14", "--rl", "2", "--ru", "3",
            "--seed", "9", "--out", str(out))
    M, field = read_matrix(out)
    orders = qs_orders_bruteforce(M, field)
    proc = run_cli("analyze", str(out))
    lines = dict(line.split() for line in proc.stdout.splitlines())
    assert int(lines["r_l"]) == orders.r_l
    assert int(lines["r_u"]) == orders.r_u


def test_analyze_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 5\n1 2\n0 9\n")
    proc = run_cli("analyze", str(bad), check=False)
    assert proc.returncode == 2
    assert "line 3" in proc.stderr


def test_analyze_rejects_trailing_lines(tmp_path):
    bad = tmp_path / "junk.txt"
    bad.write_text("2 2 5\n1 2\n3 4\nJUNK\n")
    proc = run_cli("analyze", str(bad), check=False)
    assert proc.returncode == 2
    assert "line 4" in proc.stderr


@pytest.mark.parametrize("kind", ["tree", "bruhat", "compact"])
def test_compress_roundtrip(tmp_path, kind):
    src = tmp_path / "m.txt"
    run_cli("generate", "--n", "20", "--rl", "2", "--ru", "2",
            "--seed", "17", "--out", str(src))
    out = tmp_path / f"g_{kind}.txt"
    proc = run_cli("compress", str(src), "--kind", kind, "--out", str(out))
    assert f"kind {kind}" in proc.stdout
    report = dict(line.split() for line in proc.stdout.splitlines())
    for part in ("lower", "upper"):
        assert int(report[f"stored_{part}"]) <= int(report[f"bound_{part}"])
    M, field = read_matrix(src)
    from quasisep import reverse_cols, reverse_rows, strict_lower, strict_upper
    low = reverse_rows(strict_lower(M))
    up = reverse_cols(strict_upper(M))
    g_low = read_generator(str(out) + ".lower")
    g_up = read_generator(str(out) + ".upper")
    assert np.array_equal(reconstruct(g_low), low)
    assert np.array_equal(reconstruct(g_up), up)


def test_compress_zero_matrix(tmp_path):
    src = tmp_path / "z.txt"
    src.write_text("4 4 5\n" + "\n".join("0 0 0 0" for _ in range(4)) + "\n")
    out = tmp_path / "gz.txt"
    run_cli("compress", str(src), "--kind", "bruhat", "--out", str(out))
    g = read_generator(str(out) + ".lower")
    assert g.rank == 0
    assert not reconstruct(g).any()


def test_compress_80x80_order5_bound(tmp_path):
    # n=80 instance with both orders 5: stored elements within
    # 2*s*(n-s) = 750 per triangular part
    src = tmp_path / "f.txt"
    run_cli("generate", "--n", "80", "--rl", "5", "--ru", "5",
            "--seed", "2", "--out", str(src))
    proc = run_cli("compress", str(src), "--kind", "bruhat", "--out",
                   str(tmp_path / "gf.txt"))
    report = dict(line.split() for line in proc.stdout.splitlines())
    assert int(report["stored_lower"]) <= 750
    assert int(report["stored_upper"]) <= 750


def test_corrupted_generator_file_detected(tmp_path):
    src = tmp_path / "m.txt"
    run_cli("generate", "--n", "16", "--rl", "2", "--ru", "2",
            "--seed", "23", "--out", str(src))
    out = tmp_path / "g.txt"
    run_cli("compress", str(src), "--kind", "bruhat", "--out", str(out))
    path = Path(str(out) + ".lower")
    good = read_generator(path)
    lines = path.read_text().splitlines()
    # a leading lower-segment value must be 1; corrupt the first one
    header, pivot_line, lower_line = lines[0], lines[1], lines[2]
    vals = lower_line.split()
    vals[0] = "2"
    lines[2] = " ".join(vals)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_generator(path)
    # a mid-segment corruption is structurally legal but must change the
    # reconstruction, never pass silently
    lines[2] = lower_line
    if len(vals) > 1:
        vals = lower_line.split()
        vals[1] = str((int(vals[1]) + 1) % 65521)
        lines[2] = " ".join(vals)
        path.write_text("\n".join(lines) + "\n")
        corrupted = read_generator(path)
        assert not np.array_equal(reconstruct(corrupted), reconstruct(good))


def test_corrupted_compact_and_headers(tmp_path):
    src = tmp_path / "m.txt"
    run_cli("generate", "--n", "16", "--rl", "2", "--ru", "2",
            "--seed", "29", "--out", str(src))
    out = tmp_path / "g.txt"
    run_cli("compress", str(src), "--kind", "compact", "--out", str(out))
    path = Path(str(out) + ".lower")
    good = read_generator(path)
    text = path.read_text()
    # structural corruption: block rows no longer sum to n
    lines = text.splitlines()
    krow = lines[2].split()
    if krow:
        krow[0] = str(int(krow[0]) + 1)
        path.write_text("\n".join([lines[0], lines[1], " ".join(krow)] + lines[3:]) + "\n")
        with pytest.raises(ValueError):
            read_generator(path)
    # value corruption inside a diagonal block: legal but changes the matrix
    # (entry (1, 0) of the first D block, inside the first pivot's segment;
    # entry (0, 0) is that segment's leading 1)
    lines = text.splitlines()
    dvals = lines[3].split()
    w = good.lower.diag_blocks[0].shape[1]
    dvals[w] = str((int(dvals[w]) + 1) % 65521)
    path.write_text("\n".join(lines[:3] + [" ".join(dvals)] + lines[4:]) + "\n")
    corrupted = read_generator(path)
    assert not np.array_equal(reconstruct(corrupted), reconstruct(good))
    # unknown header is rejected
    bad = tmp_path / "bad.gen"
    bad.write_text("WAVELET 4 5 1\n")
    with pytest.raises(ValueError):
        read_generator(bad)


def test_verify_all_passes():
    proc = run_cli("verify", "all", "--trials", "5", "--seed", "2")
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout


def test_verify_zero_trials_vacuous():
    proc = run_cli("verify", "all", "--trials", "0")
    assert proc.returncode == 0


def test_verify_scope_subset():
    proc = run_cli("verify", "pluq", "--trials", "4")
    assert proc.returncode == 0
    assert "orders." not in proc.stdout


def test_verify_failure_names_its_replay(monkeypatch):
    draws = []

    def fails_at_trial_2(rng, trial):
        draws.append(int(rng.integers(0, 2**31)))
        return trial != 2

    def raises_at_trial_1(rng, trial):
        if trial == 1:
            raise ValueError("boom")
        return True

    monkeypatch.setattr(verifysuite, "_CHECKS", [
        ("ops.fake", "ops", fails_at_trial_2),
        ("pluq.fake", "pluq", raises_at_trial_1)])
    assert verifysuite.run("ops", 7, 2) == [("ops.fake", True, "")]
    replayed = list(draws)
    draws.clear()
    assert verifysuite.run("all", 7, 6) == [
        ("ops.fake", False,
         "trial 2, seed 7; replay: quasisep verify ops --seed 7 --trials 3"),
        ("pluq.fake", False,
         "ValueError: boom; trial 1, seed 7; replay: quasisep verify pluq "
         "--seed 7 --trials 2")]
    # the run stops at the failure, and the replay drew the same instances
    assert len(draws) == 3 and draws[:2] == replayed
    assert not verifysuite.run("ops", 7, 3)[0][1]


def test_bench_header_and_empty_grid(tmp_path):
    csv = tmp_path / "empty.csv"
    run_cli("bench", "--csv", str(csv))
    assert csv.read_text() == BENCH_HEADER + "\n"


def test_bench_rows_and_scaling(tmp_path):
    csv = tmp_path / "b.csv"
    run_cli("bench", "--algo", "lt_rpm", "--n", "128,256", "--s", "4",
            "--seed", "0", "--csv", str(csv))
    lines = csv.read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 3
    rows = [dict(zip(BENCH_HEADER.split(","), line.split(","))) for line in lines[1:]]
    by_n = {int(r["n"]): int(r["muls"]) for r in rows}
    assert 3.0 <= by_n[256] / by_n[128] <= 5.0
    for r in rows:
        assert int(r["adds"]) >= 0 and int(r["invs"]) >= 0


def test_bench_skips_cells_without_an_instance(tmp_path):
    # the cells random_qs rejects (s >= max(n, 1)) are named and skipped,
    # and every other cell keeps the seed of its index in the full grid
    csv = tmp_path / "g.csv"
    proc = run_cli("bench", "--algo", "lt_rpm,tree", "--n", "0,1,2,3,5,17",
                   "--s", "0,1", "--seed", "100", "--csv", str(csv))
    skipped = [line for line in proc.stderr.splitlines() if line.startswith("skipped")]
    assert skipped == [f"skipped {a} n={n} s=1: random_qs needs 0 <= s < max(n, 1)"
                       for a in ("lt_rpm", "tree") for n in (0, 1)]
    rows = [dict(zip(BENCH_HEADER.split(","), line.split(",")))
            for line in csv.read_text().splitlines()[1:]]
    assert len(rows) == 2 * 12 - 4
    grid = sorted((a, n, s) for a in ("lt_rpm", "tree") for n in (0, 1, 2, 3, 5, 17)
                  for s in (0, 1))
    for row in rows:
        cell = (row["algo"], int(row["n"]), int(row["s_target"]))
        assert int(row["seed"]) == 100 + grid.index(cell)


def test_bench_stored_elems_cross_check(tmp_path):
    # single-cell bench uses the --seed verbatim, so the instance matches
    # generate + compress with the same parameters
    csv = tmp_path / "c.csv"
    run_cli("bench", "--algo", "bruhat", "--n", "24", "--s", "2",
            "--seed", "31", "--csv", str(csv))
    row = dict(zip(BENCH_HEADER.split(","),
                   csv.read_text().splitlines()[1].split(",")))
    src = tmp_path / "m.txt"
    run_cli("generate", "--n", "24", "--rl", "2", "--ru", "2",
            "--seed", "31", "--out", str(src))
    proc = run_cli("compress", str(src), "--kind", "bruhat",
                   "--out", str(tmp_path / "g.txt"))
    report = dict(line.split() for line in proc.stdout.splitlines())
    assert int(row["stored_elems"]) == int(report["stored_lower"])


def test_usage_error_exit_code():
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 2
    proc = run_cli("analyze", "/nonexistent/file.txt", check=False)
    assert proc.returncode == 2
