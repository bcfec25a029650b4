"""Command-line surface, exercised in process through main()."""

import csv
import math

import numpy as np
import pytest

from cossinm.cli import main
from cossinm.matcore import read_matrix, write_matrix


def _write(tmp_path, name, matrix):
    path = tmp_path / name
    write_matrix(str(path), np.asarray(matrix, dtype=float))
    return path


def test_cossin_zero_matrix(tmp_path, capsys):
    path = _write(tmp_path, "z.mat", [[0.0]])
    assert main(["cossin", str(path)]) == 0
    captured = capsys.readouterr()
    assert "s=0" in captured.out
    assert captured.err == ""
    assert read_matrix(str(path) + ".cos")[0, 0] == 1.0
    assert read_matrix(str(path) + ".sin")[0, 0] == 0.0


def test_cossin_small_diagonal(tmp_path):
    path = _write(tmp_path, "d.mat", [[0.1, 0.0], [0.0, 0.1]])
    assert main(["cossin", str(path)]) == 0
    cos = read_matrix(str(path) + ".cos")
    assert cos[0, 0] == pytest.approx(math.cos(0.1), abs=1e-15)
    assert cos[0, 1] == 0.0


def test_cossin_pade_method(tmp_path, capsys):
    path = _write(tmp_path, "p.mat", [[0.05]])
    assert main(["cossin", str(path), "--method", "pade"]) == 0
    assert "pade" in capsys.readouterr().out
    assert read_matrix(str(path) + ".cos")[0, 0] == pytest.approx(
        math.cos(0.05), abs=1e-15)


def test_wave_subcommand(tmp_path):
    path = _write(tmp_path, "w.mat", [[0.25]])
    assert main(["wave", str(path), "--t", "1.0"]) == 0
    c = read_matrix(str(path) + ".c")
    s = read_matrix(str(path) + ".s")
    assert c[0, 0] == pytest.approx(math.cos(0.5), abs=1e-14)
    assert s[0, 0] == pytest.approx(math.sin(0.5) / 0.5, abs=1e-14)


@pytest.mark.parametrize("command,matrix,suffixes", [
    (["cossin"], [[0.0, 800.0], [-800.0, 0.0]], (".cos", ".sin")),
    (["wave", "--t", "1.0"], [[-1e6]], (".c", ".s")),
])
def test_nonfinite_result_warns_naming_both_files(tmp_path, capsys, command,
                                                  matrix, suffixes):
    path = _write(tmp_path, "ov.mat", matrix)
    assert main([command[0], str(path), *command[1:]]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("scheme=")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning:")
    for suffix in suffixes:
        assert f"{path}{suffix}" in lines[0]


def test_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_text("bogus\n")
    assert main(["cossin", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 1" in err


@pytest.mark.parametrize("command", [["cossin"], ["wave", "--t", "1.0"]])
def test_nonsquare_file_exits_two_naming_the_path(tmp_path, capsys, command):
    path = _write(tmp_path, "ns.mat", np.ones((2, 3)))
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {path}: line 1: matrix must be square,"
                   " got 2 x 3\n")


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["cossin", str(tmp_path / "nope.mat")]) == 2
    assert "error:" in capsys.readouterr().err


def test_theta_double_prints_known_thresholds(capsys):
    assert main(["theta"]) == 0
    out = capsys.readouterr().out
    assert "u = 2^-53" in out
    assert "9.8108e-1" in out
    assert "1.777e-2" in out
    assert "22/3" in out


def test_theta_single_prints_known_thresholds(capsys):
    assert main(["theta", "--precision", "single"]) == 0
    out = capsys.readouterr().out
    assert "7.492e-1" in out
    assert "3.1386e-1" in out


def test_theta_recompute_reports_deltas(capsys):
    assert main(["theta", "--recompute"]) == 0
    out = capsys.readouterr().out
    assert "recomputed" in out
    assert "delta" in out


def test_bench_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--count", "20", "--seed", "1",
                 "--out", str(out)]) == 0
    assert "cos: taylor_better=" in capsys.readouterr().out
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["matrix_id", "class_tag", "norm", "method",
                       "rel_err_cos", "rel_err_sin", "products",
                       "scaling_s", "wall_time"]
    assert len(rows) == 1 + 2 * 20
    methods = {row[3] for row in rows[1:]}
    assert methods == {"taylor", "pade"}


def test_bench_is_deterministic_modulo_wall_time(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["bench", "--count", "20", "--out", str(first)]) == 0
    assert main(["bench", "--count", "20", "--out", str(second)]) == 0
    capsys.readouterr()

    def strip(path):
        with open(path, newline="") as handle:
            return [row[:-1] for row in csv.reader(handle)]

    assert strip(first) == strip(second)


def test_bench_count_floor(tmp_path, capsys):
    assert main(["bench", "--count", "10",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_gallery_writes_matrices_and_manifest(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gallery", "--out", str(out), "--count", "24"]) == 0
    assert "wrote 24" in capsys.readouterr().out
    with open(out / "manifest.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["index", "class", "dimension", "norm"]
    assert len(rows) == 25
    first = read_matrix(str(out / "00000.mat"))
    assert first.shape[0] == int(rows[1][2])
