"""End-to-end command-line checks: flags, files, exit codes, determinism."""

import csv
import errno
import hashlib
import io
import json
import logging
import os
import re
import shlex
import subprocess
import sys
import tempfile
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import sievelab
from sievelab import cli
from sievelab.arith import InvariantViolation, primes_up_to
from sievelab.cli import EXIT_GATE_FAILED, EXIT_OK, EXIT_VIOLATION, PAIR_COLUMNS, _format_column, main
from sievelab.engine import sieve_improved
from sievelab.poly import SievePolynomial, algebraic_bound, exact_dtype

from conftest import exact_values, limbs_of

WORKED = ["--poly", "1,0,1", "--m", "4", "--u", "3", "--y", "5"]
README = Path(__file__).resolve().parents[1] / "README.md"
README_OUTPUTS = Path(__file__).resolve().parent / "data" / "readme_outputs.json"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def format_rational(x: Fraction, places: int = 6) -> str:
    """Reference rendering of one rational: the decimal module, half up."""
    with localcontext() as ctx:
        ctx.prec = 60
        return str((Decimal(x.numerator) / x.denominator).quantize(Decimal(1).scaleb(-places), ROUND_HALF_UP))


def test_format_rational():
    assert _format_column(45, 4) == ["11.250000"]
    assert _format_column(1, 3) == ["0.333333"]
    assert _format_column(2, 3) == ["0.666667"]
    assert _format_column(5, 10**7) == ["0.000001"]  # half rounds up
    assert _format_column(0, 1) == ["0.000000"]
    assert _format_column(1, 8, places=9) == ["0.125000000"]
    assert _format_column([1, 2, 3], 8, places=3) == ["0.125", "0.250", "0.375"]
    assert _format_column(10**30 + 1, 2 * 10**30) == ["0.500000"]  # exact integers past int64


def test_format_column_matches_format_rational():
    # every remainder mod 8 and mod 10, including the halves that round up, and numerators past 2^63 / 10^6
    numerators = [0, 1, 3, 4, 5, 7, 45, 10**6 + 5, 2**62, 3 * 2**61 + 1]
    for denominator in (1, 2, 8, 10, 96):
        column = _format_column(np.array(numerators, dtype=np.int64), np.full(len(numerators), denominator))
        assert column == [format_rational(Fraction(n, denominator)) for n in numerators]
    assert _format_column(np.array([5], dtype=np.int64), np.array([10**7]), places=6) == ["0.000001"]


def test_compare_worked_instance(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["compare", *WORKED, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["identities_ok"] is True
    assert summary["tables_match"] is True
    assert summary["correction_total"] == 0
    assert summary["totals"]["classical"] == 52
    assert summary["totals"]["improved"] == 27
    assert summary["ratio_improved_over_classical"] == "0.519231"  # 27/52
    assert capsys.readouterr().out.strip() == json.dumps(summary, indent=2, sort_keys=True)

    rows = read_csv(out / "pairs.csv")
    assert list(rows[0].keys()) == PAIR_COLUMNS
    by_key = {(r["b"], r["l"], r["alg"]): r for r in rows}
    classical = by_key[("1", "5", "classical")]
    improved = by_key[("1", "5", "improved")]
    assert classical["C_exact"] == improved["C_exact"] == "10"
    assert improved["D_exact"] == "5"
    total_classical = sum(
        int(classical[c]) for c in ("attempts_rational", "attempts_algebraic_simple", "attempts_algebraic_multiple")
    )
    total_improved = sum(
        int(improved[c]) for c in ("attempts_rational", "attempts_algebraic_simple", "attempts_algebraic_multiple")
    )
    assert total_classical == 10 and total_improved == 5
    assert classical["C_asym"] == "11.250000" and classical["D_asym"] == "6.250000"


def test_compare_runs_are_deterministic(tmp_path):
    args = ["compare", "--random", "--d", "3", "--m", "20", "--u", "200", "--y", "50", "--seed", "7"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main([*args, "--out", str(out1)]) == EXIT_OK
    assert main([*args, "--out", str(out2)]) == EXIT_OK
    for name in ("pairs.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pair_rows_in_small_chunks_write_the_same_bytes(fmt, tmp_path, monkeypatch, capsys):
    # 77 checked pairs: chunks of 3 pairs make 25 full slices and a short last one
    args = ["compare", "--random", "--d", "3", "--m", "20", "--u", "20", "--y", "11", "--seed", "7", "--format", fmt]
    assert main([*args, "--out", str(tmp_path / "default")]) == EXIT_OK
    monkeypatch.setattr(cli, "_PAIR_CHUNK", 3)
    assert main([*args, "--out", str(tmp_path / "chunked")]) == EXIT_OK
    assert json.loads((tmp_path / "chunked" / "summary.json").read_text())["pair_count"] == 77
    for name in (f"pairs.{fmt}", "summary.json"):
        assert (tmp_path / "chunked" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["montecarlo", "--d", "3", "--y", "11", "--trials", "50"], ["csv", "sievelab.engine", "sievelab.oracle"]),
        (["enumerate", "--d", "2", "--l", "3"], ["csv", "fractions", "sievelab.engine", "sievelab.oracle"]),
        (["compare", "--poly", "1,0,1", "--m", "4", "--u", "3", "--y", "5"], ["fractions", "decimal"]),
        (["sweep", "--d", "3", "--m", "20", "--u", "10", "--y", "7", "--instances", "2"], ["fractions", "decimal"]),
    ],
)
def test_montecarlo_and_enumerate_load_only_what_they_run(argv, unloaded, tmp_path):
    """A fresh process that runs one of these commands, --out included,
    imports only what it runs: montecarlo and enumerate never the sieves,
    the oracle or csv, and only montecarlo fractions (and with it decimal)."""
    script = "import json, sys; from sievelab.cli import main; main(sys.argv[1:]); print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "summary.json").is_file()
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "sievelab.experiments" in loaded and "sievelab.roots" in loaded
    assert loaded.isdisjoint(unloaded), sorted(loaded.intersection(unloaded))


def test_compare_rejects_non_monic_poly(capsys):
    # coefficients are ascending, so the last one must be 1
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--poly", "1,0,2", "--m", "4", "--u", "3", "--y", "5"])
    assert exc.value.code == 2
    assert "monic" in capsys.readouterr().err


def test_compare_accepts_constant_term_two(capsys):
    assert main(["compare", "--poly", "2,0,1", "--m", "4", "--u", "3", "--y", "5"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["identities_ok"] is True and summary["poly"] == [2, 0, 1]


def test_compare_rejects_poly_and_random_together():
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--poly", "1,0,1", "--random", "--m", "4", "--u", "3", "--y", "5"])
    assert exc.value.code == 2


def test_compare_requires_m():
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--poly", "1,0,1", "--u", "3", "--y", "5"])
    assert exc.value.code == 2


def test_json_row_format(tmp_path):
    out = tmp_path / "run"
    assert main(["compare", *WORKED, "--format", "json", "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "pairs.json").read_text())
    assert rows and set(rows[0]) == set(PAIR_COLUMNS)


def test_config_file_supplies_flags(tmp_path, capsys):
    config = tmp_path / "run.json"
    for values in (
        {"poly": [1, 0, 1], "m": 4, "u": 3, "y": 5},
        # values get the parsing of the flags they name
        {"poly": "1,0,1", "m": "4", "u": "3", "y": 5, "format": "csv", "random": False},
    ):
        config.write_text(json.dumps(values))
        assert main(["compare", "--config", str(config)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["u"] == 3 and summary["poly"] == [1, 0, 1]


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    for values, flags, u in (
        ({"poly": [1, 0, 1], "m": 4, "u": 3, "y": 5}, ["--u", "4"], 4),
        ({"random": True, "d": 2, "m": 4, "u": 3, "y": 5}, ["--u=5", "--seed", "2"], 5),
    ):
        config.write_text(json.dumps(values))
        assert main(["compare", "--config", str(config), *flags]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["u"] == u


def test_config_poly_is_refused_even_when_a_flag_overrides_it(tmp_path, capsys):
    # monic and degree >= 2 are rules of --poly alone, so its type checks them in a config value too
    config = tmp_path / "run.json"
    for poly in ([1, 0, 2], [3, 1]):
        config.write_text(json.dumps({"poly": poly, "m": 4, "u": 3, "y": 5}))
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", str(config), "--poly", "1,0,1"])
        assert exc.value.code == 2, poly
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --poly: " in captured.err, poly


def test_config_rejects_bad_json(tmp_path, capsys):
    config = tmp_path / "broken.json"
    for text in (
        "{not json",
        "[1, 0, 1]",
        '{"poly": [1, 0, 1], "m": 4, "u": 3.5, "y": 5}',
        '{"poly": [1, 0, 1], "m": 4, "u": 3, "y": 5, "bogus": 1}',
        '{"poly": [1, 0, 1], "m": 4, "u": 3, "y": 5, "trials": 10}',  # a flag of another subcommand
        '{"poly": [1, 0, 1], "m": 4, "u": 3, "y": 5, "form": "csv"}',  # keys are not abbreviated
        '{"poly": [1, 0, 1], "m": 4, "u": true, "y": 5}',
        '{"poly": [1, 0, 1], "m": 4, "u": 0, "y": 5}',
    ):
        config.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", str(config)])
        assert exc.value.code == 2, text
        assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", *WORKED[:4], "--u", "0", "--y", "5"],
        ["sieve", *WORKED[:6], "--y", "1"],
        ["sweep", "--d", "1", "--instances", "1"],
        ["sweep", "--m", "0", "--instances", "1"],
        ["compare", "--random", "--d", "1", "--m", "4", "--u", "3", "--y", "5"],
        ["sweep", "--instances", "-2"],
        ["sweep", "--instances", "0"],
        ["enumerate", "--d", "2", "--l", "4"],
        ["montecarlo", "--d", "3", "--y", str(10**6), "--trials", "1"],  # over the work cap
        ["montecarlo", "--d", "3", "--y", "100", "--trials", str(10**8)],
        ["enumerate", "--d", "1", "--l", "3137"],  # 3137^3 polynomial-residue pairs
        ["montecarlo", "--d", str(10**8), "--y", "2", "--trials", "1"],  # 10^8 coefficient draws
        ["compare", "--random", "--d", "1000", "--m", "1", "--u", "3", "--y", "5"],  # over MAX_D
        ["compare", "--poly", "1,x,1", "--m", "4", "--u", "3", "--y", "5"],  # a coefficient that is no integer
        ["compare", "--random", "--m", "4", "--u", "3", "--y", "5"],  # --random without its degree
        ["sieve", "--m", "4", "--u", "3", "--y", "5"],  # neither --poly nor --random
        # a flag the command needs is missing: "this command needs --<flag>"
        ["compare", "--poly", "1,0,1", "--m", "4", "--y", "5"],
        ["compare", "--poly", "1,0,1", "--m", "4", "--u", "3"],
        ["sieve", "--poly", "1,0,1", "--m", "4", "--u", "3"],
        ["montecarlo", "--d", "3", "--y", "30"],
        ["enumerate", "--d", "2"],
    ],
)
def test_out_of_range_values_are_usage_errors(argv, capsys, monkeypatch):
    from sievelab import engine, experiments

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    # every case is refused before any table, draw or enumeration block
    for module, name in ((engine, "build_table"), (experiments, "_draw"), (experiments, "lift_events"),
                         (experiments, "residue_scan")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_verbose_flag_sets_the_level_of_each_in_process_call(capsys):
    """With a root handler already installed, where logging.basicConfig adds
    none, each main call still logs INFO lines exactly when it has -v."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        infos = []
        for verbose in ([], ["-v"], []):
            records.clear()
            assert main([*verbose, "compare", *WORKED]) == EXIT_OK
            infos.append([r.getMessage() for r in records if r.levelno == logging.INFO])
    finally:
        root.removeHandler(handler)
    assert infos[0] == infos[2] == []
    assert infos[1] == ["compare: poly=(1, 0, 1) m=4 u=3 y=5"]


def test_unusable_out_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    # an empty --out, as a flag or a config key, would write into the current directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "config.json").write_text(json.dumps({"out": ""}))
    for argv in (["compare", *WORKED, "--out", ""], ["compare", *WORKED, "--config", "config.json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "--out: must name a directory" in captured.err
        assert [path.name for path in work.iterdir()] == ["config.json"]
    # a result file that cannot be written, since a directory stands in its
    # place, is refused before any work: the runners must never be called
    def never(*args, **kwargs):
        raise AssertionError("the run started although a result file is a directory")

    from sievelab import engine

    # sieve reads its runners from engine when it runs, the others are bound in cli
    runners = ((cli, "run_comparison"), (cli, "enumerate_exact"), (engine, "sieve_trivial"), (cli, "ratio_sweep"))
    (tmp_path / "out" / "pairs.csv").mkdir(parents=True)
    (tmp_path / "o2" / "summary.json").mkdir(parents=True)
    (tmp_path / "o3" / "smooth.json").mkdir(parents=True)
    (tmp_path / "o4" / "sweep.csv").mkdir(parents=True)
    for argv, path in (
        (["compare", *WORKED, "--out", str(tmp_path / "out")], tmp_path / "out" / "pairs.csv"),
        (["enumerate", "--d", "1", "--l", "2", "--out", str(tmp_path / "o2")], tmp_path / "o2" / "summary.json"),
        (["sieve", "--alg", "trivial", *WORKED, "--format", "json", "--out", str(tmp_path / "o3")],
         tmp_path / "o3" / "smooth.json"),
        (["sweep", "--instances", "1", "--d", "2", "--m", "3", "--u", "5", "--y", "5", "--out", str(tmp_path / "o4")],
         tmp_path / "o4" / "sweep.csv"),
    ):
        with monkeypatch.context() as patch, pytest.raises(SystemExit) as exc:
            for module, name in runners:
                patch.setattr(module, name, never)
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"cannot write {path}" in captured.err
        assert [p.name for p in path.parent.iterdir()] == [path.name] and not any(path.iterdir())
    for argv in (
        ["enumerate", "--d", "2", "--l", "2", "--out", str(blocker)],
        ["sweep", "--instances", "1", "--d", "2", "--m", "3", "--u", "5", "--y", "5", "--out", str(blocker / "x")],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any work
        assert "cannot create --out directory" in captured.err and "Traceback" not in captured.err
    # a result file whose open fails, here through a dangling symlink (file modes do not stop root)
    dangling = tmp_path / "o5" / "summary.json"
    dangling.parent.mkdir()
    dangling.symlink_to(tmp_path / "missing" / "summary.json")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--d", "1", "--l", "2", "--out", str(dangling.parent)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"cannot write {dangling}" in captured.err and "Traceback" not in captured.err
    # a usage error the handler finds leaves no directory behind
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--d", "2", "--l", "97", "--out", str(out)])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def parses(argv: list[str]) -> bool:
    """Whether the parser alone accepts argv; no handler runs."""
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return False
    return True


def test_table_cell_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from sievelab import engine

    # the README's, the tests' and the benchmark's sizes pass; u = 1023 is the largest table of at most 2^21 cells
    assert 1023 * 2047 <= 2**21 < 1024 * 2049
    for command in ("compare", "sieve", "sweep"):
        assert parses([command, "--u", "1023"]) and not parses([command, "--u", "1024"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_U", 3)  # u = 3 fits exactly, u = 4 does not
    assert main(["compare", *WORKED]) == EXIT_OK
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("table built")

    monkeypatch.setattr(engine, "build_table", refuse)
    config = tmp_path / "compare.json"
    config.write_text(json.dumps({"poly": [1, 0, 1], "m": 4, "u": 4, "y": 5}))
    sweep_config = tmp_path / "sweep.json"
    sweep_config.write_text(json.dumps({"sweep_instances": [
        {"d": 2, "m": 6, "u": 3, "y": 7, "seed": 1},  # fits, but is not built either
        {"d": 2, "m": 6, "u": 4, "y": 7, "seed": 1},
    ]}))
    for argv in (
        ["compare", *WORKED[:4], "--u", "4", "--y", "5"],
        ["sieve", *WORKED[:4], "--u", "4", "--y", "5"],
        ["sweep", "--instances", "2", "--d", "2", "--m", "3", "--u", "4", "--y", "5"],
        ["compare", "--config", str(config)],
        ["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "out")],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "must be <= 3, got 4" in captured.err
    assert not (tmp_path / "out").exists()


def test_degree_cap_is_a_usage_error(capsys):
    # the README's, the tests' and the benchmark's degrees (at most 8) pass
    d = cli.MAX_D
    assert d >= 8
    for command in ("compare", "sieve", "sweep"):
        assert parses([command, "--d", str(d)]) and not parses([command, "--d", str(d + 1)])
    for command in ("compare", "sieve"):
        assert parses([command, "--poly=" + ",".join(["0"] * d + ["1"])])
        assert not parses([command, "--poly=" + ",".join(["0"] * (d + 1) + ["1"])])
    assert f"at most {d + 1} (degree {d})" in capsys.readouterr().err
    sweep_parser = cli.build_parser().parse_args(["sweep"]).parser
    with pytest.raises(SystemExit):
        cli._sweep_instances(sweep_parser, [{"d": d + 1, "m": 6, "u": 3, "y": 5, "seed": 1}])
    assert f"must be <= {d}, got {d + 1}" in capsys.readouterr().err


def test_coefficient_bound_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from sievelab import engine, experiments

    # the README's, the tests' and the benchmark's m (at most 10^15, in the tiny sweep grid) pass
    top = cli.MAX_M
    assert top >= 10**15
    for command in ("compare", "sieve", "sweep"):
        assert parses([command, "--m", str(10**15)]) and parses([command, "--m", str(top)])
        assert not parses([command, "--m", str(top + 1)])
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in ((engine, "build_table"), (experiments, "build_lift_tables")):
        monkeypatch.setattr(module, name, refuse)
    entry = {"d": 2, "m": 6, "u": 3, "y": 5, "seed": 1}
    configs = {
        "compare.json": {"poly": [1, 0, 1], "m": top + 1, "u": 3, "y": 5},
        "sweep.json": {"sweep_instances": [entry, {**entry, "m": top + 1}]},  # the first entry fits, but is not built
    }
    for name, values in configs.items():
        (tmp_path / name).write_text(json.dumps(values))
    for argv in (
        ["compare", "--poly", "1,0,1", "--m", str(top + 1), "--u", "3", "--y", "5"],
        ["sieve", "--random", "--d", "2", "--m", str(top + 1), "--u", "3", "--y", "5"],
        ["sweep", "--instances", "1", "--d", "2", "--m", str(top + 1), "--u", "3", "--y", "5"],
        ["compare", "--config", str(tmp_path / "compare.json")],
        ["sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "out")],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"must be <= {top}, got {top + 1}" in captured.err, argv
    assert not (tmp_path / "out").exists()


def test_prime_scan_and_sweep_instance_caps_are_usage_errors(tmp_path, capsys, monkeypatch):
    from sievelab import engine, experiments, oracle

    # the README's, the tests' and the benchmark's prime bounds pass; y = 3942 is the largest
    # whose primes sum to at most 10^6 residues scanned for roots
    assert sum(primes_up_to(3942)) <= 10**6 < sum(primes_up_to(3943))
    for command in ("compare", "sieve", "sweep"):
        assert parses([command, "--y", "3942"]) and not parses([command, "--y", "3943"])
    assert parses(["sweep", "--instances", "1000"]) and not parses(["sweep", "--instances", "1001"])
    entry = {"d": 2, "m": 6, "u": 3, "y": 5, "seed": 1}
    sweep_parser = cli.build_parser().parse_args(["sweep"]).parser
    assert len(cli._sweep_instances(sweep_parser, [entry] * 1000)) == 1000
    with pytest.raises(SystemExit):
        cli._sweep_instances(sweep_parser, [entry] * 1001)
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_Y", 6)  # 2 + 3 + 5 fits, so y = 5 and 6 do and y = 7 does not
    monkeypatch.setattr(cli, "MAX_SWEEP_INSTANCES", 2)
    assert main(["compare", *WORKED]) == EXIT_OK
    assert main(["sweep", "--instances", "2", "--d", "2", "--m", "3", "--u", "3", "--y", "6"]) == EXIT_OK
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in ((engine, "build_table"), (engine, "build_lift_tables"),
                         (experiments, "build_lift_tables"), (oracle, "classify_roots")):
        monkeypatch.setattr(module, name, refuse)

    def config(name, values):
        path = tmp_path / name
        path.write_text(json.dumps(values))
        return str(path)

    over_y = [
        ["compare", *WORKED[:6], "--y", "7"],
        ["compare", *WORKED[:6], "--y", str(10**12)],
        ["sieve", *WORKED[:6], "--y", "7", "--alg", "trivial"],
        ["sweep", "--instances", "1", "--d", "2", "--m", "3", "--u", "3", "--y", "7"],
        ["compare", "--config", config("compare.json", {"poly": [1, 0, 1], "m": 4, "u": 3, "y": 7})],
        # the first entry fits, but is not built either
        ["sweep", "--config", config("sweep.json", {"sweep_instances": [entry, {**entry, "y": 7}]}),
         "--out", str(tmp_path / "out")],
    ]
    over_count = [
        ["sweep", "--instances", "3"],
        ["sweep", "--instances", str(10**12), "--out", str(tmp_path / "out")],
        ["sweep", "--config", config("count.json", {"instances": 3})],
        ["sweep", "--config", config("entries.json", {"sweep_instances": [entry] * 3})],
    ]
    for argv in over_y + over_count:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        wanted = "must be <= 6, got" if argv in over_y else "must be <= 2, got"
        assert wanted in captured.err, argv
    assert not (tmp_path / "out").exists()


def readme_commands() -> list[list[str]]:
    """The sievelab lines of the README's sh blocks, as argument lists."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines() if line.startswith("sievelab ")]


def test_readme_examples_run(tmp_path, capsys):
    # each README example's stdout and the sha256 of each row file it writes, pinned byte for byte
    pinned = json.loads(README_OUTPUTS.read_text())
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["compare", "sieve", "montecarlo", "enumerate", "sweep",
                                               "compare", "sieve", "sweep", "montecarlo"]
    assert commands == [entry["argv"] for entry in pinned]
    for k, (argv, entry) in enumerate(zip(commands, pinned)):
        out = tmp_path / f"run{k}"
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(out)
        else:
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_OK, argv
        printed = capsys.readouterr().out
        assert printed == entry["stdout"], argv
        summary = json.loads(printed[printed.index("{"):])
        assert summary["command"] == argv[0]
        assert json.loads((out / "summary.json").read_text()) == summary
        rows = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.iterdir()) if path.name != "summary.json"}
        assert rows == entry["row_files"], argv


def test_sieve_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["sieve", *WORKED, "--alg", "improved", "--out", str(out)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["alg"] == "improved"
    assert summary["attempts_total"] == 27
    assert summary["attempts_by_phase"]["rational"] > 0
    smooth = read_csv(out / "smooth.csv")
    assert summary["smooth_entries"] == len(smooth)
    for row in smooth:
        assert row["residual"] in ("1", "-1")


@pytest.mark.parametrize("coefficients, m, u, y, algebraic_dtype", [
    ((1, 0, 1), 4, 60, 30, np.int64),
    ((1,) * 9, 1, 170, 400, object),  # 9·170^8 >= 2^62: an int64 rational side, an exact algebraic side
])
def test_smooth_rows_match_the_entries_scan(coefficients, m, u, y, algebraic_dtype):
    f = SievePolynomial(coefficients, m)
    table = sieve_improved(f, u, y).table
    # an exact algebraic side is two int64 limbs a cell
    assert exact_dtype(algebraic_bound(f, u)) == algebraic_dtype
    assert limbs_of(table.rational) == 1 and limbs_of(table.algebraic) == (1 if algebraic_dtype is np.int64 else 2)
    sides = zip(exact_values(table.rational).tolist(), exact_values(table.algebraic).tolist())
    scanned = [[b, i - u, r * g]
               for b, (rational, algebraic) in enumerate(sides, start=1)
               for i, (r, g) in enumerate(zip(rational, algebraic)) if r * g in (1, -1)]
    assert scanned and cli._smooth_rows(table) == scanned
    assert all(type(value) is int for row in cli._smooth_rows(table) for value in row)


def test_flags_exist_only_where_they_are_read(capsys):
    # montecarlo and enumerate write no row file, and enumerate draws nothing
    for argv in (
        ["montecarlo", "--d", "2", "--y", "2", "--trials", "5", "--format", "json"],
        ["enumerate", "--d", "2", "--l", "2", "--format", "csv"],
        ["enumerate", "--d", "2", "--l", "2", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err


def test_sieve_trivial_reports_single_phase(capsys):
    assert main(["sieve", *WORKED, "--alg", "trivial"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert list(summary["attempts_by_phase"]) == ["total"]


def test_montecarlo_gate_passes(tmp_path, capsys):
    out = tmp_path / "mc"
    code = main(["montecarlo", "--d", "3", "--y", "30", "--trials", "2000", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["estimate"] <= 1.0
    assert summary["passes_gate"] is True
    assert abs(summary["reference_product"] - 0.6123) < 1e-3
    capsys.readouterr()


def test_montecarlo_matches_enumeration_probability(capsys):
    assert main(["montecarlo", "--d", "2", "--y", "2", "--trials", "5000", "--seed", "1"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["estimate"] - 0.75) <= 3 * summary["stderr"] + 1e-9


def test_montecarlo_rejects_zero_trials():
    with pytest.raises(SystemExit) as exc:
        main(["montecarlo", "--d", "2", "--y", "2", "--trials", "0"])
    assert exc.value.code == 2


def test_montecarlo_gate_failure_is_exit_one(monkeypatch, capsys):
    # an estimate pinned to zero cannot clear the gate
    def all_failures(model, trials):
        from sievelab.experiments import LiftEventReport, success_probability

        return LiftEventReport(
            degree=model.degree,
            smooth_bound=model.smooth_bound,
            seed=model.seed,
            trials=trials,
            successes=0,
            per_prime_failures={2: trials},
            reference_product=float(success_probability(model.degree, model.smooth_bound)),
        )

    monkeypatch.setattr(cli, "monte_carlo", all_failures)
    assert main(["montecarlo", "--d", "2", "--y", "2", "--trials", "50"]) == EXIT_GATE_FAILED
    capsys.readouterr()


def test_enumerate_prints_count(tmp_path, capsys):
    out = tmp_path / "enum"
    assert main(["enumerate", "--d", "2", "--l", "2", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "4/16"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["per_point_counts"] == [2, 2]
    assert summary["per_point_density"] == ["0.125000000", "0.125000000"]


def test_enumerate_rejects_huge_space():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--d", "2", "--l", "97"])
    assert exc.value.code == 2


def test_sweep_subcommand(tmp_path, capsys):
    out = tmp_path / "sweep"
    args = [
        "sweep", "--instances", "2", "--d", "2", "--m", "8", "--u", "25", "--y", "7",
        "--seed", "3", "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["instances"] == 2
    assert summary["improved_total"] < summary["classical_total"]
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2
    for row in rows:
        assert int(row["improved_total"]) < int(row["classical_total"])
    capsys.readouterr()

    out2 = tmp_path / "sweep2"
    assert main([*args[:-1], str(out2)]) == EXIT_OK
    assert (out / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    capsys.readouterr()


def test_sweep_instances_from_config(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps({"sweep_instances": [{"d": 2, "m": 6, "u": 20, "y": 7, "seed": 1}]})
    )
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["instances"] == 1
    # sweep_instances is a sweep key only
    with pytest.raises(SystemExit) as exc:
        main(["compare", *WORKED, "--config", str(config)])
    assert exc.value.code == 2
    capsys.readouterr()
    # entries are range-checked like the flags they pin
    for bad in ({"d": 1}, {"u": 0}):
        entry = {"d": 2, "m": 6, "u": 20, "y": 7, "seed": 1, **bad}
        config.write_text(json.dumps({"sweep_instances": [entry]}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config)])
        assert exc.value.code == 2, bad
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
    # an empty list is refused like --instances 0, and a key outside d, m, u, y, seed is named
    for entries, wanted in (
        ({"d": 2}, "sweep_instances must be a list of objects"),
        ([[2, 6, 20, 7, 1]], "sweep_instances entry [2, 6, 20, 7, 1] is not an object"),
        ([], "must be >= 1, got 0"),
        ([{"d": 2, "m": 3, "u": 3, "y": 5, "seed": 1, "extra": 9}], "unknown keys ['extra']"),
        ([{"d": 2, "m": 3, "u": 3, "y": 5}], "missing keys ['seed']"),
    ):
        config.write_text(json.dumps({"sweep_instances": entries}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config)])
        assert exc.value.code == 2, entries
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err and wanted in captured.err
    # instances, from the file or the flag, says something else than sweep_instances, so both is refused
    entries = [{"d": 2, "m": 6, "u": 20, "y": 7, "seed": 1}]
    for extra, flags in (({"instances": 3}, []), ({}, ["--instances", "2"]), ({"instances": 3}, ["--instances", "2"])):
        config.write_text(json.dumps({"sweep_instances": entries, **extra}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config), *flags])
        assert exc.value.code == 2, (extra, flags)
        captured = capsys.readouterr()
        assert captured.out == "" and "instances" in captured.err and "sweep_instances" in captured.err


def test_sweep_requires_instance_count():
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])
    assert exc.value.code == 2


def test_invariant_violation_maps_to_exit_three(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise InvariantViolation("planted for the exit-code check")

    monkeypatch.setattr(cli, "run_comparison", boom)
    assert main(["compare", *WORKED]) == EXIT_VIOLATION
    assert "invariant violation" in capsys.readouterr().err


def test_identity_mismatch_maps_to_exit_three(monkeypatch, capsys, caplog):
    real = cli.run_comparison

    def doctored(*args, **kwargs):
        comp = real(*args, **kwargs)
        # plant a classical rational mismatch at (b=1, l=2): expected 2, measured 3
        comp.report.expected[0, 0, 0, 0] = 2
        comp.report.measured[0, 0, 0, 0] = 3
        return comp

    monkeypatch.setattr(cli, "run_comparison", doctored)
    assert main(["compare", *WORKED]) == EXIT_VIOLATION
    summary = json.loads(capsys.readouterr().out)
    assert summary["identities_ok"] is False
    assert summary["mismatched_pairs"]
    assert "identity violation at (b=1, l=2): classical rational attempts expected 2, measured 3" in caplog.text


def test_table_mismatch_maps_to_exit_three(monkeypatch, capsys, caplog):
    from sievelab import experiments

    real = experiments.run_comparison

    def doctored(*args, **kwargs):
        comp = real(*args, **kwargs)
        side = comp.improved.table.algebraic
        assert limbs_of(side) == 1  # one limb a cell, so 7 is added to the value itself
        before = exact_values(side)
        side[0, 1, 4] += 7  # cell (b, a) = (2, 4 - u)
        assert (exact_values(side) - before != 0).sum() == 1 and exact_values(side)[1, 4] == before[1, 4] + 7
        return comp

    monkeypatch.setattr(cli, "run_comparison", doctored)
    monkeypatch.setattr(experiments, "run_comparison", doctored)
    assert main(["compare", *WORKED]) == EXIT_VIOLATION
    summary = json.loads(capsys.readouterr().out)
    assert summary["identities_ok"] is True and summary["tables_match"] is False
    assert "final classical and improved tables differ at (b, a) = (2, 1)" in caplog.text
    # sweep words it as compare does, prints its summary all the same and names the instance
    assert main(["sweep", "--instances", "1", "--d", "3", "--m", "5", "--u", "10", "--y", "7"]) == EXIT_VIOLATION
    assert json.loads(capsys.readouterr().out)["instances"] == 1
    assert "instance 0: final classical and improved tables differ at (b, a) = (2, -6)" in caplog.text


def test_failing_sweep_still_reports_every_instance(monkeypatch, capsys, caplog, tmp_path):
    from sievelab import experiments

    real = experiments.run_comparison
    planted = iter([False, True])  # only the second instance is doctored

    def doctored(*args, **kwargs):
        comp = real(*args, **kwargs)
        if next(planted):  # a classical rational mismatch at (b=1, l=2): expected 2, measured 3
            comp.report.expected[0, 0, 0, 0] = 2
            comp.report.measured[0, 0, 0, 0] = 3
        return comp

    monkeypatch.setattr(experiments, "run_comparison", doctored)
    out = tmp_path / "run"
    argv = ["sweep", "--instances", "2", "--d", "3", "--m", "5", "--u", "10", "--y", "7", "--out", str(out)]
    assert main(argv) == EXIT_VIOLATION
    summary = json.loads(capsys.readouterr().out)
    assert summary["instances"] == 2
    assert json.loads((out / "summary.json").read_text()) == summary
    assert [row["instance_id"] for row in read_csv(out / "sweep.csv")] == ["0", "1"]
    assert "instance 1: identity violation at (b=1, l=2): classical rational attempts expected 2, measured 3" in caplog.text
    assert "instance 0:" not in caplog.text


class ClosedStdout(io.TextIOBase):
    """A stdout whose reader is gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_keeps_the_exit_code(monkeypatch, caplog, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedStdout(fd))
        assert main(["compare", *WORKED]) == EXIT_OK
        # what is left to flush at exit goes to the null device
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        real = cli.run_comparison

        def doctored(*args, **kwargs):
            comp = real(*args, **kwargs)
            comp.report.expected[0, 0, 0, 0] = 2
            comp.report.measured[0, 0, 0, 0] = 3
            return comp

        monkeypatch.setattr(cli, "run_comparison", doctored)
        assert main(["compare", *WORKED]) == EXIT_VIOLATION
        assert "identity violation at (b=1, l=2): classical rational attempts expected 2, measured 3" in caplog.text
    finally:
        os.close(fd)


def child_env(**overrides) -> dict:
    """The environment of a child that imports the package this test imported, installed or not."""
    src = str(Path(sievelab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **overrides}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sievelab", "enumerate", "--d", "2", "--l", "3"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "9/81"


def test_closed_stdout_pipe_ends_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes, so its summary meets a broken pipe
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sievelab", "enumerate", "--d", "2", "--l", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(PYTHONUNBUFFERED=""),  # buffered stdout: the pipe breaks at the flush
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""


# bounds the contract test patches in, small enough that every accepted input is cheap
# m up to 10^15 still gives exact-integer algebraic sides at u = 4 and d = 5: 10^15 * 6 * 4^5 >= 2^62
SMALL_BOUNDS = {"MAX_U": 4, "MAX_Y": 13, "MAX_SWEEP_INSTANCES": 3, "MAX_D": 5, "MAX_M": 10**15}
SMALL_CAPS = {"ENUMERATION_CAP": 10**4, "MONTE_CARLO_CAP": 3000, "DRAW_CAP": 100}
# flag: (lowest accepted value or None, highest value drawn in range, highest accepted value or None)
INT_FLAGS = {
    "compare": {"d": (2, 5, 5), "m": (1, 10**15, 10**15), "u": (1, 4, 4), "y": (2, 13, 13), "seed": (None, 9, None)},
    "montecarlo": {"d": (1, 6, None), "y": (2, 13, None), "trials": (1, 20, None), "seed": (None, 9, None)},
    "enumerate": {"d": (1, 3, None), "l": (2, 7, None)},
    "sweep": {"instances": (1, 3, 3), "d": (2, 5, 5), "m": (1, 30, 10**15), "u": (1, 4, 4), "y": (2, 13, 13),
              "seed": (None, 9, None)},
}
INT_FLAGS["sieve"] = INT_FLAGS["compare"]
FORMATS = ("csv", "json")
CHOICE_FLAGS = {"compare": {"format": FORMATS}, "sweep": {"format": FORMATS},
                "sieve": {"format": FORMATS, "alg": ("trivial", "classical", "improved")}}


def draw_int(data, low, top, high):
    """A value for an integer flag, and whether its type refuses it."""
    kind = data.draw(st.sampled_from([*["in"] * 15, "low", "high", "junk"]))
    if kind == "low" and low is not None:
        return data.draw(st.integers(low - 10**12, low - 1)), True
    if kind == "high" and high is not None:
        return data.draw(st.integers(high + 1, high + 10**12)), True
    if kind != "in":
        return data.draw(st.sampled_from(["", "x", "1.5", "0x10", "1e3", "true"])), True
    value = data.draw(st.integers(-top if low is None else low, top))
    return (str(value) if data.draw(st.booleans()) else value), False


def draw_value(data, command: str, flag: str):
    """A value for one flag of `command`, and whether it breaks a rule."""
    if flag == "random":
        return True, False
    if flag == "poly":  # monic with small coefficients, or not a sieve polynomial
        kind = data.draw(st.sampled_from([*["monic"] * 10, "not monic", "too short", "too long", "junk"]))
        if kind == "junk":
            return "1,x,1", True
        size = {"too short": (1, 1), "too long": (6, 8)}.get(kind, (2, 5))  # degree 5 is SMALL_BOUNDS' MAX_D
        lower = data.draw(st.lists(st.integers(-3, 3), min_size=size[0], max_size=size[1]))
        lead = data.draw(st.sampled_from([0, 2, -1])) if kind == "not monic" else 1
        return ",".join(map(str, [*lower, lead])), kind != "monic"
    choices = CHOICE_FLAGS.get(command, {}).get(flag)
    if choices:
        value = data.draw(st.sampled_from([*choices * 5, "xml"]))
        return value, value not in choices
    return draw_int(data, *INT_FLAGS[command][flag])


def draw_entries(data):
    """A sweep_instances list, and whether it breaks a rule."""
    bad = False
    entries = []
    for _ in range(data.draw(st.integers(0, 4))):
        entry = {}
        for key in cli.ENTRY_KEYS:
            if data.draw(st.integers(0, 9)) == 9:
                bad = True  # a missing key
                continue
            entry[key], refused = draw_int(data, *INT_FLAGS["sweep"][key])
            bad |= refused
        if data.draw(st.integers(0, 9)) == 9:
            entry["extra"], bad = 1, True
        entries.append(entry)
    return entries, bad or not 1 <= len(entries) <= SMALL_BOUNDS["MAX_SWEEP_INSTANCES"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_invocations_keep_the_exit_code_contract(data, tmp_path, monkeypatch, capsys):
    """Random subcommands, with each flag missing, in argv, in a config file
    or in both, and each value in range or not: the exit code is one of
    0-3, no traceback, and a refused value is exit 2 with no stdout and no
    --out directory."""
    from sievelab import experiments

    for name, value in SMALL_BOUNDS.items():
        monkeypatch.setattr(cli, name, value)
    for name, value in SMALL_CAPS.items():
        monkeypatch.setattr(experiments, name, value)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    command = data.draw(st.sampled_from(sorted(INT_FLAGS)))
    flags = [*INT_FLAGS[command], *CHOICE_FLAGS.get(command, {})]
    if command in ("compare", "sieve"):  # mostly one of the two, as the command needs
        flags += data.draw(st.sampled_from([["poly"], ["random"]] * 3 + [["poly", "random"], []]))

    argv, config, placed, bad = [command], {}, set(), False
    for flag in flags:
        place = data.draw(st.sampled_from(["argv", "argv", "argv", "config", "config", "both", "missing"]))
        if place in ("config", "both"):  # a config value is parsed even when a flag overrides it
            config[flag], refused = draw_value(data, command, flag)
            bad |= refused
        if place in ("argv", "both"):
            value, refused = draw_value(data, command, flag)
            argv.append(f"--{flag}" if flag == "random" else f"--{flag}={value}")
            bad |= refused
        if place != "missing":
            placed.add(flag)
    if command == "sweep" and data.draw(st.booleans()):
        config["sweep_instances"], refused = draw_entries(data)
        bad |= refused or "instances" in placed
    elif command == "sweep":  # a sampled u and y are real work, so pin them
        argv += [f"--{flag}={INT_FLAGS['sweep'][flag][1]}" for flag in ("u", "y") if flag not in placed]
    if data.draw(st.integers(0, 9)) == 9:
        config["bogus"], bad = 1, True
    out = work / "out"
    where = data.draw(st.sampled_from(["fresh", "fresh", "fresh", "none", "file", "below file", "empty"]))
    if where == "empty" and data.draw(st.booleans()):
        config["out"] = ""
    elif where != "none":
        (work / "file").write_text("")
        argv += ["--out", str({"fresh": out, "file": work / "file", "below file": work / "file" / "out",
                               "empty": ""}[where])]
    bad |= where not in ("fresh", "none")
    if config or data.draw(st.integers(0, 9)) == 9:
        path = work / "config.json"
        path.write_text(json.dumps(config) if config else "{not json")
        argv += ["--config", str(path)]
        bad |= not config
    if data.draw(st.booleans()):
        argv.insert(0, "-v")

    monkeypatch.chdir(work)  # an empty --out would write here
    before = sorted(work.iterdir())
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    event(f"{command} exit {code}")
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in captured.err, argv
    if bad:
        assert code == 2, argv
    if code == 2:
        assert captured.out == "", argv
        assert sorted(work.iterdir()) == before, argv  # no --out directory and no result file
