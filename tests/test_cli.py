import csv
import json
import math
import os
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from twrelay import io as tio
from twrelay.beamformer import RateProfile
from twrelay.bounds import BoundsReport, r_lb_zf
from twrelay.cli import main, parse_bool, parse_power, parse_rho
from twrelay.df import df_boundary_value
from twrelay.errors import RankDeficiencyError
from twrelay.model import Beamformer, PowerConfig, effective, gen_channels, rate_pair, relay_power


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


REGION_ARGS = ["--profiles", "5", "--ratios", "5", "--seed", "42"]


class TestParsers:
    def test_power_linear_and_db(self):
        assert parse_power("10") == 10.0
        assert parse_power("20db") == pytest.approx(100.0)
        assert parse_power("0DB") == pytest.approx(1.0)
        assert parse_power("-3db") == pytest.approx(10.0 ** -0.3)

    def test_negative_linear_power_rejected(self):
        with pytest.raises(ValueError):
            parse_power("-1")

    def test_rho_range(self):
        assert parse_rho("0.5") == 0.5
        for bad in ("1.2", "-0.1"):
            with pytest.raises(ValueError):
                parse_rho(bad)

    def test_bool_forms(self):
        assert parse_bool("true") and parse_bool("1")
        assert not parse_bool("off")
        with pytest.raises(ValueError):
            parse_bool("maybe")


class TestRegionCommand:
    def test_writes_three_csvs_and_manifest(self, tmp_path):
        assert run(["region", "--rho", "0.5", *REGION_ARGS, "--out", str(tmp_path)]) == 0
        for name in ("boundary_optimal.csv", "boundary_mr.csv", "boundary_zf.csv"):
            rows = read_csv(tmp_path / name)
            assert len(rows) >= 6
        assert read_csv(tmp_path / "boundary_optimal.csv")[0] == tio.REGION_HEADER
        assert read_csv(tmp_path / "boundary_mr.csv")[0] == tio.REGION_HEADER + ["scheme"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["library_version"]
        assert manifest["seed"] == 42
        assert set(manifest["files"]) == {
            "boundary_optimal.csv",
            "boundary_mr.csv",
            "boundary_zf.csv",
        }
        assert set(manifest["timings_s"]) >= {"optimal", "mr", "zf", "total"}

    def test_manifest_records_defaults_in_force(self, tmp_path):
        run(["region", *REGION_ARGS, "--out", str(tmp_path)])
        settings = json.loads((tmp_path / "manifest.json").read_text())["settings"]
        # nothing but profiles/ratios/seed/out was given; defaults must appear
        assert settings["m"] == 4
        assert settings["rho"] == 0.5
        assert settings["p1"] == 10.0 and settings["p2"] == 10.0 and settings["pr"] == 10.0
        assert settings["delta-r"] == 1e-4
        assert settings["scheme"] == "all"

    def test_rho_out_of_range_exits_2_naming_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["region", "--rho", "1.2"])
        assert info.value.code == 2
        assert "--rho" in capsys.readouterr().err

    def test_invalid_power_after_parsing_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run(["region", "--pr", "nan", *REGION_ARGS, "--out", str(tmp_path)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "twrelay region: error:" in err and "p_relay" in err
        assert "Traceback" not in err

    def test_negative_db_as_own_token(self, tmp_path):
        run(["region", "--pr", "-3db", "--scheme", "mr", *REGION_ARGS, "--out", str(tmp_path)])
        settings = json.loads((tmp_path / "manifest.json").read_text())["settings"]
        assert settings["pr"] == pytest.approx(10.0 ** -0.3)

    def test_zf_at_rho_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["region", "--scheme", "zf", "--rho", "1.0"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--scheme" in err and "rho = 1" in err

    def test_rank_deficient_zf_sweep_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        import twrelay.cli as cli

        def deficient(scheme, eff, pc, n_ratios):
            raise RankDeficiencyError("the channel pair is rank deficient")

        monkeypatch.setattr(cli, "sweep_region", deficient)
        with pytest.raises(SystemExit) as info:
            run(["region", "--scheme", "zf", *REGION_ARGS, "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "twrelay region: error: the channel pair is rank deficient" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_scheme_all_at_rho_one_skips_zf_with_note(self, tmp_path):
        assert run(["region", "--rho", "1.0", *REGION_ARGS, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "boundary_zf.csv" not in manifest["files"]
        assert any("zf skipped" in note for note in manifest["notes"])

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["region", "--rho", "0.4", *REGION_ARGS]
        run(argv + ["--out", str(a)])
        run(argv + ["--out", str(b)])
        for name in ("boundary_optimal.csv", "boundary_mr.csv", "boundary_zf.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_db_suffix_equals_linear(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["region", "--pr", "10db", *REGION_ARGS, "--out", str(a)])
        run(["region", "--pr", "10", *REGION_ARGS, "--out", str(b)])
        name = "boundary_optimal.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_single_scheme_selection(self, tmp_path):
        run(["region", "--scheme", "mr", *REGION_ARGS, "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"] == ["boundary_mr.csv"]
        assert not (tmp_path / "boundary_optimal.csv").exists()

    def test_one_reduced_frame_per_job(self, tmp_path, monkeypatch):
        # the optimal boundary and both sweeps share the job's effective
        # channel, and each boundary is written once
        import twrelay.cli as cli

        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for module in [m for name, m in sys.modules.items() if name.startswith("twrelay.")]:
            if callable(getattr(module, "effective", None)):
                monkeypatch.setattr(module, "effective", counting("effective", module.effective))
        for name in ("sweep_region", "rate_region_boundary"):
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        monkeypatch.setattr(tio, "format_region_csv", counting("format_region_csv", tio.format_region_csv))
        assert run(["region", "--rho", "0.5", *REGION_ARGS, "--out", str(tmp_path)]) == 0
        assert Counter(calls) == {"effective": 1, "rate_region_boundary": 1, "sweep_region": 2, "format_region_csv": 3}


class TestConfigFile:
    def test_config_supplies_values_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho=0.25\nseed=7\nprofiles=5\nratios=5\nscheme=mr\n")
        out1 = tmp_path / "one"
        run(["region", "--config", str(cfg), "--out", str(out1)])
        settings = json.loads((out1 / "manifest.json").read_text())["settings"]
        assert settings["rho"] == 0.25 and settings["seed"] == 7

        out2 = tmp_path / "two"
        run(["region", "--config", str(cfg), "--rho", "0.5", "--out", str(out2)])
        settings = json.loads((out2 / "manifest.json").read_text())["settings"]
        assert settings["rho"] == 0.5  # flag beats file
        assert settings["seed"] == 7  # file beats default

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rh=0.25\n")
        with pytest.raises(SystemExit) as info:
            run(["region", "--config", str(cfg)])
        assert info.value.code == 2
        assert "rh" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ("missing.cfg", "."), ids=("missing", "directory"))
    def test_unreadable_config_exits_2(self, path, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run(["bounds", "--config", str(tmp_path / path), "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "twrelay bounds: error: argument --config: " in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_config_value_errors_name_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho=1.7\n")
        with pytest.raises(SystemExit) as info:
            run(["region", "--config", str(cfg)])
        assert info.value.code == 2
        assert "--rho" in capsys.readouterr().err


class TestSumrateCommand:
    def test_reversed_grid_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run(["sumrate", "--snr-min", "10", "--snr-max", "0", "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "twrelay sumrate: error: snr-max" in capsys.readouterr().err

    def test_default_grid_shape(self, tmp_path):
        assert run(["sumrate", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sumrate.csv")
        assert rows[0] == ["snr_db", "c_ub_sym", "r_lb_mr", "r_mr", "r_lb_zf", "r_zf", "r_dr", "r_ow"]
        assert len(rows) - 1 == 21
        assert all(len(r) == 8 for r in rows)
        assert [float(r[0]) for r in rows[1:]] == [float(2 * k) for k in range(21)]

    def test_forty_db_gaps_near_asymptotes(self, tmp_path):
        run(["sumrate", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "sumrate.csv")
        last = dict(zip(rows[0], map(float, rows[-1])))
        assert last["snr_db"] == 40.0
        assert abs((last["c_ub_sym"] - last["r_lb_mr"]) - 0.1699) <= 0.02
        assert abs((last["c_ub_sym"] - last["r_lb_zf"]) - 0.5850) <= 0.02

    def test_zf_lower_bound_column_matches_closed_form(self, tmp_path):
        run(["sumrate", "--snr-min", "0", "--snr-max", "8", "--snr-step", "4", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "sumrate.csv")
        assert len(rows) - 1 == 3
        for row in rows[1:]:
            record = dict(zip(rows[0], map(float, row)))
            p = 10.0 ** (record["snr_db"] / 10.0)
            want = r_lb_zf(PowerConfig(p, p, p), 1.0, 1.0, 1.0 / 3.0)
            assert abs(record["r_lb_zf"] - want) <= 1e-6
            assert record["r_lb_zf"] <= record["r_zf"] + 1e-9
            assert record["r_lb_mr"] <= record["r_mr"] + 1e-9

    def test_every_row_keeps_the_bound_chain(self, tmp_path):
        # each scheme's searched sum rate reaches its closed-form lower bound,
        # and no achievable sum rate passes the symmetric capacity bound, on
        # every row of 600 tables: seeds 0-39, M 2/4/8, rho 0.05-0.99 and
        # -10 to 60 dB, 9000 rows
        rows = 0
        for seed in range(40):
            for m in (2, 4, 8):
                for rho in (0.05, 0.3, 0.6, 0.9, 0.99):
                    out = tmp_path / f"{seed}-{m}-{rho}"
                    channel = ["--m", str(m), "--rho", repr(rho), "--seed", str(seed)]
                    grid = ["--snr-min", "-10", "--snr-max", "60", "--snr-step", "5"]
                    assert run(["sumrate", *channel, *grid, "--out", str(out)]) == 0
                    table = read_csv(out / "sumrate.csv")
                    for row in table[1:]:
                        record = dict(zip(table[0], map(float, row)))
                        assert record["r_lb_mr"] <= record["r_mr"] + 1e-9
                        assert record["r_lb_zf"] <= record["r_zf"] + 1e-9
                        for column in ("r_mr", "r_zf", "r_dr", "r_ow"):
                            assert record[column] <= record["c_ub_sym"] + 1e-9
                        rows += 1
        assert rows == 9000

    def test_scheme_columns_dominate_baselines_at_high_snr(self, tmp_path):
        run(["sumrate", "--snr-min", "30", "--snr-max", "30", "--snr-step", "2", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "sumrate.csv")
        record = dict(zip(rows[0], map(float, rows[1])))
        assert record["r_dr"] < record["r_mr"]
        assert record["r_ow"] < record["r_mr"]

    def test_one_reduced_frame_and_one_forms_build_per_scheme(self, tmp_path, monkeypatch):
        # the five grid points share one effective channel and one set of
        # channel forms per scheme
        import twrelay.cli as cli
        import twrelay.schemes as schemes

        frames, built = [], []
        effective, forms = schemes.effective, schemes._ChannelForms

        def counting_effective(pair):
            frames.append(pair)
            return effective(pair)

        def counting_forms(scheme, eff):
            built.append(scheme)
            return forms(scheme, eff)

        for module in (cli, schemes):
            monkeypatch.setattr(module, "effective", counting_effective)
        monkeypatch.setattr(cli, "_ChannelForms", counting_forms)
        argv = ["sumrate", "--snr-max", "8", "--snr-step", "2", "--out", str(tmp_path)]
        assert run(argv) == 0
        assert len(read_csv(tmp_path / "sumrate.csv")) - 1 == 5
        assert len(frames) == 1
        assert built == ["mr", "zf"]

    def test_non_finite_rates_exit_1_and_write_nothing(self, tmp_path, capsys):
        # at 1600 dB p^2 overflows and the schemes' rates come out inf
        with np.errstate(over="ignore"):
            code = run(["sumrate", "--snr-min", "1600", "--snr-max", "1600", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "twrelay sumrate: error: row 1, column r_mr is inf, not a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sumrate.csv").exists()

    @pytest.mark.parametrize("rows, blocks", ((21, [21]), (130, [64, 64, 2])), ids=("21", "130"))
    def test_one_grid_product_per_scheme_and_block(self, rows, blocks, tmp_path, monkeypatch):
        # each block of at most 64 rows makes one grid product per scheme,
        # and the table is the row-by-row search's, bit for bit
        import twrelay.schemes as schemes

        sizes = []

        def counting(sweeps):
            sizes.append(len(sweeps))
            return grid_products(sweeps)

        grid_products = schemes._grid_products
        monkeypatch.setattr(schemes, "_grid_products", counting)
        argv = ["sumrate", "--snr-min", "-20", "--snr-max", str(rows - 21), "--snr-step", "1", "--out", str(tmp_path)]
        assert run(argv) == 0
        assert sizes == [size for size in blocks for _ in ("mr", "zf")]
        table = read_csv(tmp_path / "sumrate.csv")
        header, cells = table[0], table[1:]
        assert len(cells) == rows
        pair = gen_channels(4, 1.0 / 3.0, 42)
        for row in cells:
            p = 10.0 ** (float(row[0]) / 10.0)
            for scheme in ("mr", "zf"):
                rates = schemes.scheme_best_rates(scheme, pair, PowerConfig(p, p, p))
                assert float(row[header.index(f"r_{scheme}")]) == rates.r21 + rates.r12

    def test_largest_grid_is_accepted(self, monkeypatch, tmp_path):
        # 1562.5 dB in steps of 2^-6 dB is 100000 exact steps, 100001
        # points; the job is stopped at its channel draw
        import twrelay.cli as cli

        class Stop(Exception):
            pass

        def stop(*args):
            raise Stop

        monkeypatch.setattr(cli, "gen_channels", stop)
        with pytest.raises(Stop):
            run(["sumrate", "--snr-max", "1562.5", "--snr-step", "0.015625", "--out", str(tmp_path)])
        with pytest.raises(SystemExit):
            run(["sumrate", "--snr-max", "1562.515625", "--snr-step", "0.015625", "--out", str(tmp_path)])

    def test_parallel_channels_fail_on_the_zf_bound(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run(["sumrate", "--rho", "1", "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "twrelay sumrate: error: zero-forcing bound requires rho < 1" in capsys.readouterr().err
        assert not (tmp_path / "sumrate.csv").exists()


BAD_NUMBERS = {
    "db-overflow-bounds-p1": (["bounds", "--p1", "4000db"], "argument --p1: 4000.0 dB overflows"),
    "db-overflow-region-pr": (["region", "--pr", "3100db"], "argument --pr: 3100.0 dB overflows"),
    "nan-theta1": (["bounds", "--theta1", "nan"], "argument --theta1: must be positive and finite"),
    "nan-delta-r": (["region", "--delta-r", "nan"], "argument --delta-r: must be positive and finite"),
    "nan-snr-min": (["sumrate", "--snr-min", "nan"], "argument --snr-min: must be finite"),
    "inf-snr-max": (["sumrate", "--snr-max", "inf"], "argument --snr-max: must be finite"),
    "nan-snr-step": (["sumrate", "--snr-step", "nan"], "argument --snr-step: must be positive and finite"),
    "inf-snr-step": (["sumrate", "--snr-step", "inf"], "argument --snr-step: must be positive and finite"),
    "snr-overflow": (["sumrate", "--snr-max", "3090"], "3090.0 dB overflows"),
    # about 4e13 points: refused before any channel is drawn
    "oversized-grid": (["sumrate", "--snr-step", "1e-12"], "more than 100001 points"),
    "infinite-span": (["sumrate", "--snr-min=-1e308", "--snr-max", "1e308"], "more than 100001 points"),
}


@pytest.mark.parametrize("argv, message", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_bad_number_exits_2_with_a_usage_error(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run([*argv, "--out", str(tmp_path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"twrelay {argv[0]}: error: " in err and message in err
    assert list(tmp_path.iterdir()) == []


NUMERICAL_FAILURES = {
    # at p1 = 1e300 a beamformer must null g1 to 1e-150 of its size, beyond
    # double precision: scaled to the budget, the best one leaves the ray
    # far inside the exit
    "zero-power": (["--p1", "1e300", "--profiles", "3", "--scheme", "optimal"], "exit 443.950178280548 falls to 1.40087806740749 "),
    # no beamformer comes within delta-r of the exit; both rates print as floats
    "delta-r": (["--delta-r", "1e-300", "--profiles", "17"], "exit 1.1741263542065752 falls to 1.174126354206575"),
}


@pytest.mark.parametrize("argv, message", NUMERICAL_FAILURES.values(), ids=NUMERICAL_FAILURES.keys())
def test_optimal_tracer_failure_exits_1_with_an_error(argv, message, tmp_path, capsys):
    with np.errstate(all="ignore"):
        code = run(["region", *argv, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("twrelay region: error: ") and message in err
    assert "Traceback" not in err and "np.float64" not in err
    assert not (tmp_path / "boundary_optimal.csv").exists()


# (argv, must the command succeed): extreme budgets and source powers,
# and the 100-300 dB regions of seeds whose runs once ended in tracebacks
EXTREME_SETTINGS = {
    "capacity-1e16": (["capacity", "--pr", "1e16", "--rho", "0.99", "--profiles", "3", "--grid", "2"], True),
    "p1-210db": (["region", "--p1", "210db", "--profiles", "3", "--scheme", "optimal"], True),
    "pr-1e-250": (["region", "--pr", "1e-250", "--profiles", "3", "--scheme", "optimal"], True),
    "pr-1e-300-rho-1": (["region", "--pr", "1e-300", "--rho", "1", "--profiles", "3", "--scheme", "optimal"], True),
    **{
        f"pr-{db}db-seed-{seed}": (
            ["region", "--pr", f"{db}db", "--profiles", "9", "--scheme", "optimal", "--seed", str(seed)],
            False,
        )
        for db in (100, 160, 200, 300)
        for seed in (3, 12, 14, 26)
    },
}


@pytest.mark.parametrize("argv, must_succeed", EXTREME_SETTINGS.values(), ids=EXTREME_SETTINGS.keys())
def test_no_traceback_at_extreme_settings(argv, must_succeed, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code in ((0,) if must_succeed else (0, 1))
    if code:
        assert len(err.splitlines()) == 1 and err.startswith(f"twrelay {argv[0]}: error: ")
        assert list(tmp_path.iterdir()) == []
    else:
        assert err == ""


FAILING_JOBS = {
    # the AF region's tracer fails after every decode-and-forward table is computed
    "df-compare-tracer": (["df-compare", "--p1", "1e300", "--profiles", "3", "--weights", "3", "--taus", "2"], 1),
    # the broadcast arc refuses the budget after the MAC table is computed
    "df-compare-no-budget": (["df-compare", "--pr", "0", "--profiles", "3", "--weights", "3", "--taus", "2"], 2),
    # the sweeps refuse the budget after the optimal boundary is traced
    "region-no-budget": (["region", "--pr", "0", "--profiles", "3"], 2),
}


@pytest.mark.parametrize("argv, code", FAILING_JOBS.values(), ids=FAILING_JOBS.keys())
def test_a_failing_command_writes_nothing(argv, code, tmp_path):
    try:
        with np.errstate(all="ignore"):
            got = run([*argv, "--out", str(tmp_path)])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert list(tmp_path.iterdir()) == []


# an --out that is a file, or a path through one, cannot hold the output files
UNUSABLE_OUTS = {
    "bounds-file": (["bounds"], "taken"),
    "region-through-file": (["region", "--profiles", "3"], os.path.join("taken", "x")),
}


@pytest.mark.parametrize("argv, out", UNUSABLE_OUTS.values(), ids=UNUSABLE_OUTS.keys())
def test_an_unusable_out_exits_2_before_any_work(argv, out, tmp_path, capsys, monkeypatch):
    import twrelay.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the job started")

    for name in ("gen_channels", "bounds_report"):
        monkeypatch.setattr(cli, name, refuse)
    (tmp_path / "taken").write_bytes(b"kept\n")
    with pytest.raises(SystemExit) as info:
        run([*argv, "--out", str(tmp_path / out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"twrelay {argv[0]}: error: argument --out: " in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["taken"] and (tmp_path / "taken").read_bytes() == b"kept\n"


def test_an_os_error_while_writing_exits_1_with_one_line(tmp_path, capsys):
    # a directory where bounds.json goes: the rename fails after the job's work
    (tmp_path / "bounds.json").mkdir()
    assert run(["bounds", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("twrelay bounds: error: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert os.listdir(tmp_path) == ["bounds.json"] and os.listdir(tmp_path / "bounds.json") == []


def test_a_failed_write_leaves_no_old_manifest(tmp_path, monkeypatch, capsys):
    # the region tail fails at its second file: the first is the new run's,
    # and no manifest is left to describe the folder as the old run's
    import twrelay.cli as cli

    assert run(["region", "--scheme", "mr", *REGION_ARGS, "--out", str(tmp_path)]) == 0
    written = []

    def failing(path, text):
        if written:
            raise OSError("disk full")
        written.append(os.path.basename(path))
        write(path, text)

    write = cli.tio.atomic_write_text
    monkeypatch.setattr(cli.tio, "atomic_write_text", failing)
    capsys.readouterr()
    assert run(["region", *REGION_ARGS, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "twrelay region: error: disk full\n"
    assert written == ["boundary_optimal.csv"]
    assert sorted(os.listdir(tmp_path)) == ["boundary_mr.csv", "boundary_optimal.csv"]


def test_a_directory_at_the_manifest_stops_the_tail_first(tmp_path, capsys):
    # the old manifest cannot be removed, so no table is replaced
    assert run(["bounds", "--rho", "0.3", "--out", str(tmp_path)]) == 0
    before = (tmp_path / "bounds.json").read_bytes()
    (tmp_path / "manifest.json").unlink()
    (tmp_path / "manifest.json").mkdir()
    capsys.readouterr()
    assert run(["bounds", "--rho", "0.6", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("twrelay bounds: error: ")
    assert (tmp_path / "bounds.json").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["bounds.json", "manifest.json"]


@pytest.mark.parametrize("umask", (0o022, 0o077), ids=("022", "077"))
def test_output_modes_follow_the_umask(umask, tmp_path):
    old = os.umask(umask)
    try:
        assert run(["bounds", "--out", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)
    modes = {path.name: path.stat().st_mode & 0o777 for path in (tmp_path / "out").iterdir()}
    assert modes == {"bounds.json": 0o666 & ~umask, "manifest.json": 0o666 & ~umask}
    assert (tmp_path / "out").stat().st_mode & 0o777 == 0o777 & ~umask


def _infinite_df_ray(pent, arc, profile):
    return math.inf, 0.5


NON_FINITE_TABLES = {
    # the MR boundary's r12 overflows after the optimal boundary is traced
    "region": (["region", "--p1", "1e200", "--pr", "1e200", "--profiles", "3"], None),
    # the df_region table is formatted after the two half-region tables and the slices
    "df-compare": (["df-compare", "--profiles", "3", "--weights", "3", "--taus", "2"], _infinite_df_ray),
}


@pytest.mark.parametrize("argv, df_ray", NON_FINITE_TABLES.values(), ids=NON_FINITE_TABLES.keys())
def test_a_non_finite_table_exits_1_and_writes_nothing(argv, df_ray, tmp_path, monkeypatch, capsys):
    import twrelay.cli as cli

    if df_ray is not None:
        monkeypatch.setattr(cli, "_df_ray", df_ray)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--out", str(tmp_path)]) == 1
    assert "not a finite number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_an_overflowing_mac_exits_1_naming_the_mac_sum_rate(tmp_path, capsys):
    # at p = 1e200 the MAC's 2x2 determinant overflows to inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["df-compare", "--p", "1e200", "--profiles", "3", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "twrelay df-compare: error: the MAC sum rate is nan, not a finite number\n"
    assert list(tmp_path.iterdir()) == []


HUGE_TRACED = ["--p1", "1e308", "--p2", "1e308", "--profiles", "3"]
HUGE_SOURCE_POWERS = {
    "region": ["region", "--scheme", "optimal", *HUGE_TRACED],
    "df-compare": ["df-compare", *HUGE_TRACED],
    "capacity": ["capacity", "--grid", "2", *HUGE_TRACED],
    # the top of the accepted SNR range: the schemes' rates divide inf by inf
    "sumrate": ["sumrate", "--snr-min", "3070", "--snr-max", "3080", "--snr-step", "1"],
}


@pytest.mark.parametrize("argv", HUGE_SOURCE_POWERS.values(), ids=HUGE_SOURCE_POWERS.keys())
def test_huge_source_powers_exit_1_with_no_warning(argv, tmp_path, capsys):
    # at p1 = p2 = 1e308 the AF tracer's null vectors overflow (and
    # df-compare's MAC overflows first): the run fails with one error line,
    # no numpy warning and no file
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run([*argv, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"twrelay {argv[0]}: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("p", ["1e154", "1e300"])
@pytest.mark.parametrize("command", [["region", "--scheme", "optimal"], ["capacity", "--grid", "2"]], ids=["region", "capacity"])
def test_large_source_powers_write_rows_that_lift(command, p, tmp_path):
    # the reduced channels are real, so no imaginary rounding grows with
    # the source powers
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([*command, "--p1", p, "--p2", p, "--profiles", "5", "--out", str(tmp_path)]) == 0
    _assert_rows_lift(tmp_path, f"{'boundary_optimal' if command[0] == 'region' else 'capacity'}.csv")


FLAT_EXITS = {
    # rays that leave at a corner of the region the budget does not bind,
    # where r_hat(t) is flat and the exit's bracket lands anywhere in [0, 1]
    "rho-0.5-300db-seed-2": ["--rho", "0.5", "--pr", "300db", "--seed", "2"],
    "rho-0-150db-seed-0": ["--rho", "0", "--pr", "150db", "--seed", "0"],
    # rounding flips the gap's sign at t = 0, whose r_hat lies above t = 1's
    "rho-0-200db-seed-3": ["--rho", "0", "--pr", "200db", "--m", "2", "--p1", "40db", "--seed", "3"],
}


@pytest.mark.parametrize("argv", FLAT_EXITS.values(), ids=FLAT_EXITS.keys())
def test_flat_exits_write_rows_that_lift(argv, tmp_path):
    assert run(["region", "--scheme", "optimal", "--profiles", "9", *argv, "--out", str(tmp_path)]) == 0
    _assert_rows_lift(tmp_path, "boundary_optimal.csv")


def _assert_rows_lift(out, name):
    """Every row's B, lifted through the job's frame, spends the budget
    and reaches the row's rates."""
    settings = json.loads((out / "manifest.json").read_text())["settings"]
    pair = gen_channels(settings["m"], settings["rho"], settings["seed"])
    U = effective(pair).U
    header, *rows = read_csv(out / name)
    assert rows
    for row in rows:
        cells = dict(zip(header, map(float, row)))
        B = np.array([cells[f"B_re[{k}]"] + 1j * cells[f"B_im[{k}]"] for k in range(4)]).reshape(2, 2)
        pc = PowerConfig(cells["p1"], cells["p2"], settings["pr"])
        A = Beamformer(B=B, U=U).full()
        rates = rate_pair(A, pair, pc)
        assert relay_power(A, pair, pc) == pytest.approx(settings["pr"], rel=1e-9)
        assert rates.r21 >= cells["r21"] - 1e-9 and rates.r12 >= cells["r12"] - 1e-9


@pytest.mark.parametrize(
    "argv, files",
    [
        (["region", *REGION_ARGS], ["boundary_optimal.csv", "boundary_mr.csv", "boundary_zf.csv"]),
        (["region", "--rho", "0", "--m", "2", "--p1", "1", "--p2", "100", "--seed", "7"], ["boundary_optimal.csv", "boundary_mr.csv", "boundary_zf.csv"]),
        (["capacity", "--grid", "2", "--profiles", "5"], ["capacity.csv"]),
        (["df-compare", "--profiles", "3", "--weights", "5", "--taus", "5"], ["af_region.csv"]),
    ],
    ids=["region", "region-rho-0", "capacity", "df-compare"],
)
def test_every_imaginary_cell_is_zero(argv, files, tmp_path):
    # the reduced frame is real, so every relay matrix is real
    assert run([*argv, "--out", str(tmp_path)]) == 0
    for name in files:
        header, *rows = read_csv(tmp_path / name)
        columns = [k for k, cell in enumerate(header) if cell.startswith("B_im")]
        assert len(columns) == 4 and rows
        assert {row[k] for row in rows for k in columns} == {"0.0"}, name


def _bounds_settings():
    """Gains from 1e-200 to 1e200 and equal powers from 1e-300 to the top
    of the float range, the default powers and six seeded draws among
    them, at rho = 0, 0.5, 0.99 and 1."""
    draws = 10.0 ** np.random.default_rng(22).uniform(-300.0, 308.0, size=6)
    powers = [1e-300, 10.0, 9e307, 1e308, *draws.tolist()]
    for theta1 in (1e-200, 1.0, 1e100, 1e200):
        for theta2 in (1.0, 1e200):
            for rho in (0.0, 0.5, 0.99, 1.0):
                for p in powers:
                    yield theta1, theta2, rho, p


def test_bounds_write_finite_ordered_values_or_exit_1(tmp_path, capsys):
    # every setting ends in a finite bounds.json with
    # r_lb_mr <= c_ub <= c_ub0 and, where c_ub0 is positive,
    # r_lb_zf <= c_ub, or in one error line and no file
    written = 0
    for i, (theta1, theta2, rho, p) in enumerate(_bounds_settings()):
        out = tmp_path / str(i)
        argv = ["bounds", "--theta1", repr(theta1), "--theta2", repr(theta2), "--rho", repr(rho)]
        argv += ["--p1", repr(p), "--p2", repr(p), "--pr", repr(p), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        std = capsys.readouterr()
        if code == 1:
            assert std.err.startswith("twrelay bounds: error: ") and std.err.count("\n") == 1, argv
            assert not out.exists() or list(out.iterdir()) == [], argv
            continue
        assert code == 0 and std.err == "", argv
        values = json.loads((out / "bounds.json").read_text())
        assert all(math.isfinite(v) for v in values.values() if v is not None), argv
        assert values["r_lb_mr"] <= values["c_ub"] <= values["c_ub0"], argv
        # where every upper bound rounds to 0.0, r_lb_zf keeps rates below 2^-53
        assert values["r_lb_zf"] is None or values["c_ub0"] == 0.0 or values["r_lb_zf"] <= values["c_ub"], argv
        written += 1
    assert written >= 100


class TestBoundsCommand:
    def test_writes_json_and_prints_table(self, tmp_path, capsys):
        assert run(["bounds", "--rho", "0.5", "--out", str(tmp_path)]) == 0
        report = BoundsReport(**json.loads((tmp_path / "bounds.json").read_text()))
        assert math.isfinite(report.c_ub)
        out = capsys.readouterr().out
        assert "c_ub" in out and "r_lb_mr" in out

    def test_symmetric_setup_reports_tight_bound(self, tmp_path):
        run(["bounds", "--rho", "0.5", "--p1", "10", "--p2", "10", "--pr", "10", "--out", str(tmp_path)])
        report = BoundsReport(**json.loads((tmp_path / "bounds.json").read_text()))
        assert report.c_ub_sym is not None
        assert report.c_ub_sym <= report.c_ub0 + 1e-12

    @pytest.mark.parametrize("theta1, theta2", [("1e-200", "1e200"), ("1e200", "1e-200")])
    def test_a_bound_that_rounds_to_zero_is_written(self, tmp_path, theta1, theta2):
        # a term of c_ub's saddle leaves the float range, and c_ub0 is 0.0
        assert run(["bounds", "--theta1", theta1, "--theta2", theta2, "--out", str(tmp_path)]) == 0
        values = json.loads((tmp_path / "bounds.json").read_text())
        assert values["c_ub"] == values["c_ub0"] == values["r_lb_mr"] == 0.0

    def test_an_underflowing_mr_noise_term_writes_zero(self, tmp_path):
        # n1 = theta1 (1 + rho) P_R underflows, and c_ub0 is 0.0
        argv = ["--theta1", "1e-200", "--theta2", "1", "--p1", "1e-300", "--p2", "1e-300", "--pr", "1e-300"]
        assert run(["bounds", *argv, "--out", str(tmp_path)]) == 0
        values = json.loads((tmp_path / "bounds.json").read_text())
        assert values["r_lb_mr"] == values["c_ub"] == values["c_ub0"] == 0.0

    def test_grid_flag_changes_nothing(self, tmp_path):
        # --grid stays accepted and recorded, but c_ub no longer searches
        assert run(["bounds", "--rho", "0.3", "--out", str(tmp_path / "plain")]) == 0
        want = (tmp_path / "plain" / "bounds.json").read_bytes()
        for grid in ("33", "5"):
            out = tmp_path / grid
            assert run(["bounds", "--rho", "0.3", "--grid", grid, "--out", str(out)]) == 0
            assert (out / "bounds.json").read_bytes() == want
            assert json.loads((out / "manifest.json").read_text())["settings"]["grid"] == int(grid)
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "--grid", "4", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestDfCompareCommand:
    def test_writes_four_region_file_set(self, tmp_path):
        argv = [
            "df-compare", "--rho", "0.95", "--p", "100", "--seed", "7",
            "--profiles", "5", "--taus", "3", "--weights", "9", "--out", str(tmp_path),
        ]
        assert run(argv) == 0
        names = ["half_mac.csv", "half_bc.csv", "df_tau_slices.csv", "df_region.csv", "af_region.csv"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"] == names
        assert read_csv(tmp_path / "half_mac.csv")[0] == ["r21", "r12"]
        assert read_csv(tmp_path / "half_bc.csv")[0] == ["r21", "r12"]
        assert read_csv(tmp_path / "df_region.csv")[0] == ["tau", "r21", "r12"]
        assert read_csv(tmp_path / "df_tau_slices.csv")[0] == ["tau", "r21", "r12"]
        assert read_csv(tmp_path / "af_region.csv")[0] == tio.REGION_HEADER

    def test_p_flag_sets_all_three_powers(self, tmp_path):
        argv = [
            "df-compare", "--p", "20db", "--seed", "7",
            "--profiles", "5", "--taus", "3", "--weights", "9", "--out", str(tmp_path),
        ]
        run(argv)
        settings = json.loads((tmp_path / "manifest.json").read_text())["settings"]
        assert settings["p1"] == settings["p2"] == settings["pr"] == pytest.approx(100.0)

    def test_df_region_dominates_half_mac_on_shared_rays(self, tmp_path):
        argv = [
            "df-compare", "--rho", "0.95", "--p", "100", "--seed", "7",
            "--profiles", "5", "--taus", "3", "--weights", "17", "--out", str(tmp_path),
        ]
        run(argv)
        env = [tuple(map(float, r)) for r in read_csv(tmp_path / "df_region.csv")[1:]]
        # equal-rate DF point beats the equal-rate half-MAC corner ray
        mac = [tuple(map(float, r)) for r in read_csv(tmp_path / "half_mac.csv")[1:]]
        t_mac = max(min(2.0 * x, 2.0 * y) for x, y in mac)
        mid = env[len(env) // 2]
        assert min(2.0 * mid[1], 2.0 * mid[2]) >= t_mac - 1e-9

    def test_one_broadcast_arc_per_job(self, tmp_path, monkeypatch):
        # the weight sweep and all five df rays share one arc
        import twrelay.df as df

        built = []
        arc = df._Arc

        def counting(*args):
            built.append(args)
            return arc(*args)

        monkeypatch.setattr(df, "_Arc", counting)
        argv = [
            "df-compare", "--rho", "0.95", "--p", "100", "--seed", "7",
            "--profiles", "5", "--taus", "3", "--weights", "9", "--out", str(tmp_path),
        ]
        assert run(argv) == 0
        assert len(built) == 1

    def test_no_broadcast_covariance_per_job(self, tmp_path, monkeypatch):
        # no output holds a covariance; bc_wsrmax still returns its point's one
        import twrelay.df as df

        built = []
        covariance = df._Arc.covariance

        def counting(self, theta):
            built.append(covariance(self, theta))
            return built[-1]

        monkeypatch.setattr(df._Arc, "covariance", counting)
        argv = [
            "df-compare", "--rho", "0.95", "--p", "100", "--seed", "7",
            "--profiles", "5", "--taus", "3", "--weights", "9", "--out", str(tmp_path),
        ]
        assert run(argv) == 0
        assert built == []
        point = df.bc_wsrmax(gen_channels(4, 0.95, seed=7), 100.0, 0.5, 0.5)
        assert len(built) == 1 and point.S_reduced is built[0]
        assert point.S_reduced.shape == (2, 2) and np.trace(point.S_reduced).real == pytest.approx(100.0)

    def test_one_np_interp_one_reduced_frame_and_no_scalar_slice_per_job(self, tmp_path, monkeypatch):
        # every tau slice comes from one array pass, which reads the
        # broadcast frontier with one np.interp call
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "interp", counting("interp", np.interp))
        for module in [m for name, m in sys.modules.items() if name.startswith("twrelay.")]:
            for name in ("effective", "df_tau_slice"):
                if callable(getattr(module, name, None)):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        argv = [
            "df-compare", "--rho", "0.95", "--p", "100", "--seed", "7",
            "--profiles", "5", "--taus", "9", "--weights", "9", "--out", str(tmp_path),
        ]
        assert run(argv) == 0
        assert Counter(calls) == {"interp": 1, "effective": 1}

    def test_tau_cells_read_as_floats(self, tmp_path):
        argv = [
            "df-compare", "--rho", "0.95", "--p", "100", "--seed", "7",
            "--profiles", "3", "--taus", "11", "--weights", "5", "--out", str(tmp_path),
        ]
        assert run(argv) == 0
        rows = read_csv(tmp_path / "df_tau_slices.csv")[1:]
        assert sorted({r[0] for r in rows}, key=float) == [repr(float(t)) for t in np.linspace(0.0, 1.0, 11)]

    def test_df_rays_are_the_af_profiles(self, tmp_path):
        # at 11 profiles, 3 of linspace(0, 1, 11) are 1 ulp off k / 10,
        # the alpha of the AF boundary's k-th ray
        argv = [
            "df-compare", "--rho", "0.95", "--p", "100", "--seed", "7",
            "--profiles", "11", "--taus", "1", "--weights", "3", "--out", str(tmp_path),
        ]
        assert run(argv) == 0
        rows = [tuple(map(float, r)) for r in read_csv(tmp_path / "df_region.csv")[1:]]
        pair = gen_channels(4, 0.95, 7)
        assert len(rows) == 11
        for k, row in enumerate(rows):
            profile = RateProfile.of(k / 10)
            t, tau = df_boundary_value(pair, 100.0, 100.0, 100.0, profile)
            assert row == (tau, profile.alpha21 * t, profile.alpha12 * t)


def _assert_pareto_ordered(rows):
    """r21 rises and no row is weakly dominated by the one before it."""
    pts = [(float(r[1]), float(r[2])) for r in rows]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        assert x1 >= x0 - 1e-12
        assert not (x1 <= x0 + 1e-12 and y1 <= y0 + 1e-12)


class TestCapacityCommand:
    def test_envelope_csv_is_pareto_ordered(self, tmp_path):
        argv = [
            "capacity", "--p1", "10", "--p2", "10", "--pr", "10",
            "--grid", "2", "--profiles", "5", "--out", str(tmp_path),
        ]
        assert run(argv) == 0
        rows = read_csv(tmp_path / "capacity.csv")
        assert rows[0] == tio.REGION_HEADER
        _assert_pareto_ordered(rows[1:])

    @pytest.mark.parametrize(
        "powers", [["--pr", "0"], ["--p1", "0", "--p2", "0"]], ids=["no-relay-power", "silent-sources"]
    )
    def test_zero_rates_give_one_row(self, tmp_path, powers):
        argv = ["capacity", *powers, "--grid", "3", "--profiles", "5", "--out", str(tmp_path)]
        assert run(argv) == 0
        rows = read_csv(tmp_path / "capacity.csv")[1:]
        _assert_pareto_ordered(rows)
        assert [(float(r[1]), float(r[2])) for r in rows] == [(0.0, 0.0)]

    def test_silent_source_gives_one_power_setting(self, tmp_path):
        argv = [
            "capacity", "--p1", "0", "--grid", "3", "--profiles", "5", "--out", str(tmp_path),
        ]
        assert run(argv) == 0
        rows = read_csv(tmp_path / "capacity.csv")[1:]
        assert rows
        assert all(float(r[2]) == 0.0 for r in rows)


class TestValidateCommand:
    def test_df_suite_passes(self, capsys):
        assert run(["validate", "--suite", "df", "--seed", "13", "--instances", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_schemes_suite_passes(self, capsys):
        assert run(["validate", "--suite", "schemes", "--seed", "13", "--instances", "1"]) == 0
        out = capsys.readouterr().out
        assert "all" in out
        assert "[PASS] schemes: mr-rates-0" in out and "[PASS] schemes: zf-rates-0" in out

    def test_oracle_suite_certifies_the_exit(self, capsys):
        assert run(["validate", "--suite", "oracle", "--seed", "13", "--instances", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] oracle: oracle-exit-0" in out and "[FAIL]" not in out

    def test_bounds_suite_checks_the_symmetric_bound(self, capsys):
        assert run(["validate", "--suite", "bounds", "--seed", "13", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] bounds: sym-bound-0" in out and "[PASS] bounds: sym-bound-1" in out
        assert "[FAIL]" not in out


class TestTopLevel:
    def test_parser_built_once_per_process(self, tmp_path, monkeypatch, capsys):
        import twrelay.cli as cli

        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        assert run(["bounds", "--out", str(tmp_path)]) == 0
        assert run(["bounds", "--rho", "0.2", "--out", str(tmp_path)]) == 0
        assert len(built) == 1
        # the shared parser still rejects a bad value cleanly
        with pytest.raises(SystemExit) as info:
            run(["bounds", "--rho", "1.5", "--out", str(tmp_path)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--rho" in err and "Traceback" not in err
        assert len(built) == 1

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 2
        assert "subcommand" in capsys.readouterr().out or True

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["--version"])
        assert info.value.code == 0
        assert "twrelay" in capsys.readouterr().out

    def test_defaults_are_the_library_defaults(self):
        # each default that mirrors a library parameter is read from it,
        # with the values and types the options have always had
        import inspect

        from twrelay import beamformer, df, schemes
        from twrelay.cli import OPTS

        def default(func, name):
            return inspect.signature(func).parameters[name].default

        given = {(command, opt.name): opt.default for command, opts in OPTS.items() for opt in opts}
        mirrors = {
            ("region", "ratios"): (default(schemes.sweep_region, "n_ratios"), 65),
            ("capacity", "grid"): (default(beamformer.capacity_region, "power_grid"), 8),
            ("df-compare", "taus"): (df.DEFAULT_TAU_GRID, 65),
            ("df-compare", "weights"): (default(df.bc_boundary, "n_weights"), 65),
        }
        for command in ("region", "capacity", "df-compare"):
            mirrors[command, "profiles"] = (default(beamformer.rate_region_boundary, "n_profiles"), 33)
            mirrors[command, "delta-r"] = (default(beamformer.max_sum_rate, "delta_r"), 1e-4)
        for key, (library, value) in mirrors.items():
            assert (given[key], type(given[key])) == (library, type(library)), key
            assert library == value, key
        assert default(beamformer.capacity_region, "n_profiles") == beamformer.DEFAULT_N_PROFILES
        assert default(beamformer.capacity_region, "delta_r") == beamformer.DEFAULT_DELTA_R
        assert default(beamformer.rate_region_boundary, "delta_r") == beamformer.DEFAULT_DELTA_R
