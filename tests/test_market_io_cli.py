import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from msheston import calibration, cli, pricer
from msheston.cli import main
from msheston.errors import EmptyAfterFilter, ParseError
from msheston.kernel import HestonParams
from msheston.market_io import (
    CHAIN_COLUMNS,
    ChainFilters,
    OptionChainRow,
    load_chain,
    load_config,
    write_chain,
)
from msheston.pricer import GroupParams, price_strikes
from msheston.vol_surface import bs_call

from .helpers import exp_ou_unit_v

QUOTE_DAY = date(2006, 5, 17)
SPOT = 100.0
RATE = 0.05
DIV = 0.01


def _row(days, strike, vol, oi=500, option_type="call", spread=0.1):
    expiry_years = days / 365.0
    mid = bs_call(SPOT, strike, expiry_years, vol, RATE, dividend_yield=DIV)
    return OptionChainRow(
        quote_date=QUOTE_DAY,
        expiry_date=QUOTE_DAY + timedelta(days=days),
        strike=strike,
        option_type=option_type,
        bid=mid - spread / 2,
        ask=mid + spread / 2,
        open_interest=oi,
        underlying_price=SPOT,
        rate=RATE,
        dividend_yield=DIV,
    )


def _two_row_chain(tmp_path) -> list:
    """The lines of a chain with a header and two calls, at strikes 100 and 105."""
    path = tmp_path / "two_rows.csv"
    write_chain(path, [_row(65, 100.0, 0.2), _row(65, 105.0, 0.2)])
    return path.read_text().splitlines()


def _set(lines, line_number, column, value) -> list:
    """``lines`` with ``column`` of the 1-based ``line_number`` set to ``value``."""
    cols = lines[line_number - 1].split(",")
    cols[CHAIN_COLUMNS.index(column)] = value
    return lines[: line_number - 1] + [",".join(cols)] + lines[line_number:]


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


# an edit of the two-row chain, the error it must raise, and its line
BAD_CHAINS = {
    "malformed_field": (lambda lines: _set(lines, 3, "strike", "1O5"),
                        "malformed row: could not convert string to float: '1O5'", 3),
    "zero_strike": (lambda lines: _set(lines, 2, "strike", "0.0"),
                    "strike must be positive", 2),
    "negative_open_interest": (lambda lines: _set(lines, 3, "open_interest", "-1"),
                               "open_interest must be nonnegative", 3),
    "zero_underlying": (lambda lines: _set(lines, 2, "underlying_price", "0.0"),
                        "underlying_price must be positive", 2),
    "expiry_on_quote_date": (lambda lines: _set(lines, 3, "expiry_date", "2006-05-17"),
                             "expiry_date must be after quote_date", 3),
    "empty_file": (lambda lines: [], "empty file, header row mandatory", 1),
    "column_count": (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]],
                     "expected 10 columns, got 9", 3),
    # the blank line is skipped but still counted
    "after_blank_line": (
        lambda lines: [*lines[:2], "", *_set(lines, 3, "underlying_price", "101")[2:]],
        "underlying_price must be constant across the file", 4),
    "no_data_rows": (lambda lines: lines[:1], "no data rows", 2),
    "quote_date": (lambda lines: _set(lines, 3, "quote_date", "2006-05-18"),
                   "quote_date must be constant across the file", 3),
    "conflicting_rate": (lambda lines: _set(lines, 3, "rate", "0.06"),
                         "conflicting rate for expiry 0.178082", 3),
    "conflicting_dividend_yield": (
        lambda lines: _set(lines, 3, "dividend_yield", "0.02"),
        "conflicting dividend_yield for expiry 0.178082", 3),
}

FLOAT_COLUMNS = ["strike", "bid", "ask", "underlying_price", "rate", "dividend_yield"]


@pytest.fixture()
def chain_path(tmp_path):
    rows = [
        _row(65, 90.0, 0.24),
        _row(65, 95.0, 0.22),
        _row(65, 100.0, 0.20),
        _row(65, 105.0, 0.19),
        _row(65, 110.0, 0.185),
        _row(121, 95.0, 0.22),
        _row(121, 100.0, 0.21),
        _row(121, 105.0, 0.20),
        _row(121, 110.0, 0.195),
        _row(212, 95.0, 0.225),
        _row(212, 100.0, 0.215),
        _row(212, 105.0, 0.21),
        _row(45, 100.0, 0.25),          # maturity exactly 45 days: excluded
        _row(200, 100.0, 0.22, oi=100), # open interest exactly 100: excluded
        _row(200, 105.0, 0.22, oi=5),   # excluded
        _row(300, 100.0, 0.21, option_type="put"),  # excluded
    ]
    path = tmp_path / "chain.csv"
    write_chain(path, rows)
    return path


class TestLoadChain:
    def test_filters_and_counts(self, chain_path):
        res = load_chain(chain_path)
        assert res.total_rows == 16
        assert res.counts["passed"] == 12
        assert res.counts["maturity_too_short"] == 1
        assert res.counts["open_interest_too_low"] == 2
        assert res.counts["not_call"] == 1
        assert sum(res.counts.values()) == res.total_rows

    def test_vols_round_trip_to_generating_vols(self, chain_path):
        res = load_chain(chain_path)
        surf = res.surface
        assert surf.spot == SPOT
        sixty_five = 65 / 365.0
        assert surf.expiries()[0] == pytest.approx(sixty_five)
        vols = dict(
            ((pt.expiry, pt.strike), pt.implied_vol) for pt in surf.points
        )
        assert vols[(sixty_five, 95.0)] == pytest.approx(0.22, abs=1e-9)
        assert vols[(sixty_five, 100.0)] == pytest.approx(0.20, abs=1e-9)
        assert surf.rate(sixty_five) == RATE
        assert surf.dividend_yield(sixty_five) == DIV

    def test_custom_filters(self, chain_path):
        res = load_chain(chain_path, ChainFilters(min_days=0, min_open_interest=0))
        assert res.counts["passed"] == 15  # only the put stays excluded

    def test_empty_after_filter(self, chain_path):
        with pytest.raises(EmptyAfterFilter):
            load_chain(chain_path, ChainFilters(min_days=10_000))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError) as excinfo:
            load_chain(path)
        assert excinfo.value.line_number == 1

    def test_bid_above_ask_rejected_with_line(self, tmp_path):
        rows = [_row(65, 100.0, 0.2)]
        path = tmp_path / "chain.csv"
        write_chain(path, rows)
        text = path.read_text().splitlines()
        cols = text[1].split(",")
        bid_idx = CHAIN_COLUMNS.index("bid")
        ask_idx = CHAIN_COLUMNS.index("ask")
        cols[bid_idx], cols[ask_idx] = cols[ask_idx], cols[bid_idx]
        path.write_text(text[0] + "\n" + ",".join(cols) + "\n")
        with pytest.raises(ParseError) as excinfo:
            load_chain(path)
        assert excinfo.value.line_number == 2

    def test_inconsistent_spot_rejected(self, tmp_path):
        rows = [_row(65, 100.0, 0.2), _row(65, 105.0, 0.2)]
        object.__setattr__(rows[1], "underlying_price", 101.0)
        path = tmp_path / "chain.csv"
        write_chain(path, rows)
        with pytest.raises(ParseError, match="underlying_price"):
            load_chain(path)

    def test_duplicate_strike_rejected(self, tmp_path):
        rows = [_row(65, 100.0, 0.2), _row(65, 100.0, 0.21)]
        path = tmp_path / "chain.csv"
        write_chain(path, rows)
        with pytest.raises(ParseError, match="duplicate"):
            load_chain(path)

    @pytest.mark.parametrize("edit, message, line", BAD_CHAINS.values(),
                             ids=BAD_CHAINS.keys())
    def test_malformed_chain_names_its_line(self, tmp_path, edit, message, line):
        path = _write_lines(tmp_path / "chain.csv", edit(_two_row_chain(tmp_path)))
        with pytest.raises(ParseError) as excinfo:
            load_chain(path)
        assert str(excinfo.value) == f"line {line}: {message}"
        assert excinfo.value.line_number == line

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    def test_nonfinite_number_rejected(self, tmp_path, column, value):
        lines = _set(_two_row_chain(tmp_path), 3, column, value)
        path = _write_lines(tmp_path / "chain.csv", lines)
        with pytest.raises(ParseError) as excinfo:
            load_chain(path)
        assert str(excinfo.value) == f"line 3: {column} must be finite, got {value}"

    def test_arbitrage_violating_mid_counted(self, tmp_path):
        good = _row(65, 100.0, 0.2)
        bad = OptionChainRow(
            quote_date=QUOTE_DAY,
            expiry_date=QUOTE_DAY + timedelta(days=65),
            strike=105.0,
            option_type="call",
            bid=2 * SPOT,
            ask=2 * SPOT + 1,
            open_interest=500,
            underlying_price=SPOT,
            rate=RATE,
            dividend_yield=DIV,
        )
        path = tmp_path / "chain.csv"
        write_chain(path, [good, bad])
        res = load_chain(path)
        assert res.counts["mid_out_of_band"] == 1
        assert res.counts["passed"] == 1


class TestConfig:
    def test_env_var_default(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"heston": {"kappa": 2.0}}))
        monkeypatch.setenv("MSHESTON_CONFIG", str(cfg_path))
        assert load_config()["heston"]["kappa"] == 2.0

    def test_missing_returns_empty(self, monkeypatch):
        monkeypatch.delenv("MSHESTON_CONFIG", raising=False)
        assert load_config() == {}

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_config(path)

    def test_non_object_root_is_parse_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError, match="line 1: config root must be a JSON obj"):
            load_config(path)


HESTON_FLAGS = [
    "--kappa", "1.0", "--theta", "0.24", "--sigma", "0.39",
    "--rho", "-0.2122857", "--z", "0.24", "--rate", "0.05",
]
HESTON_CONFIG = {"kappa": 1.0, "theta": 0.24, "sigma": 0.39,
                 "rho": -0.2122857, "z": 0.24, "rate": 0.05}
PRICE = ["price", "--spot", "100", "--strike", "100", "--expiry", "1"]
FULL_MODEL_FLAGS = [
    "--kappa", "1.0", "--theta", "0.24", "--sigma", "0.39", "--rho-xz", "-0.35",
    "--z", "0.24", "--rate", "0.05", "--epsilon", "0.01", "--m", "0.06",
    "--nu", "1.0", "--rho-xy", "-0.35", "--rho-yz", "0.35", "--y0", "0.06",
]
CALIB_START = {"kappa": 1.5, "rho": -0.3, "sigma": 0.3, "theta": 0.1, "z": 0.1}
# appended after the flags above, which they override: 2*kappa*theta = 0.04
# against sigma**2 = 0.25
FELLER_VIOLATED = ["--kappa", "1.0", "--theta", "0.02", "--sigma", "0.5"]

# a config that does not parse, the command that reads it, and the key the
# error must name
MALFORMED = [
    ({"calibration": {"start": {k: v for k, v in CALIB_START.items()
                                if k != "z"}}},
     "calibrate", "calibration.start.z"),
    ({"heston": {"kappa": [1]}}, "price", "heston.kappa"),
    ({"heston": 5}, "price", "heston"),
    ({"heston": {**HESTON_CONFIG, "allow_feller_violation": True}}, "price",
     "heston.allow_feller_violation"),
    ({"calibration": {"start": CALIB_START, "feller_mode": "enforce"}},
     "calibrate", "calibration.feller_mode"),
    ({"full_model": {"f_kind": "exp_ou"}}, "group-params", "full_model.f_kind"),
    ({"calibration": {"start": CALIB_START, "bounds": {"kappa": [1, "2"]}}},
     "calibrate", "calibration.bounds.kappa[1]"),
    ({"sim": {"n_paths": 1.5}}, "validate-mc", "sim.n_paths"),
    ({"sim": {"antithetic": False}}, "validate-mc", "sim.antithetic"),
    ({"sim": {"fast_factor_update": "euler"}}, "validate-mc",
     "sim.fast_factor_update"),
    ({"hestn": {}}, "price", "hestn"),
    ({"calibration": {"start": CALIB_START, "multistart": 2}}, "calibrate",
     "calibration.multistart"),
]


def _config(tmp_path, cfg) -> list:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["--config", str(path)]


class TestCli:
    def test_price_deterministic_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["price", "--spot", "100", "--strike", "100", "--expiry", "1",
                *HESTON_FLAGS]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["total"] == pytest.approx(21.0835237, abs=1e-5)

    def test_sweep_at_zero_matches_surface(self, tmp_path, capsys):
        surface_out = tmp_path / "surface.csv"
        rc = main(
            ["surface", "--spot", "100", "--expiries", "1.0",
             "--strikes", "90,100,110", "--output", str(surface_out),
             *HESTON_FLAGS]
        )
        assert rc == 0
        sweep_dir = tmp_path / "sweep"
        rc = main(
            ["sweep", "--spot", "100", "--expiry", "1.0",
             "--strikes", "90,100,110", "--vary", "v3e", "--values", "0",
             "--output-dir", str(sweep_dir), *HESTON_FLAGS]
        )
        assert rc == 0
        capsys.readouterr()
        sweep_file = next(sweep_dir.glob("sweep_v3e_*.csv"))
        assert sweep_file.read_text() == surface_out.read_text()

    def test_group_params_matches_closed_form(self, tmp_path):
        out = tmp_path / "gp.json"
        rc = main(
            ["group-params", "--kappa", "1.0", "--theta", "0.24",
             "--sigma", "0.39", "--rho-xz", "-0.35", "--z", "0.24",
             "--rate", "0.05", "--epsilon", "0.01", "--m", "0.06",
             "--nu", "1.0", "--rho-xy", "-0.35", "--rho-yz", "0.35",
             "--y0", "0.06", "--output", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["v3e"] == pytest.approx(0.0959, abs=1e-4)
        assert payload["rho_effective"] == pytest.approx(
            -0.35 * math.exp(-0.5), rel=1e-9
        )

    def test_group_params_overflow_is_numeric_error(self, tmp_path, capsys):
        out = tmp_path / "gp.json"
        rc = main(
            ["group-params", "--kappa", "1.0", "--theta", "0.24",
             "--sigma", "0.39", "--rho-xz", "-0.35", "--z", "0.24",
             "--rate", "0.05", "--epsilon", "0.01", "--m", "0.06",
             "--nu", "22", "--rho-xy", "-0.35", "--rho-yz", "0.35",
             "--y0", "0.06", "--output", str(out)]
        )
        assert rc == 3
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_mc_report_shape(self, tmp_path):
        out = tmp_path / "mc.json"
        rc = main(
            ["validate-mc", "--spot", "100", "--strike", "100",
             "--expiry", "0.5", "--kappa", "1.0", "--theta", "0.24",
             "--sigma", "0.39", "--rho-xz", "-0.35", "--z", "0.24",
             "--rate", "0.05", "--epsilon", "0.01", "--m", "0.06",
             "--nu", "1.0", "--rho-xy", "-0.35", "--rho-yz", "0.35",
             "--y0", "0.06", "--n-paths", "2000", "--dt", "0.005",
             "--seed", "7", "--output", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        for key in ("analytic_corrected", "mc_price", "mc_std_error",
                    "mc_uncontrolled_std_error", "mc_correction",
                    "mc_correction_std_error", "abs_gap", "within_3_std_errors",
                    "truncation_fraction"):
            assert key in payload
        assert payload["mc_std_error"] > 0
        # the controls take out most of the variance
        assert payload["mc_std_error"] < payload["mc_uncontrolled_std_error"]

    def test_validate_mc_single_pair_is_numeric_error(self, capsys):
        # one antithetic pair has no standard error
        argv = ["validate-mc", "--spot", "100", "--strike", "100",
                "--expiry", "0.5", *FULL_MODEL_FLAGS, "--n-paths", "2"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_paths" in captured.err

    @pytest.mark.parametrize("flag, value, message", [
        ("--dt", "inf", "dt must be finite and positive, got inf"),
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
    ])
    def test_validate_mc_rejects_bad_sim_setting_up_front(
        self, monkeypatch, capsys, flag, value, message
    ):
        # rejected before the group coefficients, the analytic price or a
        # single path-step is computed
        def not_reached(*args):
            raise AssertionError("computed past a bad sim setting")

        monkeypatch.setattr(cli, "compute_group_params", not_reached)
        argv = ["validate-mc", "--spot", "100", "--strike", "100",
                "--expiry", "0.5", *FULL_MODEL_FLAGS, "--n-paths", "200",
                flag, value]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["surface", "--spot", "100", "--expiries", "1", "--strikes", "90,100",
          *HESTON_FLAGS, "--z", "inf"], "z must be finite and positive, got inf"),
        ([*PRICE, *HESTON_FLAGS, "--kappa", "inf"],
         "kappa must be finite and positive, got inf"),
        ([*PRICE, *HESTON_FLAGS, "--abs-tol", "inf"],
         "abs_tol must be finite and positive, got inf"),
        (["validate-mc", "--spot", "100", "--strike", "100", "--expiry", "0.5",
          *FULL_MODEL_FLAGS, "--n-paths", "16", "--m", "inf"],
         "m must be finite, got inf"),
    ], ids=["surface-z", "price-kappa", "price-abs_tol", "validate_mc-m"])
    def test_nonfinite_parameter_exits_3_by_name_before_pricing(
        self, monkeypatch, tmp_path, capsys, argv, message
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("priced past a non-finite parameter")

        for name in ("compute_group_params", "price_corrected", "model_surface"):
            monkeypatch.setattr(cli, name, not_reached)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--output", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}\n" == captured.err
        assert not out.exists()

    def test_validate_mc_writes_the_step_taken(self, capsys):
        # one step of the whole expiry, not the asked 5
        argv = ["validate-mc", "--spot", "100", "--strike", "100",
                "--expiry", "1", *FULL_MODEL_FLAGS, "--n-paths", "16", "--dt", "5"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dt"] == 1.0
        assert "fast_factor_step_coarse" in payload["warnings"]

    def test_validate_mc_refuses_too_many_steps(self, capsys):
        # 2000 years at dt = 1e-4 is 2e7 steps: refused before any path-step
        argv = ["validate-mc", "--spot", "100", "--strike", "100",
                "--expiry", "2000", *FULL_MODEL_FLAGS, "--n-paths", "16",
                "--dt", "1e-4"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("horizon 2000.0 at dt 0.0001 takes 2e+07 steps, more than 10000000"
                in captured.err)

    @pytest.mark.parametrize("command", [["group-params"], [
        "validate-mc", "--spot", "100", "--strike", "100", "--expiry", "0.5",
        "--n-paths", "16",
    ]])
    def test_boundary_correlations_exit_3_before_pricing(
        self, monkeypatch, capsys, command
    ):
        # the Gram value of this triple is 0.9999999999999999 < 1, but the
        # Cholesky factor it loads the Brownians on does not exist
        def not_reached(*args):
            raise AssertionError("computed past inadmissible correlations")

        monkeypatch.setattr(cli, "compute_group_params", not_reached)
        argv = [*command, *FULL_MODEL_FLAGS, "--rho-xy", "-0.22",
                "--rho-xz", "-0.9816607981044054", "--rho-yz", "0.03"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positive-definite" in captured.err

    @pytest.mark.parametrize("flag, text", [
        ("--strikes", "70:130"), ("--expiries", "0.5,x"), ("--values", "1:2:x"),
        ("--expiries", "0.5:1:0"), ("--strikes", "90:100:0"), ("--values", "0:1:0"),
    ])
    def test_malformed_float_list_exits_2_naming_the_flag(
        self, tmp_path, capsys, flag, text
    ):
        lists = {"--strikes": "90,100", "--expiries": "0.5", "--values": "0,1"}
        lists[flag] = text
        if flag == "--values":
            argv = ["sweep", "--spot", "100", "--expiry", "0.5", "--vary", "v3e",
                    "--output-dir", str(tmp_path),
                    "--strikes", lists["--strikes"], f"--values={text}"]
        else:
            argv = ["surface", "--spot", "100", "--expiries", lists["--expiries"],
                    "--strikes", lists["--strikes"]]
        assert main(argv + HESTON_FLAGS) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("*.csv"))

    def test_sweep_refuses_values_whose_file_names_collide(self, tmp_path, capsys):
        # every value rounds to sweep_v3e_+0.000000.csv
        argv = ["sweep", "--spot", "100", "--expiry", "0.5", "--vary", "v3e",
                "--strikes", "90,100", "--values=1e-7,2e-7,0",
                "--output-dir", str(tmp_path), *HESTON_FLAGS]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--values" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("*.csv"))

    def test_sweep_refuses_a_nonfinite_value_before_writing(self, tmp_path, capsys):
        # the first value is admissible: its file must not be written either
        argv = ["sweep", "--spot", "100", "--expiry", "0.5", "--vary", "v3e",
                "--strikes", "90,100", "--values", "0,inf",
                "--output-dir", str(tmp_path / "sweeps"), *HESTON_FLAGS]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: v3e must be finite, got inf\n"
        assert captured.out == ""
        assert not (tmp_path / "sweeps").exists()

    def test_group_params_accepts_feller_violation(self, capsys):
        # the coefficients do not depend on kappa or theta
        assert main(["group-params", *FULL_MODEL_FLAGS, *FELLER_VIOLATED]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = math.sqrt(0.01) * exp_ou_unit_v(0.5, 1.0, -0.35, -0.35, 0.35)
        got = [payload[k] for k in ("v1e", "v2e", "v3e", "v4e")]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_validate_mc_accepts_feller_violation(self, capsys):
        argv = ["validate-mc", "--spot", "100", "--strike", "100",
                "--expiry", "0.5", *FULL_MODEL_FLAGS, *FELLER_VIOLATED,
                "--n-paths", "2000", "--dt", "1e-2"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["truncation_fraction"] > 0.0
        assert "truncation_fraction_above_threshold" in payload["warnings"]

    def test_price_accepts_feller_violation(self, capsys):
        assert main(PRICE + HESTON_FLAGS + FELLER_VIOLATED) == 0
        total = json.loads(capsys.readouterr().out)["total"]
        p = HestonParams(kappa=1.0, theta=0.02, sigma=0.5, rho=-0.2122857,
                         z=0.24, r=0.05)
        assert total == price_strikes([100.0], 1.0, 100.0, p)[0].total
        with pytest.raises(SystemExit) as exc:
            main(PRICE + HESTON_FLAGS + ["--allow-feller-violation"])
        assert exc.value.code == 2

    @pytest.fixture()
    def heston_chain(self, tmp_path):
        """A chain priced by a known Heston model, so the baseline stage has an
        exactly attainable optimum, and a config that fits it."""
        truth = HestonParams(
            kappa=1.8, theta=0.09, sigma=0.4, rho=-0.55, z=0.06, r=RATE
        )
        rows = []
        for days in (91, 182, 365):
            expiry = days / 365.0
            strikes = [90.0, 95.0, 100.0, 105.0, 110.0]
            bds = price_strikes(strikes, expiry, SPOT, truth)
            for strike, bd in zip(strikes, bds):
                rows.append(
                    OptionChainRow(
                        quote_date=QUOTE_DAY,
                        expiry_date=QUOTE_DAY + timedelta(days=days),
                        strike=strike,
                        option_type="call",
                        bid=bd.total,
                        ask=bd.total,
                        open_interest=500,
                        underlying_price=SPOT,
                        rate=RATE,
                        dividend_yield=0.0,
                    )
                )
        chain = tmp_path / "heston_chain.csv"
        write_chain(chain, rows)
        cfg = {
            "calibration": {
                "start": {
                    "kappa": 1.5, "rho": -0.4, "sigma": 0.45,
                    "theta": 0.07, "z": 0.05,
                },
            },
            "quadrature": {"abs_tol": 1e-7, "rel_tol": 1e-6},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        return chain, cfg_path

    def test_calibrate_end_to_end(self, tmp_path, heston_chain, capsys):
        chain, cfg_path = heston_chain
        out = tmp_path / "result.json"
        rc = main(
            ["--config", str(cfg_path), "calibrate",
             "--chain", str(chain), "--output", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["heston"]["converged"]
        assert payload["multiscale"]["converged"]
        assert (
            payload["multiscale"]["objective"]
            <= payload["heston"]["objective"] + 1e-12
        )
        assert payload["provenance"]["chain_sha256"]
        assert "ratio" in captured.out
        for stage in ("heston", "multiscale"):
            assert payload[stage]["jacobians"] >= 1

    def test_config_from_environment_is_hashed(
        self, tmp_path, heston_chain, monkeypatch, capsys
    ):
        chain, cfg_path = heston_chain
        argv = ["calibrate", "--chain", str(chain), "--output"]
        from_flag, from_env = tmp_path / "flag.json", tmp_path / "env.json"
        assert main(["--config", str(cfg_path), *argv, str(from_flag)]) == 0
        monkeypatch.setenv("MSHESTON_CONFIG", str(cfg_path))
        assert main([*argv, str(from_env)]) == 0
        capsys.readouterr()
        hashes = [json.loads(out.read_text())["provenance"]["config_sha256"]
                  for out in (from_flag, from_env)]
        assert hashes[0] == hashes[1] == hashlib.sha256(
            cfg_path.read_bytes()
        ).hexdigest()

    def test_nonconverged_heston_stage_exits_4_and_writes_the_result(
        self, tmp_path, heston_chain, monkeypatch, capsys
    ):
        # the corrected stage starts from wherever the Heston stage stopped
        monkeypatch.setattr(calibration, "HESTON_MAX_NFEV", 2)
        chain, cfg_path = heston_chain
        out = tmp_path / "result.json"
        rc = main(["--config", str(cfg_path), "calibrate",
                   "--chain", str(chain), "--output", str(out)])
        assert rc == 4
        payload = json.loads(out.read_text())
        assert payload["heston"]["converged"] is False
        assert payload["heston"]["iterations"] == 2
        assert payload["multiscale"]["objective"] <= payload["heston"]["objective"]
        assert "ratio" in capsys.readouterr().out

    def test_soft_failures_exit_4_and_write_the_result(
        self, tmp_path, heston_chain, capsys
    ):
        # a fit on prices that missed their quadrature tolerance converges
        # to the wrong point without a word unless it counts them
        chain, cfg_path = heston_chain
        cfg = json.loads(cfg_path.read_text())
        cfg["quadrature"] = {"abs_tol": 1e-9, "rel_tol": 1e-9, "max_subdivisions": 3}
        out = tmp_path / "result.json"
        rc = main([*_config(tmp_path, cfg), "calibrate",
                   "--chain", str(chain), "--output", str(out)])
        assert rc == 4
        payload = json.loads(out.read_text())
        assert payload["heston"]["soft_failures"] > 0
        assert payload["multiscale"]["soft_failures"] > 0
        assert "ratio" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep", "validate-mc"])
    def test_soft_failures_of_sweep_and_validate_mc_exit_4(
        self, tmp_path, capsys, command
    ):
        # the prices missed their tolerance: the outputs are still written,
        # stderr says so and the exit code is 4
        tight = ["--abs-tol", "1e-13", "--rel-tol", "1e-13", "--max-subdivisions", "2"]
        if command == "sweep":
            argv = ["sweep", "--spot", "100", "--expiry", "1", "--strikes", "90,110",
                    "--vary", "v3e", "--values=0,0.01", "--output-dir", str(tmp_path),
                    *HESTON_FLAGS]
        else:
            argv = ["validate-mc", "--spot", "100", "--strike", "100",
                    "--expiry", "0.5", *FULL_MODEL_FLAGS, "--n-paths", "200",
                    "--dt", "0.01", "--output", str(tmp_path / "mc.json")]
        assert main(argv + tight) == 4
        err = capsys.readouterr().err
        assert "warning:" in err and "quadrature tolerance" in err
        if command == "sweep":
            assert len(list(tmp_path.glob("*.csv"))) == 2
        else:
            payload = json.loads((tmp_path / "mc.json").read_text())
            assert "nonconvergence" in payload["warnings"]

    def test_too_few_quotes_for_both_stages_exit_3_before_pricing(
        self, tmp_path, monkeypatch, capsys
    ):
        # 7 quotes would do for the 5 Heston parameters but not for the 9
        # of the multiscale stage, which always follows it
        def no_pricing(*args, **kwargs):
            raise AssertionError("priced before counting the quotes")

        monkeypatch.setattr(pricer, "integrate_adaptive", no_pricing)
        chain = tmp_path / "seven.csv"
        write_chain(chain, [_row(365, k, 0.2) for k in (85.0, 90.0, 95.0, 100.0, 105.0)]
                    + [_row(182, k, 0.21) for k in (95.0, 100.0)])
        cfg = {"calibration": {"start": CALIB_START}}
        argv = [*_config(tmp_path, cfg), "calibrate", "--chain", str(chain)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: 7 quotes cannot identify 9 free parameters\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_json_refuses_nonfinite_numbers(self, value):
        # NaN and Infinity are not JSON: never written silently
        with pytest.raises(ValueError, match="Out of range float"):
            cli._json_dumps({"ratio": value})

    def test_stage_payload(self):
        # each stage's JSON block: the same keys and values for both stages,
        # plus the correction coefficients where the stage fitted them
        p = HestonParams(kappa=1.5, theta=0.07, sigma=0.45, rho=-0.4, z=0.05, r=0.02)
        v = GroupParams(0.002, -0.001, -0.004, 0.0015)
        params = {"kappa": 1.5, "rho": -0.4, "sigma": 0.45, "theta": 0.07,
                  "z": 0.05, "r": 0.02}
        for group, blocks in ((None, {}), (v, {"group": {
                "v1e": 0.002, "v2e": -0.001, "v3e": -0.004, "v4e": 0.0015}})):
            res = calibration.CalibResult(
                heston=p, group=group, objective=1.25e-6, per_expiry_rss=((0.5, 1e-7),),
                iterations=7, jacobians=6, soft_failures=2, converged=True,
                feller_satisfied=False)
            assert cli._stage_payload(res) == {
                "params": params, **blocks, "objective": 1.25e-6, "iterations": 7,
                "jacobians": 6, "soft_failures": 2, "converged": True,
                "feller_satisfied": False}

    def test_one_parser_serves_every_command(self, capsys):
        # the parser is built once per process: price, then surface, then
        # price again in one process each write what the command writes
        # alone in a fresh process, so no flag's value leaks between parses
        price = [*PRICE, *HESTON_FLAGS, "--v3e", "-0.01", "--format", "table"]
        surface = ["surface", "--spot", "100", "--expiries", "0.5,1",
                   "--strikes", "90,100,110", *HESTON_FLAGS]
        src = str(Path(cli.__file__).resolve().parent.parent)
        alone = {}
        for argv in (price, surface):
            proc = subprocess.run(
                [sys.executable, "-m", "msheston.cli", *argv], capture_output=True,
                env={**os.environ, "PYTHONPATH": src},
            )
            alone[argv[0]] = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        for argv in (price, surface, price):
            rc = main(argv)
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == alone[argv[0]]
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        shown = capsys.readouterr().out
        assert "{price,surface,sweep,calibrate,validate-mc,group-params}" in shown

    def test_bounds_keys_are_the_fits_parameters(self):
        # the command line's calibration.bounds keys and the fit's
        # DEFAULT_BOUNDS are two tables that must name the same parameters
        keys = cli._SETTINGS["calibration"]["bounds"][0]
        assert list(keys) == list(calibration.DEFAULT_BOUNDS)

    def test_nonfinite_chain_number_exits_2(self, tmp_path, capsys):
        lines = _set(_two_row_chain(tmp_path), 3, "bid", "nan")
        chain = _write_lines(tmp_path / "chain.csv", lines)
        cfg = {"calibration": {"start": CALIB_START}}
        argv = [*_config(tmp_path, cfg), "calibrate", "--chain", str(chain)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: line 3: bid must be finite, got nan" in captured.err
        assert captured.out == ""

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"calibration": {"start": {
            "kappa": 1, "rho": -0.3, "sigma": 0.3, "theta": 0.1, "z": 0.1}}}))
        rc = main(["--config", str(cfg_path), "calibrate", "--chain", str(bad)])
        assert rc == 2

    def test_calibrate_config_sets_only_its_keys(
        self, tmp_path, chain_path, monkeypatch, capsys
    ):
        # unset filter keys keep ChainFilters' defaults, and the config's
        # bounds override the defaults: the start's kappa falls outside them
        seen = []

        def recording(path, filters):
            seen.append(filters)
            return load_chain(path, filters)

        monkeypatch.setattr(cli, "load_chain", recording)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"calibration": {
            "start": {"kappa": 1.5, "rho": -0.3, "sigma": 0.3, "theta": 0.1,
                      "z": 0.1},
            "min_open_interest": 0,
            "bounds": {"kappa": [0.5, 1.0]},
        }}))
        rc = main(["--config", str(cfg_path), "calibrate", "--chain", str(chain_path)])
        assert seen == [ChainFilters(min_open_interest=0)]
        assert rc == 3
        assert "violates bounds" in capsys.readouterr().err

    @pytest.mark.parametrize("name, pair, domain", [
        ("rho", [-1, 1], "(-1, 1)"),
        ("kappa", [0, 5], "(0, inf)"),
        ("z", [-1, 1], "(0, inf)"),
        ("sigma", [0.5, 0.2], "(0, inf)"),
        # a correction box must contain v = 0, where the corrected fit starts
        ("v1e", [0.05, 0.2], None),
    ], ids=["rho", "kappa", "z", "sigma", "v1e"])
    def test_bound_outside_its_domain_exits_3_before_pricing(
        self, tmp_path, chain_path, monkeypatch, capsys, name, pair, domain
    ):
        def no_pricing(*args, **kwargs):
            raise AssertionError("priced before rejecting the bound")

        monkeypatch.setattr(pricer, "integrate_adaptive", no_pricing)
        cfg = {"calibration": {"start": CALIB_START, "bounds": {name: pair}}}
        argv = [*_config(tmp_path, cfg), "calibrate", "--chain", str(chain_path)]
        assert main(argv) == 3
        lo, hi = map(float, pair)
        rule = (f"must satisfy lo < hi inside {domain}" if domain else
                "must contain 0, where the corrected model is the baseline")
        assert f"bounds.{name} = [{lo}, {hi}] {rule}" in capsys.readouterr().err

    def test_start_outside_its_box_named(
        self, tmp_path, chain_path, monkeypatch, capsys
    ):
        def no_pricing(*args, **kwargs):
            raise AssertionError("priced before checking the start")

        monkeypatch.setattr(pricer, "integrate_adaptive", no_pricing)
        cfg = {"calibration": {"start": CALIB_START,
                               "bounds": {"kappa": [2.0, 3.0]}}}
        argv = [*_config(tmp_path, cfg), "calibrate", "--chain", str(chain_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: start kappa = 1.5 violates bounds.kappa = [2.0, 3.0]\n")

    def test_numeric_error_exit_code(self):
        rc = main(
            ["price", "--spot", "100", "--strike", "100", "--expiry", "1",
             "--kappa", "1.0", "--theta", "0.24", "--sigma", "0.39",
             "--rho", "2.0", "--z", "0.24", "--rate", "0.05"]
        )
        assert rc == 3

    def test_unit_correlation_exit_code(self, capsys):
        rc = main(
            ["price", "--spot", "100", "--strike", "100", "--expiry", "1",
             "--kappa", "1.0", "--theta", "0.24", "--sigma", "0.39",
             "--rho", "1", "--z", "0.24", "--rate", "0.05"]
        )
        assert rc == 3
        assert "rho must lie in (-1, 1)" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self):
        rc = main(
            ["price", "--spot", "100", "--strike", "100", "--expiry", "1",
             *HESTON_FLAGS, "--abs-tol", "1e-13", "--rel-tol", "1e-13",
             "--max-subdivisions", "2"]
        )
        assert rc == 4

    @pytest.mark.parametrize("cfg, command, key", MALFORMED,
                             ids=[key for _, _, key in MALFORMED])
    def test_malformed_config_exits_2_naming_the_key(
        self, tmp_path, chain_path, capsys, cfg, command, key
    ):
        argv = {
            "price": PRICE + HESTON_FLAGS[2:],  # kappa from the config
            "calibrate": ["calibrate", "--chain", str(chain_path)],
            "group-params": ["group-params", *FULL_MODEL_FLAGS],
            "validate-mc": ["validate-mc", "--spot", "100", "--strike", "100",
                            "--expiry", "0.5", *FULL_MODEL_FLAGS],
        }[command]
        assert main(_config(tmp_path, cfg) + argv) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_config_only_price_matches_flags(self, tmp_path, capsys):
        assert main(PRICE + HESTON_FLAGS + ["--v3e", "0.0096"]) == 0
        from_flags = capsys.readouterr().out
        cfg = {"heston": HESTON_CONFIG, "group": {"v3e": 0.0096}}
        assert main(_config(tmp_path, cfg) + PRICE) == 0
        assert capsys.readouterr().out == from_flags

    def test_flag_overrides_its_config_key(self, tmp_path, capsys):
        assert main(PRICE + HESTON_FLAGS + ["--abs-tol", "1e-7"]) == 0
        from_flags = capsys.readouterr().out
        cfg = {"heston": {**HESTON_CONFIG, "kappa": 2.0},
               "quadrature": {"abs_tol": 1e-3}}
        argv = PRICE + ["--kappa", "1.0", "--abs-tol", "1e-7"]
        assert main(_config(tmp_path, cfg) + argv) == 0
        assert capsys.readouterr().out == from_flags

    def test_validate_mc_reads_sim_section(self, tmp_path, capsys):
        argv = ["validate-mc", "--spot", "100", "--strike", "100",
                "--expiry", "0.5", *FULL_MODEL_FLAGS]
        assert main(argv + ["--n-paths", "200", "--dt", "0.01", "--seed", "3"]) == 0
        from_flags = capsys.readouterr().out
        cfg = {"sim": {"n_paths": 200, "dt": 0.01, "seed": 3}}
        assert main(_config(tmp_path, cfg) + argv) == 0
        assert capsys.readouterr().out == from_flags
        payload = json.loads(from_flags)
        assert (payload["n_paths"], payload["dt"], payload["seed"]) == (200, 0.01, 3)

    def test_price_json_keys(self, capsys):
        assert main(PRICE + HESTON_FLAGS + ["--v3e", "0.0096"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "total", "p_heston", "p_correction", "quadrature_error", "warnings",
        }

    def test_price_table_has_one_line_per_json_key(self, capsys):
        assert main(PRICE + HESTON_FLAGS) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(PRICE + HESTON_FLAGS + ["--format", "table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(line.split(":")[0].strip() for line in lines) == sorted(payload)

    def test_price_put_call_parity(self, capsys):
        # the put prices on its own contour; parity holds for the corrected
        # price, since the correction leaves the forward unchanged
        argv = ["price", "--spot", "100", "--strike", "110", "--expiry", "1",
                *HESTON_FLAGS, "--v3e", "0.0096"]
        totals = {}
        for payoff in ("call", "put"):
            assert main(argv + ["--payoff", payoff]) == 0
            totals[payoff] = json.loads(capsys.readouterr().out)
        call, put = totals["call"], totals["put"]
        parity = call["total"] - 100.0 + 110.0 * math.exp(-0.05)
        tol = call["quadrature_error"] + put["quadrature_error"]
        assert abs(put["total"] - parity) <= tol

    @pytest.mark.parametrize("flags, message", [
        (["--expiries", "1", "--strikes", "nan,100"],
         "strike must be finite and positive, got nan"),
        (["--expiries", "inf", "--strikes", "90,100"],
         "expiry must be finite and positive, got inf"),
        (["--expiries", "1", "--strikes", "90,100", "--dividend-yield", "nan"],
         "dividend_yield must be finite, got nan"),
        (["--expiries", "1", "--strikes", "90,100", "--dividend-yield", "inf"],
         "dividend_yield must be finite, got inf"),
    ], ids=["nan_strike", "inf_expiry", "nan_dividend_yield", "inf_dividend_yield"])
    def test_nonfinite_surface_input_exits_3(self, capsys, flags, message):
        assert main(["surface", "--spot", "100", *flags, *HESTON_FLAGS]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_surface_and_sweep_name_the_points_they_drop(self, tmp_path, capsys):
        # at v3e = 0.0096 the short-dated wing prices of the Figure-1 set go
        # negative and cannot be inverted
        figure1 = ["--kappa", "3.4", "--theta", "0.024", "--sigma", "0.39",
                   "--rho", "-0.64", "--z", "0.04", "--rate", "0.0"]
        grid = ["--spot", "100", "--strikes", "75:125:11", *figure1]
        assert main(["surface", "--expiries", "0.25,1", "--v3e", "0.0096",
                     *grid]) == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[1:]
        dropped = captured.err.splitlines()
        assert dropped and all(w.startswith("warning: dropped") for w in dropped)
        assert len(rows) + len(dropped) == 2 * 11
        assert main(["sweep", "--expiry", "0.25", "--vary", "v3e",
                     "--values", "0,0.0096", "--output-dir", str(tmp_path),
                     *grid]) == 0
        dropped = capsys.readouterr().err.splitlines()
        assert dropped and all(
            w.startswith("warning: sweep_v3e_+0.009600.csv: dropped")
            for w in dropped
        )
        for name, n_dropped in (("sweep_v3e_+0.000000.csv", 0),
                                ("sweep_v3e_+0.009600.csv", len(dropped))):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert len(rows) + n_dropped == 11
