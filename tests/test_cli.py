"""End-to-end tests of the command line: every flow goes through main(argv)."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import chaoscal
from chaoscal import cli, pricing
from chaoscal.bases import BrownianDriver, LegendreBasis, PiecewiseConstantBasis
from chaoscal.cli import main
from chaoscal.model import ChaosModel, path_grid
from chaoscal.modelio import index_order_hash, load_model, serialize_model
from chaoscal.pricing import quad_call_price
from chaoscal.quotes import parse_quotes
from chaoscal.reference import (
    HestonParams,
    exotic_mc_price,
    heston_lewis_price,
    heston_simulate,
)
from chaoscal.vol import (
    DownAndOutCall,
    ForwardStartCall,
    LookbackCall,
    bs_call,
    bs_put,
    exotic_implied_vol,
    implied_vol,
)

HESTON = {"s0": 100.0, "kappa": 1.2, "vbar": 0.04, "eps": 0.4,
          "rho": -0.6, "v0": 0.045, "r": 0.02, "q": 0.01}

TRUTH_THETA = [8.0, 10.0, 2.0, 1.5, -2.0]

DESK_MODEL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "desk_model.json")


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def truth_model():
    return ChaosModel(100.0, 2, 2, 1, PiecewiseConstantBasis.uniform(1.0, 2),
                      TRUTH_THETA)


def model_text(basis=None, **changes):
    """The truth model's JSON with keys replaced; a value of None drops it."""
    data = {"schema_version": 1, "s0": 100.0, "p": 2, "m": 2, "d": 1,
            "basis": basis or {"kind": "piecewise", "grid": [0.0, 0.5, 1.0]},
            "index_order_hash": index_order_hash(2, 2, 1),
            "coefficients": TRUTH_THETA}
    data.update(changes)
    return json.dumps({k: v for k, v in data.items() if v is not None})


def config_text(**changes):
    """A one-iteration calibrate config with keys replaced."""
    data = {"max_iterations": 1, "model": {"p": 2, "m": 2, "d": 1, "horizon": 1.0}}
    data.update(changes)
    return json.dumps(data)


def one_quote_text(spot):
    """A one-call quote CSV with the given spot column."""
    return ("maturity_years,strike,option_type,mid_price,implied_vol,"
            f"discount_factor,forward,spot\n1.0,100.0,C,8.0,,1.0,100.0,{spot}\n")


def write_truth_quotes(path, maturities=(0.5, 1.0), strikes=(90.0, 100.0, 110.0)):
    """Exact quadrature surface of the known model, in market CSV form."""
    model = truth_model()
    lines = ["maturity_years,strike,option_type,mid_price,implied_vol,"
             "discount_factor,forward,spot"]
    for t in maturities:
        for k in strikes:
            c = quad_call_price(model, t, k, 40)
            lines.append(f"{t!r},{k!r},C,{c!r},,1.0,100.0,100.0")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def cli_fit(tmp, **changes):
    """One full CLI quadrature calibration to the truth surface."""
    quotes = write_truth_quotes(tmp / "quotes.csv")
    config = write_json(tmp / "config.json", {
        "learning_rate": 3e-3, "max_iterations": 4000, "weight_decay": 0.0,
        "tol": 1e-12, "seed": 22,
        "model": {"p": 2, "m": 2, "d": 1, "horizon": 1.0}, **changes,
    })
    schedule = write_json(tmp / "schedule.json",
                          {"default": {"kind": "quad", "n_nodes": 40}})
    model_out = str(tmp / "fitted.json")
    history = str(tmp / "history.csv")
    rc = main(["calibrate", "--quotes", quotes, "--config", config,
               "--schedule", schedule, "--out", model_out,
               "--history", history])
    return {"rc": rc, "quotes": quotes, "schedule": schedule,
            "model": model_out, "history": history, "tmp": tmp}


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """One full CLI AdamW calibration, shared by the price/evaluate tests."""
    return cli_fit(tmp_path_factory.mktemp("calib"), optimizer="adamw")


class TestGenSurface:
    def test_heston_surface_matches_the_lewis_pricer(self, tmp_path):
        params = write_json(tmp_path / "heston.json", HESTON)
        out = tmp_path / "surface.csv"
        rc = main(["gen-surface", "--model", "heston", "--params", params,
                   "--maturities", "0.5,1.0", "--moneyness", "0.9,1.0,1.1",
                   "--out", str(out)])
        assert rc == 0
        surface = parse_quotes(out)
        assert len(surface.quotes) == 6
        assert surface.spot == 100.0
        p = HestonParams(**HESTON)
        for q in surface.quotes:
            assert q.mid_price == pytest.approx(
                heston_lewis_price(p, q.strike, q.maturity), rel=1e-10
            )
            assert q.discount_factor == pytest.approx(
                np.exp(-p.r * q.maturity), rel=1e-12
            )
            assert q.forward == pytest.approx(
                100.0 * np.exp((p.r - p.q) * q.maturity), rel=1e-12
            )
            assert q.implied_vol is not None

    def test_rough_alpha_one_agrees_with_classical_heston(self, tmp_path):
        params = write_json(tmp_path / "p.json", dict(HESTON, alpha=1.0))
        out = tmp_path / "rough.csv"
        rc = main(["gen-surface", "--model", "rough-heston", "--params", params,
                   "--maturities", "0.5", "--moneyness", "1.0", "--out", str(out)])
        assert rc == 0
        q = parse_quotes(out).quotes[0]
        exact = heston_lewis_price(HestonParams(**HESTON), 100.0, 0.5)
        assert q.mid_price == pytest.approx(exact, abs=2e-3)

    def test_unknown_parameter_key_exits_2(self, tmp_path, capsys):
        params = write_json(tmp_path / "p.json", dict(HESTON, xi=1.0))
        rc = main(["gen-surface", "--model", "heston", "--params", params,
                   "--maturities", "1.0", "--moneyness", "1.0",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "xi" in capsys.readouterr().err

    def test_price_below_the_bound_exits_3_writing_nothing(self, tmp_path, capsys):
        # far out of the money at T = 0.01 the Lewis integral returns
        # -9.27e-11 and -8.5e-14: prices lost in its error, below the bound 0
        params = write_json(tmp_path / "p.json", dict(HESTON, r=0.0, q=0.0))
        out = tmp_path / "o.csv"
        rc = main(["gen-surface", "--model", "heston", "--params", params,
                   "--maturities", "0.01", "--moneyness", "5,1.6", "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "maturity 0.01, strike 500.0: price -9.27" in err
        assert "below the no-arbitrage bound 0.0, within the Lewis integral's error" in err

    def test_malformed_maturity_list_exits_2(self, tmp_path):
        params = write_json(tmp_path / "p.json", HESTON)
        rc = main(["gen-surface", "--model", "heston", "--params", params,
                   "--maturities", "1.0;2.0", "--moneyness", "1.0",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestParity:
    def write_raw(self, path, r=0.02, q=0.01, sigma=0.2):
        rows = ["maturity_years,strike,option_type,mid_price,spot"]
        for t in (0.5, 1.0):
            for k in (90.0, 95.0, 100.0, 105.0, 110.0):
                c = bs_call(100.0, k, t, sigma, r, q)
                p = bs_put(100.0, k, t, sigma, r, q)
                rows.append(f"{t},{k},C,{c!r},100.0")
                rows.append(f"{t},{k},P,{p!r},100.0")
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_recovers_curves_and_emits_a_parseable_surface(self, tmp_path, capsys):
        raw = self.write_raw(tmp_path / "raw.csv")
        out = tmp_path / "enriched.csv"
        rc = main(["parity", "--quotes", raw, "--out", str(out)])
        assert rc == 0
        assert "DF=" in capsys.readouterr().out
        surface = parse_quotes(out)
        assert len(surface.quotes) == 20
        for quote in surface.quotes:
            t = quote.maturity
            assert quote.discount_factor == pytest.approx(np.exp(-0.02 * t),
                                                          rel=1e-9)
            assert quote.forward == pytest.approx(100.0 * np.exp(0.01 * t),
                                                  rel=1e-9)
            # vols are rederived from the recovered curve; the BS surface
            # that produced the mids must come back
            assert quote.implied_vol == pytest.approx(0.2, abs=1e-7)

    def test_missing_mid_column_exits_2(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("maturity_years,strike,spot\n1.0,100.0,100.0\n")
        assert main(["parity", "--quotes", str(path),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_empty_file_exits_2(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("")
        assert main(["parity", "--quotes", str(path),
                     "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("row, cause", [
        ("1.0,100.0,X,5.0,100.0", "option type"),
        ("1.0,100.0,C", "mid_price"),
        ("1.0,nan,C,5.0,100.0", "strike"),
        ("1.0,100.0,C,5.0,250.0", "spot"),
        ("1.0,-90.0,C,5.0,100.0", "strike must be positive"),
    ], ids=["unknown-option-type", "short-row", "nan-strike", "conflicting-spot",
            "negative-strike"])
    def test_bad_row_exits_2_naming_the_row(self, tmp_path, capsys, row, cause):
        raw = self.write_raw(tmp_path / "raw.csv")  # 20 good rows
        with open(raw, "a") as handle:
            handle.write(row + "\n")
        out = tmp_path / "o.csv"
        assert main(["parity", "--quotes", raw, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "row 21" in err and cause in err
        assert not out.exists()


class TestCalibrateCli:
    def test_full_run_writes_model_and_history(self, calibrated):
        assert calibrated["rc"] == 0
        fitted = load_model(calibrated["model"])
        assert fitted.s0 == 100.0
        assert len(fitted.coefficients) == 5
        rows = read_rows(calibrated["history"])
        assert len(rows) >= 1000
        first, last = float(rows[0]["loss"]), float(rows[-1]["best_loss"])
        assert last < 1e-10 * first
        assert [r["iteration"] for r in rows[:3]] == ["0", "1", "2"]

    def test_full_gauss_newton_run_writes_model_and_history(self, tmp_path):
        run = cli_fit(tmp_path)  # the default optimizer
        assert run["rc"] == 0
        fitted = load_model(run["model"])
        assert fitted.s0 == 100.0
        assert len(fitted.coefficients) == 5
        rows = read_rows(run["history"])
        assert sum(r["resimulated"] == "1" for r in rows) == 80  # 4000 / 50
        first, last = float(rows[0]["loss"]), float(rows[-1]["best_loss"])
        assert last < 1e-10 * first
        assert [r["iteration"] for r in rows[:3]] == ["0", "1", "2"]

    def test_warm_start_at_the_truth_is_already_converged(self, calibrated, tmp_path):
        truth_path = tmp_path / "truth.json"
        serialize_model(truth_model(), truth_path)
        config = write_json(tmp_path / "c.json",
                            {"max_iterations": 5, "weight_decay": 0.0})
        history = tmp_path / "h.csv"
        rc = main(["calibrate", "--quotes", calibrated["quotes"],
                   "--config", str(config), "--schedule", calibrated["schedule"],
                   "--init", str(truth_path), "--out", str(tmp_path / "m.json"),
                   "--history", str(history)])
        assert rc == 0
        assert float(read_rows(history)[0]["loss"]) < 1e-20

    def test_seed_flag_overrides_the_config(self, calibrated, tmp_path):
        def run(seed, tag):
            out = tmp_path / f"m{tag}.json"
            hist = tmp_path / f"h{tag}.csv"
            config = write_json(tmp_path / f"c{tag}.json", {
                "max_iterations": 3,
                "model": {"p": 2, "m": 2, "d": 1, "horizon": 1.0},
            })
            rc = main(["calibrate", "--quotes", calibrated["quotes"],
                       "--config", config, "--schedule", calibrated["schedule"],
                       "--out", str(out), "--history", str(hist),
                       "--seed", str(seed)])
            assert rc == 0
            # wall_seconds is the one clock-dependent column
            return [(r["iteration"], r["loss"], r["best_loss"], r["resimulated"])
                    for r in read_rows(hist)]
        a1, a2, b = run(1, "a1"), run(1, "a2"), run(2, "b")
        assert a1 == a2  # same seed, bit-identical losses
        assert a1 != b   # the init draw moved

    def test_a_thousand_cells_calibrate_evaluate_and_price_exotics(self, tmp_path):
        # p 1 on m 1000 cells: 1000 coefficients whose indices have 1000
        # entries each, one recursion level per entry for a recursive
        # enumeration
        quotes = write_truth_quotes(tmp_path / "q.csv")
        config = write_json(tmp_path / "c.json", {
            "max_iterations": 1, "model": {"p": 1, "m": 1000, "d": 1, "horizon": 1.0}})
        schedule = write_json(tmp_path / "s.json", {"default": {
            "kind": "mc", "n_paths": 2000, "beta_samples": 500}})
        spec = write_json(tmp_path / "spec.json", {"monitoring_steps": 4, "contracts": [
            {"type": "lookback", "maturity": 1.0}]})
        model = str(tmp_path / "m.json")
        assert main(["calibrate", "--quotes", quotes, "--config", config,
                     "--schedule", schedule, "--out", model]) == 0
        assert load_model(model).coefficients.shape == (1000,)
        assert main(["evaluate", "--model", model, "--quotes", quotes, "--schedule",
                     schedule, "--report", str(tmp_path / "report.json")]) == 0
        assert main(["exotics", "--model", model, "--spec", spec, "--paths", "500",
                     "--out", str(tmp_path / "exotics.csv")]) == 0

    def test_quote_beyond_horizon_exits_2(self, calibrated, tmp_path, capsys):
        quotes = write_truth_quotes(tmp_path / "q.csv", maturities=(0.5,))
        with open(quotes, "a") as handle:
            handle.write("1.5,100.0,C,,0.2,1.0,100.0,100.0\n")
        config = write_json(tmp_path / "c.json", {
            "max_iterations": 3, "model": {"p": 2, "m": 2, "d": 1, "horizon": 1.0},
        })
        rc = main(["calibrate", "--quotes", quotes, "--config", config,
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err

    def test_missing_model_section_exits_2(self, calibrated, tmp_path, capsys):
        config = write_json(tmp_path / "c.json", {"max_iterations": 3})
        rc = main(["calibrate", "--quotes", calibrated["quotes"],
                   "--config", config, "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "model" in capsys.readouterr().err

    def test_unknown_model_section_key_exits_2(self, calibrated, tmp_path, capsys):
        config = write_json(tmp_path / "c.json", {
            "max_iterations": 3,
            "model": {"p": 2, "m": 2, "d": 1, "horizon": 1.0, "cells": 3},
        })
        rc = main(["calibrate", "--quotes", calibrated["quotes"],
                   "--config", config, "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "cells" in capsys.readouterr().err

    def test_diverged_run_exits_3_and_keeps_partial_history(self, calibrated,
                                                            tmp_path, capsys):
        config = write_json(tmp_path / "c.json", {
            "learning_rate": 1e160, "weight_decay": 0.0, "max_iterations": 50,
            "model": {"p": 2, "m": 2, "d": 1, "horizon": 1.0},
            "optimizer": "adamw",
        })
        history = tmp_path / "partial.csv"
        with np.errstate(over="ignore"):
            rc = main(["calibrate", "--quotes", calibrated["quotes"],
                       "--config", config, "--schedule", calibrated["schedule"],
                       "--out", str(tmp_path / "m.json"),
                       "--history", str(history)])
        assert rc == 3
        assert "numeric error" in capsys.readouterr().err
        assert len(read_rows(history)) >= 1

    def test_start_whose_cv_covariance_overflows_exits_3(self, calibrated, tmp_path,
                                                         capsys):
        # a start spread of 1e80 of spot: the CV covariance of the first
        # workspace overflows, which numpy's SVD met with LinAlgError (exit 1)
        config = write_json(tmp_path / "c.json", {
            "max_iterations": 3, "init_std": 1e80,
            "model": {"p": 2, "m": 2, "d": 1, "horizon": 1.0},
        })
        schedule = write_json(tmp_path / "mc.json", {
            "default": {"kind": "mc", "n_paths": 2000, "beta_samples": 1000}})
        rc = main(["calibrate", "--quotes", calibrated["quotes"], "--config", config,
                   "--schedule", schedule, "--out", str(tmp_path / "m.json")])
        assert rc == 3
        assert ("control-variate covariance at maturity 0.5 is not finite"
                in capsys.readouterr().err)

    def test_gauss_newton_failure_exits_3_and_keeps_partial_history(
            self, calibrated, tmp_path, capsys, monkeypatch):
        # the second trial step prices to NaN, after two good passes
        module = sys.modules["chaoscal.calibrate"]
        real_loss = module.workspace_loss
        calls = []

        def failing(ws, theta, kept=None):
            calls.append(theta)
            return np.nan if len(calls) == 2 else real_loss(ws, theta, kept)

        monkeypatch.setattr(module, "workspace_loss", failing)
        config = write_json(tmp_path / "c.json", {
            "max_iterations": 50, "model": {"p": 2, "m": 2, "d": 1, "horizon": 1.0},
        })
        history = tmp_path / "partial.csv"
        rc = main(["calibrate", "--quotes", calibrated["quotes"],
                   "--config", config, "--schedule", calibrated["schedule"],
                   "--out", str(tmp_path / "m.json"), "--history", str(history)])
        assert rc == 3
        assert "non-finite loss at iteration 2" in capsys.readouterr().err
        assert len(read_rows(history)) == 2


class TestPriceEvaluate:
    def test_price_reports_tiny_errors_for_the_fit(self, calibrated):
        out = calibrated["tmp"] / "priced.csv"
        rc = main(["price", "--model", calibrated["model"],
                   "--quotes", calibrated["quotes"],
                   "--schedule", calibrated["schedule"], "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 6
        for row in rows:
            assert float(row["model_price"]) == pytest.approx(
                float(row["mid_price"]), abs=1e-4
            )
            assert float(row["abs_error_bp"]) < 0.5

    def test_evaluate_on_the_true_model_is_exact(self, calibrated, tmp_path):
        truth_path = tmp_path / "truth.json"
        serialize_model(truth_model(), truth_path)
        report_path = tmp_path / "report.json"
        rc = main(["evaluate", "--model", str(truth_path),
                   "--quotes", calibrated["quotes"],
                   "--schedule", calibrated["schedule"],
                   "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["n_quotes"] == 6
        assert report["n_inversion_failures"] == 0
        assert set(report["per_maturity_mae_bp"]) == {"0.5", "1.0"}
        assert report["overall_mae_bp"] < 1e-6

    def test_evaluate_on_an_empty_surface_reports_no_quotes(self, tmp_path):
        quotes = tmp_path / "q.csv"
        quotes.write_text("maturity_years,strike,option_type,mid_price,implied_vol,"
                          "discount_factor,forward,spot\n")
        model = tmp_path / "truth.json"
        serialize_model(truth_model(), model)
        report = tmp_path / "report.json"
        assert main(["evaluate", "--model", str(model), "--quotes", str(quotes),
                     "--report", str(report)]) == 0
        assert json.loads(report.read_text())["n_quotes"] == 0

    def test_mc_pricing_respects_the_seed(self, calibrated, tmp_path):
        schedule = write_json(tmp_path / "mc.json", {
            "default": {"kind": "mc", "n_paths": 4000, "beta_samples": 4000},
        })

        def run(seed, tag):
            out = tmp_path / f"p{tag}.csv"
            rc = main(["price", "--model", calibrated["model"],
                       "--quotes", calibrated["quotes"], "--schedule", schedule,
                       "--out", str(out), "--seed", str(seed)])
            assert rc == 0
            return out.read_bytes()

        assert run(3, "a") == run(3, "b")
        assert run(3, "c") != run(4, "d")

    @pytest.mark.parametrize("command", ["price", "evaluate"])
    def test_cv_covariance_that_overflows_exits_3(self, tmp_path, capsys, command):
        # every desk coefficient times 1e80: S_T stays finite, but the sums
        # of its squares overflow the CV covariance
        with open(DESK_MODEL) as handle:
            desk = json.load(handle)
        desk["coefficients"] = [1e80 * c for c in desk["coefficients"]]
        model = write_json(tmp_path / "big.json", desk)
        quotes = tmp_path / "q.csv"
        quotes.write_text("maturity_years,strike,option_type,mid_price,implied_vol,"
                          "discount_factor,forward,spot\n"
                          "0.5,100.0,C,5.0,,1.0,100.0,100.0\n"
                          "1.0,100.0,C,8.0,,1.0,100.0,100.0\n")
        schedule = write_json(tmp_path / "mc.json", {
            "default": {"kind": "mc", "n_paths": 2000, "beta_samples": 1000}})
        out = ["--out", str(tmp_path / "o.csv")] if command == "price" else [
            "--report", str(tmp_path / "r.json")]
        rc = main([command, "--model", model, "--quotes", str(quotes),
                   "--schedule", schedule, *out])
        assert rc == 3
        assert ("control-variate covariance at maturity 0.5 is not finite"
                in capsys.readouterr().err)

    def test_put_row_gets_the_model_put_price(self, tmp_path):
        # a call and a put at one strike, off the zero-rate world: by parity
        # the model's put is its call less DF (F - K), at the call's vol
        df, fwd, k = 0.98, 101.0, 90.0
        call = quad_call_price(truth_model(), 1.0, k * 100.0 / fwd, 40) * df * fwd / 100
        put = call - df * (fwd - k)
        quotes = tmp_path / "q.csv"
        quotes.write_text(
            "maturity_years,strike,option_type,mid_price,implied_vol,"
            "discount_factor,forward,spot\n"
            f"1.0,{k!r},C,{call!r},,{df!r},{fwd!r},100.0\n"
            f"1.0,{k!r},P,{put!r},,{df!r},{fwd!r},100.0\n")
        model = tmp_path / "truth.json"
        serialize_model(truth_model(), model)
        schedule = write_json(tmp_path / "s.json",
                              {"default": {"kind": "quad", "n_nodes": 40}})
        out = tmp_path / "priced.csv"
        assert main(["price", "--model", str(model), "--quotes", str(quotes),
                     "--schedule", schedule, "--out", str(out)]) == 0
        call_row, put_row = read_rows(out)
        assert float(call_row["model_price"]) == pytest.approx(call, abs=1e-9)
        assert float(put_row["model_price"]) == pytest.approx(put, abs=1e-9)
        assert put_row["model_implied_vol"] == call_row["model_implied_vol"]


class TestExotics:
    def run_exotics(self, tmp_path, contracts, reference=None, paths=20_000,
                    steps=32, model_path=None):
        if model_path is None:
            model_path = tmp_path / "truth.json"
            serialize_model(truth_model(), model_path)
        spec = write_json(tmp_path / "spec.json",
                          {"contracts": contracts, "monitoring_steps": steps})
        out = tmp_path / "exotics.csv"
        argv = ["exotics", "--model", str(model_path), "--spec", spec,
                "--out", str(out), "--paths", str(paths), "--seed", "5"]
        if reference is not None:
            argv += ["--reference", write_json(tmp_path / "ref.json", reference)]
        return main(argv), out

    def test_contract_panel_prices_and_inverts(self, tmp_path):
        contracts = [
            {"type": "forward_start", "tau": 0.0, "maturity": 1.0,
             "strike": 100.0},
            {"type": "forward_start", "tau": 0.5, "maturity": 1.0,
             "strike_ratio": 1.0},
            {"type": "down_and_out", "maturity": 1.0, "strike": 100.0,
             "barrier": 60.0},
            {"type": "lookback", "maturity": 1.0},
        ]
        reference = dict(HESTON, r=0.0, q=0.0)
        rc, out = self.run_exotics(tmp_path, contracts, reference=reference)
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 4
        for row in rows:
            assert float(row["model_price"]) > 0.0
            assert float(row["model_se"]) > 0.0
            assert float(row["ref_price"]) > 0.0

        # a forward start with tau = 0 and an absolute strike is a vanilla:
        # the path estimate must agree with quadrature within the MC error
        vanilla = float(rows[0]["model_price"])
        se = float(rows[0]["model_se"])
        exact = quad_call_price(truth_model(), 1.0, 100.0, 40)
        assert abs(vanilla - exact) < 4.0 * se

        # the lookback pays (max - terminal) >= (terminal - k)+ pathwise on
        # the shared path set whenever k >= s0... compare against the ATM
        # vanilla estimate computed on the same paths
        assert float(rows[3]["model_price"]) >= vanilla - 1e-12
        assert rows[3]["model_iv"] != ""

    EXOTICS = [{"type": "forward_start", "tau": 0.5, "maturity": 1.0, "strike_ratio": 1.0},
               {"type": "down_and_out", "maturity": 1.0, "strike": 100.0, "barrier": 90.0},
               {"type": "lookback", "maturity": 1.0}]

    @pytest.mark.parametrize("side", ["model", "reference"])
    def test_integer_spot_prices_as_the_float_spot(self, tmp_path, side):
        # an integer spot made the first row int64, and the fold's running
        # minimum of float rows raised a casting error (exit code 1)
        outs = []
        for s0 in (100.0, 100):
            run = tmp_path / repr(s0)
            run.mkdir()
            model_path = run / "model.json"
            model_path.write_text(model_text(s0=s0 if side == "model" else 100.0))
            ref = dict(HESTON, r=0.0, q=0.0, s0=s0 if side == "reference" else 100.0)
            rc, out = self.run_exotics(run, self.EXOTICS, reference=ref, paths=3000,
                                       model_path=model_path)
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_does_not_change_the_csv(self, tmp_path, monkeypatch):
        # three blocks of paths a simulator, on one worker and on two
        from chaoscal import reference as reference_module

        outs = []
        for workers in (1, 2):
            monkeypatch.setattr(reference_module, "_workers", lambda n_paths: workers)
            run = tmp_path / str(workers)
            run.mkdir()
            rc, out = self.run_exotics(run, self.EXOTICS, reference=dict(HESTON, r=0.0, q=0.0),
                                       paths=2 * reference_module._PATH_BLOCK + 7, steps=16)
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_cells_are_the_library_on_both_simulators(self, tmp_path):
        # the command prices the simulators' (len(times), n_paths) arrays as
        # they come, at its seed and stream tags: 7001 model, 7002 reference
        contracts = [
            {"type": "forward_start", "tau": 0.5, "maturity": 1.0, "strike_ratio": 1.0},
            {"type": "down_and_out", "maturity": 1.0, "strike": 100.0, "barrier": 90.0},
            {"type": "lookback", "maturity": 1.0},
        ]
        specs = [ForwardStartCall(0.5, 1.0, strike_ratio=1.0),
                 DownAndOutCall(1.0, 100.0, 90.0), LookbackCall(1.0)]
        reference = dict(HESTON, r=0.0, q=0.0)
        rc, out = self.run_exotics(tmp_path, contracts, reference=reference, paths=3000)
        assert rc == 0
        times = np.linspace(0.0, 1.0, 33)  # 32 steps put 0.5 and 1.0 on the grid
        driver = BrownianDriver(5)
        sides = {
            "model": path_grid(truth_model(), times, 3000, driver, tags=(7001,)),
            "ref": heston_simulate(HestonParams(**reference), times, 3000, driver,
                                   tags=(7002,)),
        }
        rows = read_rows(out)
        assert len(rows) == len(specs)
        for row, spec in zip(rows, specs):
            for side, paths in sides.items():
                price, se = exotic_mc_price(paths, times, spec)
                iv = exotic_implied_vol(price, spec, 100.0)
                assert row[f"{side}_price"] == repr(price)
                assert row[f"{side}_se"] == repr(se)
                assert row[f"{side}_iv"] == repr(iv)

    def test_reference_columns_blank_without_reference(self, tmp_path):
        rc, out = self.run_exotics(
            tmp_path, [{"type": "lookback", "maturity": 1.0}], paths=2000
        )
        assert rc == 0
        row = read_rows(out)[0]
        assert row["ref_price"] == ""
        assert row["ref_iv"] == ""

    def test_tiny_maturity_reference_prices_are_finite(self, tmp_path):
        # over steps of 3e-302 the QE-M step's (2/psi)(2/psi - 1) overflowed
        # and the reference wrote ref_price nan with exit code 0
        rc, out = self.run_exotics(tmp_path, [{"type": "lookback", "maturity": 1e-300}],
                                   reference=dict(HESTON, r=0.0, q=0.0), paths=2000)
        assert rc == 0
        row = read_rows(out)[0]
        for side in ("model", "ref"):
            price, se = float(row[f"{side}_price"]), float(row[f"{side}_se"])
            assert np.isfinite(price) and np.isfinite(se)
            assert 0.0 <= price <= 1e-12 * 100.0

    def test_coarse_grid_still_monitors_contract_times(self, tmp_path):
        # seven steps put nothing at t = 0.5; the grid must absorb tau
        contracts = [{"type": "forward_start", "tau": 0.5, "maturity": 1.0,
                      "strike_ratio": 1.0}]
        rc, out = self.run_exotics(tmp_path, contracts, paths=2000, steps=7)
        assert rc == 0
        assert float(read_rows(out)[0]["model_price"]) > 0.0

    def test_rough_reference_exits_2(self, tmp_path):
        rc, _ = self.run_exotics(
            tmp_path, [{"type": "lookback", "maturity": 1.0}],
            reference=dict(HESTON, alpha=0.75), paths=500,
        )
        assert rc == 2

    def test_rates_reference_exits_2(self, tmp_path, capsys):
        # the model's exotics live in its zero-rate world; a drifted reference
        # would be inverted inconsistently, so it is rejected up front
        rc, _ = self.run_exotics(
            tmp_path, [{"type": "lookback", "maturity": 1.0}],
            reference=HESTON, paths=500,
        )
        assert rc == 2
        assert "r = q = 0" in capsys.readouterr().err

    def test_maturity_beyond_horizon_exits_2(self, tmp_path, capsys):
        rc, _ = self.run_exotics(
            tmp_path, [{"type": "lookback", "maturity": 2.0}], paths=500
        )
        assert rc == 2
        assert "horizon" in capsys.readouterr().err

    def test_unknown_contract_type_exits_2(self, tmp_path):
        rc, _ = self.run_exotics(
            tmp_path, [{"type": "asian", "maturity": 1.0}], paths=500
        )
        assert rc == 2


class TestBadInput:
    """Bad files and counts end in exit 2 with a message naming the cause."""

    LOOKBACK = json.dumps({"contracts": [{"type": "lookback", "maturity": 1.0}]})
    BARRIER_AT_100 = json.dumps({"contracts": [
        {"type": "lookback", "maturity": 1.0},
        {"type": "down_and_out", "maturity": 1.0, "strike": 100.0, "barrier": 100.0}]})
    ONE_COMMON_STRIKE = (  # raw mids: T = 0.5 has two common strikes, T = 1.0 one
        "maturity_years,strike,option_type,mid_price,spot\n"
        "0.5,95.0,C,7.0,100.0\n0.5,95.0,P,2.0,100.0\n"
        "0.5,105.0,C,2.0,100.0\n0.5,105.0,P,7.0,100.0\n"
        "1.0,100.0,C,8.0,100.0\n1.0,100.0,P,8.0,100.0\n1.0,110.0,C,4.0,100.0\n")
    BIG_CV_DRAW = json.dumps({"default": {"kind": "mc", "n_paths": 1000,
                                          "beta_samples": 10**15}})
    WIDE_MODEL = model_text(p=1, m=20000, coefficients=[0.0] * 20000, basis={
        "kind": "piecewise", "grid": [i / 20000 for i in range(20001)]})
    TEN_PATHS = json.dumps({"default": {"kind": "mc", "n_paths": 10, "beta_samples": 10}})
    LEGENDRE = model_text(basis={"kind": "legendre", "horizon": 1.0, "size": 2})
    LEGENDRE_QUAD = json.dumps({"default": {"kind": "mc", "cv_degree": 1},
                                "entries": [[1.0, {"kind": "quad"}]]})
    GOOD = {  # content of the good JSON inputs; model and quote files are written
        "params": json.dumps(HESTON),
        "config": config_text(),
        "spec": LOOKBACK,
    }
    FILES = {  # subcommand: its required input files, flag -> file name
        "gen-surface": {"params": "p.json"},
        "parity": {"quotes": "q.csv"},
        "calibrate": {"quotes": "q.csv", "config": "config.json"},
        "price": {"model": "truth.json", "quotes": "q.csv"},
        "evaluate": {"model": "truth.json", "quotes": "q.csv"},
        "exotics": {"model": "truth.json", "spec": "spec.json"},
    }
    OPTIONAL = {"init": "init.json", "schedule": "schedule.json",
                "reference": "ref.json"}
    CASES = {
        # case: (subcommand, {input: bad content, None = no such file},
        #        named in the message: one text, or a tuple of texts)
        "exotics negative paths": ("exotics", {"paths": "-5"}, "--paths"),
        "exotics zero paths": ("exotics", {"paths": "0"}, "--paths"),
        "exotics empty spec": ("exotics", {"spec": ""}, "spec.json"),
        "exotics malformed spec": ("exotics", {"spec": '{"contracts": ['}, "spec.json"),
        "exotics spec without contracts": (
            "exotics", {"spec": json.dumps({"monitoring_steps": 8})}, "'contracts'"),
        "exotics barrier without strike": (
            "exotics", {"spec": json.dumps({"contracts": [
                {"type": "down_and_out", "maturity": 1.0, "barrier": 85.0}]})},
            "down_and_out): missing keys ['strike']"),
        "exotics negative monitoring steps": (
            "exotics", {"spec": json.dumps({"monitoring_steps": -3, "contracts": [
                {"type": "lookback", "maturity": 1.0}]})}, "'monitoring_steps'"),
        "exotics empty reference": ("exotics", {"reference": ""}, "ref.json"),
        "exotics malformed reference": ("exotics", {"reference": "{'s0': 100}"},
                                        "ref.json"),
        "exotics missing spec": ("exotics", {"spec": None}, "spec.json"),
        "gen-surface empty params": ("gen-surface", {"params": ""}, "p.json"),
        "gen-surface malformed params": ("gen-surface", {"params": '{"s0": 100,'},
                                         "p.json"),
        "gen-surface params not an object": ("gen-surface", {"params": "[100.0]"},
                                             "p.json"),
        "gen-surface params missing a key": (
            "gen-surface", {"params": json.dumps({"s0": 100.0, "kappa": 1.5})}, "v0"),
        "gen-surface heston with alpha": (
            "gen-surface", {"params": json.dumps(dict(HESTON, alpha=0.75))}, "alpha"),
        "gen-surface params value not a number": (
            "gen-surface", {"params": json.dumps(dict(HESTON, s0="abc"))},
            "p.json: key 's0'"),
        "gen-surface missing params": ("gen-surface", {"params": None}, "p.json"),
        "parity missing quotes": ("parity", {"quotes": None}, "q.csv"),
        "calibrate empty config": ("calibrate", {"config": ""}, "config.json"),
        "calibrate config not an object": ("calibrate", {"config": "[]"},
                                           "config.json"),
        "calibrate malformed init": ("calibrate", {"init": '{"s0": '}, "init.json"),
        "calibrate missing quotes": ("calibrate", {"quotes": None}, "q.csv"),
        "price missing model": ("price", {"model": None}, "truth.json"),
        "evaluate malformed model": ("evaluate", {"model": "{"}, "truth.json"),
        "evaluate schedule not an object": ("evaluate", {"schedule": "[]"},
                                            "schedule.json"),
        "evaluate missing quotes": ("evaluate", {"quotes": None}, "q.csv"),
        "evaluate model without p": (
            "evaluate", {"model": model_text(p=None)}, "truth.json: missing key 'p'"),
        "evaluate model p not an integer": (
            "evaluate", {"model": model_text(p="2")},
            "truth.json: key 'p' must be an integer"),
        "evaluate model d a bool": (
            "evaluate", {"model": model_text(d=True)},
            "truth.json: key 'd' must be an integer"),
        "evaluate model s0 not a number": (
            "evaluate", {"model": model_text(s0="100")},
            "truth.json: key 's0' must be a finite number"),
        "evaluate model without coefficients": (
            "evaluate", {"model": model_text(coefficients=None)},
            "truth.json: missing key 'coefficients'"),
        "evaluate model coefficients not numbers": (
            "evaluate", {"model": model_text(coefficients=["8.0"] * 5)},
            "truth.json: key 'coefficients' must be a list of finite numbers"),
        "evaluate model coefficients of the wrong length": (
            "evaluate", {"model": model_text(coefficients=TRUTH_THETA[:4])},
            "truth.json: key 'coefficients' has 4 values"),
        "evaluate model p beyond its coefficients": (
            "evaluate", {"model": model_text(p=5, m=10, d=2)},
            "truth.json: key 'coefficients' has 5 values"),
        "price model basis not an object": (
            "price", {"model": model_text(basis="piecewise")},
            "truth.json: key 'basis' must be a JSON object"),
        "price model basis without grid": (
            "price", {"model": model_text(basis={"kind": "piecewise"})},
            "truth.json: basis: missing keys ['grid']"),
        "exotics legendre model without size": (
            "exotics",
            {"model": model_text(basis={"kind": "legendre", "horizon": 1.0})},
            "truth.json: basis: missing keys ['size']"),
        "calibrate init without m": (
            "calibrate", {"init": model_text(m=None)}, "init.json: missing key 'm'"),
        "evaluate schedule entry not a pair": (
            "evaluate", {"schedule": json.dumps({"entries": [[1.0]]})},
            "schedule.json: entry 0: expected a [maturity, {method}] pair"),
        "evaluate schedule entries not a list": (
            "evaluate", {"schedule": json.dumps({"entries": {"1.0": {"kind": "mc"}}})},
            "schedule.json: key 'entries' must be a list"),
        "evaluate schedule method not an object": (
            "evaluate", {"schedule": json.dumps({"default": "mc"})},
            "schedule.json: key 'default': expected a JSON object"),
        "evaluate schedule entry method not an object": (
            "evaluate", {"schedule": json.dumps({"entries": [[1.0, "quad"]]})},
            "schedule.json: entry 0: expected a JSON object"),
        "evaluate schedule method without kind": (
            "evaluate", {"schedule": json.dumps({"default": {"n_paths": 1000}})},
            "schedule.json: key 'default': missing keys ['kind']"),
        "evaluate schedule size a string": (
            "evaluate", {"schedule": json.dumps(
                {"default": {"kind": "mc", "n_paths": "1000"}})},
            "schedule.json: key 'default': key 'n_paths' must be an integer"),
        "evaluate schedule size a bool": (
            "evaluate", {"schedule": json.dumps(
                {"entries": [[0.5, {"kind": "quad", "n_nodes": True}]]})},
            "schedule.json: entry 0: key 'n_nodes' must be an integer"),
        "evaluate schedule unknown key": (
            "evaluate", {"schedule": json.dumps({"entrys": []})},
            "schedule.json: unknown keys ['entrys']"),
        "calibrate config learning rate a string": (
            "calibrate", {"config": config_text(learning_rate="abc")},
            "config.json: key 'learning_rate' must be a finite number"),
        "calibrate config max iterations a float": (
            "calibrate", {"config": config_text(max_iterations=2.5)},
            "config.json: key 'max_iterations' must be an integer"),
        "calibrate config resim period a string": (
            "calibrate", {"config": config_text(resim_every="5")},
            "config.json: key 'resim_every' must be an integer"),
        "calibrate config tol overflows": (
            "calibrate", {"config": config_text().replace("{", '{"tol": 1e400, ', 1)},
            "config.json: key 'tol' must be a finite number"),
        "calibrate config negative seed": (
            "calibrate", {"config": config_text(seed=-1)},
            "config.json: key 'seed' must be nonnegative, got -1"),
        "calibrate model section m a string": (
            "calibrate", {"config": config_text(model={"p": 2, "m": "2", "d": 1,
                                                       "horizon": 1.0})},
            "config.json: model section: key 'm' must be an integer"),
        "calibrate model section a list": (
            "calibrate", {"config": config_text(model=[2, 2, 1, 1.0])},
            "config.json: model section: expected a JSON object"),
        "calibrate negative seed": ("calibrate", {"seed": "-1"},
                                    "key 'seed' must be nonnegative, got -1"),
        "price negative seed": ("price", {"seed": "-1"},
                                "key 'seed' must be a nonnegative integer, got -1"),
        "evaluate negative seed": ("evaluate", {"seed": "-1"},
                                   "key 'seed' must be a nonnegative integer, got -1"),
        "exotics negative seed": ("exotics", {"seed": "-1"},
                                  "key 'seed' must be a nonnegative integer, got -1"),
        "evaluate schedule one beta sample": (
            "evaluate", {"schedule": json.dumps({"default": {
                "kind": "mc", "cv_degree": 2, "beta_samples": 1}})},
            "schedule.json: key 'default': key 'beta_samples' must be at least 2"),
        "gen-surface maturities nan": ("gen-surface", {"maturities": "nan"},
                                       "--maturities"),
        "gen-surface maturities inf": ("gen-surface", {"maturities": "0.5,inf"},
                                       "--maturities"),
        "gen-surface maturities empty": ("gen-surface", {"maturities": ","},
                                         "--maturities"),
        "gen-surface moneyness nan": ("gen-surface", {"moneyness": "1.0,nan"},
                                      "--moneyness"),
        "gen-surface moneyness empty": ("gen-surface", {"moneyness": ""},
                                        "--moneyness"),
        "exotics spec unknown key": (
            "exotics", {"spec": json.dumps({"monitoring_step": 4, "contracts": [
                {"type": "lookback", "maturity": 1.0}]})},
            "spec.json: unknown keys ['monitoring_step']"),
        "exotics contract unknown key": (
            "exotics", {"spec": json.dumps({"contracts": [
                {"type": "lookback", "maturity": 1.0, "strik": 100.0}]})},
            "spec.json: contract 0 (lookback): unknown keys ['strik']"),
        "evaluate model s0 zero": (
            "evaluate", {"model": model_text(s0=0.0)},
            "truth.json: key 's0' must be a finite number > 0"),
        "evaluate model s0 negative": (
            "evaluate", {"model": model_text(s0=-5.0)},
            "truth.json: key 's0' must be a finite number > 0"),
        "evaluate model m zero": (
            "evaluate", {"model": model_text(m=0)},
            "truth.json: key 'm' must be at least 1"),
        "calibrate model section m zero": (
            "calibrate", {"config": config_text(model={"p": 2, "m": 0, "d": 1,
                                                       "horizon": 1.0})},
            "config.json: model section: key 'm' must be at least 1"),
        "calibrate model section d zero": (
            "calibrate", {"config": config_text(model={"p": 2, "m": 2, "d": 0,
                                                       "horizon": 1.0})},
            "config.json: model section: key 'd' must be at least 1"),
        "calibrate model section negative horizon": (
            "calibrate", {"config": config_text(model={"p": 2, "m": 2, "d": 1,
                                                       "horizon": -1.0})},
            "config.json: model section: key 'horizon' must be positive"),
        "evaluate schedule zero paths": (
            "evaluate", {"schedule": json.dumps({"default": {"kind": "mc",
                                                             "n_paths": 0}})},
            "schedule.json: key 'default': key 'n_paths' must be at least 1"),
        "evaluate schedule zero nodes": (
            "evaluate", {"schedule": json.dumps(
                {"entries": [[0.5, {"kind": "quad", "n_nodes": 0}]]})},
            "schedule.json: entry 0: key 'n_nodes' must lie in [1, 128]"),
        "calibrate config unknown optimizer": (
            "calibrate", {"config": config_text(optimizer="sgd")},
            "config.json: key 'optimizer' must be one of"),
        "calibrate config sets beta1": (
            "calibrate", {"config": config_text(beta1=0.9)},
            "config.json: unknown keys ['beta1']"),
        "calibrate quotes spot zero": (
            "calibrate", {"quotes": one_quote_text(0.0)}, "row 1: spot must be positive"),
        "calibrate quotes spot negative": (
            "calibrate", {"quotes": one_quote_text(-100.0)},
            "row 1: spot must be positive"),
        "evaluate quotes spot zero": (
            "evaluate", {"quotes": one_quote_text(0.0)}, "row 1: spot must be positive"),
        "evaluate quotes spot negative": (
            "evaluate", {"quotes": one_quote_text(-100.0)},
            "row 1: spot must be positive"),
        "parity quotes spot zero": (
            "parity", {"quotes": one_quote_text(0.0)}, "row 1: spot must be positive"),
        "evaluate model unknown key": (
            "evaluate", {"model": model_text(foo=1)}, "truth.json: unknown keys ['foo']"),
        "evaluate model grid not increasing": (
            "evaluate", {"model": model_text(basis={"kind": "piecewise",
                                                    "grid": [0.0, 0.5, 0.5]})},
            "truth.json: basis: grid must be strictly increasing"),
        "exotics legendre model size zero": (
            "exotics", {"model": model_text(basis={"kind": "legendre", "horizon": 1.0,
                                                   "size": 0})},
            "truth.json: basis: key 'size' must be at least 1, got 0"),
        "price model piecewise basis with size": (
            "price", {"model": model_text(basis={"kind": "piecewise", "size": 2,
                                                 "grid": [0.0, 0.5, 1.0]})},
            "truth.json: basis: unknown keys ['size']"),
        "evaluate schedule duplicate maturity": (
            "evaluate", {"schedule": json.dumps({"entries": [[0.5, {"kind": "mc"}],
                                                             [0.5, {"kind": "quad"}]]})},
            "schedule.json: entries 0 and 1 both name maturity 0.5"),
        "exotics one path": ("exotics", {"paths": "1"}, "--paths must be at least 2"),
        "calibrate model section p zero": (
            "calibrate", {"config": config_text(model={"p": 0, "m": 2, "d": 1,
                                                       "horizon": 1.0})},
            "config.json: model section: key 'p' must be at least 1, got 0"),
        "evaluate model p zero": (
            "evaluate", {"model": model_text(p=0)},
            "truth.json: key 'p' must be at least 1, got 0"),
        "gen-surface maturities zero": ("gen-surface", {"maturities": "0"},
                                        "--maturities must be comma-separated "
                                        "finite numbers > 0"),
        "gen-surface moneyness negative": ("gen-surface", {"moneyness": "-1"},
                                           "--moneyness must be comma-separated "
                                           "finite numbers > 0"),
        "exotics barrier at the model spot": (
            "exotics", {"spec": BARRIER_AT_100},
            "spec.json: contract 1 (down_and_out): barrier 100.0 >= spot 100.0 of "),
        "exotics barrier above the reference spot": (
            "exotics", {"reference": json.dumps(dict(HESTON, s0=90.0, r=0.0, q=0.0)),
                        "spec": json.dumps({"contracts": [{
                            "type": "down_and_out", "maturity": 1.0, "strike": 90.0,
                            "barrier": 95.0}]})},
            "spec.json: contract 0 (down_and_out): barrier 95.0 >= spot 90.0 of "),
        "calibrate model section too many coefficients": (
            "calibrate", {"config": config_text(model={"p": 50, "m": 10, "d": 2,
                                                       "horizon": 1.0})},
            "config.json: model section: 161884603662657875 coefficients at "
            "n_paths = 100000"),
        "calibrate init with too many coefficients": (
            "calibrate", {"init": model_text(),
                          "schedule": json.dumps({"default": {"kind": "mc",
                                                              "n_paths": 40_000_000}})},
            "init.json: 5 coefficients at n_paths = 40000000"),
        "evaluate schedule entry at a negative maturity": (
            "evaluate",
            {"schedule": json.dumps({"entries": [[-1.0, {"kind": "quad"}]]})},
            "schedule.json: entry 0: maturity must be positive, got -1.0"),
        # the byte cap: sizes numpy refuses outright, refused before any draw
        "calibrate model section quadrature above the byte cap": (
            "calibrate", {"config": config_text(model={"p": 50, "m": 10, "d": 2,
                                                       "horizon": 1.0}),
                          "schedule": json.dumps({"default": {"kind": "quad",
                                                              "n_nodes": 4}})},
            ("config.json: model section: 161884603662657875 coefficients at "
             "n_nodes = 4 (", "schedule.json, maturity 1.0) need")),
        "calibrate beta samples above the byte cap": (
            "calibrate", {"schedule": BIG_CV_DRAW},
            # a fit holds T = 1.0's five feature columns, T = 0.5's two
            ("config.json: model section: 5 coefficients at n_paths = 1000, "
             "beta_samples = 1000000000000000 (", "schedule.json, maturity 1.0)")),
        "evaluate paths above the byte cap": (
            "evaluate", {"schedule": json.dumps({"default": {"kind": "mc",
                                                             "n_paths": 10**15}})},
            ("truth.json: 5 coefficients at n_paths = 1000000000000000, ",
             "schedule.json, maturity 0.5)")),
        "evaluate beta samples above the byte cap": (
            "evaluate", {"schedule": BIG_CV_DRAW},
            ("truth.json: 5 coefficients at n_paths = 1000, "
             "beta_samples = 1000000000000000 (", "schedule.json, maturity 0.5)")),
        "price paths above the byte cap": (
            "price", {"schedule": json.dumps({"default": {"kind": "mc",
                                                          "n_paths": 10**15}})},
            ("truth.json: 5 coefficients at n_paths = 1000000000000000, ",
             "schedule.json, maturity 0.5)")),
        "exotics paths above the byte cap": (
            "exotics", {"paths": str(10**15)},
            ("spec.json: key 'monitoring_steps' = 64 with --paths 1000000000000000: "
             "n_paths = 1000000000000000 at n_times = 66 need")),
        "exotics monitoring steps above the byte cap": (
            "exotics", {"spec": json.dumps({"monitoring_steps": 10**15, "contracts": [
                {"type": "lookback", "maturity": 1.0}]})},
            ("spec.json: key 'monitoring_steps' = 1000000000000000 with --paths 500: "
             "n_paths = 500 at n_times = 1000000000000002 need")),
        # the index set of a model file is bounded in bytes before its hash
        # enumerates it: 20000 indices of 20000 entries each
        "evaluate model with too many index entries": (
            "evaluate", {"model": WIDE_MODEL, "schedule": TEN_PATHS},
            "truth.json: the 20000 indices of (p, m, d) = (1, 20000, 1) need "),
        "exotics model with too many index entries": (
            "exotics", {"model": WIDE_MODEL, "paths": "10"},
            "truth.json: the 20000 indices of (p, m, d) = (1, 20000, 1) need "),
        "exotics forward start negative strike ratio": (
            "exotics", {"spec": json.dumps({"contracts": [{
                "type": "forward_start", "tau": 0.5, "maturity": 1.0,
                "strike_ratio": -1.0}]})},
            "spec.json: contract 0 (forward_start): strike (or strike_ratio), maturity "
            "must be positive"),
        "exotics forward start negative strike": (
            "exotics", {"spec": json.dumps({"contracts": [{
                "type": "forward_start", "tau": 0.5, "maturity": 1.0, "strike": -5.0}]})},
            "spec.json: contract 0 (forward_start): strike (or strike_ratio), maturity "
            "must be positive"),
        "exotics forward start at maturity zero": (
            "exotics", {"spec": json.dumps({"contracts": [{
                "type": "forward_start", "tau": 0.0, "maturity": 0.0,
                "strike_ratio": 1.0}]})},
            "spec.json: contract 0 (forward_start): strike (or strike_ratio), maturity "
            "must be positive"),
        # a maturity past the horizon, by any margin, names the contract or
        # quotes and the model
        "exotics maturity beyond the model horizon": (
            "exotics", {"spec": json.dumps({"contracts": [
                {"type": "lookback", "maturity": 1.0},
                {"type": "lookback", "maturity": 3.0}]})},
            ("spec.json: contract 1 (lookback) with ",
             "truth.json: maturities [3.0] beyond horizon 1.0")),
        "exotics maturity just past the model horizon": (
            "exotics", {"spec": json.dumps({"contracts": [
                {"type": "lookback", "maturity": 1.0 + 5e-13}]})},
            ("spec.json: contract 0 (lookback) with ",
             "truth.json: maturities [1.0000000000005] beyond horizon 1.0")),
        "evaluate quotes beyond the model horizon": (
            "evaluate", {"quotes": one_quote_text(100.0).replace("\n1.0,", "\n2.0,")},
            ("q.csv with ", "truth.json: maturities [2.0] beyond horizon 1.0")),
        "evaluate quotes just past the model horizon": (
            "evaluate",
            {"quotes": one_quote_text(100.0).replace("\n1.0,", "\n1.0000000000005,")},
            ("q.csv with ", "truth.json: maturities [1.0000000000005] beyond horizon 1.0")),
        "calibrate quotes beyond the model section horizon": (
            "calibrate", {"config": config_text(model={"p": 2, "m": 2, "d": 1,
                                                       "horizon": 0.7})},
            ("q.csv with ", "config.json: model section: maturities [1.0] beyond "
             "horizon 0.7")),
        "calibrate quotes beyond the init model horizon": (
            "calibrate", {"init": model_text(basis={"kind": "piecewise",
                                                    "grid": [0.0, 0.35, 0.7]})},
            ("q.csv with ", "init.json: maturities [1.0] beyond horizon 0.7")),
        # parameter ranges checked outside the file readers name file and key
        "gen-surface rough heston alpha out of range": (
            "gen-surface", {"model": "rough-heston",
                            "params": json.dumps(dict(HESTON, alpha=0.3))},
            "p.json: key 'alpha' must lie in (1/2, 1], got 0.3"),
        "exotics rough reference": (
            "exotics", {"reference": json.dumps(dict(HESTON, alpha=0.8))},
            "ref.json: key 'alpha' must be 1, got 0.8"),
        "exotics reference with rates": (
            "exotics", {"reference": json.dumps(dict(HESTON, r=0.01, q=0.0))},
            "ref.json: key 'r' must be 0, got 0.01"),
        # closed forms of the piecewise basis, asked of a Legendre model
        "evaluate legendre model under the default schedule": (
            "evaluate", {"model": LEGENDRE},
            "truth.json: key 'cv_degree' = 2 (default schedule, maturity 0.5) needs "
            "the piecewise-constant basis, not LegendreBasis"),
        "price legendre model under the default schedule": (
            "price", {"model": LEGENDRE},
            "truth.json: key 'cv_degree' = 2 (default schedule, maturity 0.5) needs "),
        "calibrate legendre init under the default schedule": (
            "calibrate", {"init": LEGENDRE},
            "init.json: key 'cv_degree' = 2 (default schedule, maturity 0.5) needs "),
        "evaluate legendre model with a degree-2 schedule": (
            "evaluate", {"model": LEGENDRE, "schedule": json.dumps(
                {"default": {"kind": "mc", "cv_degree": 2}})},
            ("truth.json: key 'cv_degree' = 2 (", "schedule.json, maturity 0.5) needs ")),
        "evaluate legendre model with quadrature": (
            "evaluate", {"model": LEGENDRE, "schedule": LEGENDRE_QUAD},
            ("truth.json: key 'kind' = 'quad' (", "schedule.json, maturity 1.0) needs "
             "the piecewise-constant basis, not LegendreBasis")),
        "calibrate legendre init with quadrature": (
            "calibrate", {"init": LEGENDRE, "schedule": LEGENDRE_QUAD},
            ("init.json: key 'kind' = 'quad' (", "schedule.json, maturity 1.0) needs ")),
        "parity maturity with one common strike": (
            "parity", {"quotes": ONE_COMMON_STRIKE},
            "q.csv: maturity 1.0: parity extraction needs >= 2 common strikes, got 1"),
    }

    def argv(self, tmp_path, command, bad):
        argv = [command, "--report" if command == "evaluate" else "--out",
                str(tmp_path / "out")]
        if command == "gen-surface":
            argv += ["--model", bad.get("model", "heston"),
                     "--maturities", bad.get("maturities", "1.0"),
                     "--moneyness", bad.get("moneyness", "1.0")]
        if command == "exotics":
            argv += ["--paths", bad.get("paths", "500")]
        if "seed" in bad:
            argv += ["--seed", bad["seed"]]
        files = dict(self.FILES[command])
        files.update((flag, self.OPTIONAL[flag]) for flag in bad if flag in self.OPTIONAL)
        for flag, name in files.items():
            path = tmp_path / name
            if flag in bad:
                if bad[flag] is not None:
                    path.write_text(bad[flag])
            elif flag == "model":
                serialize_model(truth_model(), path)
            elif flag == "quotes":
                write_truth_quotes(path)
            else:
                path.write_text(self.GOOD[flag])
            argv += ["--" + flag, str(path)]
        return argv

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_cause(self, tmp_path, capsys, case):
        command, bad, named = self.CASES[case]
        assert main(self.argv(tmp_path, command, bad)) == 2
        err = capsys.readouterr().err
        for text in [named] if isinstance(named, str) else named:
            assert text in err

    @pytest.mark.parametrize("bad", [{"reference": "{'s0': 100}"},
                                     {"reference": json.dumps(HESTON)},
                                     {"spec": BARRIER_AT_100}],
                             ids=["malformed", "with rates", "barrier at spot"])
    def test_exotics_inputs_checked_before_simulating(self, tmp_path, monkeypatch, bad):
        def simulate(*args, **kwargs):
            raise AssertionError("paths simulated before the inputs were checked")

        monkeypatch.setattr(cli, "_path_rows", simulate)
        monkeypatch.setattr(cli, "_heston_rows", simulate)
        argv = self.argv(tmp_path, "exotics", bad)
        assert main(argv) == 2

    @pytest.mark.parametrize("command,flag", [("evaluate", "model"), ("price", "model"),
                                              ("calibrate", "init")])
    def test_legendre_schedule_checked_before_sampling(self, tmp_path, monkeypatch,
                                                       command, flag):
        def sample(*args, **kwargs):
            raise AssertionError("paths drawn before the schedule was checked")

        monkeypatch.setattr(pricing, "_sample_terminal", sample)
        monkeypatch.setattr(pricing, "sample_features", sample)
        assert main(self.argv(tmp_path, command, {flag: self.LEGENDRE})) == 2


# One fresh interpreter runs every subcommand on small inputs, then lists the
# scipy modules it holds: the runtime needs numpy and the standard library only.
_NO_SCIPY_SCRIPT = """
import json, sys
from chaoscal.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


class TestNumpyOnlyRuntime:
    def run_fresh(self, code, *args):
        src = os.path.dirname(os.path.dirname(os.path.abspath(chaoscal.__file__)))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path),
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_loads_no_scipy(self):
        code = ("import json, sys, chaoscal.cli\n"
                "print(json.dumps([m for m in sys.modules"
                " if m.split('.')[0] == 'scipy']))")
        assert self.run_fresh(code) == []

    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        params = write_json(tmp_path / "p.json", HESTON)
        rough = write_json(tmp_path / "rough.json", dict(HESTON, eps=0.3, alpha=0.75))
        reference = write_json(tmp_path / "ref.json", dict(HESTON, r=0.0, q=0.0))
        quotes = write_truth_quotes(tmp_path / "q.csv")
        raw = TestParity().write_raw(tmp_path / "raw.csv")
        truth = tmp_path / "truth.json"
        serialize_model(truth_model(), truth)
        legendre = tmp_path / "legendre.json"
        serialize_model(ChaosModel(100.0, 2, 2, 1, LegendreBasis(1.0, 2), TRUTH_THETA),
                        legendre)
        config = write_json(tmp_path / "config.json", {
            "max_iterations": 3, "model": {"p": 2, "m": 2, "d": 1, "horizon": 1.0}})
        schedule = write_json(tmp_path / "schedule.json", {"default": {
            "kind": "mc", "n_paths": 500, "cv_degree": 1, "beta_samples": 500}})
        spec = write_json(tmp_path / "spec.json", {"monitoring_steps": 4, "contracts": [
            {"type": "forward_start", "tau": 0.5, "maturity": 1.0, "strike_ratio": 1.0},
            {"type": "down_and_out", "maturity": 1.0, "strike": 100.0, "barrier": 85.0},
            {"type": "lookback", "maturity": 1.0}]})
        out = str(tmp_path / "out")
        surface = ["--maturities", "0.5", "--moneyness", "1.0", "--out", out]
        argvs = [
            ["gen-surface", "--model", "heston", "--params", params] + surface,
            ["gen-surface", "--model", "rough-heston", "--params", rough] + surface,
            ["parity", "--quotes", raw, "--out", out],
            ["calibrate", "--quotes", quotes, "--config", config, "--schedule",
             schedule, "--out", out],
            ["price", "--model", str(truth), "--quotes", quotes, "--schedule",
             schedule, "--out", out],
            ["evaluate", "--model", str(legendre), "--quotes", quotes, "--schedule",
             schedule, "--report", out],
            ["exotics", "--model", str(truth), "--spec", spec, "--reference",
             reference, "--paths", "500", "--out", out],
        ]
        assert self.run_fresh(_NO_SCIPY_SCRIPT, json.dumps(argvs)) == []


class TestParser:
    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_help_renders(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for name in ("gen-surface", "parity", "calibrate", "price",
                     "evaluate", "exotics"):
            assert name in out
