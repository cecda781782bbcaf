"""End-to-end tests of the command line: every flow goes through main(argv)."""

import csv
import json

import numpy as np
import pytest

from chaoscal.bases import PiecewiseConstantBasis
from chaoscal.cli import main
from chaoscal.model import ChaosModel
from chaoscal.modelio import load_model, serialize_model
from chaoscal.pricing import quad_call_price
from chaoscal.quotes import parse_quotes
from chaoscal.reference import HestonParams, heston_lewis_price
from chaoscal.vol import bs_call, bs_put, implied_vol

HESTON = {"s0": 100.0, "kappa": 1.2, "vbar": 0.04, "eps": 0.4,
          "rho": -0.6, "v0": 0.045, "r": 0.02, "q": 0.01}

TRUTH_THETA = [8.0, 10.0, 2.0, 1.5, -2.0]


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def truth_model():
    return ChaosModel(100.0, 2, 2, 1, PiecewiseConstantBasis.uniform(1.0, 2),
                      TRUTH_THETA)


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


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """One full CLI calibration, shared by the price/evaluate tests."""
    tmp = tmp_path_factory.mktemp("calib")
    quotes = write_truth_quotes(tmp / "quotes.csv")
    config = write_json(tmp / "config.json", {
        "learning_rate": 3e-3, "max_iterations": 4000, "weight_decay": 0.0,
        "tol": 1e-12, "seed": 22,
        "model": {"p": 2, "m": 2, "d": 1, "horizon": 1.0},
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
    ], ids=["unknown-option-type", "short-row", "nan-strike", "conflicting-spot"])
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

    def test_reference_columns_blank_without_reference(self, tmp_path):
        rc, out = self.run_exotics(
            tmp_path, [{"type": "lookback", "maturity": 1.0}], paths=2000
        )
        assert rc == 0
        row = read_rows(out)[0]
        assert row["ref_price"] == ""
        assert row["ref_iv"] == ""

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
    CASES = {
        # case: (subcommand, {input: bad content}, named in the message)
        "exotics negative paths": ("exotics", {"paths": "-5"}, "--paths"),
        "exotics zero paths": ("exotics", {"paths": "0"}, "--paths"),
        "exotics empty spec": ("exotics", {"spec": ""}, "spec.json"),
        "exotics malformed spec": ("exotics", {"spec": '{"contracts": ['}, "spec.json"),
        "exotics empty reference": ("exotics", {"reference": ""}, "ref.json"),
        "exotics malformed reference": ("exotics", {"reference": "{'s0': 100}"},
                                        "ref.json"),
        "gen-surface empty params": ("gen-surface", {"params": ""}, "p.json"),
        "gen-surface malformed params": ("gen-surface", {"params": '{"s0": 100,'},
                                         "p.json"),
        "gen-surface params not an object": ("gen-surface", {"params": "[100.0]"},
                                             "p.json"),
        "gen-surface params missing a key": (
            "gen-surface", {"params": json.dumps({"s0": 100.0, "kappa": 1.5})}, "v0"),
        "gen-surface heston with alpha": (
            "gen-surface", {"params": json.dumps(dict(HESTON, alpha=0.75))}, "alpha"),
    }

    def argv(self, tmp_path, command, bad):
        if command == "gen-surface":
            params = tmp_path / "p.json"
            params.write_text(bad["params"])
            return ["gen-surface", "--model", "heston", "--params", str(params),
                    "--maturities", "1.0", "--moneyness", "1.0",
                    "--out", str(tmp_path / "o.csv")]
        model = tmp_path / "truth.json"
        serialize_model(truth_model(), model)
        spec = tmp_path / "spec.json"
        spec.write_text(bad.get("spec", self.LOOKBACK))
        argv = ["exotics", "--model", str(model), "--spec", str(spec),
                "--out", str(tmp_path / "x.csv"), "--paths", bad.get("paths", "500")]
        if "reference" in bad:
            ref = tmp_path / "ref.json"
            ref.write_text(bad["reference"])
            argv += ["--reference", str(ref)]
        return argv

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_cause(self, tmp_path, capsys, case):
        command, bad, named = self.CASES[case]
        assert main(self.argv(tmp_path, command, bad)) == 2
        assert named in capsys.readouterr().err


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
