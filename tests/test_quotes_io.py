import json
import os
import re
from dataclasses import dataclass

import numpy as np
import pytest

from chaoscal.bases import LegendreBasis, PiecewiseConstantBasis
from chaoscal.calibrate import CalibrationConfig
from chaoscal.errors import ValidationError
from chaoscal.model import ChaosModel
from chaoscal.modelio import (
    _record,
    index_order_hash,
    load_config,
    load_model,
    load_schedule,
    serialize_model,
    write_history,
)
from chaoscal.calibrate import HistoryRow
from chaoscal.pricing import quad_call_price
from chaoscal.quotes import (
    Quote,
    QuoteSurface,
    extract_forward_discount,
    parse_quotes,
    write_quotes,
)
from chaoscal.vol import bs_call, bs_put, implied_vol

DESK_MODEL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "desk_model.json")

# A Legendre model file exactly as serialize_model writes it
LEGENDRE_MODEL_TEXT = """{
  "schema_version": 1,
  "s0": 100.0,
  "p": 2,
  "m": 2,
  "d": 1,
  "basis": {
    "kind": "legendre",
    "horizon": 2.0,
    "size": 2
  },
  "index_order_hash": "31e1c12d7f3d608b",
  "coefficients": [
    0.5,
    -0.25,
    0.125,
    0.001,
    3.0
  ]
}
"""

HEADER = ("maturity_years,strike,option_type,mid_price,implied_vol,"
          "discount_factor,forward,spot")


def write_csv(path, *rows):
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    return path


class TestQuoteValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            Quote(-1.0, 100.0, "C", 5.0)
        with pytest.raises(ValidationError):
            Quote(1.0, 0.0, "C", 5.0)
        with pytest.raises(ValidationError):
            Quote(1.0, 100.0, "X", 5.0)
        with pytest.raises(ValidationError):
            Quote(1.0, 100.0, "C")


class TestParseQuotes:
    def test_vol_only_row_derives_the_bs_price(self, tmp_path):
        path = write_csv(tmp_path / "q.csv", "1.0,100.0,C,,0.2,1.0,100.0,100.0")
        surface = parse_quotes(path)
        assert len(surface.quotes) == 1
        assert surface.spot == 100.0
        q = surface.quotes[0]
        assert q.mid_price == pytest.approx(bs_call(100.0, 100.0, 1.0, 0.2), rel=1e-12)
        assert round(q.mid_price, 4) == 7.9656

    def test_price_only_row_derives_the_vol(self, tmp_path):
        c = bs_call(100.0, 100.0, 1.0, 0.2)
        path = write_csv(tmp_path / "q.csv", f"1.0,100.0,C,{c!r},,1.0,100.0,100.0")
        q = parse_quotes(path).quotes[0]
        assert q.implied_vol == pytest.approx(0.2, abs=1e-9)

    def test_put_rows_use_put_formulas(self, tmp_path):
        p = bs_put(100.0, 110.0, 0.5, 0.25)
        path = write_csv(
            tmp_path / "q.csv",
            f"0.5,110.0,P,{p!r},,1.0,100.0,100.0",
            "0.5,110.0,P,,0.25,1.0,100.0,100.0",
        )
        quotes = parse_quotes(path).quotes
        assert quotes[0].implied_vol == pytest.approx(0.25, abs=1e-9)
        assert quotes[1].mid_price == pytest.approx(p, rel=1e-12)

    def test_rates_from_curve_columns(self, tmp_path):
        df, fwd = 0.95, 105.0
        r = -np.log(df) / 2.0
        q = r - np.log(fwd / 100.0) / 2.0
        path = write_csv(tmp_path / "q.csv", f"2.0,100.0,C,,0.3,{df},{fwd},100.0")
        quote = parse_quotes(path).quotes[0]
        assert quote.mid_price == pytest.approx(
            bs_call(100.0, 100.0, 2.0, 0.3, r, q), rel=1e-12
        )

    def test_empty_body_is_a_valid_empty_surface(self, tmp_path):
        surface = parse_quotes(write_csv(tmp_path / "q.csv"))
        assert surface.quotes == []

    def test_bound_violation_names_the_row(self, tmp_path):
        path = write_csv(
            tmp_path / "q.csv",
            "1.0,100.0,C,7.96,,1.0,100.0,100.0",
            "1.0,100.0,C,101.0,,1.0,100.0,100.0",  # above DF*F
        )
        with pytest.raises(ValidationError, match="row 2"):
            parse_quotes(path)

    def test_both_blank_names_the_row(self, tmp_path):
        path = write_csv(tmp_path / "q.csv", "1.0,100.0,C,,,1.0,100.0,100.0")
        with pytest.raises(ValidationError, match="row 1"):
            parse_quotes(path)

    def test_missing_curve_columns_point_to_parity(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("maturity_years,strike,mid_price,spot\n1.0,100.0,7.9,100.0\n")
        with pytest.raises(ValidationError, match="parity"):
            parse_quotes(path)

    def test_unknown_columns_ignored(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text(
            HEADER + ",venue\n" + "1.0,100.0,C,,0.2,1.0,100.0,100.0,CBOE\n"
        )
        assert len(parse_quotes(path).quotes) == 1

    def test_inconsistent_spot_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "q.csv",
            "1.0,100.0,C,,0.2,1.0,100.0,100.0",
            "1.0,110.0,C,,0.2,1.0,100.0,101.0",
        )
        with pytest.raises(ValidationError, match="row 2"):
            parse_quotes(path)

    def test_bad_number_named(self, tmp_path):
        path = write_csv(tmp_path / "q.csv", "1.0,oops,C,,0.2,1.0,100.0,100.0")
        with pytest.raises(ValidationError, match="row 1.*strike"):
            parse_quotes(path)

    def test_nonpositive_curve_rejected(self, tmp_path):
        path = write_csv(tmp_path / "q.csv", "1.0,100.0,C,,0.2,-0.5,100.0,100.0")
        with pytest.raises(ValidationError, match="row 1"):
            parse_quotes(path)


class TestWriteQuotes:
    def test_parse_emit_parse_is_the_identity(self, tmp_path):
        path = write_csv(
            tmp_path / "q.csv",
            "0.5,90.0,C,,0.22,0.99,100.5,100.0",
            "0.5,100.0,C,,0.2,0.99,100.5,100.0",
            "1.0,110.0,P,,0.19,0.98,101.0,100.0",
            f"1.0,100.0,C,{bs_call(100.0, 100.0, 1.0, 0.2)!r},,0.98,101.0,100.0",
        )
        first = parse_quotes(path)
        out = tmp_path / "round.csv"
        write_quotes(first, out)
        second = parse_quotes(out)
        assert second.spot == first.spot
        assert len(second.quotes) == len(first.quotes)
        for a, b in zip(first.quotes, second.quotes):
            assert b.maturity == a.maturity
            assert b.strike == a.strike
            assert b.option_type == a.option_type
            assert b.discount_factor == a.discount_factor
            assert b.forward == a.forward
            assert b.mid_price == pytest.approx(a.mid_price, abs=1e-12)
            assert b.implied_vol == pytest.approx(a.implied_vol, abs=1e-12)

    def test_empty_surface_round_trips(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_quotes(QuoteSurface([], None), out)
        assert parse_quotes(out).quotes == []


def parity_quotes(option_type, pairs):
    """Maturity-1 quotes of one type from (strike, mid) pairs."""
    return [Quote(1.0, float(k), option_type, float(mid)) for k, mid in pairs]


class TestExtractForwardDiscount:
    def test_exact_parity_line_is_recovered_exactly(self):
        df, fwd = 0.99, 101.0
        strikes = [85.0, 95.0, 100.0, 105.0, 120.0]
        calls = [(k, df * max(fwd - k, 0.0) + 2.0 + 0.01 * k) for k in strikes]
        puts = [(k, c - df * (fwd - k)) for (k, c) in calls]
        fit = extract_forward_discount(parity_quotes("C", calls),
                                       parity_quotes("P", puts))
        assert fit.discount_factor == pytest.approx(df, rel=1e-12)
        assert fit.forward == pytest.approx(fwd, rel=1e-12)
        assert fit.rmse < 1e-12

    def test_noisy_mids_recover_within_tolerance(self):
        rng = np.random.default_rng(5)
        df, fwd = 0.99, 101.0
        strikes = np.linspace(80.0, 120.0, 9)
        calls = [(k, df * max(fwd - k, 0.0) + 2.0 + rng.uniform(-1e-4, 1e-4))
                 for k in strikes]
        puts = [(k, df * max(fwd - k, 0.0) + 2.0 - df * (fwd - k)
                 + rng.uniform(-1e-4, 1e-4)) for k in strikes]
        fit = extract_forward_discount(parity_quotes("C", calls),
                                       parity_quotes("P", puts))
        assert abs(fit.discount_factor - df) < 1e-3
        assert abs(fit.forward - fwd) < 1e-3 * fwd
        assert fit.rmse < 5e-4

    def test_quote_objects_accepted(self):
        df, fwd = 1.0, 100.0
        calls = [Quote(1.0, k, "C", df * max(fwd - k, 0) + 1.5) for k in (90.0, 110.0)]
        puts = [Quote(1.0, k.strike, "P", k.mid_price - df * (fwd - k.strike))
                for k in calls]
        fit = extract_forward_discount(calls, puts)
        assert fit.discount_factor == pytest.approx(1.0, rel=1e-12)
        assert fit.forward == pytest.approx(100.0, rel=1e-12)

    def test_single_common_strike_is_an_error(self):
        with pytest.raises(ValidationError, match="2 common strikes"):
            extract_forward_discount(
                parity_quotes("C", [(100.0, 5.0)]), parity_quotes("P", [(100.0, 4.0)])
            )

    def test_disjoint_strikes_are_an_error(self):
        with pytest.raises(ValidationError, match="common strikes"):
            extract_forward_discount(
                parity_quotes("C", [(90.0, 5.0), (95.0, 4.0)]),
                parity_quotes("P", [(100.0, 4.0), (105.0, 5.0)]),
            )


class TestModelIo:
    def make_model(self, theta=None, basis=None):
        basis = basis or PiecewiseConstantBasis((0.0, 0.25, 0.7, 1.0))
        if theta is None:
            theta = np.random.default_rng(3).standard_normal(9)
        return ChaosModel(100.0, 2, 3, 1, basis, theta)

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        serialize_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.coefficients, model.coefficients)
        assert (back.s0, back.p, back.m, back.d) == (100.0, 2, 3, 1)
        assert back.basis == model.basis

    def test_legendre_basis_round_trips(self, tmp_path):
        model = ChaosModel(50.0, 2, 4, 1, LegendreBasis(2.0, 4), np.zeros(14))
        path = tmp_path / "model.json"
        serialize_model(model, path)
        assert load_model(path).basis == LegendreBasis(2.0, 4)

    def test_piecewise_model_file_is_rewritten_byte_for_byte(self, tmp_path):
        # the stored desk fit, read and written again, is the same file
        path = tmp_path / "model.json"
        serialize_model(load_model(DESK_MODEL), path)
        with open(DESK_MODEL, "rb") as handle:
            assert path.read_bytes() == handle.read()

    def test_legendre_model_file_text_is_fixed(self, tmp_path):
        model = ChaosModel(100.0, 2, 2, 1, LegendreBasis(2.0, 2),
                           [0.5, -0.25, 0.125, 1e-3, 3.0])
        path = tmp_path / "model.json"
        serialize_model(model, path)
        assert path.read_text() == LEGENDRE_MODEL_TEXT
        serialize_model(load_model(path), path)
        assert path.read_text() == LEGENDRE_MODEL_TEXT

    def test_tampered_order_hash_is_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        serialize_model(self.make_model(), path)
        data = json.loads(path.read_text())
        data["index_order_hash"] = "0" * 16
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="hash"):
            load_model(path)

    def test_version_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        serialize_model(self.make_model(), path)
        data = json.loads(path.read_text())
        data["schema_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="version"):
            load_model(path)

    def test_zero_model_loads_and_prices_intrinsic(self, tmp_path):
        path = tmp_path / "model.json"
        serialize_model(self.make_model(theta=np.zeros(9)), path)
        model = load_model(path)
        assert quad_call_price(model, 0.25, 90.0, 20) == pytest.approx(10.0, abs=1e-12)
        assert quad_call_price(model, 0.25, 110.0, 20) == 0.0

    def test_hash_depends_on_the_dims(self):
        assert index_order_hash(2, 3, 1) != index_order_hash(2, 3, 2)
        assert index_order_hash(3, 3, 2) != index_order_hash(2, 3, 2)
        assert index_order_hash(2, 3, 1) == index_order_hash(2, 3, 1)

    def test_history_csv_round_trips_floats(self, tmp_path):
        rows = [
            HistoryRow(0, 0.1234567890123456, 0.1234567890123456, 0.5, True),
            HistoryRow(1, 1e-300, 1e-300, 1.25, False),
        ]
        path = tmp_path / "history.csv"
        write_history(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,loss,best_loss,wall_seconds,resimulated"
        it, loss_val, best, wall, flag = lines[1].split(",")
        assert (int(it), float(wall), int(flag)) == (0, 0.5, 1)
        assert float(loss_val) == rows[0].loss
        assert float(lines[2].split(",")[1]) == 1e-300


class TestConfigSchedule:
    def test_config_round_trip_with_model_section(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "learning_rate": 0.01, "max_iterations": 17, "seed": 4,
            "model": {"p": 2, "m": 4, "d": 2, "horizon": 1.0},
        }))
        cfg, model_spec = load_config(path)
        assert cfg == CalibrationConfig(learning_rate=0.01, max_iterations=17, seed=4)
        assert model_spec == {"p": 2, "m": 4, "d": 2, "horizon": 1.0}

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learnign_rate": 0.01}))
        with pytest.raises(ValidationError, match="learnign_rate"):
            load_config(path)

    def test_schedule_with_entries(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({
            "default": {"kind": "mc", "n_paths": 5000, "cv_degree": 1},
            "entries": [[0.25, {"kind": "quad", "n_nodes": 30}]],
        }))
        sched = load_schedule(path)
        assert sched.default.n_paths == 5000
        assert sched.default.cv_degree == 1
        assert sched.for_maturity(0.25).kind == "quad"
        assert sched.for_maturity(0.25).n_nodes == 30
        assert sched.for_maturity(0.5).kind == "mc"

    def test_unknown_method_key_rejected(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"default": {"kind": "mc", "npaths": 1}}))
        with pytest.raises(ValidationError, match="npaths"):
            load_schedule(path)

    def test_record_checks_each_field_against_its_annotation(self):
        @dataclass(frozen=True)
        class Record:
            name: str
            size: int
            scale: float = 1.0
            flag: bool = False

        assert _record("r", Record, {"name": "a", "size": 2, "scale": None}) == \
            Record("a", 2)
        for bad, text in (
            ([], "expected a JSON object"),
            ({"name": "a", "size": 2, "extra": 0}, "unknown keys ['extra']"),
            ({"scale": 2.0}, "missing keys ['name', 'size']"),
            ({"name": None, "size": 2}, "missing keys ['name']"),
            ({"name": 3, "size": 2}, "key 'name' must be a string"),
            ({"name": "a", "size": 2.0}, "key 'size' must be an integer"),
            ({"name": "a", "size": 2, "scale": True}, "key 'scale' must be a finite"),
            ({"name": "a", "size": 2, "flag": 1}, "key 'flag' must be true or false"),
        ):
            with pytest.raises(ValidationError, match=re.escape(f"r: {text}")):
                _record("r", Record, bad)
