"""Command-line interface.

Subcommands mirror the desk workflow: synthesize reference surfaces
(gen-surface), recover curve data from raw mids (parity), calibrate, then
price/evaluate/exotics against the fitted model.  Exit codes: 0 success,
2 validation error, 3 numeric error.  All randomness is controlled by
--seed; evaluation streams are disjoint from calibration streams by
construction.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bases import BrownianDriver, PiecewiseConstantBasis
from .calibrate import calibrate, initial_coefficients
from .errors import InversionError, NumericError, ValidationError
from .indices import index_space_dim
from .model import ChaosModel, path_grid
from .modelio import (
    load_config,
    load_model,
    load_schedule,
    serialize_model,
    write_history,
)
from .pricing import PricingSchedule, price_surface
from .quotes import (
    Quote,
    QuoteSurface,
    _parse_float,
    extract_forward_discount,
    parse_quotes,
    quote_rates,
    write_quotes,
)
from .reference import (
    HestonParams,
    RoughHestonParams,
    exotic_mc_price,
    heston_lewis_price,
    heston_simulate,
    lewis_call_price,
    rough_heston_cf,
)
from .vol import (
    DownAndOutCall,
    ForwardStartCall,
    LookbackCall,
    exotic_implied_vol,
    implied_vol,
)

_EVAL_STREAM = 0  # tag layout: pricing._maturity_groups


def _floats(text):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from None


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None


def _heston_from_json(path):
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object of parameters")
    alpha = data.pop("alpha", None)
    known = set(HestonParams.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValidationError(f"{path}: unknown parameter keys {unknown}")
    missing = [f.name for f in dataclasses.fields(HestonParams)
               if f.default is dataclasses.MISSING and f.name not in data]
    if missing:
        raise ValidationError(f"{path}: missing parameter keys {missing}")
    return HestonParams(**data), alpha


def cmd_gen_surface(args):
    params, alpha = _heston_from_json(args.params)
    maturities = _floats(args.maturities)
    strikes = [m * params.s0 for m in _floats(args.moneyness)]
    if args.model == "heston":
        if alpha not in (None, 1.0):
            raise ValidationError(
                f"{args.params}: key 'alpha' = {alpha} needs --model rough-heston; "
                "--model heston prices classical Heston (alpha = 1)"
            )
        price = lambda k, t: heston_lewis_price(params, k, t)
    else:
        rp = RoughHestonParams(params, 0.75 if alpha is None else alpha)
        cf = lambda u, t: rough_heston_cf(u, t, rp)
        price = lambda k, t: lewis_call_price(cf, params.s0, k, t, params.r, params.q)
    quotes = []
    for t in maturities:
        df = float(np.exp(-params.r * t))
        fwd = float(params.s0 * np.exp((params.r - params.q) * t))
        for k, c in zip(strikes, price(np.array(strikes), t)):
            c = float(c)
            iv = implied_vol(c, params.s0, k, t, params.r, params.q)
            quotes.append(Quote(t, k, "C", c, iv, df, fwd))
    write_quotes(QuoteSurface(quotes, params.s0), args.out)
    print(f"wrote {len(quotes)} quotes to {args.out}")


def cmd_parity(args):
    import csv

    with open(args.quotes, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValidationError(f"{args.quotes}: empty file")
        rows = list(reader)
    if not rows:
        raise ValidationError(f"{args.quotes}: no quote rows")
    spot = None
    by_mat = {}
    for i, rec in enumerate(rows, start=1):
        t = _parse_float(rec.get("maturity_years"), i, "maturity_years")
        k = _parse_float(rec.get("strike"), i, "strike")
        mid = _parse_float(rec.get("mid_price"), i, "mid_price")
        opt = (rec.get("option_type") or "C").strip() or "C"
        if opt not in ("C", "P"):
            raise ValidationError(f"row {i}: option type must be C or P, got {opt!r}")
        row_spot = _parse_float(rec.get("spot"), i, "spot", required=False)
        if row_spot is not None and spot not in (None, row_spot):
            raise ValidationError(f"row {i}: spot {row_spot} differs from {spot}")
        spot = row_spot if row_spot is not None else spot
        by_mat.setdefault(t, {"C": [], "P": []})[opt].append((k, mid))
    if spot is None:
        raise ValidationError(f"{args.quotes}: needs a spot column")
    curves = {}
    for t, sides in sorted(by_mat.items()):
        fit = extract_forward_discount(sides["C"], sides["P"])
        curves[t] = fit
        print(f"T={t}: DF={fit.discount_factor:.6f} F={fit.forward:.4f} "
              f"parity rmse={fit.rmse:.2e} ({len(fit.strikes)} strikes)")
    quotes = []
    for t, sides in sorted(by_mat.items()):
        fit = curves[t]
        for opt in ("C", "P"):
            for k, mid in sides[opt]:
                quotes.append(Quote(t, k, opt, mid, None,
                                    fit.discount_factor, fit.forward))
    write_quotes(QuoteSurface(quotes, spot), args.out)
    print(f"wrote {len(quotes)} enriched quotes to {args.out}")


def _build_model0(model_spec, spot, cfg):
    if model_spec is None:
        raise ValidationError(
            "config needs a 'model' section {p, m, d, horizon} (or pass --init)"
        )
    for key in ("p", "m", "d", "horizon"):
        if key not in model_spec:
            raise ValidationError(f"model section missing {key!r}")
    basis = PiecewiseConstantBasis.uniform(model_spec["horizon"], model_spec["m"])
    n = index_space_dim(model_spec["p"], model_spec["m"], model_spec["d"]) - 1
    theta0 = initial_coefficients(n, cfg) * spot
    return ChaosModel(spot, model_spec["p"], model_spec["m"], model_spec["d"],
                      basis, theta0)


def cmd_calibrate(args):
    surface = parse_quotes(args.quotes)
    if not surface.quotes:
        raise ValidationError(f"{args.quotes}: empty surface")
    cfg, model_spec = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    schedule = load_schedule(args.schedule) if args.schedule else PricingSchedule()
    if args.init:
        model0 = load_model(args.init)
    else:
        model0 = _build_model0(model_spec, surface.spot, cfg)
    bad = [q.maturity for q in surface.quotes if q.maturity > model0.horizon + 1e-12]
    if bad:
        raise ValidationError(
            f"quotes beyond the model horizon {model0.horizon}: {sorted(set(bad))}"
        )
    try:
        fitted, history = calibrate(model0, surface, cfg, schedule)
    except Exception as exc:
        partial = getattr(exc, "history", None)
        if partial and args.history:
            write_history(partial, args.history)
            print(f"wrote partial history ({len(partial)} rows) to {args.history}",
                  file=sys.stderr)
        raise
    serialize_model(fitted, args.out)
    if args.history:
        write_history(history, args.history)
    best = min((r.best_loss for r in history), default=float("nan"))
    print(f"calibrated {len(surface.quotes)} quotes in {len(history)} iterations; "
          f"best loss {best:.6e}; model -> {args.out}")


def _priced_rows(model, surface, schedule, seed):
    driver = BrownianDriver(seed)
    prices = price_surface(model, surface, schedule, driver, stream_tag=_EVAL_STREAM)
    rows = []
    for q, c in zip(surface.quotes, prices):
        r, div = quote_rates(q, surface.spot)
        try:
            iv = implied_vol(float(c), surface.spot, q.strike, q.maturity, r, div)
            err_bp = abs(iv - q.implied_vol) * 1e4
        except InversionError:
            iv, err_bp = None, None
        rows.append((q, float(c), iv, err_bp))
    return rows


def cmd_price(args):
    import csv

    model = load_model(args.model)
    surface = parse_quotes(args.quotes)
    schedule = load_schedule(args.schedule) if args.schedule else PricingSchedule()
    rows = _priced_rows(model, surface, schedule, args.seed)
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["maturity_years", "strike", "option_type", "mid_price",
                         "implied_vol", "discount_factor", "forward", "spot",
                         "model_price", "model_implied_vol", "abs_error_bp"])
        for q, c, iv, err_bp in rows:
            writer.writerow([
                repr(q.maturity), repr(q.strike), q.option_type,
                repr(q.mid_price), repr(q.implied_vol),
                repr(q.discount_factor), repr(q.forward), repr(surface.spot),
                repr(c),
                "" if iv is None else repr(iv),
                "" if err_bp is None else repr(err_bp),
            ])
    print(f"wrote {len(rows)} priced quotes to {args.out}")


def cmd_evaluate(args):
    model = load_model(args.model)
    surface = parse_quotes(args.quotes)
    schedule = load_schedule(args.schedule) if args.schedule else PricingSchedule()
    rows = _priced_rows(model, surface, schedule, args.seed)
    per_mat = {}
    skipped = 0
    for q, _, _, err_bp in rows:
        if err_bp is None:
            skipped += 1
            continue
        per_mat.setdefault(q.maturity, []).append(err_bp)
    report = {
        "n_quotes": len(rows),
        "n_inversion_failures": skipped,
        "per_maturity_mae_bp": {
            repr(t): float(np.mean(errs)) for t, errs in sorted(per_mat.items())
        },
        "overall_mae_bp": float(np.mean([e for errs in per_mat.values() for e in errs]))
        if per_mat else None,
    }
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"overall MAE: {report['overall_mae_bp']} bp over "
          f"{report['n_quotes']} quotes -> {args.report}")


def _exotic_spec(data):
    kind = data.get("type")
    if kind == "forward_start":
        keys = {"tau", "maturity", "strike_ratio", "strike"}
        return ForwardStartCall(**{k: v for k, v in data.items() if k in keys})
    if kind == "down_and_out":
        return DownAndOutCall(data["maturity"], data["strike"], data["barrier"])
    if kind == "lookback":
        return LookbackCall(data["maturity"])
    raise ValidationError(f"unknown exotic type {kind!r}")


def _refine(times, max_step):
    """Insert points so no interval exceeds max_step; keeps originals exact."""
    out = [times[0]]
    for lo, hi in zip(times, times[1:]):
        n = max(1, int(np.ceil((hi - lo) / max_step - 1e-12)))
        out.extend(lo + (hi - lo) * (i + 1) / n for i in range(n - 1))
        out.append(hi)
    return np.array(out)


def cmd_exotics(args):
    import csv

    if args.paths < 1:
        raise ValidationError(f"--paths must be at least 1, got {args.paths}")
    model = load_model(args.model)
    data = _read_json(args.spec)
    contracts = data["contracts"] if isinstance(data, dict) else data
    steps = data.get("monitoring_steps", 64) if isinstance(data, dict) else 64
    specs = [_exotic_spec(c) for c in contracts]
    if not specs:
        raise ValidationError(f"{args.spec}: no contracts")
    t_max = max(s.maturity for s in specs)
    if t_max > model.horizon + 1e-12:
        raise ValidationError(
            f"contract maturity {t_max} beyond model horizon {model.horizon}"
        )
    special = {s.tau for s in specs if isinstance(s, ForwardStartCall)}
    times = np.unique(np.concatenate([
        np.linspace(0.0, t_max, steps + 1),
        np.array(sorted({s.maturity for s in specs} | special)),
    ]))
    driver = BrownianDriver(args.seed)
    # model paths: an S_0 column at t = 0, joint samples after; transpose to
    # the (n_paths, n_times) layout the exotic estimator expects
    grid_pos = times[times > 0.0]
    model_paths = np.vstack([
        np.full((1, args.paths), model.s0),
        path_grid(model, grid_pos, args.paths, driver, tags=(7001,)),
    ]).T
    model_times = np.concatenate([[0.0], grid_pos])

    ref = None
    if args.reference:
        params, alpha = _heston_from_json(args.reference)
        if alpha not in (None, 1.0):
            raise ValidationError("reference simulation is classical Heston (alpha=1)")
        if params.r != 0.0 or params.q != 0.0:
            raise ValidationError(
                "exotic reference must have r = q = 0: the fitted model prices "
                "in its zero-rate world, and exotic payoffs do not convert "
                "between worlds by a discount factor"
            )
        fine = _refine(model_times, 1.0 / 250.0)
        ref_paths = heston_simulate(params, fine, args.paths, driver, tags=(7002,))
        keep = np.searchsorted(fine, model_times)
        ref = (params, ref_paths[:, keep])

    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["type", "tau", "maturity", "strike", "strike_ratio",
                         "barrier", "model_price", "model_se", "model_iv",
                         "model_iv_multiple_roots", "ref_price", "ref_se",
                         "ref_iv"])
        for spec, raw in zip(specs, contracts):
            price, se = exotic_mc_price(model_paths, model_times, spec)
            try:
                iv = exotic_implied_vol(price, spec, model.s0)
                iv_sigma, iv_multi = repr(iv.sigma), int(iv.multiple_roots)
            except InversionError:
                iv_sigma, iv_multi = "", ""
            row = [
                raw.get("type"),
                raw.get("tau", ""), repr(spec.maturity),
                raw.get("strike", ""), raw.get("strike_ratio", ""),
                raw.get("barrier", ""),
                repr(price), repr(se), iv_sigma, iv_multi,
            ]
            if ref is not None:
                params, ref_paths = ref
                ref_price, ref_se = exotic_mc_price(ref_paths, model_times, spec)
                row.extend([repr(ref_price), repr(ref_se)])
                try:
                    ref_iv = exotic_implied_vol(ref_price, spec, params.s0,
                                                params.r, params.q)
                    row.append(repr(ref_iv.sigma))
                except InversionError:
                    row.append("")
            else:
                row.extend(["", "", ""])
            writer.writerow(row)
    print(f"wrote {len(specs)} exotic prices to {args.out}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chaoscal",
        description="Wiener chaos martingale models: calibration and pricing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-surface", help="synthesize a reference quote surface")
    p.add_argument("--model", choices=("heston", "rough-heston"), required=True)
    p.add_argument("--params", required=True, help="JSON file of model parameters")
    p.add_argument("--maturities", required=True, help="comma-separated years")
    p.add_argument("--moneyness", required=True, help="comma-separated K/S0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_surface)

    p = sub.add_parser("parity", help="extract (DF, F) per maturity from raw mids")
    p.add_argument("--quotes", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("calibrate", help="fit a chaos model to a quote surface")
    p.add_argument("--quotes", required=True)
    p.add_argument("--config", required=True, help="CalibrationConfig JSON")
    p.add_argument("--schedule", help="PricingSchedule JSON (default: MC)")
    p.add_argument("--init", help="warm-start model JSON")
    p.add_argument("--out", required=True, help="fitted model JSON")
    p.add_argument("--history", help="history CSV")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("price", help="price quotes with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--quotes", required=True)
    p.add_argument("--schedule")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("evaluate", help="implied-vol MAE report on a surface")
    p.add_argument("--model", required=True)
    p.add_argument("--quotes", required=True)
    p.add_argument("--schedule")
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("exotics", help="price path-dependent contracts")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True, help="contracts JSON")
    p.add_argument("--reference", help="Heston params JSON for a reference run")
    p.add_argument("--out", required=True)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_exotics)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
