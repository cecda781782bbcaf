"""Command-line interface.

Subcommands mirror the desk workflow: synthesize reference surfaces
(gen-surface), recover curve data from raw mids (parity), calibrate, then
price/evaluate/exotics against the fitted model.  Exit codes: 0 success,
2 validation error, 3 numeric error.  All randomness is controlled by
--seed; evaluation streams are disjoint from calibration streams by
construction.
"""

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .bases import BrownianDriver, PiecewiseConstantBasis
from .calibrate import calibrate, initial_coefficients
from .errors import InversionError, NumericError, ValidationError
from .indices import index_space_dim
from .model import ChaosModel, _path_rows
from .modelio import (
    _construct,
    _field,
    _object,
    _read_json,
    _record,
    load_config,
    load_model,
    load_schedule,
    serialize_model,
    write_history,
)
from .pricing import PricingSchedule, _check_horizon, _check_surface, price_surface
from .quotes import (
    Quote,
    QuoteSurface,
    _read_quotes,
    extract_forward_discount,
    parse_quotes,
    quote_rates,
    write_quotes,
)
from .reference import (
    HestonParams,
    RoughHestonParams,
    _check_fold,
    _fold_exotics,
    _heston_rows,
    heston_lewis_price,
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


def _floats(flag, text):
    """The positive finite numbers of a comma-separated flag; at least one."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values or not all(0 < v < np.inf for v in values):  # NaN fails too
        raise ValidationError(
            f"{flag} must be comma-separated finite numbers > 0, got {text!r}")
    return values


def _heston_from_json(path):
    data = _read_json(path)
    alpha = _field(path, data, "alpha", "number") if "alpha" in data else None
    data.pop("alpha", None)
    return _record(path, HestonParams, data), alpha


def cmd_gen_surface(args):
    params, alpha = _heston_from_json(args.params)
    maturities = _floats("--maturities", args.maturities)
    strikes = [m * params.s0 for m in _floats("--moneyness", args.moneyness)]
    if args.model == "heston":
        if alpha not in (None, 1.0):
            raise ValidationError(
                f"{args.params}: key 'alpha' = {alpha} needs --model rough-heston; "
                "--model heston prices classical Heston (alpha = 1)"
            )
        prices = heston_lewis_price(params, np.array(strikes), np.array(maturities))
    else:
        rp = _construct(args.params, RoughHestonParams, params,
                        0.75 if alpha is None else alpha)
        prices = lewis_call_price(lambda u, t: rough_heston_cf(u, t, rp), params.s0,
                                  np.array(strikes), np.array(maturities),
                                  params.r, params.q)
    quotes = []
    for t, row in zip(maturities, prices):
        df = float(np.exp(-params.r * t))
        fwd = float(params.s0 * np.exp((params.r - params.q) * t))
        for k, c in zip(strikes, row):
            c, bound = float(c), df * max(fwd - k, 0.0)
            if c < bound:
                raise NumericError(
                    f"maturity {t}, strike {k}: price {c!r} is below the no-arbitrage "
                    f"bound {bound!r}, within the Lewis integral's error; "
                    f"{args.out} not written")
            iv = implied_vol(c, params.s0, k, t, params.r, params.q)
            quotes.append(Quote(t, k, "C", c, iv, df, fwd))
    write_quotes(QuoteSurface(quotes, params.s0), args.out)
    print(f"wrote {len(quotes)} quotes to {args.out}")


def cmd_parity(args):
    quotes, spot = _read_quotes(args.quotes, raw=True)
    if not quotes:
        raise ValidationError(f"{args.quotes}: no quote rows")
    if spot is None:
        raise ValidationError(f"{args.quotes}: needs a spot column")
    enriched = []
    for t in sorted({q.maturity for q in quotes}):
        calls = [q for q in quotes if q.maturity == t and q.option_type == "C"]
        puts = [q for q in quotes if q.maturity == t and q.option_type == "P"]
        fit = _construct(f"{args.quotes}: maturity {t}", extract_forward_discount,
                         calls, puts)
        print(f"T={t}: DF={fit.discount_factor:.6f} F={fit.forward:.4f} "
              f"parity rmse={fit.rmse:.2e} ({len(fit.strikes)} strikes)")
        enriched += [dataclasses.replace(q, discount_factor=fit.discount_factor,
                                         forward=fit.forward) for q in calls + puts]
    write_quotes(QuoteSurface(enriched, spot), args.out)
    print(f"wrote {len(enriched)} enriched quotes to {args.out}")


def cmd_calibrate(args):
    surface = parse_quotes(args.quotes)
    if not surface.quotes:
        raise ValidationError(f"{args.quotes}: empty surface")
    cfg, spec = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    schedule = load_schedule(args.schedule) if args.schedule else PricingSchedule()
    if args.init:
        model0 = load_model(args.init)
        shape = model0.p, model0.m, model0.d, model0.basis
    elif spec is None:
        raise ValidationError(
            "config needs a 'model' section {p, m, d, horizon} (or pass --init)")
    else:
        shape = (spec["p"], spec["m"], spec["d"],
                 PiecewiseConstantBasis.uniform(spec["horizon"], spec["m"]))
    source = args.init or f"{args.config}: model section"
    _construct(f"{args.quotes} with {source}", _check_surface, *shape, surface,
               schedule, args.schedule or "default schedule", True)
    if not args.init:
        theta0 = initial_coefficients(index_space_dim(*shape[:3]) - 1, cfg)
        model0 = ChaosModel(surface.spot, *shape, theta0 * surface.spot)
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


def _priced_rows(args):
    """(spot, rows): each quote, its model price (puts by parity), vol and error."""
    model = load_model(args.model)
    surface = parse_quotes(args.quotes)
    schedule = load_schedule(args.schedule) if args.schedule else PricingSchedule()
    _construct(f"{args.quotes} with {args.model}", _check_surface, model.p, model.m,
               model.d, model.basis, surface, schedule,
               args.schedule or "default schedule", False)
    driver = BrownianDriver(args.seed)
    prices = price_surface(model, surface, schedule, driver, stream_tag=_EVAL_STREAM)
    rows = []
    for q, c in zip(surface.quotes, prices):
        r, div = quote_rates(q, surface.spot)
        try:
            iv = implied_vol(float(c), surface.spot, q.strike, q.maturity, r, div)
            err_bp = abs(iv - q.implied_vol) * 1e4
        except InversionError:
            iv, err_bp = None, None
        if q.option_type == "P":  # parity: P = C - DF (F - K)
            c = c - q.discount_factor * (q.forward - q.strike)
        rows.append((q, float(c), iv, err_bp))
    return surface.spot, rows


def cmd_price(args):
    spot, rows = _priced_rows(args)
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["maturity_years", "strike", "option_type", "mid_price",
                         "implied_vol", "discount_factor", "forward", "spot",
                         "model_price", "model_implied_vol", "abs_error_bp"])
        for q, c, iv, err_bp in rows:
            writer.writerow([
                repr(q.maturity), repr(q.strike), q.option_type,
                repr(q.mid_price), repr(q.implied_vol),
                repr(q.discount_factor), repr(q.forward), repr(spot),
                repr(c),
                "" if iv is None else repr(iv),
                "" if err_bp is None else repr(err_bp),
            ])
    print(f"wrote {len(rows)} priced quotes to {args.out}")


def cmd_evaluate(args):
    rows = _priced_rows(args)[1]
    per_mat = {}
    for q, _, _, err_bp in rows:
        if err_bp is not None:
            per_mat.setdefault(q.maturity, []).append(err_bp)
    report = {
        "n_quotes": len(rows),
        "n_inversion_failures": sum(err_bp is None for *_, err_bp in rows),
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


_CONTRACTS = {"forward_start": ForwardStartCall, "down_and_out": DownAndOutCall,
              "lookback": LookbackCall}


def _exotic_spec(path, i, data):
    where = f"{path}: contract {i}"
    kind = data.get("type") if isinstance(data, dict) else None
    if kind not in _CONTRACTS:
        raise ValidationError(f"{where}: expected an object with a 'type' in "
                              f"{sorted(_CONTRACTS)}, got {data!r:.60}")
    fields = {k: v for k, v in data.items() if k != "type"}
    return _record(f"{where} ({kind})", _CONTRACTS[kind], fields)


def _read_exotics_spec(path):
    """(contracts as JSON objects, parsed specs, monitoring steps)."""
    data = _object(path, _read_json(path), ("contracts", "monitoring_steps"))
    contracts = data.get("contracts")
    if not isinstance(contracts, list) or not contracts:
        raise ValidationError(f"{path}: key 'contracts' must be a non-empty list")
    data.setdefault("monitoring_steps", 64)
    steps = _field(path, data, "monitoring_steps", "integer")
    if steps < 0:
        raise ValidationError(f"{path}: key 'monitoring_steps' must be nonnegative, "
                              f"got {steps}")
    return contracts, [_exotic_spec(path, i, c) for i, c in enumerate(contracts)], steps


def _exotic_cells(prices, specs, s0):
    """Per contract: price, SE and implied-vol cells from its (price, SE);
    the vol is blank where the zero-rate closed form does not attain the
    price."""
    cells = []
    for spec, (price, se) in zip(specs, prices):
        try:
            iv = repr(exotic_implied_vol(price, spec, s0))
        except InversionError:
            iv = ""
        cells.append([repr(price), repr(se), iv])
    return cells


def _check_barriers(path, specs, spot, source):
    for i, spec in enumerate(specs):
        if isinstance(spec, DownAndOutCall) and spec.barrier >= spot:
            raise ValidationError(
                f"{path}: contract {i} (down_and_out): barrier {spec.barrier} >= "
                f"spot {spot} of {source}: knocked out at inception"
            )


def cmd_exotics(args):
    if args.paths < 2:  # a standard error needs two paths
        raise ValidationError(f"--paths must be at least 2, got {args.paths}")
    model = load_model(args.model)
    contracts, specs, steps = _read_exotics_spec(args.spec)
    special = {s.tau for s in specs if isinstance(s, ForwardStartCall)}
    dates = sorted({s.maturity for s in specs} | special)
    for i, (raw, spec) in enumerate(zip(contracts, specs)):
        _construct(f"{args.spec}: contract {i} ({raw['type']}) with {args.model}",
                   _check_horizon, [spec.maturity], model.horizon)
    _check_barriers(args.spec, specs, model.s0, args.model)
    _construct(f"{args.spec}: key 'monitoring_steps' = {steps} with --paths {args.paths}",
               _check_fold, model, steps + 1 + len(dates), args.paths, specs,
               bool(args.reference))
    params = None
    if args.reference:
        params, alpha = _heston_from_json(args.reference)
        if alpha not in (None, 1.0):
            raise ValidationError(f"{args.reference}: key 'alpha' must be 1, got {alpha}: "
                                  "the reference simulation is classical Heston")
        for key in ("r", "q"):
            if getattr(params, key) != 0.0:
                raise ValidationError(
                    f"{args.reference}: key {key!r} must be 0, got {getattr(params, key)}: "
                    "the fitted model prices exotics at r = q = 0, and their payoffs "
                    "do not convert between rate worlds by a discount factor")
        _check_barriers(args.spec, specs, params.s0, args.reference)

    times = np.union1d(np.linspace(0.0, dates[-1], steps + 1), dates)
    driver = BrownianDriver(args.seed)
    # both simulators yield S at exactly these times, block by block; their
    # blocks step on one pool
    sims = [_path_rows(model, times, args.paths, driver, tags=(7001,))]
    if params is not None:
        sims.append(_heston_rows(params, times, args.paths, driver, tags=(7002,)))
    prices = _fold_exotics(sims, times, specs)
    model_cells = _exotic_cells(prices[0], specs, model.s0)
    ref_cells = [["", "", ""]] * len(specs)
    if params is not None:
        ref_cells = _exotic_cells(prices[1], specs, params.s0)
    rows = [[raw.get("type"), raw.get("tau", ""), repr(spec.maturity),
             raw.get("strike", ""), raw.get("strike_ratio", ""), raw.get("barrier", ""),
             *model_c, *ref_c]
            for spec, raw, model_c, ref_c in zip(specs, contracts, model_cells, ref_cells)]

    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["type", "tau", "maturity", "strike", "strike_ratio",
                         "barrier", "model_price", "model_se", "model_iv",
                         "ref_price", "ref_se", "ref_iv"])
        writer.writerows(rows)
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

    for name, text, out, func in (
            ("price", "price quotes with a fitted model", "--out", cmd_price),
            ("evaluate", "implied-vol MAE report on a surface", "--report", cmd_evaluate)):
        p = sub.add_parser(name, help=text)  # both read their inputs by _priced_rows
        p.add_argument("--model", required=True)
        p.add_argument("--quotes", required=True)
        p.add_argument("--schedule")
        p.add_argument(out, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)

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
    except (ValidationError, OSError) as exc:  # an OSError's text names its file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
