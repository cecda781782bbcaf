"""Option-quote ingestion and put-call-parity curve extraction.

CSV contract (header row, UTF-8): maturity_years, strike, option_type{C|P},
mid_price, implied_vol, discount_factor, forward, spot.  Unknown columns are
ignored; either mid_price or implied_vol may be blank per row, not both — the
missing one is derived through Black-Scholes with the rates implied by the
row's curve data:

    r = -(1/T) log DF,        q = -(1/T) log(F DF / S_0),

i.e. a constant dividend yield is represented through (DF, F) rather than a
separate column.  Rows must respect the no-arbitrage bounds given (DF, F);
violations are reported with their (1-based, header-exclusive) row number.

When a raw file carries only call/put mids, `extract_forward_discount`
recovers (DF, F) per maturity from the parity line C - P = DF (F - K):
regressing C - P on K gives slope -DF and intercept DF*F.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .vol import bs_call, bs_put, implied_vol

COLUMNS = (
    "maturity_years",
    "strike",
    "option_type",
    "mid_price",
    "implied_vol",
    "discount_factor",
    "forward",
    "spot",
)


@dataclass
class Quote:
    maturity: float
    strike: float
    option_type: str = "C"
    mid_price: float = None
    implied_vol: float = None
    discount_factor: float = 1.0
    forward: float = None

    def __post_init__(self):
        if self.maturity <= 0:
            raise ValidationError(f"maturity must be positive, got {self.maturity}")
        if self.strike <= 0:
            raise ValidationError(f"strike must be positive, got {self.strike}")
        if self.option_type not in ("C", "P"):
            raise ValidationError(f"option type must be C or P, got {self.option_type!r}")
        if self.mid_price is None and self.implied_vol is None:
            raise ValidationError("quote needs a mid price or an implied vol")


@dataclass
class QuoteSurface:
    quotes: list
    spot: float = None


def quote_rates(quote, spot):
    """(r, q) implied by the quote's discount factor and forward."""
    t = quote.maturity
    r = -np.log(quote.discount_factor) / t
    q = -np.log(quote.forward * quote.discount_factor / spot) / t
    return r, q


def _arb_bounds(quote):
    """(lower, upper) no-arbitrage bounds for the quote's mid given (DF, F)."""
    df, fwd, k = quote.discount_factor, quote.forward, quote.strike
    if quote.option_type == "C":
        return df * max(fwd - k, 0.0), df * fwd
    return df * max(k - fwd, 0.0), df * k


def _complete_quote(quote, spot, row):
    """Fill the missing one of (mid price, implied vol); validate bounds."""
    lo, hi = _arb_bounds(quote)
    r, q = quote_rates(quote, spot)
    if quote.mid_price is not None:
        tol = 1e-9 * spot
        if not lo - tol <= quote.mid_price <= hi + tol:
            raise ValidationError(
                f"row {row}: mid price {quote.mid_price} outside no-arbitrage "
                f"bounds [{lo}, {hi}] for DF={quote.discount_factor}, "
                f"F={quote.forward}"
            )
    if quote.implied_vol is not None and quote.implied_vol <= 0:
        raise ValidationError(f"row {row}: implied vol must be positive")
    if quote.implied_vol is None:
        call = quote.mid_price
        if quote.option_type == "P":
            call = quote.mid_price + quote.discount_factor * (quote.forward - quote.strike)
        quote.implied_vol = implied_vol(call, spot, quote.strike, quote.maturity, r, q)
    elif quote.mid_price is None:
        price = bs_call if quote.option_type == "C" else bs_put
        quote.mid_price = price(spot, quote.strike, quote.maturity,
                                quote.implied_vol, r, q)
    return quote


def _parse_float(text, row, column, required=True):
    text = (text or "").strip()
    if not text:
        if required:
            raise ValidationError(f"row {row}: missing value for {column}")
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"row {row}: bad {column} value {text!r}") from None
    if not np.isfinite(value):
        raise ValidationError(f"row {row}: non-finite {column}")
    return value


def parse_quotes(path):
    """Read a quote CSV into a validated QuoteSurface.

    Derives the missing price/vol side per row; an empty body is a valid,
    empty surface.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValidationError(f"{path}: empty file, expected a header row")
        header = set(reader.fieldnames)
        needed = {"maturity_years", "strike", "spot"}
        missing = sorted(needed - header)
        if missing:
            raise ValidationError(f"{path}: missing columns {missing}")
        if not {"mid_price", "implied_vol"} & header:
            raise ValidationError(f"{path}: need a mid_price or implied_vol column")
        if not {"discount_factor", "forward"} <= header:
            raise ValidationError(
                f"{path}: missing discount_factor/forward columns; run "
                "extract_forward_discount (the `parity` command) on the raw "
                "file first"
            )
        quotes = []
        spot = None
        for row_no, rec in enumerate(reader, start=1):
            t = _parse_float(rec.get("maturity_years"), row_no, "maturity_years")
            k = _parse_float(rec.get("strike"), row_no, "strike")
            row_spot = _parse_float(rec.get("spot"), row_no, "spot")
            if spot is None:
                spot = row_spot
            elif row_spot != spot:
                raise ValidationError(
                    f"row {row_no}: spot {row_spot} differs from {spot}"
                )
            df = _parse_float(rec.get("discount_factor"), row_no, "discount_factor")
            fwd = _parse_float(rec.get("forward"), row_no, "forward")
            if df <= 0 or fwd <= 0:
                raise ValidationError(
                    f"row {row_no}: discount factor and forward must be positive"
                )
            mid = _parse_float(rec.get("mid_price"), row_no, "mid_price", required=False)
            vol = _parse_float(rec.get("implied_vol"), row_no, "implied_vol", required=False)
            if mid is None and vol is None:
                raise ValidationError(
                    f"row {row_no}: mid_price and implied_vol both blank"
                )
            opt = (rec.get("option_type") or "C").strip() or "C"
            try:
                quote = Quote(t, k, opt, mid, vol, df, fwd)
                _complete_quote(quote, spot, row_no)
            except ValidationError as exc:
                if f"row {row_no}" in str(exc):
                    raise
                raise ValidationError(f"row {row_no}: {exc}") from exc
            quotes.append(quote)
    return QuoteSurface(quotes, spot)


def write_quotes(surface, path):
    """Emit the CSV contract; floats are repr-exact, so parse round-trips."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        for q in surface.quotes:
            writer.writerow([
                repr(q.maturity),
                repr(q.strike),
                q.option_type,
                "" if q.mid_price is None else repr(q.mid_price),
                "" if q.implied_vol is None else repr(q.implied_vol),
                repr(q.discount_factor),
                repr(q.forward),
                repr(surface.spot),
            ])


@dataclass(frozen=True)
class ParityFit:
    discount_factor: float
    forward: float
    strikes: np.ndarray
    residuals: np.ndarray  # per-strike (C - P) - DF (F - K)

    @property
    def rmse(self):
        return float(np.sqrt(np.mean(self.residuals**2)))


def extract_forward_discount(calls, puts):
    """(DF, F) from the parity line across common strikes at one maturity.

    `calls` and `puts` are (strike, mid) pairs (or Quote objects).  Least
    squares of C - P on K: slope = -DF, intercept = DF*F.  Residual
    diagnostics ride along on the returned ParityFit.
    """
    def as_map(side):
        out = {}
        for item in side:
            if hasattr(item, "strike"):
                out[float(item.strike)] = float(item.mid_price)
            else:
                k, price = item
                out[float(k)] = float(price)
        return out

    cmap, pmap = as_map(calls), as_map(puts)
    common = sorted(set(cmap) & set(pmap))
    if len(common) < 2:
        raise ValidationError(
            f"parity extraction needs >= 2 common strikes, got {len(common)}"
        )
    k = np.array(common)
    y = np.array([cmap[s] - pmap[s] for s in common])
    design = np.stack([k, np.ones_like(k)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    df = -slope
    if df <= 0:
        raise ValidationError(f"parity slope gives nonpositive discount factor {df}")
    fwd = intercept / df
    if fwd <= 0:
        raise ValidationError(f"parity intercept gives nonpositive forward {fwd}")
    residuals = y - (intercept + slope * k)
    return ParityFit(float(df), float(fwd), k, residuals)
