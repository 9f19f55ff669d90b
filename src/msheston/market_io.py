"""Option-chain ingestion, data filters, and run configuration.

The chain CSV schema is the contract for user-supplied data (the reference
dataset the filters were designed around is not redistributable):

    quote_date,expiry_date,strike,option_type,bid,ask,open_interest,
    underlying_price,rate,dividend_yield

Dates are ISO (YYYY-MM-DD), decimal point only, header row mandatory, and
every number finite.  The day count is ACT/365: expiry in years = calendar
days / 365.  Rates and dividend yields may vary per expiry but must be
internally consistent, as must the underlying price across the whole file
(one valuation snapshot).

Filters follow the documented screen: calls only, maturity strictly greater
than 45 days, open interest strictly greater than 100.  Quotes whose mid
violates the no-arbitrage band are excluded and counted rather than fatal.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from datetime import date

from .errors import EmptyAfterFilter, NonConvergence, OutOfBand, ParseError
from .vol_surface import VolPoint, VolSurface, implied_vol

CHAIN_COLUMNS = [
    "quote_date",
    "expiry_date",
    "strike",
    "option_type",
    "bid",
    "ask",
    "open_interest",
    "underlying_price",
    "rate",
    "dividend_yield",
]

CONFIG_ENV_VAR = "MSHESTON_CONFIG"

DAYS_PER_YEAR = 365.0


@dataclass(frozen=True)
class OptionChainRow:
    quote_date: date
    expiry_date: date
    strike: float
    option_type: str
    bid: float
    ask: float
    open_interest: int
    underlying_price: float
    rate: float
    dividend_yield: float

    @property
    def days_to_expiry(self) -> int:
        return (self.expiry_date - self.quote_date).days

    @property
    def expiry_years(self) -> float:
        return self.days_to_expiry / DAYS_PER_YEAR

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)


@dataclass(frozen=True)
class ChainFilters:
    """Exclusion thresholds; both comparisons are strict."""

    min_days: int = 45
    min_open_interest: int = 100


@dataclass(frozen=True)
class ChainLoadResult:
    surface: VolSurface
    counts: dict
    total_rows: int


def _parse_row(raw: dict, line_number: int) -> OptionChainRow:
    try:
        row = OptionChainRow(
            quote_date=date.fromisoformat(raw["quote_date"]),
            expiry_date=date.fromisoformat(raw["expiry_date"]),
            strike=float(raw["strike"]),
            option_type=raw["option_type"].strip().lower(),
            bid=float(raw["bid"]),
            ask=float(raw["ask"]),
            open_interest=int(raw["open_interest"]),
            underlying_price=float(raw["underlying_price"]),
            rate=float(raw["rate"]),
            dividend_yield=float(raw["dividend_yield"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"malformed row: {exc}", line_number) from exc
    for name in ("strike", "bid", "ask", "underlying_price", "rate", "dividend_yield"):
        value = getattr(row, name)
        if not math.isfinite(value):
            raise ParseError(f"{name} must be finite, got {value}", line_number)
    if row.strike <= 0:
        raise ParseError("strike must be positive", line_number)
    if row.bid < 0 or row.ask < 0 or row.bid > row.ask:
        raise ParseError("need 0 <= bid <= ask", line_number)
    if row.open_interest < 0:
        raise ParseError("open_interest must be nonnegative", line_number)
    if row.underlying_price <= 0:
        raise ParseError("underlying_price must be positive", line_number)
    if row.expiry_date <= row.quote_date:
        raise ParseError("expiry_date must be after quote_date", line_number)
    return row


def load_chain(path, filters: ChainFilters | None = None) -> ChainLoadResult:
    """Read a chain CSV, apply the data filters, and build the implied-vol surface.

    Every excluded row is counted under the first reason that rejected it,
    so ``sum(counts.values()) == total_rows`` always holds ("passed" is one
    of the counted buckets).

    Raises
    ------
    ParseError
        On schema violations, with the offending 1-based line number.
    EmptyAfterFilter
        If no row survives the filters.
    """
    if filters is None:
        filters = ChainFilters()
    counts = {
        "not_call": 0,
        "maturity_too_short": 0,
        "open_interest_too_low": 0,
        "mid_out_of_band": 0,
        "passed": 0,
    }
    rows: list[tuple[int, OptionChainRow]] = []  # (line number, row)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file, header row mandatory", 1) from None
        if [h.strip() for h in header] != CHAIN_COLUMNS:
            raise ParseError(
                f"header must be exactly {','.join(CHAIN_COLUMNS)}", 1
            )
        for line_number, values in enumerate(reader, start=2):
            if not values or all(not v.strip() for v in values):
                continue
            if len(values) != len(CHAIN_COLUMNS):
                raise ParseError(
                    f"expected {len(CHAIN_COLUMNS)} columns, got {len(values)}",
                    line_number,
                )
            row = _parse_row(dict(zip(CHAIN_COLUMNS, values)), line_number)
            rows.append((line_number, row))

    total = len(rows)
    if total == 0:
        raise ParseError("no data rows", 2)

    spot = rows[0][1].underlying_price
    quote_day = rows[0][1].quote_date
    for line_number, row in rows:
        if row.underlying_price != spot:
            raise ParseError(
                "underlying_price must be constant across the file", line_number
            )
        if row.quote_date != quote_day:
            raise ParseError("quote_date must be constant across the file", line_number)

    points = []
    rates: dict[float, float] = {}
    dividends: dict[float, float] = {}
    seen: dict[tuple, int] = {}
    for line_number, row in rows:
        if row.option_type != "call":
            counts["not_call"] += 1
            continue
        if not row.days_to_expiry > filters.min_days:
            counts["maturity_too_short"] += 1
            continue
        if not row.open_interest > filters.min_open_interest:
            counts["open_interest_too_low"] += 1
            continue
        expiry = row.expiry_years
        if expiry in rates and rates[expiry] != row.rate:
            raise ParseError(
                f"conflicting rate for expiry {expiry:.6f}", line_number
            )
        if expiry in dividends and dividends[expiry] != row.dividend_yield:
            raise ParseError(
                f"conflicting dividend_yield for expiry {expiry:.6f}", line_number
            )
        key = (expiry, row.strike)
        if key in seen:
            raise ParseError(
                f"duplicate strike {row.strike} at expiry {expiry:.6f} "
                f"(first seen line {seen[key]})",
                line_number,
            )
        try:
            vol = implied_vol(
                row.mid,
                spot,
                row.strike,
                expiry,
                row.rate,
                dividend_yield=row.dividend_yield,
            )
        except (OutOfBand, NonConvergence):
            counts["mid_out_of_band"] += 1
            continue
        seen[key] = line_number
        rates[expiry] = row.rate
        dividends[expiry] = row.dividend_yield
        points.append(VolPoint(expiry, row.strike, vol, "market"))
        counts["passed"] += 1

    if not points:
        raise EmptyAfterFilter(
            f"all {total} rows excluded by filters: "
            + ", ".join(f"{k}={v}" for k, v in counts.items() if k != "passed")
        )
    surface = VolSurface(
        spot=spot, points=tuple(points), rates=rates, dividend_yields=dividends
    )
    return ChainLoadResult(surface=surface, counts=counts, total_rows=total)


def write_chain(path, rows) -> None:
    """Write chain rows back out in the schema (fixtures and round trips)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CHAIN_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.quote_date.isoformat(),
                    row.expiry_date.isoformat(),
                    repr(row.strike),
                    row.option_type,
                    repr(row.bid),
                    repr(row.ask),
                    row.open_interest,
                    repr(row.underlying_price),
                    repr(row.rate),
                    repr(row.dividend_yield),
                ]
            )


def config_path(path=None):
    """``path``, else the environment default; None when neither is set."""
    return path if path is not None else os.environ.get(CONFIG_ENV_VAR) or None


def load_config(path=None) -> dict:
    """Load a JSON run configuration; falls back to the environment default.

    Returns an empty mapping when neither an explicit path nor the
    environment variable is set.
    """
    path = config_path(path)
    if path is None:
        return {}
    with open(path) as handle:
        try:
            cfg = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON config: {exc}", exc.lineno) from exc
    if not isinstance(cfg, dict):
        raise ParseError("config root must be a JSON object", 1)
    return cfg
