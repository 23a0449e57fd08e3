"""CSV price ingestion and log-return computation."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class ReturnsPanel:
    """Aligned return series: dates label the later observation of each return."""

    dates: list[str]
    values: np.ndarray
    series_names: list[str]
    dropped_rows: int

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _parse_price(cell: str) -> float | None:
    # float() strips whitespace and rejects empty and text cells; the
    # finiteness test rejects nan and inf in any spelling
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if np.isfinite(value) else None


def _read_rows(path, date_column: str | None, columns: list[str] | None):
    """Rows of the selected columns, each as (line number, date, values).

    Blank lines are skipped; a row with any missing or unparseable value is
    dropped and counted.  Without a date column the line number stands in
    for the date.  Returns (columns, rows, dropped).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if date_column is not None and date_column not in header:
            raise ValueError(f"{path}: no column named {date_column!r}")
        date_idx = header.index(date_column) if date_column is not None else None
        if columns is None:
            columns = [h for i, h in enumerate(header) if i != date_idx]
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}: no column(s) named {missing}")
        if not columns:
            raise ValueError(f"{path}: no value columns selected")
        col_idx = [header.index(c) for c in columns]

        rows, dropped = [], 0
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            vals = [_parse_price(row[i]) if i < len(row) else None for i in col_idx]
            if any(v is None for v in vals):
                dropped += 1
                continue
            date = row[date_idx].strip() if date_idx is not None else str(line_no)
            rows.append((line_no, date, vals))
    return list(columns), rows, dropped


def load_returns(path, date_column: str | None = None,
                 price_columns: list[str] | None = None) -> ReturnsPanel:
    """Read a price CSV, drop rows with any missing price, compute log returns.

    Prices are aligned row-wise: a row is kept only when every selected
    series has a parseable finite price (strict inner join on the row),
    and returns are taken between consecutive kept rows.
    """
    columns, rows, dropped = _read_rows(path, date_column, price_columns)
    for line_no, _, prices in rows:
        if any(p <= 0 for p in prices):
            bad = columns[[p <= 0 for p in prices].index(True)]
            raise ValueError(
                f"{path}: non-positive price in column {bad!r} at line "
                f"{line_no}; log returns are undefined")
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 usable price rows, got {len(rows)}")
    prices = np.asarray([vals for _, _, vals in rows], dtype=float)
    values = np.log(prices[1:] / prices[:-1])
    return ReturnsPanel(dates=[date for _, date, _ in rows[1:]], values=values,
                        series_names=columns, dropped_rows=dropped)


def load_values(path, date_column: str | None = None,
                value_columns: list[str] | None = None) -> ReturnsPanel:
    """Read a CSV of already-computed values (returns, residuals) as a panel.

    Rows with any missing or unparseable value are dropped and counted; no
    return computation is applied.
    """
    columns, rows, dropped = _read_rows(path, date_column, value_columns)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 usable rows, got {len(rows)}")
    return ReturnsPanel(dates=[date for _, date, _ in rows],
                        values=np.asarray([vals for _, _, vals in rows], dtype=float),
                        series_names=columns, dropped_rows=dropped)


def summary_statistics(panel: ReturnsPanel) -> dict[str, list[float]]:
    """Per-series mean, sd, max, min, skewness and kurtosis.

    Skewness and kurtosis are the population moment ratios m3 / m2^1.5 and
    m4 / m2^2 (kurtosis not excess); sd uses the n-1 divisor.
    """
    v = panel.values
    m = v.mean(axis=0)
    center = v - m
    m2 = (center ** 2).mean(axis=0)
    m3 = (center ** 3).mean(axis=0)
    m4 = (center ** 4).mean(axis=0)
    return {
        "mean": m.tolist(),
        "sd": v.std(axis=0, ddof=1).tolist(),
        "max": v.max(axis=0).tolist(),
        "min": v.min(axis=0).tolist(),
        "skewness": (m3 / m2 ** 1.5).tolist(),
        "kurtosis": (m4 / m2 ** 2).tolist(),
    }
