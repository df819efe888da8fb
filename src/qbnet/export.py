"""Tabular results and their CSV/JSON export.

Every exported CSV starts with ``#``-prefixed metadata lines (the
parameters that produced it), then a header row, then data rows.
Numbers carry 17 significant digits so downstream comparisons against
the oracles are exact.  Failed sweep points never appear as NaN rows;
they go to a sidecar error listing instead.

Byte-identical reruns are part of the contract: the only
non-deterministic line is a ``created`` timestamp, suppressed when
``deterministic`` is set.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import dataclass, field

TOOLKIT_VERSION = "0.1.0"


def format_number(value) -> str:
    """17-significant-digit decimal form (exact round trip for floats)."""
    return format(float(value), ".17g")


@dataclass
class SweepTable:
    """Column-named numeric rows plus metadata and per-point errors.

    ``errors`` holds ``(row_index, point_label, message)`` triples for
    points that failed; their rows are absent from ``rows``.
    """

    name: str
    columns: tuple
    rows: list
    metadata: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.name!r}: row width {len(row)} != "
                    f"{len(self.columns)} columns")


def _metadata_lines(table: SweepTable, deterministic: bool):
    lines = [f"# table = {table.name}", f"# toolkit_version = {TOOLKIT_VERSION}"]
    if not deterministic:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        lines.append(f"# created = {stamp}")
    for key in sorted(table.metadata):
        lines.append(f"# {key} = {table.metadata[key]}")
    return lines


def table_to_csv_text(table: SweepTable, deterministic: bool = True) -> str:
    """The CSV document: metadata lines, header row, data rows."""
    lines = _metadata_lines(table, deterministic)
    lines.append(",".join(table.columns))
    row_format = ",".join(["%.17g"] * len(table.columns))  # format_number's form
    lines.extend(row_format % tuple(map(float, row)) for row in table.rows)
    return "\n".join(lines) + "\n"


def table_to_json_text(table: SweepTable, deterministic: bool = True) -> str:
    """The JSON document, failed points included under ``errors``."""
    doc = {
        "table": table.name,
        "toolkit_version": TOOLKIT_VERSION,
        "metadata": {k: table.metadata[k] for k in sorted(table.metadata)},
        "columns": list(table.columns),
        "rows": [[float(v) for v in row] for row in table.rows],
        "errors": [{"row_index": i, "point": p, "error": str(m)}
                   for i, p, m in table.errors],
    }
    if not deterministic:
        doc["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return json.dumps(doc, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_errors_csv(table: SweepTable, path: str) -> None:
    lines = ["row_index,point,error\n"]
    for index, point, message in table.errors:
        text = str(message).replace('"', "'")
        lines.append(f'{index},{format_number(point)},"{text}"\n')
    _write_text(path, "".join(lines))


def write_table(table: SweepTable, out_dir: str, fmt: str = "csv",
                deterministic: bool = False) -> list:
    """Write a table (and, for CSV, its error sidecar); return the paths."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{table.name}.{fmt}")
    text = table_to_csv_text if fmt == "csv" else table_to_json_text
    _write_text(path, text(table, deterministic))
    paths = [path]
    if fmt == "csv" and table.errors:
        paths.append(os.path.join(out_dir, f"{table.name}_errors.csv"))
        write_errors_csv(table, paths[-1])
    return paths
