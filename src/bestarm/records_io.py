"""CSV persistence for experiment records.

Fixed schema, UTF-8, "\n" newlines, floats at 12 significant digits.  The
columns are ``ExperimentRecord``'s fields, in order: each is written and
read by its declared type.  Record labels are comma-free by construction,
so rows are plain joins and the output bytes are a pure function of the
records.
"""

from __future__ import annotations

import dataclasses
import typing

from .errors import DomainError
from .harness import ExperimentRecord

CSV_HEADER = ("algorithm,instance,family,param,metric_grid_value,replications,"
              "error_rate,error_ci_halfwidth,mean_tau,std_tau,exhausted_count,seed")


def format_float(x: float) -> str:
    return f"{x:.12g}"


_FORMATS = {float: format_float, int: str, str: str}
_HINTS = typing.get_type_hints(ExperimentRecord)
#: (field name, declared type) of each column, in field order.
_COLUMNS = tuple((f.name, _HINTS[f.name]) for f in dataclasses.fields(ExperimentRecord))


def record_row(rec: ExperimentRecord) -> str:
    fields = [_FORMATS[kind](getattr(rec, name)) for name, kind in _COLUMNS]
    for f in fields:
        if "," in f or "\n" in f:
            raise DomainError(f"record field {f!r} would break the CSV layout")
    return ",".join(fields)


def records_to_csv(records: list[ExperimentRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(record_row(r) for r in records)
    return "\n".join(lines) + "\n"


def write_records(records: list[ExperimentRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(records))


def read_records(path: str) -> list[ExperimentRecord]:
    """Parse a records CSV back; floats carry the file's 12-digit precision."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise DomainError(f"{path} does not carry the expected records header")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        try:
            if len(parts) != len(_COLUMNS):
                raise ValueError
            out.append(ExperimentRecord(*(kind(p) for (_, kind), p in zip(_COLUMNS, parts))))
        except ValueError:  # also a cell its column's type cannot parse
            raise DomainError(f"malformed record row: {line!r}") from None
    return out
