"""CSV/JSON report serialization.

CSV is RFC-4180 (header row, quoted fields where needed) with floats at 17
significant digits so values round-trip losslessly. JSON reports carry a
schema_version field and are emitted with sorted keys: identical inputs give
byte-identical output.
"""

import json

from .errors import InvalidState

SCHEMA_VERSION = "1"


def fmt_float(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _csv_field(value) -> str:
    s = "" if value is None else fmt_float(value)
    if any(ch in s for ch in ',"\r\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def csv_lines(header, rows):
    yield ",".join(_csv_field(h) for h in header)
    for row in rows:
        yield ",".join(_csv_field(v) for v in row)


def emit_json(obj) -> str:
    """The report as JSON; a NaN or infinite float raises InvalidState."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvalidState(f"report not written: {exc}") from None


def base_report(command: str, **sections) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, **sections}
