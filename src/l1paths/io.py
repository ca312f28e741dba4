"""CSV and JSON serialization for datasets, paths, and curves.

Numbers in CSV are written with 17 significant digits (enough to round
trip a double exactly); JSON uses Python's shortest-round-trip float
representation, so a JSON export reproduces vertices bit for bit.

A path JSON file holds exactly the bytes of
``json.dumps(path_to_dict(path, metadata), sort_keys=True, indent=1) + "\n"``;
this layout is a contract, so identical paths give identical files.
``write_path_json`` encodes every key but ``vertices`` (which sorts last)
with the standard library, then writes the vertex matrix one row at a
time. A row starts as the text of an all-zero row of its width, in which
entry j is ``0.0`` at offset 5 + 8j; the entries that are not ``0.0``
(nonzero, -0.0, NaN and infinities) are encoded, all in one call, by the
C JSON encoder and spliced in at their offsets. The pure-Python encoder
that any ``indent`` selects never sees the vertex floats, the nested list
of all of them is never built, and a row costs its nonzero entries.

``read_path_json`` reads that layout back at the cost of the same
entries. It splits the text at the first ``,\n "vertices": `` and parses
the keys before it with ``json.loads``. In the rest, the first 8 bytes of
every line must be the layout's: a row's ``  [`` or ``  ],`` (``  ]``
for the last row), an entry's three-space indent, or a whole ``0.0``
entry line. The other entries go through one ``json.loads`` and must
each be one float. Any other file, down to one byte, is read by
``json.loads`` of the whole text, so every file reads as ``json.loads``
reads it: the same values, bit for bit, and the same errors.

Dataset and vector CSVs are UTF-8; a leading byte order mark is not part
of the first cell. ``read_dataset_csv`` splits a file without quotes at
its commas and casts all cells to float in one call; see its docstring.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .design import Dataset, StandardizedDesign
from .errors import DataError
from .path import PathEvent, PiecewiseLinearPath, collapse

if TYPE_CHECKING:
    from .diagnostics import Curve

SCHEMA_VERSION = 1


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_text(source) -> str:
    """The text of a CSV file: UTF-8, with a byte order mark dropped if there is one."""
    return Path(source).read_text(encoding="utf-8-sig")


def _rows(text: str) -> list[tuple[int, list[str]]]:
    """The non-blank rows of CSV text, each with the number of its (last) line."""
    reader = csv.reader(text.splitlines())
    return [(reader.line_num, row) for row in reader if row]


def _plain_rows(text: str) -> list[tuple[int, list[str]]] | None:
    """``_rows(text)`` by splitting each line at its commas, or None for text
    that the csv module could read differently (a quote, or a line longer
    than its field size limit)."""
    lines = text.splitlines()
    if '"' in text or max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return [(k, line.split(",")) for k, line in enumerate(lines, 1) if line]


def read_dataset_csv(source, response=None) -> Dataset:
    """Load a dataset from CSV: one row per observation.

    The last column is the response unless ``response`` names (or
    0-based-indexes) another. A first row that does not parse as numbers
    is a header. An error names the line of the file it is on.

    A file without quotes is split at its commas, and when every data line
    has the first one's field count all cells are cast to float in one
    call. A quoted file goes through the csv module, and a ragged row or a
    failed cast through the row-by-row conversion that words the error.
    """
    text = _csv_text(source)
    rows = plain = _plain_rows(text)
    if rows is None:
        rows = _rows(text)
    if not rows:
        raise DataError("empty CSV file")
    names = None
    try:
        list(map(float, rows[0][1]))
        header = False
    except ValueError:
        header = True
    if header:
        names = [v.strip() for v in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise DataError("CSV has a header but no data rows")
    width = len(rows[0][1])
    data = None
    if plain is not None and all(len(row) == width for _, row in rows):
        try:
            data = np.array([row for _, row in rows], dtype=float)
        except ValueError:
            pass
    if data is None:
        data = np.empty((len(rows), width))
        for i, (line, row) in enumerate(rows):
            if len(row) != width:
                raise DataError(f"line {line}: expected {width} fields, got {len(row)}")
            try:
                data[i] = list(map(float, row))
            except ValueError as exc:
                raise DataError(f"line {line}: {exc}") from None
    if response is None:
        col = width - 1
    elif isinstance(response, int) or (isinstance(response, str) and response.lstrip("-").isdigit()):
        col = int(response)
        if not -width <= col < width:
            raise DataError(f"response column {col} out of range for {width} columns")
        col %= width
    else:
        if names is None:
            raise DataError("response column named but the CSV has no header")
        if response not in names:
            raise DataError(f"response column {response!r} not in header {names}")
        col = names.index(response)
    keep = [j for j in range(width) if j != col]
    feature_names = [names[j] for j in keep] if names else None
    return Dataset(X=data[:, keep], y=data[:, col], feature_names=feature_names)


def write_dataset_csv(data: Dataset, target) -> None:
    names = data.feature_names or [f"x{j}" for j in range(data.p)]
    lines = [",".join([*names, "y"])]
    for i in range(data.n):
        lines.append(",".join([fmt(v) for v in data.X[i]] + [fmt(data.y[i])]))
    Path(target).write_text("\n".join(lines) + "\n")


def _path_header(path: PiecewiseLinearPath, metadata: dict | None) -> dict:
    # Every key of the path document except "vertices".
    return {
        "schema_version": SCHEMA_VERSION,
        "parametrization": path.parametrization,
        "p": path.p,
        "feature_names": path.feature_names,
        "breakpoints": path.breakpoints.tolist(),
        "segment_active_sets": [list(s) for s in path.segment_active_sets],
        "events": [
            {"kind": e.kind, "index": e.index, "gamma": float(e.gamma), "ell": float(e.ell)}
            for e in path.events
        ],
        "truncated": path.truncated,
        "metadata": metadata or {},
    }


def path_to_dict(path: PiecewiseLinearPath, metadata: dict | None = None) -> dict:
    return {**_path_header(path, metadata), "vertices": path.vertices.tolist()}


_PATH_KEYS = ("breakpoints", "vertices", "segment_active_sets", "parametrization")
_EVENT_KEYS = ("kind", "index", "gamma", "ell")


def path_from_dict(doc: dict) -> PiecewiseLinearPath:
    """The path a path document describes; DataError names what is missing or malformed."""
    if not isinstance(doc, dict):
        raise DataError(f"path JSON must hold an object, not {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"unsupported path schema version {doc.get('schema_version')}")
    for key in _PATH_KEYS:
        if key not in doc:
            raise DataError(f"path JSON has no {key!r}")
    events = doc.get("events", [])
    for k, e in enumerate(events):
        if not (isinstance(e, dict) and e.keys() == set(_EVENT_KEYS)):
            raise DataError(f"path event {k} must have exactly the keys "
                            f"{', '.join(_EVENT_KEYS)}, got {json.dumps(e)}")
    try:
        return PiecewiseLinearPath(
            breakpoints=np.array(doc["breakpoints"], dtype=float),
            vertices=np.asarray(doc["vertices"], dtype=float),
            segment_active_sets=[tuple(s) for s in doc["segment_active_sets"]],
            parametrization=doc["parametrization"],
            events=[PathEvent(**e) for e in events],
            feature_names=doc.get("feature_names"),
            truncated=bool(doc.get("truncated", False)),
        )
    except TypeError as exc:  # an entry of the wrong JSON type
        raise DataError(f"malformed path JSON: {exc}") from None


# Without ``indent`` the stdlib uses its C encoder; these separators put each
# float of a vertex row on its own line at depth 3 of the indent-1 layout.
_ROW_SEP = ",\n   "
_ROW_ENCODER = json.JSONEncoder(separators=(_ROW_SEP, ": "))
# What comes between the other keys of a path file and its vertex matrix.
_VERTICES_KEY = ',\n "vertices": '


def _vertex_rows(vertices: np.ndarray):
    """The text of each vertex row, as ``json.dumps(..., indent=1)`` lays it out.

    Each row is the all-zero row's text with the entries that are not
    ``0.0`` spliced in at offset 5 + 8j (see the module docstring).
    """
    width = vertices.shape[1]
    zero = "[\n   " + _ROW_SEP.join(["0.0"] * width) + "\n  ]" if width else "[]"
    rows, cols = ((vertices != 0.0) | np.signbit(vertices)).nonzero()
    texts = _ROW_ENCODER.encode(vertices[rows, cols].tolist())[1:-1].split(_ROW_SEP)
    ends = np.searchsorted(rows, np.arange(1, len(vertices) + 1)).tolist()
    cols = cols.tolist()
    start = 0
    for end in ends:
        parts, at = [], 0
        for k in range(start, end):
            offset = 5 + 8 * cols[k]
            parts += (zero[at:offset], texts[k])
            at = offset + 3
        parts.append(zero[at:])
        yield "".join(parts)
        start = end


def write_path_json(path: PiecewiseLinearPath, target, metadata: dict | None = None) -> None:
    """Write ``json.dumps(path_to_dict(path, metadata), sort_keys=True, indent=1) + "\n"``.

    The header goes through ``json.dumps``; the vertex rows follow it,
    each spliced into the text of an all-zero row (see the module docstring).
    """
    header = _path_header(path, metadata)
    assert all(key < "vertices" for key in header), "vertices must sort last"
    text = json.dumps(header, sort_keys=True, indent=1)
    with open(target, "w") as out:
        out.write(text[:-2] + _VERTICES_KEY)
        if not len(path.vertices):
            out.write("[]\n}\n")
            return
        sep = "[\n  "
        for row in _vertex_rows(path.vertices):
            out.write(sep + row)
            sep = ",\n  "
        out.write("\n ]\n}\n")


def _line_start(text: str) -> tuple[int, int]:
    """The bytes of ``text`` as a little-endian integer, and the mask of their bits."""
    raw = text.encode()
    return int.from_bytes(raw, "little"), (1 << 8 * len(raw)) - 1


# The first bytes of each line of a vertex row as write_path_json writes it,
# up to and including the newline where the line is fixed text: the opening
# bracket, the closing one (the last row's without a comma), an entry's
# indent, and a 0.0 entry (the last of its row followed by the closing line).
_OPEN, _CLOSE, _CLOSE_LAST, _INDENT, _ZERO, _ZERO_LAST = map(
    _line_start, ["  [\n", "  ],\n", "  ]\n", "   ", "   0.0,\n", "   0.0\n "])


def _writer_vertices(data: bytes, start: int) -> np.ndarray | None:
    """The vertex matrix that ``data[start:]`` holds in write_path_json's layout, else None.

    ``data[start:]`` is what follows ``"vertices": ``. The first 8 bytes of
    every line are compared with the layout in one vectorized pass, so
    every byte but those of the entries that are not ``0.0`` is the
    writer's. Those entries are parsed by ``json.loads`` as one array and
    accepted only when each is one float, so each reads as it does in a
    ``json.loads`` of the whole file.
    """
    if not (data.startswith(b"[\n  [\n", start) and data.endswith(b"\n  ]\n ]\n}\n")):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    nexts = np.flatnonzero(raw[start:] == ord("\n"))
    nexts += start + 1  # where each line after the first starts
    # Lines 1 to len(nexts) - 3 are the rows: "  [", one line per entry, "  ],".
    starts = nexts[:-3]
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))[starts]
    width = data.count(b"\n", start, data.find(b"\n  ]", start)) - 1
    n_rows, extra = divmod(len(words), width + 2)
    if width < 1 or extra:
        return None
    grid = words.reshape(n_rows, width + 2)
    entries = grid[:, 1:-1]
    zero = entries == _ZERO[0]
    zero[:, -1] = entries[:, -1] == _ZERO_LAST[0]
    flat = np.flatnonzero(~zero)
    row, col = np.divmod(flat, width)
    line = row * (width + 2) + col + 1
    comma = col < width - 1
    token_end = nexts[line + 1] - 1 - comma
    if not ((grid[:, 0] & _OPEN[1] == _OPEN[0]).all()
            and (grid[:-1, -1] & _CLOSE[1] == _CLOSE[0]).all()
            and grid[-1, -1] & _CLOSE_LAST[1] == _CLOSE_LAST[0]
            and (words[line] & _INDENT[1] == _INDENT[0]).all()
            and (raw[token_end[comma]] == ord(",")).all()):
        return None
    tokens = [data[a:b] for a, b in zip((starts[line] + 3).tolist(), token_end.tolist())]
    values = json.loads(b"[" + b",".join(tokens) + b"]")
    if len(values) != len(tokens) or not all(type(v) is float for v in values):
        return None
    vertices = np.zeros(n_rows * width)
    vertices[flat] = values
    return vertices.reshape(n_rows, width)


def _writer_layout_doc(data: bytes) -> dict | None:
    """``json.loads`` of a path file's bytes when they are write_path_json's layout, else None.

    The keys before ``vertices`` go through ``json.loads``; the vertex
    matrix through ``_writer_vertices``. The writer writes ASCII, which
    decodes to the same text under any locale encoding; in other bytes the
    text that ``read_text`` gives could differ.
    """
    at = data.find(_VERTICES_KEY.encode())
    if at < 0 or not data.isascii():
        return None
    try:
        doc = json.loads(data[:at] + b"\n}")
        vertices = _writer_vertices(data, at + len(_VERTICES_KEY))
    except (ValueError, IndexError, RecursionError):
        return None
    # An empty header would make "{," of the whole text, which is not JSON.
    if not (isinstance(doc, dict) and doc) or vertices is None:
        return None
    doc["vertices"] = vertices
    return doc


def read_path_json(source) -> PiecewiseLinearPath:
    """The path in a path JSON file.

    A file in write_path_json's layout is read at the cost of its entries
    that are not ``0.0``; any other file is read as text by ``json.loads``,
    whose errors are reported.
    """
    doc = _writer_layout_doc(Path(source).read_bytes())
    if doc is None:
        try:
            doc = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed path JSON: {exc}") from None
    return path_from_dict(doc)


def write_path_csv(path: PiecewiseLinearPath, target) -> None:
    """Long-format export: one row per (breakpoint, mirrored coordinate)."""
    lines = ["ell,coordinate,value"]
    for k, ell in enumerate(path.breakpoints):
        for a in range(2 * path.p):
            lines.append(f"{fmt(ell)},{a},{fmt(path.vertices[k, a])}")
    Path(target).write_text("\n".join(lines) + "\n")


def write_path_csv_original(
    path: PiecewiseLinearPath, design: StandardizedDesign, target
) -> None:
    """Signed coefficients on the raw predictor scale, with the intercept.

    For plotting against the raw data; not meant to be re-imported.
    """
    names = [design.name_of(j) for j in range(design.p)]
    lines = ["ell,coordinate,value"]
    for k, ell in enumerate(path.breakpoints):
        b, intercept = design.to_original_scale(collapse(path.vertices[k]))
        lines.append(f"{fmt(ell)},intercept,{fmt(intercept)}")
        for j, name in enumerate(names):
            lines.append(f"{fmt(ell)},{name},{fmt(b[j])}")
    Path(target).write_text("\n".join(lines) + "\n")


def write_curve_csv(curve: Curve, target, method: str = "") -> None:
    label = method or curve.label or "curve"
    lines = ["index,value,method"]
    for i in range(len(curve.index)):
        lines.append(f"{fmt(curve.index[i])},{fmt(curve.values[i])},{label}")
    Path(target).write_text("\n".join(lines) + "\n")


def write_vector_csv(values: np.ndarray, target, names=None) -> None:
    lines = ["coordinate,value"]
    for j, v in enumerate(np.asarray(values, dtype=float)):
        label = names[j] if names else str(j)
        lines.append(f"{label},{fmt(v)}")
    Path(target).write_text("\n".join(lines) + "\n")


def read_vector_csv(source) -> np.ndarray:
    rows = [row for _, row in _rows(_csv_text(source))]
    if rows and rows[0] == ["coordinate", "value"]:
        rows = rows[1:]
    try:
        return np.array([float(r[-1]) for r in rows])
    except ValueError as exc:
        raise DataError(f"malformed vector CSV: {exc}") from None
