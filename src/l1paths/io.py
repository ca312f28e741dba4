"""CSV and JSON serialization for datasets, paths, and curves.

Numbers in CSV are written with 17 significant digits (enough to round
trip a double exactly); JSON uses Python's shortest-round-trip float
representation, so a JSON export reproduces vertices bit for bit.

A path JSON file holds exactly the bytes of
``json.dumps(path_to_dict(path, metadata), sort_keys=True, indent=1) + "\n"``;
this layout is a contract, so identical paths give identical files.
``write_path_json`` encodes every key but ``vertices`` (which sorts last)
with the standard library, then writes the vertex matrix one row at a
time, each row a run encoded by the C JSON encoder with the separators
that reproduce the indented layout. The pure-Python encoder that any
``indent`` selects never sees the vertex floats, and the nested list of
all of them is never built.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .design import Dataset, StandardizedDesign
from .diagnostics import Curve
from .errors import DataError
from .path import PathEvent, PiecewiseLinearPath, collapse

SCHEMA_VERSION = 1


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rows(source) -> list[list[str]]:
    text = Path(source).read_text()
    return [row for row in csv.reader(text.splitlines()) if row]


def read_dataset_csv(source, response=None, header: bool | None = None) -> Dataset:
    """Load a dataset from CSV: one row per observation.

    The last column is the response unless ``response`` names (or
    0-based-indexes) another. A header row is auto-detected unless
    ``header`` is forced.
    """
    rows = _rows(source)
    if not rows:
        raise DataError("empty CSV file")
    names = None
    if header is None:
        try:
            [float(v) for v in rows[0]]
            header = False
        except ValueError:
            header = True
    if header:
        names = [v.strip() for v in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DataError("CSV has a header but no data rows")
    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"line {i + 2 if header else i + 1}: expected {width} fields, got {len(row)}")
        try:
            data[i] = [float(v) for v in row]
        except ValueError as exc:
            raise DataError(f"line {i + 2 if header else i + 1}: {exc}") from None
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


def path_from_dict(doc: dict) -> PiecewiseLinearPath:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"unsupported path schema version {doc.get('schema_version')}")
    return PiecewiseLinearPath(
        breakpoints=np.array(doc["breakpoints"], dtype=float),
        vertices=np.array(doc["vertices"], dtype=float),
        segment_active_sets=[tuple(s) for s in doc["segment_active_sets"]],
        parametrization=doc["parametrization"],
        events=[PathEvent(**e) for e in doc.get("events", [])],
        feature_names=doc.get("feature_names"),
        truncated=bool(doc.get("truncated", False)),
    )


# Without ``indent`` the stdlib uses its C encoder; these separators put each
# float of a vertex row on its own line at depth 3 of the indent-1 layout.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n   ", ": "))


def _vertex_row(row: np.ndarray) -> str:
    text = _ROW_ENCODER.encode(row.tolist())
    return "[\n   " + text[1:-1] + "\n  ]" if row.size else text


def write_path_json(path: PiecewiseLinearPath, target, metadata: dict | None = None) -> None:
    """Write ``json.dumps(path_to_dict(path, metadata), sort_keys=True, indent=1) + "\n"``.

    The header goes through ``json.dumps``; the vertex rows follow it,
    streamed one C-encoded row at a time (see the module docstring).
    """
    header = _path_header(path, metadata)
    assert all(key < "vertices" for key in header), "vertices must sort last"
    text = json.dumps(header, sort_keys=True, indent=1)
    with open(target, "w") as out:
        out.write(text[:-2] + ',\n "vertices": ')
        if not len(path.vertices):
            out.write("[]\n}\n")
            return
        sep = "[\n  "
        for row in path.vertices:
            out.write(sep + _vertex_row(row))
            sep = ",\n  "
        out.write("\n ]\n}\n")


def read_path_json(source) -> PiecewiseLinearPath:
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


def read_path_csv(source, parametrization: str = "l1_norm") -> PiecewiseLinearPath:
    rows = _rows(source)
    if not rows or rows[0] != ["ell", "coordinate", "value"]:
        raise DataError("not a path CSV (missing 'ell,coordinate,value' header)")
    ells: list[float] = []
    table: dict[float, dict[int, float]] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise DataError(f"line {i}: expected 3 fields")
        try:
            ell, coord, value = float(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise DataError(f"line {i}: {exc}") from None
        if ell not in table:
            table[ell] = {}
            ells.append(ell)
        table[ell][coord] = value
    p2 = max(max(d) for d in table.values()) + 1
    if p2 % 2:
        raise DataError("path CSV has an odd number of coordinates")
    vertices = np.zeros((len(ells), p2))
    for k, ell in enumerate(ells):
        if len(table[ell]) != p2:
            raise DataError(f"breakpoint {ell} is missing coordinates")
        for a, v in table[ell].items():
            vertices[k, a] = v
    return PiecewiseLinearPath(
        breakpoints=np.array(ells),
        vertices=vertices,
        segment_active_sets=[()] * (len(ells) - 1),
        parametrization=parametrization,
    )


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
    rows = _rows(source)
    if rows and rows[0] == ["coordinate", "value"]:
        rows = rows[1:]
    try:
        return np.array([float(r[-1]) for r in rows])
    except ValueError as exc:
        raise DataError(f"malformed vector CSV: {exc}") from None
