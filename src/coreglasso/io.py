"""File formats of the command-line tool.

All files are UTF-8 with LF line endings and '.' decimal separators; a
byte-order mark on an input file is skipped.
Features are CSV with nodes on rows and samples on columns; a header row
of sample IDs and a first column of node labels are auto-detected, numeric
labels too when the header's first cell is empty or names them (the
layouts of pandas' ``DataFrame.to_csv``, see :func:`read_table_csv`).
A named index over string column names (``node,s1,s2`` over ``0,1.5,2.0``)
reads as a header over unlabelled data, so the index becomes a data
column; ``df.rename_axis(None).to_csv(...)`` writes the empty corner cell
(``,s1,s2``) that marks it as labels.
Nodes are matched across files by row order; only the features and graph
files' labels are kept (into ``scores.json``), and no reader compares the
labels of two files.
Square matrices (adjacency, distances, precision) use the same CSV
conventions.  Scores are JSON ``{labels, values, M}``; learnt graphs are
TSV edge lists ``(i, j, theta_ij)`` over pairs i < j; traces are CSV.

This module only parses: the value types and rules of ``model`` judge
what a file holds, and every rejection starts with the file's path
(a parse error's with its line number too).
"""

import csv
import hashlib
import json

import numpy as np

from functools import partial
from pathlib import Path

from .errors import InputError
from .glasso import support
from .model import CoreScores, FeatureMatrix, _check_square_symmetric

__all__ = [
    "read_table_csv",
    "read_features_csv",
    "read_square_csv",
    "read_scores_json",
    "write_matrix_csv",
    "write_scores_json",
    "write_edges_tsv",
    "write_trace_csv",
    "write_json",
    "sha256_file",
]


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_table_csv(path):
    """CSV table with auto-detected header row and label column.

    Returns ``(values, row_labels)``, the labels None when absent.
    Detection: a first row with any non-numeric cell beyond its first is
    a header, and is skipped; then a first column with any non-numeric
    cell below it is a label column.  A first row is also a header, over
    a label column, when its first cell is empty or is the only
    non-numeric cell of the first column: pandas writes an unnamed or a
    named index this way (``,0,1`` or ``node,0,1`` over ``0,1.5,2.0``).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not rows:
        raise InputError(f"{path}:1: empty file")
    widths = {len(row) for _, row in rows}
    if len(widths) != 1:
        lineno = next(n for n, row in rows if len(row) != len(rows[0][1]))
        raise InputError(f"{path}:{lineno}: ragged row width")

    first = rows[0][1]
    has_ids = any(not _is_float(tok) for tok in first[1:])
    # pandas' index column: an empty corner cell, or numeric sample IDs
    # after a corner cell that is the first column's only non-numeric cell.
    indexed = not first[0].strip() or not has_ids and not _is_float(first[0]) and all(
        _is_float(row[0]) for _, row in rows[1:])
    body = rows[1:] if has_ids or indexed else rows
    if not body:
        raise InputError(f"{path}:1: no data rows")
    has_labels = indexed or any(not _is_float(row[0]) for _, row in body)

    row_labels = [] if has_labels else None
    data = []
    for lineno, row in body:
        cells = row[1:] if has_labels else row
        if has_labels:
            row_labels.append(row[0].strip())
        try:
            data.append([float(tok) for tok in cells])
        except ValueError:
            bad = next(tok for tok in cells if not _is_float(tok))
            raise InputError(
                f"{path}:{lineno}: non-numeric value {bad!r}"
            ) from None
    return np.asarray(data, dtype=float), row_labels


def _judge(path, rule, *args):
    """``rule(*args)``, with the path of the file the arguments came from
    put in front of any :class:`InputError` it raises."""
    try:
        return rule(*args)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_features_csv(path) -> FeatureMatrix:
    """Node-attribute matrix: N rows (nodes) by d columns (samples)."""
    values, row_labels = read_table_csv(path)
    return _judge(path, FeatureMatrix, values, row_labels)


def read_square_csv(path, check=partial(_check_square_symmetric, name="matrix")):
    """Square matrix and its row labels (None when absent).

    ``check`` judges the values and builds what is returned in their
    place: the matrix rule by default, :class:`DistanceMatrix` for
    distances, ``_check_adjacency`` for a graph.
    """
    values, row_labels = read_table_csv(path)
    return _judge(path, check, values), row_labels


def read_scores_json(path) -> CoreScores:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    try:
        values = np.asarray(payload["values"], dtype=float)
        budget = float(payload["M"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed scores file ({exc})") from None
    return _judge(path, CoreScores, values, budget)


def _write_rows(path, rows, header=None, sep=",") -> None:
    """The one table writer: UTF-8, LF, every cell as ``str(x)``.

    Callers hand in Python scalars (``.tolist()``), so a float is written
    as its shortest round-trip ``repr``.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        for row in rows:
            fh.write(sep.join(map(str, row)) + "\n")


def write_matrix_csv(path, values) -> None:
    _write_rows(path, np.asarray(values, dtype=float).tolist())


def write_scores_json(path, scores: CoreScores, labels=None) -> None:
    n = len(scores)
    write_json(path, {
        "labels": list(labels) if labels is not None else [str(i) for i in range(n)],
        "values": [float(v) for v in scores.values],
        "M": float(scores.budget),
    })


def write_edges_tsv(path, theta, threshold: float = 0.0) -> None:
    tv = np.asarray(theta.values if hasattr(theta, "values") else theta, float)
    iu, ju = np.nonzero(np.triu(support(theta, threshold), 1))
    _write_rows(path, zip(iu.tolist(), ju.tolist(), tv[iu, ju].tolist()),
                header=("i", "j", "theta"), sep="\t")


def write_trace_csv(path, trace) -> None:
    _write_rows(path, (
        (idx // 2 + 1, "graph" if idx % 2 == 0 else "scores", float(value))
        for idx, value in enumerate(trace)
    ), header=("outer_iter", "half_step", "objective"))


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
