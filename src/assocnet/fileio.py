"""File formats for matrices, graphs, partitions, and study reports.

Dense matrices travel as CSV (optional header row of variable names)
or as a binary format: 8-byte magic, int64 row and column counts, then
column-major float64 data. Graphs are TSV edge lists with 1-based ids
and a "# m=" comment carrying the node count; partitions are TSV
(node-id, community-id) with a "# K=" comment. All text output is
UTF-8 with LF line endings, and numeric formatting round-trips float64
exactly.

Each text reader parses with one np.loadtxt call: CSV straight from
the file, TSV through _read_tsv, which skips blank lines, takes a
header from any "#" comment (the last one wins) and ignores fields
past the second.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .graphs import Partition, SparseAdjacency

MATRIX_MAGIC = b"ASNETBIN"


def _open_write(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_matrix_csv(path, values: np.ndarray, names: list[str] | None = None) -> None:
    """Write a dense matrix as CSV with full float64 precision."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InvalidInputError("matrix must be 2-D")
    with _open_write(path) as fh:
        if names is not None:
            if len(names) != values.shape[1]:
                raise InvalidInputError("one name per column required")
            fh.write(",".join(names) + "\n")
        for row in values:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def read_matrix_csv(path):
    """Read a CSV matrix; returns (values, names_or_None).

    The first line is a header exactly when any of its fields does not
    parse as a float. np.loadtxt parses the file from disk, so its text
    is never held whole in memory.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise InvalidInputError(f"{path}: empty matrix file")
        tokens = [t.strip() for t in first.strip().split(",")]
        names = None
        try:
            [float(t) for t in tokens]
        except ValueError:
            names = tokens
            if not any(line.strip() for line in fh):
                raise InvalidInputError(f"{path}: empty matrix body after the header")
    try:
        values = np.loadtxt(
            path, delimiter=",", ndmin=2, skiprows=0 if names is None else 1, encoding="utf-8"
        )
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed matrix CSV ({exc})") from exc
    if names is not None and values.shape[1] != len(names):
        raise InvalidInputError(f"{path}: header and data widths differ")
    return values, names


def write_matrix_bin(path, values: np.ndarray) -> None:
    """Write a dense matrix in the binary column-major format."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InvalidInputError("matrix must be 2-D")
    header = np.array(values.shape, dtype="<i8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(header)
        fh.write(np.asfortranarray(values).tobytes(order="F"))


def read_matrix_bin(path):
    """Read a binary matrix written by write_matrix_bin.

    The payload is read once, straight into the returned array, which is
    column-major like the file. Its size must match the header exactly.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MATRIX_MAGIC:
            raise InvalidInputError(f"{path}: not a recognized binary matrix file")
        shape = np.frombuffer(fh.read(16), dtype="<i8")
        if shape.size != 2 or shape.min() < 0:
            raise InvalidInputError(f"{path}: corrupt binary matrix header")
        rows, cols = int(shape[0]), int(shape[1])
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload < 8 * rows * cols:
            raise InvalidInputError(f"{path}: truncated binary matrix payload")
        if payload > 8 * rows * cols:
            raise InvalidInputError(f"{path}: trailing bytes after binary matrix payload")
        data = np.fromfile(fh, dtype="<f8", count=rows * cols)
    return data.reshape((rows, cols), order="F")


def read_matrix_auto(path):
    """Dispatch on the magic bytes: binary format or CSV. Returns (values, names)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == MATRIX_MAGIC:
        return read_matrix_bin(path), None
    return read_matrix_csv(path)


def _read_tsv(path, dtype, fields: str):
    """Read a TSV file once; returns (comments, table, lines).

    comments holds the text of each "#" line, "#" and surrounding
    whitespace removed. table holds, as dtype, the first two
    tab-separated fields of every other non-blank line (fields past the
    second are ignored), and lines[r] is the 1-based file line of row r.
    A short or unparsable line raises InvalidInputError naming the
    first such line; fields describes the two expected fields.
    """
    with open(path, "r", encoding="utf-8") as fh:
        stripped = list(map(str.strip, fh))
    comments = [s.lstrip("#").strip() for s in stripped if s.startswith("#")]
    lines = [n for n, s in enumerate(stripped, start=1) if s and s[0] != "#"]
    if not lines:  # np.loadtxt warns on an empty input
        return comments, np.empty((0, 2), dtype=dtype), lines
    rows = [stripped[n - 1] for n in lines]
    try:
        table = np.loadtxt(rows, dtype, delimiter="\t", comments=None, usecols=(0, 1), ndmin=2)
    except ValueError as exc:
        # loadtxt counts data rows only: from 1 for a row short of a
        # column, from 0 for a field that does not parse.
        short = "column index" in str(exc)
        row = int(re.search(r"at row (\d+)", str(exc))[1]) - short
        problem = f"expected {fields}" if short else "non-integer field"
        raise InvalidInputError(f"{path}:{lines[row]}: {problem}") from exc
    return comments, table, lines


def _header_int(path, comments: list[str], key: str) -> int:
    """The integer after key on the last comment that starts with it."""
    values = [c[len(key):] for c in comments if c.startswith(key)]
    if not values:
        raise InvalidInputError(f"{path}: missing '# {key}' header")
    try:
        return int(values[-1])
    except ValueError:
        raise InvalidInputError(f"{path}: non-integer '# {key}' header") from None


def write_edges_tsv(path, adj: SparseAdjacency) -> None:
    """Write an edge list as TSV with 1-based node ids."""
    with _open_write(path) as fh:
        fh.write(f"# m={adj.m}\n")
        for i, j in adj.edges:
            fh.write(f"{i + 1}\t{j + 1}\n")


def read_edges_tsv(path) -> SparseAdjacency:
    """Read an edge list written by write_edges_tsv."""
    comments, ids, lines = _read_tsv(path, np.int64, "two ids")
    bad = np.flatnonzero((ids < 1).any(axis=1))
    if bad.size:
        raise InvalidInputError(f"{path}:{lines[bad[0]]}: ids are 1-based")
    return SparseAdjacency(_header_int(path, comments, "m="), ids - 1)


def write_partition_tsv(path, partition: Partition) -> None:
    """Write a partition as TSV (1-based node id, community id)."""
    with _open_write(path) as fh:
        fh.write(f"# K={partition.K}\n")
        for node, label in enumerate(partition.labels, start=1):
            fh.write(f"{node}\t{label}\n")


def read_partition_tsv(path) -> Partition:
    """Read a partition written by write_partition_tsv."""
    comments, table, lines = _read_tsv(path, np.int64, "node and label")
    nodes, labels = table.T
    unique, first = np.unique(nodes, return_index=True)
    repeat = np.ones(nodes.size, dtype=bool)
    repeat[first] = False
    bad = np.flatnonzero((nodes < 1) | repeat)
    if bad.size:
        raise InvalidInputError(f"{path}:{lines[bad[0]]}: bad or duplicate node id")
    k = _header_int(path, comments, "K=")
    if not nodes.size:
        raise InvalidInputError(f"{path}: no nodes")
    if unique[-1] != nodes.size:
        raise InvalidInputError(f"{path}: node ids must cover 1..m")
    return Partition(labels[first], k)


def sniff_kind(path) -> str:
    """"adjacency" or "partition", from a "# m=" or "# K=" first line."""
    with open(path, "r", encoding="utf-8") as fh:
        first = next((line.strip() for line in fh if line.strip()), "")
    comment = first.lstrip("#").strip() if first.startswith("#") else ""
    for prefix, kind in (("m=", "adjacency"), ("K=", "partition")):
        if comment.startswith(prefix):
            return kind
    raise InvalidInputError(f"{path}: expected a '# m=' or '# K=' header")


def read_incidence_tsv(path):
    """Read (entity-id, item-id) pairs into a binary incidence matrix.

    Returns (incidence, entity_ids, item_ids) where incidence has one
    row per item and one column per entity, both in sorted id order.
    """
    _, pairs, _ = _read_tsv(path, str, "entity and item")
    if not pairs.size:
        raise InvalidInputError(f"{path}: no incidence pairs")
    entity_ids, cols = np.unique(pairs[:, 0], return_inverse=True)
    item_ids, rows = np.unique(pairs[:, 1], return_inverse=True)
    incidence = np.zeros((item_ids.size, entity_ids.size), dtype=np.int64)
    incidence[rows, cols] = 1
    return incidence, entity_ids.tolist(), item_ids.tolist()


def canonical_json(obj) -> str:
    """Deterministic single-line JSON encoding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_mixture_fit_json(path, fit, params: dict) -> None:
    """Write per-row mixture estimates plus run parameters as JSON.

    "threshold" is null for a fit that carries no detection thresholds.
    "w_at_floor", "w_at_one" and "a_at_bound" list the rows whose fit
    sits on a boundary (MixtureFit.boundary_rows).
    """
    t = fit.threshold
    payload = {
        "estimated_a": fit.estimated_a,
        "w": [float(x) for x in fit.w],
        "a": [float(x) for x in fit.a],
        "loglik": [float(x) for x in fit.loglik],
        "threshold": None if t is None else [float(x) for x in t],
        **fit.boundary_rows(),
        "params": params,
    }
    with _open_write(path) as fh:
        fh.write(canonical_json(payload) + "\n")


def write_records_jsonl(path, records: list[dict]) -> None:
    """Write study records one canonical JSON object per line."""
    with _open_write(path) as fh:
        for record in records:
            fh.write(canonical_json(record) + "\n")


def write_summary_csv(path, rows: list[dict]) -> None:
    """Write summary rows as CSV; None becomes an empty cell."""
    if not rows:
        with _open_write(path) as fh:
            fh.write("\n")
        return
    fieldnames = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir,
    command: str,
    version: str,
    inputs: dict,
    config: dict,
    seed: int | None,
    timings: dict,
) -> Path:
    """Write the single run manifest for an output directory.

    Timings and input hashes live here, keeping every other output file
    byte-stable across reruns with the same seed.
    """
    manifest = {
        "command": command,
        "version": version,
        "inputs": {name: sha256_file(p) for name, p in inputs.items()},
        "config": config,
        "seed": seed,
        "timings": timings,
    }
    path = Path(out_dir) / "manifest.json"
    with _open_write(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
