"""File formats for matrices, graphs, partitions, and study reports.

Dense matrices travel as CSV (optional header row of variable names)
or as a binary format: 8-byte magic, int64 row and column counts, then
column-major float64 data. Graphs are TSV edge lists with 1-based ids
and a "# m=" comment carrying the node count; partitions are TSV
(node-id, community-id) with a "# K=" comment. All text output is
UTF-8 with LF line endings, and numeric formatting round-trips float64
exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
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
    parse as a float.
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
        body = fh.read()
    try:
        if names is None:
            values = np.loadtxt(io.StringIO(first + body), delimiter=",", ndmin=2)
        else:
            values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
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
    """Read a binary matrix written by write_matrix_bin."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MATRIX_MAGIC:
            raise InvalidInputError(f"{path}: not a recognized binary matrix file")
        shape = np.frombuffer(fh.read(16), dtype="<i8")
        if shape.size != 2 or shape.min() < 0:
            raise InvalidInputError(f"{path}: corrupt binary matrix header")
        rows, cols = int(shape[0]), int(shape[1])
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != rows * cols:
        raise InvalidInputError(f"{path}: truncated binary matrix payload")
    return data.reshape((rows, cols), order="F").copy()


def read_matrix_auto(path):
    """Dispatch on the magic bytes: binary format or CSV. Returns (values, names)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == MATRIX_MAGIC:
        return read_matrix_bin(path), None
    return read_matrix_csv(path)


def write_edges_tsv(path, adj: SparseAdjacency) -> None:
    """Write an edge list as TSV with 1-based node ids."""
    with _open_write(path) as fh:
        fh.write(f"# m={adj.m}\n")
        for i, j in adj.edges:
            fh.write(f"{i + 1}\t{j + 1}\n")


def read_edges_tsv(path) -> SparseAdjacency:
    """Read an edge list written by write_edges_tsv."""
    m = None
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comment = line.lstrip("#").strip()
                if comment.startswith("m="):
                    m = int(comment[2:])
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise InvalidInputError(f"{path}:{lineno}: expected two ids")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: non-integer id") from exc
            if i < 1 or j < 1:
                raise InvalidInputError(f"{path}:{lineno}: ids are 1-based")
            pairs.append((i - 1, j - 1))
    if m is None:
        raise InvalidInputError(f"{path}: missing '# m=' node-count header")
    edges = np.array(pairs, dtype=np.int64) if pairs else np.empty((0, 2), np.int64)
    return SparseAdjacency(m, edges)


def write_partition_tsv(path, partition: Partition) -> None:
    """Write a partition as TSV (1-based node id, community id)."""
    with _open_write(path) as fh:
        fh.write(f"# K={partition.K}\n")
        for node, label in enumerate(partition.labels, start=1):
            fh.write(f"{node}\t{label}\n")


def read_partition_tsv(path) -> Partition:
    """Read a partition written by write_partition_tsv."""
    k = None
    labels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comment = line.lstrip("#").strip()
                if comment.startswith("K="):
                    k = int(comment[2:])
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise InvalidInputError(f"{path}:{lineno}: expected node and label")
            try:
                node, label = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: non-integer field") from exc
            if node < 1 or node in labels:
                raise InvalidInputError(f"{path}:{lineno}: bad or duplicate node id")
            labels[node] = label
    if k is None:
        raise InvalidInputError(f"{path}: missing '# K=' header")
    if not labels:
        raise InvalidInputError(f"{path}: no nodes")
    m = max(labels)
    if set(labels) != set(range(1, m + 1)):
        raise InvalidInputError(f"{path}: node ids must cover 1..m")
    ordered = np.array([labels[node] for node in range(1, m + 1)], dtype=np.int64)
    return Partition(ordered, k)


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
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise InvalidInputError(f"{path}:{lineno}: expected entity and item")
            pairs.append((parts[0], parts[1]))
    if not pairs:
        raise InvalidInputError(f"{path}: no incidence pairs")
    entity_ids = sorted({p[0] for p in pairs})
    item_ids = sorted({p[1] for p in pairs})
    entity_index = {e: idx for idx, e in enumerate(entity_ids)}
    item_index = {t: idx for idx, t in enumerate(item_ids)}
    incidence = np.zeros((len(item_ids), len(entity_ids)), dtype=np.int64)
    for entity, item in pairs:
        incidence[item_index[item], entity_index[entity]] = 1
    return incidence, entity_ids, item_ids


def canonical_json(obj) -> str:
    """Deterministic single-line JSON encoding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_mixture_fit_json(path, fit, params: dict) -> None:
    """Write per-row mixture estimates plus run parameters as JSON.

    "threshold" is null for a fit that carries no detection thresholds.
    """
    t = fit.threshold
    payload = {
        "estimated_a": fit.estimated_a,
        "w": [float(x) for x in fit.w],
        "a": [float(x) for x in fit.a],
        "loglik": [float(x) for x in fit.loglik],
        "threshold": None if t is None else [float(x) for x in t],
        "params": params,
    }
    with _open_write(path) as fh:
        fh.write(canonical_json(payload) + "\n")


def read_mixture_fit_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_records_jsonl(path, records: list[dict]) -> None:
    """Write study records one canonical JSON object per line."""
    with _open_write(path) as fh:
        for record in records:
            fh.write(canonical_json(record) + "\n")


def read_records_jsonl(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


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
