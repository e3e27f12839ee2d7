"""File formats for matrices, graphs, partitions, and study reports.

Dense matrices travel as CSV (optional header row of variable names)
or as a binary format: 8-byte magic, int64 row and column counts, then
column-major float64 data. Graphs are TSV edge lists with 1-based ids
and a "# m=" comment carrying the node count; partitions are TSV
(node-id, community-id) with a "# K=" comment. All text output is
UTF-8 with LF line endings, and numeric formatting round-trips float64
exactly.

Each text reader parses with one np.loadtxt call as the lines stream
from the file, and skips blank and whitespace-only lines. TSV goes
through _read_tsv, which also takes a header from any "#" comment (the
last one wins) and ignores fields past the second. _read_tsv keeps no
line numbers; an error that names a file line counts them again
(_file_lines). Binary matrices are written by column blocks of about
_BLOCK_BYTES, so no full-size copy is made. Edge lists and partitions are
written by _write_int_pairs, which looks each id up in a table of decimal
strings and writes blocks of _BLOCK_LINES lines as one string.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import re
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .graphs import Partition, SparseAdjacency

MATRIX_MAGIC = b"ASNETBIN"
# Lines joined into one string per write by the integer-pair TSV writers.
_BLOCK_LINES = 1 << 20
# Bytes per column block written by write_matrix_bin.
_BLOCK_BYTES = 1 << 22


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

    Blank and whitespace-only lines are skipped. The first other line is
    a header exactly when any of its fields does not parse as a float.
    np.loadtxt parses the lines as they stream from the file, so its
    text is never held whole in memory. A malformed row is named by its
    1-based file line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        numbers = []  # file line of each line handed on, the header's included

        def content():
            for number, line in enumerate(fh, start=1):
                if not line.isspace():
                    numbers.append(number)
                    yield line

        lines = content()
        first = next(lines, None)
        if first is None:
            raise InvalidInputError(f"{path}: empty matrix file")
        tokens = [t.strip() for t in first.split(",")]
        names = None
        try:
            [float(t) for t in tokens]
        except ValueError:
            names, first = tokens, next(lines, None)
            if first is None:
                raise InvalidInputError(f"{path}: empty matrix body after the header")
        try:
            values = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2)
        except ValueError as exc:
            # loadtxt counts data rows only: from 1 for a row of another
            # width, from 0 for a field that does not parse.
            row = re.search(r"at row (\d+)", str(exc))
            where = ""
            if row:
                index = int(row[1]) - ("columns changed" in str(exc)) + (names is not None)
                where = f":{numbers[index]}"
            raise InvalidInputError(f"{path}{where}: malformed matrix CSV ({exc})") from exc
    if names is not None and values.shape[1] != len(names):
        raise InvalidInputError(f"{path}: header and data widths differ")
    return values, names


def write_matrix_bin(path, values: np.ndarray) -> None:
    """Write a dense matrix in the binary column-major format, by column blocks."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InvalidInputError("matrix must be 2-D")
    header = np.array(values.shape, dtype="<i8").tobytes()
    step = max(1, _BLOCK_BYTES // (8 * max(1, values.shape[0])))
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(header)
        for first in range(0, values.shape[1], step):
            fh.write(values[:, first : first + step].T.tobytes())


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


def _file_lines(path) -> list[int]:
    r"""The 1-based file line of each data row that _read_tsv returns.

    Lines split as the file iterates them, not as str.splitlines, which
    also splits on "\v", "\f" and "\x1c". It reads the file again, so
    only an error that names a line pays for it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return [n for n, line in enumerate(fh, start=1) if line.strip()[:1] not in ("", "#")]


def _read_tsv(path, dtype, fields: str):
    """Read a TSV file once, as its lines stream; returns (comments, table).

    comments holds the text of each "#" line, "#" and surrounding
    whitespace removed. table holds, as dtype, the first two
    tab-separated fields of every other non-blank line (fields past the
    second are ignored); _file_lines maps its rows to file lines. Only
    the table is held whole. A short or unparsable line raises
    InvalidInputError naming the first such line; fields describes the
    two expected fields.
    """
    comments = []
    with open(path, "r", encoding="utf-8") as fh:

        def rows():
            for s in map(str.strip, fh):
                if s[:1] == "#":
                    comments.append(s.lstrip("#").strip())
                elif s:
                    yield s

        lines = rows()
        first = next(lines, None)
        if first is None:  # np.loadtxt warns on an empty input
            return comments, np.empty((0, 2), dtype=dtype)
        try:
            table = np.loadtxt(itertools.chain([first], lines), dtype, delimiter="\t",
                               comments=None, usecols=(0, 1), ndmin=2)
        except ValueError as exc:
            # loadtxt counts data rows only: from 1 for a row short of a
            # column, from 0 for a field that does not parse.
            short = "column index" in str(exc)
            row = int(re.search(r"at row (\d+)", str(exc))[1]) - short
            problem = f"expected {fields}" if short else "non-integer field"
            raise InvalidInputError(f"{path}:{_file_lines(path)[row]}: {problem}") from exc
    return comments, table


def _header_int(path, comments: list[str], key: str) -> int:
    """The integer after key on the last comment that starts with it."""
    values = [c[len(key):] for c in comments if c.startswith(key)]
    if not values:
        raise InvalidInputError(f"{path}: missing '# {key}' header")
    try:
        return int(values[-1])
    except ValueError:
        raise InvalidInputError(f"{path}: non-integer '# {key}' header") from None


def _repeats(keys: np.ndarray):
    """Returns (first, repeat) for keys, one key per entry along axis 0.

    first holds the index of each distinct key's first entry, in key
    order; repeat masks the entries that equal an earlier one.
    """
    _, first = np.unique(keys, axis=0, return_index=True)
    repeat = np.ones(len(keys), dtype=bool)
    repeat[first] = False
    return first, repeat


def _rejected_row(path, problems) -> InvalidInputError | None:
    """The error for the first (problem, row mask) pair that masks a row.

    It names the file line of that pair's first masked row; None when no
    mask has a row.
    """
    for problem, mask in problems:
        bad = np.flatnonzero(mask)
        if bad.size:
            return InvalidInputError(f"{path}:{_file_lines(path)[bad[0]]}: {problem}")
    return None


def _write_int_pairs(path, header: str, pairs: np.ndarray, shift: int = 0) -> None:
    """Write header, then one "i<TAB>j" line per row of nonnegative pairs + shift.

    Each value is looked up in a table of decimal strings, and each block
    of _BLOCK_LINES lines is joined and written at once.
    """
    digits = np.array(list(map(str, range(int(pairs.max(initial=0)) + shift + 1))), dtype=object)
    table = digits[:, None] + np.array(["\t", "\n"], dtype=object)
    with _open_write(path) as fh:
        fh.write(header)
        for start in range(0, len(pairs), _BLOCK_LINES):
            block = pairs[start : start + _BLOCK_LINES] + shift
            fh.write("".join(table[block, [0, 1]].ravel().tolist()))


def write_edges_tsv(path, adj: SparseAdjacency) -> None:
    """Write an edge list as TSV with 1-based node ids."""
    _write_int_pairs(path, f"# m={adj.m}\n", adj.edges, shift=1)


def read_edges_tsv(path) -> SparseAdjacency:
    """Read an edge list written by write_edges_tsv.

    An edge the adjacency rejects is named by its file line: an id below
    1 or above m, a self loop, or a pair (in either orientation) that an
    earlier line already holds.
    """
    comments, ids = _read_tsv(path, np.int64, "two ids")
    m = _header_int(path, comments, "m=")
    try:
        return SparseAdjacency(m, ids - 1)
    except InvalidInputError as exc:
        lo, hi = ids.min(axis=1), ids.max(axis=1)
        located = _rejected_row(path, [
            ("ids are 1-based", lo < 1),
            (f"id above m={m}", hi > m),
            ("self loop", lo == hi),
            ("repeated edge", _repeats(np.column_stack((lo, hi)))[1]),
        ])
        raise (located or InvalidInputError(f"{path}: {exc}")) from exc


def write_partition_tsv(path, partition: Partition) -> None:
    """Write a partition as TSV (1-based node id, community id)."""
    nodes = np.arange(1, partition.m + 1)
    _write_int_pairs(path, f"# K={partition.K}\n", np.column_stack((nodes, partition.labels)))


def read_partition_tsv(path) -> Partition:
    """Read a partition written by write_partition_tsv."""
    comments, table = _read_tsv(path, np.int64, "node and label")
    nodes, labels = table.T
    first, repeat = _repeats(nodes)
    located = _rejected_row(path, [("bad or duplicate node id", (nodes < 1) | repeat)])
    if located:
        raise located
    k = _header_int(path, comments, "K=")
    if not nodes.size:
        raise InvalidInputError(f"{path}: no nodes")
    if nodes.max() != nodes.size:
        raise InvalidInputError(f"{path}: node ids must cover 1..m")
    try:
        return Partition(labels[first], k)
    except InvalidInputError as exc:
        located = _rejected_row(path, [(f"label outside 0..{k}", (labels < 0) | (labels > k))])
        raise (located or InvalidInputError(f"{path}: {exc}")) from exc


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
    _, pairs = _read_tsv(path, str, "entity and item")
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
