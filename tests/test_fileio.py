"""Tests for the on-disk formats.

Round trips are checked for exact equality: the CSV writer emits 17
significant digits, which reproduces any float64 bit pattern, and the
binary format stores raw little-endian float64 words.
"""

from __future__ import annotations

import csv
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from conftest import to_dense

from assocnet import fileio
from assocnet.ebayes import MixtureFit, detection_threshold
from assocnet.errors import InvalidInputError
from assocnet.fileio import (
    MATRIX_MAGIC,
    _file_lines,
    _read_tsv,
    canonical_json,
    read_edges_tsv,
    read_incidence_tsv,
    read_matrix_auto,
    read_matrix_bin,
    read_matrix_csv,
    read_partition_tsv,
    sha256_file,
    sniff_kind,
    write_edges_tsv,
    write_manifest,
    write_matrix_bin,
    write_matrix_csv,
    write_mixture_fit_json,
    write_partition_tsv,
    write_records_jsonl,
    write_summary_csv,
)
from assocnet.graphs import Partition, SparseAdjacency

AWKWARD = np.array(
    [
        [0.1, -0.1, np.pi, 1.0 / 3.0],
        [1e-300, 1e300, -1.5e-8, 123456789.123456789],
        [0.0, -0.0, np.nextafter(1.0, 2.0), np.nextafter(0.0, 1.0)],
    ]
)


def write_named_csv(path, values, names):
    """write_matrix_csv's file with a header line of names put before it."""
    write_matrix_csv(path, values)
    path.write_bytes((",".join(names) + "\n").encode("utf-8") + path.read_bytes())


def joined_csv(values) -> bytes:
    """The CSV of values as one f"{x:.17g}" per entry, comma-joined, LF-ended."""
    return "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in values).encode("utf-8")


def signed_subnormal_matrix():
    """A seeded 60 x 40 matrix of magnitudes 1e-320 to 1e300, with -0.0,
    subnormals and non-finite entries planted."""
    rng = np.random.default_rng(12)
    values = rng.standard_normal((60, 40)) * 10.0 ** rng.integers(-320, 300, (60, 40))
    values.flat[::7] = -0.0
    values.flat[3::11] = rng.integers(1, 1 << 20, values.flat[3::11].size) * 5e-324
    values.flat[5::13] *= -1.0
    values[0, :4] = [np.nan, np.inf, -np.inf, 1.2e17]
    return values


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, AWKWARD)
        values = read_matrix_csv(path)
        assert values.shape == AWKWARD.shape
        assert np.array_equal(values, AWKWARD)

    def test_round_trip_with_names(self, tmp_path):
        path = tmp_path / "named.csv"
        write_named_csv(path, AWKWARD, ["alpha", "beta", "gamma", "delta"])
        assert np.array_equal(read_matrix_csv(path), AWKWARD)

    @pytest.mark.parametrize("values", [AWKWARD, signed_subnormal_matrix()],
                             ids=["awkward", "signed-subnormal"])
    def test_bytes_are_a_per_value_join(self, tmp_path, values):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values)
        assert path.read_bytes() == joined_csv(values)

    def test_all_numeric_first_line_is_data(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.5,2.5\n3.5,4.5\n", encoding="utf-8")
        assert np.array_equal(read_matrix_csv(path), [[1.5, 2.5], [3.5, 4.5]])

    def test_single_row_matrix(self, tmp_path):
        path = tmp_path / "row.csv"
        write_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]))
        assert read_matrix_csv(path).shape == (1, 3)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_matrix_csv(tmp_path / "bad.csv", np.zeros(3))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ("", "\n  \n\t\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(InvalidInputError, match="empty matrix file"):
                read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text",
        ["1,2\n  \n2,1\n", "\n1,2\n2,1\n", "\n \na,b\n\t\n1,2\n\n2,1\n"],
        ids=["whitespace-only-line", "leading-blank-line", "blank-lines-around-header"],
    )
    def test_skips_blank_and_whitespace_only_lines(self, tmp_path, text):
        path = tmp_path / "blank.csv"
        path.write_text(text, encoding="utf-8")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="malformed"):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("a,b\n\n1,2\n\n3\n", 5),
            ("\n1,2\n\n3,4,5\n", 4),
            ("\na,b\n1,2\n3,x\n", 4),
        ],
        ids=["short-row-after-header", "leading-blank-line", "unparsable-field"],
    )
    def test_rejection_names_the_file_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match=f"bad.csv:{line}: malformed"):
            read_matrix_csv(path)

    def test_comment_first_line_is_not_a_header(self, tmp_path):
        path = tmp_path / "noted.csv"
        path.write_text("# c\n1,0\n0,1\n", encoding="utf-8")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 0.0], [0.0, 1.0]])

    def test_hash_inside_a_data_line_is_a_malformed_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0\n0,1 # c\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="bad.csv:2: malformed"):
            read_matrix_csv(path)

    def test_rejects_header_width_mismatch(self, tmp_path):
        path = tmp_path / "width.csv"
        path.write_text("a,b,c\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="widths differ"):
            read_matrix_csv(path)

    def test_rejects_a_header_without_data(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="empty"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("names", [None, ["a", "b", "c", "d"]])
    def test_values_keep_their_bytes(self, tmp_path, names):
        path = tmp_path / "m.csv"
        if names is None:
            write_matrix_csv(path, AWKWARD)
        else:
            write_named_csv(path, AWKWARD, names)
        values = read_matrix_csv(path)
        assert values.dtype == AWKWARD.dtype
        assert values.tobytes() == AWKWARD.tobytes()  # keeps -0.0 and subnormals

    def test_reading_holds_the_matrix_once(self, tmp_path):
        path = tmp_path / "m.csv"
        values = np.random.default_rng(9).uniform(-1.0, 1.0, (1000, 1000))
        write_named_csv(path, values, [f"v{i}" for i in range(1000)])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = read_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, values)
        assert peak < 1.3 * got.nbytes


class TestMatrixBinary:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix_bin(path, AWKWARD)  # non-square: catches order bugs
        values = read_matrix_bin(path)
        assert values.shape == AWKWARD.shape
        assert np.array_equal(values, AWKWARD)

    def test_auto_dispatch(self, tmp_path):
        bin_path = tmp_path / "m.bin"
        csv_path = tmp_path / "m.csv"
        write_matrix_bin(bin_path, AWKWARD)
        write_named_csv(csv_path, AWKWARD, ["a", "b", "c", "d"])
        assert np.array_equal(read_matrix_auto(bin_path), read_matrix_auto(csv_path))

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
        with pytest.raises(InvalidInputError, match="not a recognized"):
            read_matrix_bin(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix_bin(path, AWKWARD)
        blob = path.read_bytes()
        for cut in (8, 3):  # a whole value, or part of one
            path.write_bytes(blob[:-cut])
            with pytest.raises(InvalidInputError, match="truncated"):
                read_matrix_bin(path)

    @pytest.mark.parametrize("extra", [b"\0" * 8, b"\0" * 3])
    def test_rejects_bytes_past_the_payload(self, tmp_path, extra):
        path = tmp_path / "m.bin"
        write_matrix_bin(path, AWKWARD)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(InvalidInputError, match="trailing bytes"):
            read_matrix_bin(path)

    def test_reading_holds_the_payload_once(self, tmp_path):
        path = tmp_path / "m.bin"
        values = np.random.default_rng(5).standard_normal((700, 500))
        write_matrix_bin(path, values)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = read_matrix_bin(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, values)
        assert peak < 1.2 * values.nbytes

    @staticmethod
    def layouts():
        base = np.random.default_rng(6).standard_normal((61, 47))
        return {
            "C": base,
            "F": np.asfortranarray(base),
            "strided": base[::2, 1::3],
            "0x0": np.empty((0, 0)),
            "1xn": base[:1],
            "nx1": base[:, :1],
        }

    @pytest.mark.parametrize("block_bytes", [1 << 22, 8 * 61 * 5])
    def test_writes_column_major_payload_bytes(self, tmp_path, monkeypatch, block_bytes):
        # 8 * 61 * 5 bytes: five-column blocks, the last one partial for 47 columns.
        monkeypatch.setattr(fileio, "_BLOCK_BYTES", block_bytes)
        path = tmp_path / "m.bin"
        for name, values in self.layouts().items():
            write_matrix_bin(path, values)
            header = MATRIX_MAGIC + np.array(values.shape, dtype="<i8").tobytes()
            expected = header + np.asfortranarray(values).tobytes(order="F")
            assert path.read_bytes() == expected, name

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_writing_holds_one_block(self, tmp_path, monkeypatch, order):
        monkeypatch.setattr(fileio, "_BLOCK_BYTES", 1 << 18)
        values = np.asarray(np.random.default_rng(7).standard_normal((1000, 1500)), order=order)
        path = tmp_path / "m.bin"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_matrix_bin(path, values)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * fileio._BLOCK_BYTES  # a block's copy and its bytes
        assert np.array_equal(read_matrix_bin(path), values)

    def test_rejects_corrupt_header(self, tmp_path):
        path = tmp_path / "m.bin"
        negative = np.array([-1, 4], dtype="<i8").tobytes()
        path.write_bytes(MATRIX_MAGIC + negative)
        with pytest.raises(InvalidInputError, match="corrupt"):
            read_matrix_bin(path)


def _loop_reference(path, convert):
    """The line-by-line parse the TSV readers used to run, as an oracle."""
    comments, pairs, lines = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line.startswith("#"):
                comments.append(line.lstrip("#").strip())
            elif line:
                parts = line.split("\t")
                pairs.append([convert(parts[0]), convert(parts[1])])
                lines.append(lineno)
    return comments, pairs, lines


class TestReadTsv:
    @pytest.mark.parametrize("dtype, convert", [(np.int64, int), (str, str)])
    def test_matches_a_line_loop_reference(self, tmp_path, dtype, convert):
        rng = np.random.default_rng(3)
        rows = []
        for i, j in rng.integers(-5, 10**6, size=(2000, 2)):
            layout = rng.choice(["{}\t{}", " {} \t {}", "{}\t{}\t7", "{}\t{}\tx\ty"])
            rows.append(layout.format(i, j))
            rows.append(rng.choice(["", " \t ", "# note", "#  m=12 ", "{}\t{}"]).format(j, i))
        path = tmp_path / "pairs.tsv"
        path.write_bytes("\r\n".join(rows).encode("utf-8"))
        comments, table = _read_tsv(path, dtype, "two ids")
        lines = _file_lines(path)
        assert (comments, table.tolist(), lines) == _loop_reference(path, convert)

    def test_reading_holds_little_more_than_the_table(self, tmp_path):
        ids = np.random.default_rng(8).integers(1, 10**6, size=(200_000, 2))
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "# m=1000000\n" + "".join(f"{i}\t{j}\n" for i, j in ids.tolist()),
            encoding="utf-8",
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            comments, table = _read_tsv(path, np.int64, "two ids")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert comments == ["m=1000000"]
        assert np.array_equal(table, ids)
        assert peak < 1.5 * table.nbytes


class TestLineRule:
    """Every text reader names a bad line by its line in the file."""

    # reader, lines before the data, a good data line, a bad one, message
    READERS = {
        "csv": (read_matrix_csv, [], "1,2", "3", "malformed"),
        "csv-header": (read_matrix_csv, ["a,b"], "1,2", "3,x", "malformed"),
        "edges": (read_edges_tsv, ["# m=3"], "1\t2", "3", "expected two ids"),
        "partition": (read_partition_tsv, ["# K=1"], "1\t1", "2\tx", "non-integer"),
    }
    # lines put before the first and before the bad data line, line end
    LAYOUTS = {
        "blank": (["", ""], "\n"),
        "whitespace-only": ([" \t ", "   "], "\n"),
        "comment": (["# note", "  # indented note"], "\n"),
        "crlf": (["", "# note", " "], "\r\n"),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("reader", READERS)
    def test_bad_line_is_named_by_its_file_line(self, tmp_path, reader, layout):
        read, head, good, bad, message = self.READERS[reader]
        filler, end = self.LAYOUTS[layout]
        lines = [*head, *filler, good, *filler, bad]
        path = tmp_path / "bad.txt"
        path.write_bytes((end.join(lines) + end).encode("utf-8"))
        with pytest.raises(InvalidInputError, match=f"bad.txt:{len(lines)}: {message}"):
            read(path)


class TestByteOrderMark:
    """Text input may start with a UTF-8 byte-order mark, which is skipped."""

    BOM = "\ufeff"

    def write(self, path, text):
        path.write_bytes((self.BOM + text).encode("utf-8"))
        return path

    def test_headerless_csv(self, tmp_path):
        values = read_matrix_csv(self.write(tmp_path / "m.csv", "1,2\n3,4\n"))
        np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])

    def test_csv_with_a_named_header(self, tmp_path):
        values = read_matrix_csv(self.write(tmp_path / "m.csv", "a,b\n1,2\n"))
        np.testing.assert_array_equal(values, [[1.0, 2.0]])

    def test_edges_and_partition_tsv(self, tmp_path):
        edges = self.write(tmp_path / "edges.tsv", "# m=3\n1\t2\n2\t3\n")
        assert sniff_kind(edges) == "adjacency"
        np.testing.assert_array_equal(read_edges_tsv(edges).edges, [[0, 1], [1, 2]])
        partition = self.write(tmp_path / "partition.tsv", "# K=1\n1\t1\n2\t0\n")
        assert sniff_kind(partition) == "partition"
        assert read_partition_tsv(partition) == Partition(np.array([1, 0]), 1)

    @pytest.mark.parametrize("reader", TestLineRule.READERS)
    def test_a_later_bad_line_is_named_by_its_file_line(self, tmp_path, reader):
        read, head, good, bad, message = TestLineRule.READERS[reader]
        lines = [*head, "", good, "# note", bad]
        path = self.write(tmp_path / "bad.txt", "\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match=f"bad.txt:{len(lines)}: {message}"):
            read(path)


def _loop_written(header, pairs):
    """The bytes the TSV writers used to write, one f-string per line."""
    return (header + "".join(f"{i}\t{j}\n" for i, j in pairs)).encode("utf-8")


class TestWriteTsv:
    # 0-based ids 8/9 and 98/99 print as 9/10 and 99/100.
    BOUNDARY_EDGES = np.array([[0, 8], [0, 9], [8, 9], [9, 98], [9, 99], [98, 99], [99, 100]])

    @pytest.mark.parametrize("block_lines", [1 << 20, 7])
    def test_edges_match_a_line_loop_reference(self, tmp_path, monkeypatch, block_lines):
        monkeypatch.setattr(fileio, "_BLOCK_LINES", block_lines)
        dense = np.random.default_rng(4).random((1000, 1000)) < 0.003
        graphs = [
            SparseAdjacency(4),
            SparseAdjacency(101, self.BOUNDARY_EDGES),
            SparseAdjacency(1000, np.argwhere(np.triu(dense, k=1))),
        ]
        path = tmp_path / "edges.tsv"
        for adj in graphs:
            write_edges_tsv(path, adj)
            assert path.read_bytes() == _loop_written(f"# m={adj.m}\n", adj.edges + 1)

    @pytest.mark.parametrize("block_lines", [1 << 20, 7])
    def test_partition_matches_a_line_loop_reference(self, tmp_path, monkeypatch, block_lines):
        monkeypatch.setattr(fileio, "_BLOCK_LINES", block_lines)
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 101, size=150)
        labels[[8, 9, 98, 99]] = [9, 10, 99, 100]
        path = tmp_path / "part.tsv"
        for part in (Partition(np.array([1]), 1), Partition(labels, 100)):
            write_partition_tsv(path, part)
            nodes = np.arange(1, part.m + 1)
            expected = _loop_written(f"# K={part.K}\n", zip(nodes, part.labels))
            assert path.read_bytes() == expected


class TestEdgesTsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "edges.tsv"
        edges = np.array([[0, 3], [1, 2], [2, 4]], dtype=np.int64)
        adj = SparseAdjacency(6, edges)
        write_edges_tsv(path, adj)
        again = read_edges_tsv(path)
        assert again.m == 6
        assert np.array_equal(to_dense(again), to_dense(adj))

    def test_round_trip_empty_graph(self, tmp_path):
        path = tmp_path / "none.tsv"
        write_edges_tsv(path, SparseAdjacency(4))
        again = read_edges_tsv(path)
        assert again.m == 4
        assert again.edge_count == 0

    def test_skips_blank_lines_and_extra_comments(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# a note\n# m=3\n\n1\t2\n", encoding="utf-8")
        adj = read_edges_tsv(path)
        assert adj.m == 3
        assert adj.edge_count == 1

    def test_rejects_missing_node_count(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("1\t2\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="m="):
            read_edges_tsv(path)

    def test_rejects_zero_based_ids(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# m=3\n0\t1\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="1-based"):
            read_edges_tsv(path)

    def test_rejects_non_integer_ids(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# m=3\none\ttwo\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="non-integer"):
            read_edges_tsv(path)

    def test_rejects_single_column(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# m=3\n1\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="two ids"):
            read_edges_tsv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "# m=3\n \t \n1\t2\n  \n",  # whitespace-only lines
            "# m=3\r\n\r\n1\t2\r\n",  # CRLF line ends
            "# m=3\n1\t2\t0.75\tnote\n",  # fields past the second
            "# a note\n1\t2\n# m=2\n# m=3\n",  # header on a later comment, last wins
        ],
    )
    def test_accepted_layouts(self, tmp_path, text):
        path = tmp_path / "edges.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert read_edges_tsv(path) == SparseAdjacency(3, np.array([[0, 1]]))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# m=3\n\n# note\n\n1\t2\n3\tx\n", r":6: non-integer"),
            ("# m=3\n\n1\t2\n  \n# note\n3\n", r":6: expected two ids"),
            ("# m=3\n# note\n\n2\t0\n", r":4: ids are 1-based"),
            ("# m=3\n\n1\t2\n1\t2.0\n3\n", r":4: non-integer"),
        ],
    )
    def test_rejection_names_the_file_line(self, tmp_path, text, message):
        path = tmp_path / "edges.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match=f"edges.tsv{message}"):
            read_edges_tsv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# m=3\n1\t2\n\n2\t5\n", r":4: id above m=3"),
            ("# m=3\n1\t2\n# note\n3\t3\n2\t2\n", r":4: self loop"),
            ("# m=4\n1\t2\n3\t4\n\n1\t2\n", r":5: repeated edge"),
            ("# m=4\n1\t2\n3\t4\n4\t3\n", r":4: repeated edge"),
        ],
        ids=["id-above-m", "self-loop", "repeated-pair", "repeated-reversed-pair"],
    )
    def test_rejected_edge_names_the_file_line(self, tmp_path, text, message):
        path = tmp_path / "edges.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match=f"edges.tsv{message}"):
            read_edges_tsv(path)

    def test_rejected_node_count_names_the_file(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# m=0\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="edges.tsv: adjacency needs"):
            read_edges_tsv(path)

    def test_rejects_non_integer_node_count(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# m=abc\n1\t2\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="m="):
            read_edges_tsv(path)


class TestPartitionTsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "part.tsv"
        part = Partition(np.array([1, 2, 0, 2, 1]), 2)
        write_partition_tsv(path, part)
        assert read_partition_tsv(path) == part

    def test_rows_may_arrive_out_of_order(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("# K=2\n2\t2\n1\t1\n3\t0\n", encoding="utf-8")
        part = read_partition_tsv(path)
        assert np.array_equal(part.labels, [1, 2, 0])

    def test_rejects_missing_k(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("1\t1\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="K="):
            read_partition_tsv(path)

    def test_rejects_duplicate_node(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("# K=1\n1\t1\n1\t0\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="duplicate"):
            read_partition_tsv(path)

    def test_rejects_gaps_in_node_ids(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("# K=1\n1\t1\n3\t1\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="cover"):
            read_partition_tsv(path)

    def test_rejects_empty_body(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("# K=1\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="no nodes"):
            read_partition_tsv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "# K=2\n\t \n1\t2\n \n2\t0\n",  # whitespace-only lines
            "# K=2\r\n1\t2\r\n2\t0\r\n",  # CRLF line ends
            "# K=2\n1\t2\t0.5\n2\t0\tx\n",  # fields past the second
            "# note\n2\t0\n# K=1\n1\t2\n# K=2\n",  # header on a later comment, last wins
        ],
    )
    def test_accepted_layouts(self, tmp_path, text):
        path = tmp_path / "part.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert read_partition_tsv(path) == Partition(np.array([2, 0]), 2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# K=1\n\n1\t1\n# note\n\n1\t0\n", r":6: bad or duplicate"),
            ("# K=1\n\n  \n0\t1\n", r":4: bad or duplicate"),
            ("# K=1\n# note\n1\tone\n", r":3: non-integer"),
            ("# K=1\n1\t1\n\n2\n", r":4: expected node and label"),
        ],
    )
    def test_rejection_names_the_file_line(self, tmp_path, text, message):
        path = tmp_path / "part.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match=f"part.tsv{message}"):
            read_partition_tsv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# K=2\n1\t1\n\n2\t3\n3\t0\n", r":4: label outside 0..2"),
            ("# K=2\n# note\n1\t-1\n2\t1\n", r":3: label outside 0..2"),
        ],
        ids=["above-k", "negative"],
    )
    def test_rejected_label_names_the_file_line(self, tmp_path, text, message):
        path = tmp_path / "part.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match=f"part.tsv{message}"):
            read_partition_tsv(path)

    def test_rejects_non_integer_k(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("# K=x\n1\t1\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="K="):
            read_partition_tsv(path)


class TestSniffKind:
    @pytest.mark.parametrize(
        "text, kind",
        [("\n\n#  m=2\n1\t2\n", "adjacency"), ("# K=1\n1\t1\n", "partition")],
    )
    def test_first_header_decides_the_kind(self, tmp_path, text, kind):
        path = tmp_path / "f.tsv"
        path.write_text(text, encoding="utf-8")
        assert sniff_kind(path) == kind

    @pytest.mark.parametrize("text", ["1\t2\n# m=2\n", "# comment\n# K=1\n", ""])
    def test_rejects_a_file_not_opened_by_a_header(self, tmp_path, text):
        path = tmp_path / "raw.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match="header"):
            sniff_kind(path)


class TestIncidenceTsv:
    def test_builds_sorted_binary_matrix(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_text(
            "# entity\titem\nbeta\tz\nalpha\tx\nbeta\tx\nalpha\ty\n",
            encoding="utf-8",
        )
        incidence, entities, items = read_incidence_tsv(path)
        assert entities == ["alpha", "beta"]
        assert items == ["x", "y", "z"]
        assert np.array_equal(incidence, [[1, 1], [1, 0], [0, 1]])

    def test_repeated_pairs_stay_binary(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_text("a\tx\na\tx\n", encoding="utf-8")
        incidence, _, _ = read_incidence_tsv(path)
        assert np.array_equal(incidence, [[1]])

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="no incidence"):
            read_incidence_tsv(path)

    def test_rejects_single_column(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_text("lonely\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="entity and item"):
            read_incidence_tsv(path)

    def test_accepts_blank_lines_crlf_and_extra_fields(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_bytes(b"b\ty\t3\r\n \t \r\n\r\na\tx\tnote\r\n")
        incidence, entities, items = read_incidence_tsv(path)
        assert entities == ["a", "b"]
        assert items == ["x", "y"]
        assert np.array_equal(incidence, [[1, 0], [0, 1]])

    def test_rejection_names_the_file_line(self, tmp_path):
        path = tmp_path / "inc.tsv"
        path.write_text("# note\n\na\tx\n  \nlonely\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="inc.tsv:5: expected entity and item"):
            read_incidence_tsv(path)


class TestJsonFormats:
    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_json({"b": 1, "a": [1, 2], "c": None})
        assert text == '{"a":[1,2],"b":1,"c":null}'

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_mixture_fit_round_trip(self, tmp_path):
        path = tmp_path / "fit.json"
        fit = MixtureFit(
            w=np.array([0.1, 1.0]),
            a=np.array([0.5, 1.25]),
            loglik=np.array([-10.0, -2.5]),
            estimated_a=True,
        )
        write_mixture_fit_json(path, fit, {"threads": 2, "a": None})
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["estimated_a"] is True
        assert payload["w"] == [0.1, 1.0]
        assert payload["a"] == [0.5, 1.25]
        assert payload["loglik"] == [-10.0, -2.5]
        assert payload["threshold"] == [detection_threshold(0.1, 0.5), 0.0]
        assert payload["params"] == {"threads": 2, "a": None}

    def test_records_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [
            {"point": 0, "nmi": 0.25, "note": "first"},
            {"point": 1, "nmi": None, "error": "ValueError: x"},
        ]
        write_records_jsonl(path, records)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == records
        assert all(line == canonical_json(json.loads(line)) for line in lines)


class TestSummaryCsv:
    def test_none_becomes_empty_cell(self, tmp_path):
        path = tmp_path / "summary.csv"
        rows = [
            {"point": 0, "method": "threshold-spectral", "nmi_median": 0.5},
            {"point": 0, "method": "spectral-direct", "nmi_median": None},
        ]
        write_summary_csv(path, rows)
        with open(path, newline="", encoding="utf-8") as fh:
            got = list(csv.DictReader(fh))
        assert got[0]["nmi_median"] == "0.5"
        assert got[1]["nmi_median"] == ""
        assert list(got[0].keys()) == ["point", "method", "nmi_median"]

    def test_empty_rows_give_blank_file(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [])
        assert path.read_text(encoding="utf-8") == "\n"


class TestHashingAndManifest:
    def test_sha256_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        blob = bytes(range(256)) * 100
        path.write_bytes(blob)
        assert sha256_file(path) == hashlib.sha256(blob).hexdigest()

    def test_sha256_of_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        expected = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        assert sha256_file(path) == expected

    def test_manifest_contents(self, tmp_path):
        data = tmp_path / "in.csv"
        write_matrix_csv(data, np.eye(2))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        path = write_manifest(
            out_dir,
            command="infer",
            version="1.0.0",
            inputs={"scores": data},
            config={"a": 0.5},
            seed=7,
            timings={"total_s": 0.25},
        )
        assert path == out_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["command"] == "infer"
        assert manifest["inputs"]["scores"] == sha256_file(data)
        assert manifest["config"] == {"a": 0.5}
        assert manifest["seed"] == 7
        assert manifest["timings"] == {"total_s": 0.25}
