"""Dataset parser tests: golden round-trips and located failure modes.

Every malformed input must surface as a ParseError carrying the file path
and, where meaningful, the 1-based line of the offense; a raw traceback
out of float() or an index error counts as a bug.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import (MALFORMED_PTS, make_records, make_wflw_line,
                      malformed_canonical_docs, malformed_wflw_lines,
                      write_pts_file, write_pts_tree, write_wflw_file)

from subpix.datasets import (ATTRIBUTE_NAMES, Corpus, canonical_dict, load_canonical,
                             load_dataset, load_pts_dir, load_wflw, parse_pts,
                             parse_wflw_line, subset_counts, write_canonical)
from subpix.errors import ConfigError, ParseError, SchemaError

GOLDEN_PTS = "version: 1\nn_points: 3\n{\n10.5 20.5\n1.0 1.0\n300.25 4.75\n}\n"


class TestParsePts:
    def test_golden_values_shifted_to_zero_based(self):
        pts = parse_pts(GOLDEN_PTS)
        assert pts.dtype == np.float64
        np.testing.assert_array_equal(pts, [[9.5, 19.5], [0.0, 0.0], [299.25, 3.75]])

    def test_crlf_line_endings(self):
        assert parse_pts(GOLDEN_PTS.replace("\n", "\r\n"))[0, 0] == 9.5

    def test_blank_lines_and_padding_tolerated(self):
        text = "\nversion: 1\n\n  n_points: 1\n{\n\n  7.0 8.0\n}\n\n"
        np.testing.assert_array_equal(parse_pts(text), [[6.0, 7.0]])

    def test_header_without_space(self):
        assert parse_pts("version:1\nn_points:1\n{\n1.0 1.0\n}\n").shape == (1, 2)

    @pytest.mark.parametrize("name,text", MALFORMED_PTS,
                             ids=[n for n, _ in MALFORMED_PTS])
    def test_malformed_is_located(self, name, text):
        with pytest.raises(ParseError) as err:
            parse_pts(text, path="bad.pts")
        assert "bad.pts" in str(err.value)
        assert err.value.line is not None and err.value.line >= 1

    def test_error_without_path_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_pts("version: 2\n")
        assert "line 1" in str(err.value)


class TestPtsFiles:
    def test_file_round_trip(self, tmp_path, corpus68):
        points = corpus68.points[0]
        f = tmp_path / "face_0001.pts"
        write_pts_file(points, f)
        _, loaded = load_pts_dir(tmp_path)
        assert list(loaded.ids) == ["face_0001"]
        assert list(loaded.image_paths) == ["face_0001.pts"]
        assert np.isnan(loaded.bbox).all() and np.isnan(loaded.attributes).all()
        assert loaded.valid.all()
        # the loader applies exactly a -1.0 shift to the parsed values
        np.testing.assert_array_equal(loaded.points[0], (points + 1.0) - 1.0)
        np.testing.assert_allclose(loaded.points[0], points, atol=1e-9)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_pts_dir(tmp_path / "nope")
        assert "nope" in str(err.value)

    def test_dir_walk_sorted_relative_ids(self, tmp_path, corpus68):
        renamed = Corpus("d", ["b/002", "a/010", "a/001"], ["x.png"] * 3,
                         corpus68.points[:3])
        write_pts_tree(renamed, tmp_path)
        _, loaded = load_pts_dir(tmp_path)
        assert loaded.name == tmp_path.name
        assert loaded.points.shape == (3, 68, 2)
        assert list(loaded.ids) == ["a/001", "a/010", "b/002"]

    def test_dir_rejects_mixed_layouts(self, tmp_path, corpus68, corpus98):
        write_pts_file(corpus68.points[0], tmp_path / "a.pts")
        write_pts_file(corpus98.points[0], tmp_path / "b.pts")
        with pytest.raises(ParseError) as err:
            load_pts_dir(tmp_path)
        assert "68" in str(err.value) and "98" in str(err.value)

    def test_dir_without_pts_files(self, tmp_path):
        with pytest.raises(ParseError):
            load_pts_dir(tmp_path)
        with pytest.raises(ParseError):
            load_pts_dir(tmp_path / "missing")


class TestWflw:
    def test_golden_round_trip(self, tmp_path, corpus98):
        f = tmp_path / "list.txt"
        write_wflw_file(corpus98, f)
        _, loaded = load_wflw(f)
        assert loaded.name == "list"
        assert loaded.points.shape == (len(corpus98), 98, 2)
        np.testing.assert_array_equal(loaded.points, corpus98.points)
        np.testing.assert_array_equal(loaded.bbox, corpus98.bbox)
        np.testing.assert_array_equal(loaded.attributes, corpus98.attributes)
        assert loaded.valid.all()
        assert list(loaded.image_paths) == list(corpus98.image_paths)
        for lineno, face_id in enumerate(loaded.ids, start=1):
            assert face_id.startswith(f"{lineno:06d}_")

    def test_blank_lines_skipped(self, tmp_path, corpus98):
        f = tmp_path / "gappy.txt"
        lines = (tmp_path / "dense.txt", f)
        write_wflw_file(corpus98[:3], lines[0])
        f.write_text("\n" + lines[0].read_text().replace("\n", "\n\n"))
        _, loaded = load_wflw(f)
        assert len(loaded) == 3
        assert loaded.ids[0].startswith("000002_")

    def test_ids_unique_for_duplicate_paths(self):
        line = make_wflw_line()
        a = parse_wflw_line(line, lineno=1)
        b = parse_wflw_line(line, lineno=2)
        assert a[0] != b[0]

    @pytest.mark.parametrize("name,line", malformed_wflw_lines(),
                             ids=[n for n, _ in malformed_wflw_lines()])
    def test_malformed_is_located(self, name, line):
        with pytest.raises(ParseError) as err:
            parse_wflw_line(line, lineno=17, path="list.txt")
        assert "list.txt:17" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("\n\n")
        with pytest.raises(ParseError):
            load_wflw(f)


class TestCanonical:
    def test_round_trip_with_extras(self, tmp_path, corpus98):
        f = tmp_path / "c.json"
        write_canonical(f, corpus98)
        _, loaded = load_canonical(f)
        assert loaded.name == "synthetic"
        assert loaded.points.shape == corpus98.points.shape
        assert list(loaded.ids) == list(corpus98.ids)
        for name in ("points", "valid", "bbox", "attributes"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(corpus98, name))

    def test_round_trip_without_extras(self, tmp_path, corpus68):
        bare = Corpus("bare", corpus68.ids, corpus68.image_paths, corpus68.points)
        f = tmp_path / "bare.json"
        write_canonical(f, bare)
        assert all(r["bbox"] is None and r["attributes"] is None
                   for r in json.loads(f.read_text())["records"])
        _, loaded = load_canonical(f)
        assert np.isnan(loaded.bbox).all() and np.isnan(loaded.attributes).all()

    def test_write_is_deterministic(self, tmp_path, corpus68):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_canonical(a, corpus68)
        write_canonical(b, corpus68)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_records_rejected(self, corpus68):
        with pytest.raises(ConfigError):
            canonical_dict(corpus68[:0])

    def test_mixed_layout_rejected(self, corpus68, corpus98):
        # a corpus holds one layout: its columns must agree on the landmark count
        with pytest.raises(ConfigError):
            Corpus("d", corpus68.ids[:1], corpus68.image_paths[:1], corpus68.points[:1],
                   valid=corpus98.valid[:1])

    @pytest.mark.parametrize("name,text", malformed_canonical_docs(),
                             ids=[n for n, _ in malformed_canonical_docs()])
    def test_malformed_is_located(self, name, text, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(text)
        with pytest.raises(ParseError) as err:
            load_canonical(f)
        assert "bad.json" in str(err.value)

    def test_schema_error_names_field(self, tmp_path):
        cases = dict(malformed_canonical_docs())
        f = tmp_path / "dup.json"
        f.write_text(cases["duplicate_id"])
        with pytest.raises(SchemaError) as err:
            load_canonical(f)
        assert err.value.field == "records[1].id"
        f.write_text(cases["non_numeric_points"])
        with pytest.raises(SchemaError) as err:
            load_canonical(f)
        assert err.value.field == "records[0].points"


class TestLoadDataset:
    def test_dispatch(self, tmp_path, corpus98, corpus68):
        wflw = tmp_path / "list.txt"
        write_wflw_file(corpus98, wflw)
        tree = tmp_path / "tree"
        tree.mkdir()
        write_pts_tree(corpus68[:3], tree)
        canon = tmp_path / "c.json"
        write_canonical(canon, corpus68)

        assert load_dataset(f"wflw:{wflw}")[1].points.shape[1] == 98
        assert load_dataset(f"pts:{tree}")[1].points.shape[1] == 68
        assert load_dataset(f"json:{canon}")[1].points.shape[1] == 68

    def test_bad_specs_rejected(self):
        for spec in ("noformat", "bogus:x", "wflw:", ":path"):
            with pytest.raises(ConfigError):
                load_dataset(spec)


class TestSubsetCounts:
    def test_hand_built_flags(self):
        nan = np.nan
        corpus = Corpus("d", ["a", "b", "c"], ["a", "b", "c"], np.zeros((3, 2, 2)),
                        attributes=[[1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1], [nan] * 6])
        assert subset_counts(corpus) == {"pose": 1, "expression": 0,
                                         "illumination": 0, "make_up": 0,
                                         "occlusion": 0, "blur": 2}

    def test_counts_cover_all_flags(self, corpus98):
        counts = subset_counts(corpus98)
        assert set(counts) == set(ATTRIBUTE_NAMES)
        want = {name: sum(1 for flags in corpus98.attributes if flags[k] == 1)
                for k, name in enumerate(ATTRIBUTE_NAMES)}
        assert counts == want
