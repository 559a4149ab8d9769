"""Dataset parser tests: golden round-trips and located failure modes.

Every malformed input must surface as a ParseError carrying the file path
and, where meaningful, the 1-based line of the offense; a raw traceback
out of float() or an index error counts as a bug.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from enum import Enum

import numpy as np
import pytest
from conftest import (MALFORMED_PTS, make_records, make_wflw_line,
                      malformed_canonical_docs, malformed_wflw_lines,
                      write_pts_file, write_pts_tree, write_wflw_file)
from hypothesis import given, settings
from hypothesis import strategies as st

from subpix.bench import BenchConfig, analytic_direct_error
from subpix.codec import CodecConfig, DecimalOverflow, EncodedSample, Scheme, ideal_roundtrip
from subpix.datasets import (ATTRIBUTE_NAMES, Corpus, canonical_dict, json_float, json_int,
                             json_pair, load_canonical, load_dataset, load_pts_dir, load_wflw,
                             parse_pts, parse_wflw_line, subset_counts, write_canonical)
from subpix.errors import ConfigError, ParseError, SchemaError
from subpix.geometry import crop_from_landmarks, heatmap_transform
from subpix.metrics import MetricsConfig

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
        # files load in path order; the error names the first whose count
        # differs from the first file's
        for name, corpus in [("a", corpus68), ("b", corpus68), ("c", corpus98), ("d", corpus68)]:
            write_pts_file(corpus.points[0], tmp_path / f"{name}.pts")
        with pytest.raises(ParseError) as err:
            load_pts_dir(tmp_path)
        assert err.value.path == str(tmp_path / "c.pts")
        assert str(err.value) == (f"{tmp_path / 'c.pts'}: 98 landmarks, but "
                                  f"{tmp_path / 'a.pts'} has 68")

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
        for field in fields(Corpus):
            np.testing.assert_array_equal(getattr(loaded, field.name),
                                          getattr(corpus98, field.name), err_msg=field.name)

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

    def test_column_shape_mismatch_rejected(self, corpus68):
        # a corpus's columns must agree on the face count
        with pytest.raises(ConfigError, match="corpus bbox of shape"):
            Corpus("d", corpus68.ids[:1], corpus68.image_paths[:1], corpus68.points[:1],
                   bbox=corpus68.bbox[:2])

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
        for case, field in [("boolean_bbox", "records[0].bbox"),
                            ("degenerate_bbox", "records[0].bbox"),
                            ("flat_bbox", "records[0].bbox"),
                            ("huge_bbox_integer", "records[0].bbox"),
                            ("triple_points", "records[0].points"),
                            ("string_flag", "records[0].attributes.pose"),
                            ("numeric_flag", "records[0].attributes.blur")]:
            f.write_text(cases[case])
            with pytest.raises(SchemaError) as err:
                load_canonical(f)
            assert err.value.field == field, case


class TestJsonInt:
    @pytest.mark.parametrize("value,least", [(1, 1), (0, 0), (64, 2), (10 ** 30, 1)])
    def test_integer_at_least_accepted(self, value, least):
        assert json_int(value, "n", least) == value

    @pytest.mark.parametrize("value,least", [(True, 1), (False, 0), (64.0, 1), ("64", 1),
                                             (None, 0), ([1], 0), (0, 1), (-5, 0), (1, 2)])
    def test_other_values_refused(self, value, least):
        with pytest.raises(SchemaError) as err:
            json_int(value, "n", least)
        assert err.value.field == "n"
        assert str(err.value) == (f"field 'n': must be an integer of at least {least}, "
                                  f"got {value!r}")


class TestJsonFloat:
    @pytest.mark.parametrize("value", [0, 0.25, 7, 1e308, np.float32(0.5), np.int64(3),
                                       np.longdouble(2.5)])
    def test_number_in_range_accepted_as_a_float(self, value):
        out = json_float(value, "x", 0)
        assert out == value and type(out) is float

    @pytest.mark.parametrize("value", [True, False, "0.5", None, [1.0], math.nan, math.inf,
                                       -math.inf, 10 ** 400, -1, np.float64(np.nan),
                                       np.longdouble("1e400"), np.bool_(True), 1 + 0j])
    def test_other_values_refused(self, value):
        with pytest.raises(SchemaError) as err:
            json_float(value, "x", 0)
        assert str(err.value) == f"field 'x': must be a finite number of at least 0, got " \
                                 f"{value.item() if isinstance(value, np.number) else value!r}"

    def test_bounds_are_inclusive_and_named(self):
        assert json_float(1e-150, "x", 1e-150, 1e150) == 1e-150
        assert json_float(1e150, "x", 1e-150, 1e150) == 1e150
        # an int is compared with a bound exactly, not rounded to a double first
        # (2^53 + 1 rounds to 2^53)
        with pytest.raises(SchemaError, match=r"^field 'x': must be a finite number in "
                                              r"\[0, 9007199254740992.0\], got 9007199254740993$"):
            json_float(2 ** 53 + 1, "x", 0, 2.0 ** 53)


class TestJsonPair:
    def test_pair_of_integers_accepted(self):
        assert json_pair([3, np.uint8(4)], "p", 1) == (3, 4)
        assert all(type(v) is int for v in json_pair(np.array([3, 4]), "p", 1))

    @pytest.mark.parametrize("value", [None, 5, (1, 2, 3), [1], "abc", {"w": 1}])
    def test_non_pairs_refused(self, value):
        with pytest.raises(SchemaError, match="^field 'p': expected a pair: "):
            json_pair(value, "p", 1)

    @pytest.mark.parametrize("value,bad", [((1.5, 2), 1.5), ((2, True), True), ("12", "1"),
                                           ((0, 2), 0)])
    def test_sides_follow_the_integer_rule(self, value, bad):
        with pytest.raises(SchemaError) as err:
            json_pair(value, "p", 1)
        assert str(err.value) == f"field 'p': must be an integer of at least 1, got {bad!r}"


class TestChoice:
    @pytest.mark.parametrize("enum", [Scheme, DecimalOverflow])
    @pytest.mark.parametrize("value", ["bogus", "HIH", None, 1, ["hih"], {"carry": 1}])
    def test_unknown_value_refused_at_the_enum_field(self, enum, value):
        field = {Scheme: "scheme", DecimalOverflow: "decimal_overflow"}[enum]
        with pytest.raises(SchemaError) as err:
            enum(value)
        known = ", ".join(m.value for m in enum)
        assert err.value.field == field
        assert str(err.value) == f"field '{field}': unknown {enum.__name__} {value!r} " \
                                 f"(known: {known})"

    def test_members_and_values_accepted(self):
        assert Scheme("wov") is Scheme(Scheme.WOV) is Scheme.WOV
        assert DecimalOverflow("clamp") is DecimalOverflow.CLAMP


def _hostile(valid):
    """Values of every wrong kind for a setting whose valid value is ``valid``,
    and numpy scalars of any value."""
    return st.one_of(
        st.sampled_from([str(valid), True, False, None, math.nan, math.inf, -math.inf,
                         10 ** 400, [valid], (valid, valid, valid)]),
        st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
        st.floats().map(np.float64))


def _is_float(v):
    return type(v) is float


def _is_int(v):
    return type(v) is int


def _is_pair(v):
    return type(v) is tuple and len(v) == 2 and all(map(_is_int, v))


def _is_member(v):
    return isinstance(v, Enum)


def _returned(v):
    return True


_CROP = crop_from_landmarks([[0.0, 0.0], [10.0, 10.0]])
_FOUR = np.array([[10.25, 11.75], [10.75, 11.25], [10.5, 11.5], [30.5, 2.5]])


def _codec(key):
    return lambda v: getattr(CodecConfig(**{"scheme": Scheme.HIH, key: v}), key)


def _bench(key, **rest):
    return lambda v: getattr(BenchConfig(**{**rest, key: v}), key)


def _metrics(key):
    return lambda v: getattr(MetricsConfig(**{key: v}), key)


def _sample(scheme):
    return EncodedSample(scheme=scheme, heatmap_shape=(4, 4), integer_maps=np.zeros((1, 4, 4)),
                         clamped=[False]).scheme


# each scalar a caller sets: how to set it, a valid value, the check of what is
# kept, and the fields a refusal may name (an enum's own, for a bad member)
_SETTINGS = {
    "CodecConfig.scheme": (_codec("scheme"), "hih", _is_member, ("scheme",)),
    "CodecConfig.heatmap_shape": (_codec("heatmap_shape"), (64, 64), _is_pair,
                                  ("heatmap_shape",)),
    "CodecConfig.decimal_shape": (_codec("decimal_shape"), (8, 8), _is_pair, ("decimal_shape",)),
    "CodecConfig.sigma_integer": (_codec("sigma_integer"), 1.5, _is_float, ("sigma_integer",)),
    "CodecConfig.sigma_decimal": (_codec("sigma_decimal"), 1.0, _is_float, ("sigma_decimal",)),
    "CodecConfig.decimal_overflow": (_codec("decimal_overflow"), "carry", _is_member,
                                     ("decimal_overflow",)),
    "BenchConfig.schemes": (_bench("schemes"), ("direct", "wov"),
                            lambda v: type(v) is tuple and all(map(_is_member, v)),
                            ("schemes", "scheme")),
    "BenchConfig.crop_margin": (_bench("crop_margin"), 0.25, _is_float, ("crop_margin",)),
    "BenchConfig.crop_source": (_bench("crop_source"), "bbox", lambda v: type(v) is str,
                                ("crop_source",)),
    "BenchConfig.bbox_inclusive": (_bench("bbox_inclusive"), True, lambda v: type(v) is bool,
                                   ("bbox_inclusive",)),
    "BenchConfig.seed": (_bench("seed"), 1, _is_int, ("seed",)),
    "BenchConfig.mc_samples": (_bench("mc_samples"), 1000, _is_int, ("mc_samples",)),
    # one sample at a time, so that no landmark count makes too large a draw
    "BenchConfig.mc_landmarks": (_bench("mc_landmarks", mc_samples=1), 4, _is_int,
                                 ("mc_landmarks",)),
    "BenchConfig.mc_n": (_bench("mc_n"), 4.0, _is_float, ("mc_n",)),
    "MetricsConfig.norm_indices": (_metrics("norm_indices"), (60, 72),
                                   lambda v: v is None or _is_pair(v),
                                   ("norm_indices",)),
    "MetricsConfig.threshold": (_metrics("threshold"), 0.1, _is_float, ("threshold",)),
    "EncodedSample.scheme": (_sample, "direct", _is_member, ("scheme",)),
    "ideal_roundtrip.group_size": (
        lambda v: ideal_roundtrip(_FOUR, CodecConfig(scheme=Scheme.WOM), group_size=v)[2],
        2, _is_int, ("group_size",)),
    "heatmap_transform.shape": (lambda v: heatmap_transform(_CROP, v), (64, 64), _returned,
                                ("heatmap_shape",)),
    "analytic_direct_error.n": (analytic_direct_error, 4.0, _is_float, ("n",)),
}


class TestHostileScalars:
    """Every scalar a caller sets, drawn from values of the wrong kind: each
    is taken and kept as a Python int, float, bool or enum member, or refused
    with a ConfigError that names its field, and never with another error."""

    @pytest.mark.parametrize("name", sorted(_SETTINGS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_taken_as_plain_or_refused_at_its_field(self, name, data):
        setter, valid, kept, fields_named = _SETTINGS[name]
        values = _hostile(valid)
        if isinstance(valid, tuple):
            values |= st.tuples(_hostile(valid[0]), _hostile(valid[1]))
        value = data.draw(values, label=name)
        try:
            out = setter(value)
        except ConfigError as exc:
            assert any(str(exc).startswith(f"field '{f}': ") for f in fields_named), exc
        else:
            assert kept(out), (value, out)

    @pytest.mark.parametrize("name", sorted(_SETTINGS))
    def test_valid_value_taken(self, name):
        setter, valid, kept, _ = _SETTINGS[name]
        assert kept(setter(valid))


class TestLocationSetLate:
    def test_path_set_after_the_raise_is_printed(self):
        exc = SchemaError("must be a string", field="dataset")
        assert str(exc) == "field 'dataset': must be a string"
        exc.path = "c.json"
        assert str(exc) == "c.json: field 'dataset': must be a string"
        exc.line = 3
        assert str(exc) == "c.json:3: field 'dataset': must be a string"

    def test_line_without_path(self):
        assert str(ParseError("bad", line=4)) == "line 4: bad"


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
