import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotdeconv.serialize import csv_text, dumps_json, format_float, write_text


class TestFormatFloat:
    def test_seventeen_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(-3.75) == "-3.75"

    def test_round_trips_exactly(self):
        for x in (0.1, 1 / 3, 1e-300, 123456.789, 2**-52):
            assert float(format_float(x)) == x

    def test_nonfinite(self):
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"
        assert format_float(float("nan")) == "nan"

    def test_negative_zero_and_numpy_scalars(self):
        assert format_float(-0.0) == "-0"
        assert format_float(np.float64(2.5)) == "2.5"
        assert format_float(np.float32(0.1)) == "0.10000000149011612"


class TestCsvText:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-(2**62), 2**62), st.floats(), st.floats(width=32)),
            max_size=30,
        )
    )
    def test_rows_match_format_float(self, rows):
        ints = [r[0] for r in rows]
        floats = np.array([r[1] for r in rows], dtype=float)
        singles = np.array([r[2] for r in rows], dtype=np.float32)
        expected = "a,b,c\n" + "".join(
            f"{i},{format_float(x)},{format_float(y)}\n" for i, x, y in zip(ints, floats, singles)
        )
        assert csv_text("a,b,c", ints, floats, singles) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats()
            | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                               2.2250738585072014e-308, 1.7976931348623157e308]),
            max_size=200,
        )
    )
    def test_each_cell_is_format_float(self, values):
        # the one-format route against format_float, value by value
        lines = csv_text("v", values).split("\n")
        assert lines[0] == "v" and lines[-1] == ""
        assert lines[1:-1] == [format_float(x) for x in values]

    def test_integer_extremes(self):
        ints = np.array([0, 2**64 - 1], dtype=np.uint64)
        assert csv_text("i,v", ints, [1.0, -2.0]) == "i,v\n0,1\n18446744073709551615,-2\n"
        ints = np.array([-(2**63), 2**63 - 1])
        assert csv_text("i", ints) == "i\n-9223372036854775808\n9223372036854775807\n"

    def test_header_only(self):
        assert csv_text("x,y", [], np.empty(0)) == "x,y\n"

    def test_integer_array_column(self):
        assert csv_text("i,v", np.arange(1, 3), [0.5, -0.0]) == "i,v\n1,0.5\n2,-0\n"


class TestDumpsJson:
    def test_scalars_and_nesting(self):
        text = dumps_json({"a": 1, "b": [0.5, None, True], "c": {"d": "x"}})
        assert text == (
            '{\n  "a": 1,\n  "b": [\n    0.5,\n    null,\n    true\n  ],\n'
            '  "c": {\n    "d": "x"\n  }\n}\n'
        )
        # valid JSON as far as the stdlib is concerned
        assert json.loads(text) == {"a": 1, "b": [0.5, None, True], "c": {"d": "x"}}

    def test_preserves_insertion_order(self):
        assert dumps_json({"z": 1, "a": 2}).index('"z"') < dumps_json({"z": 1, "a": 2}).index('"a"')

    def test_numpy_types(self):
        text = dumps_json({"i": np.int64(3), "f": np.float64(0.25), "arr": np.array([1.0, 2.0])})
        assert json.loads(text) == {"i": 3, "f": 0.25, "arr": [1.0, 2.0]}

    def test_nonfinite_as_strings(self):
        obj = json.loads(dumps_json({"x": float("inf"), "y": float("nan")}))
        assert obj == {"x": "inf", "y": "nan"}

    def test_empty_containers(self):
        assert dumps_json({}) == "{}\n"
        assert dumps_json([]) == "[]\n"

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_json({"x": object()})
        with pytest.raises(TypeError):
            dumps_json({1: "non-string key"})

    def test_deterministic(self):
        obj = {"floats": [0.1, 0.2, 0.3], "nested": {"k": 1e-7}}
        assert dumps_json(obj) == dumps_json(obj)


class TestWriteText:
    def test_fixed_newlines(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(str(path), "a\nb\n")
        assert path.read_bytes() == b"a\nb\n"
