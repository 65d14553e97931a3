"""Tests for config handling, binary frames, signal/CSV files, and SVG rendering."""

import hashlib
import json
import re
import struct
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowbridge.config import apply_overrides, dump_config, load_config
from flowbridge.exceptions import CheckpointError, ConfigError, CsvFormatError, ValidationError
from flowbridge.nn import ModelConfig, VectorFieldModel, load_checkpoint, save_checkpoint
from flowbridge.signalio import format_value, load_signals, read_csv, save_signals, write_csv
from flowbridge.svgplot import PALETTE, SvgFigure

from conftest import FRAME_FAULTS


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = {"task": {"family": "two_moons"}, "seed": 3}
        p = tmp_path / "cfg.json"
        dump_config(cfg, p)
        assert load_config(p) == cfg

    def test_rejects_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_rejects_non_object(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_overrides_parse_json_values(self):
        cfg = {"train": {"lr": 1e-4}}
        out = apply_overrides(cfg, ["train.lr=0.001", "train.iterations=500", "task.family=two_moons"])
        assert out["train"]["lr"] == 0.001
        assert out["train"]["iterations"] == 500
        assert out["task"]["family"] == "two_moons"
        # original untouched
        assert cfg["train"]["lr"] == 1e-4

    def test_override_booleans_and_null(self):
        out = apply_overrides({}, ["a.flag=true", "a.other=null"])
        assert out["a"]["flag"] is True
        assert out["a"]["other"] is None

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["broken"])

    def test_override_through_scalar_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides({"a": 3}, ["a.b=1"])


def _signal_frame(header: bytes, payload: bytes = bytes(64)) -> bytes:
    return b"FBSIGNAL" + struct.pack("<II", 1, len(header)) + header + payload


class TestSignalFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 64)).astype(np.float32)
        p = tmp_path / "sig.fbs"
        save_signals(p, x, fs=8000.0)
        y, fs = load_signals(p)
        assert np.array_equal(x, y)
        assert fs == 8000.0

    def test_header_contents(self, tmp_path):
        p = tmp_path / "sig.fbs"
        x = np.arange(16, dtype=np.float32).reshape(2, 8)
        save_signals(p, x, fs=4000.0)
        raw = p.read_bytes()
        version, header_len = struct.unpack_from("<II", raw, 8)
        assert raw[:8] == b"FBSIGNAL" and version == 1
        assert json.loads(raw[16 : 16 + header_len]) == {"fs": 4000.0, "shape": [2, 8]}
        # The payload starts at byte 16 + header length.
        assert np.array_equal(np.fromfile(p, "<f4", offset=16 + header_len).reshape(2, 8), x)
        assert [f.name for f in tmp_path.iterdir()] == ["sig.fbs"]

    def test_size_mismatch_detected(self, tmp_path):
        p = tmp_path / "sig.fbs"
        save_signals(p, np.zeros((2, 8), dtype=np.float32))
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(ValidationError):
            load_signals(p)

    @pytest.mark.parametrize(
        "header",
        [
            '{"shape": [2, 8', '{"fs": 8000.0}', '[2, 8]', '{"shape": "2x8"}',
            '{"shape": [-2, -8]}', '{"shape": [0, 8]}',
            '{"shape": [2, 8], "fs": "abc"}', '{"shape": [2, 8], "fs": -5.0}',
            '{"shape": [2, 8], "fs": true}', '{"shape": [2, 8], "fs": NaN}',
        ],
        ids=[
            "truncated_json", "no_shape", "not_object", "shape_string", "negative_dims",
            "zero_rows", "fs_string", "fs_negative", "fs_bool", "fs_nan",
        ],
    )
    def test_corrupt_sidecar(self, tmp_path, header):
        """Each check the two-file format made on its `.fbs.json` sidecar, made on the header."""
        p = tmp_path / "sig.fbs"
        p.write_bytes(_signal_frame(header.encode()))
        with pytest.raises(
            ValidationError, match="corrupt header|header must be|expected .B, N. signals|fs must be"
        ):
            load_signals(p)

    def test_save_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValidationError, match=r"expected \(B, N\) signals"):
            save_signals(tmp_path / "sig.fbs", np.zeros(8, dtype=np.float32))

    def test_save_rejects_an_empty_batch(self, tmp_path):
        p = tmp_path / "sig.fbs"
        with pytest.raises(ValidationError, match=r"expected \(B, N\) signals"):
            save_signals(p, np.zeros((0, 8), dtype=np.float32))
        assert not p.exists()

    @pytest.mark.parametrize(
        "values", [[[1e39, 0.0]], [[np.nan, 0.0]], [[0.0, -np.inf]]],
        ids=["past_float32", "nan", "inf"],
    )
    def test_save_refuses_a_value_not_finite_in_float32(self, tmp_path, values):
        p = tmp_path / "sig.fbs"
        with pytest.raises(ValidationError, match=re.escape(f"{p}: signal values must be finite")):
            save_signals(p, np.array(values, dtype=np.float64))
        assert not p.exists()

    @pytest.mark.parametrize(
        "fs",
        [np.nan, np.inf, -8000.0, 0.0, True, "8000", np.bool_(True)],
        ids=["nan", "inf", "negative", "zero", "bool", "string", "numpy_bool"],
    )
    def test_save_refuses_an_fs_the_loader_refuses(self, tmp_path, fs):
        p = tmp_path / "sig.fbs"
        with pytest.raises(ValidationError, match="fs must be null or a finite number > 0"):
            save_signals(p, np.zeros((2, 8), dtype=np.float32), fs=fs)
        assert not p.exists()

    @pytest.mark.parametrize(
        "fs", [np.float32(8000), np.float64(8000.5), np.int64(8000)],
        ids=["float32", "float64", "int64"],
    )
    def test_save_stores_a_numpy_real_as_float(self, tmp_path, fs):
        p = tmp_path / "sig.fbs"
        save_signals(p, np.zeros((2, 8), dtype=np.float32), fs=fs)
        _, loaded = load_signals(p)
        assert type(loaded) is float and loaded == float(fs)

    def test_fs_past_the_float_range(self, tmp_path):
        # A JSON integer past the float range is a finite number; 1e400 parses as inf.
        p = tmp_path / "sig.fbs"
        p.write_bytes(_signal_frame(b'{"fs": 1' + b"0" * 400 + b', "shape": [2, 8]}'))
        assert load_signals(p)[1] == 10**400
        p.write_bytes(_signal_frame(b'{"fs": 1e400, "shape": [2, 8]}'))
        with pytest.raises(ValidationError, match="fs must be"):
            load_signals(p)

    def test_old_two_file_payload_refused(self, tmp_path):
        # A raw float32 payload with its `.fbs.json` sidecar, as written before the one-file format.
        p = tmp_path / "old.fbs"
        p.write_bytes(np.zeros((2, 8), dtype="<f4").tobytes())
        (tmp_path / "old.fbs.json").write_text('{"dtype": "float32", "fs": null, "shape": [2, 8]}')
        with pytest.raises(ValidationError, match=re.escape(f"{p}: bad magic bytes")):
            load_signals(p)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pos=st.integers(0, 10**4), truncate=st.booleans(), byte=st.integers(0, 255))
    @example(pos=110, truncate=True, byte=0)
    def test_fuzzed_payload_raises_only_validation_errors(self, pos, truncate, byte):
        x = np.arange(16, dtype=np.float32).reshape(2, 8)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "sig.fbs"
            save_signals(p, x, fs=8000.0)
            raw = bytearray(p.read_bytes())
            pos %= len(raw)
            payload_start = len(raw) - x.nbytes
            if truncate:
                del raw[pos:]
            else:
                raw[pos] = byte
            p.write_bytes(bytes(raw))
            try:
                y, _ = load_signals(p)
            except ValidationError:
                assert truncate or pos < payload_start
            else:
                assert not truncate and y.shape == x.shape


@pytest.mark.parametrize("fault", list(FRAME_FAULTS))
@pytest.mark.parametrize("fmt", ["fbs", "fbc"])
def test_frame_fault_refused_by_its_loader(tmp_path, fmt, fault):
    path = tmp_path / f"file.{fmt}"
    if fmt == "fbs":
        save_signals(path, np.zeros((2, 8), dtype=np.float32), fs=8000.0)
        load, error = load_signals, ValidationError
    else:
        model = VectorFieldModel(ModelConfig(signal_length=2, hidden=4, depth=1),
                                 np.random.default_rng(0))
        save_checkpoint(path, model, extra={"seed": 0})
        load, error = load_checkpoint, CheckpointError
    path.write_bytes(FRAME_FAULTS[fault](path.read_bytes()))
    with pytest.raises(error, match=re.escape(str(path))):
        load(path)


class TestCsv:
    def test_floats_round_trip_exactly(self, tmp_path):
        p = tmp_path / "t.csv"
        vals = [np.float32(1) / np.float32(3), np.float64(np.pi), 0.1]
        write_csv(p, ["a", "b", "c"], [vals])
        header, rows = read_csv(p)
        assert header == ["a", "b", "c"]
        assert float(rows[0][0]) == float(vals[0])
        assert float(rows[0][1]) == vals[1]
        assert float(rows[0][2]) == 0.1

    def test_format_value(self):
        assert format_value(np.int64(4)) == "4"
        assert format_value("x") == "x"
        assert float(format_value(np.float32(0.1))) == float(np.float32(0.1))

    def test_ragged_write_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_csv(tmp_path / "r.csv", ["a", "b"], [[1]])

    def test_ragged_read_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p)
        assert exc.value.line == 3

    def test_non_utf8_read_names_line(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("a,b\n1,2\ncaf\u00e9,3\n".encode("latin-1"))
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p)
        assert exc.value.line == 3 and str(p) in str(exc.value)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        assert read_csv(p) == (["a", "b"], [["1", "2"]])

    def test_bad_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfa,b\n1,\xff\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p)
        assert exc.value.line == 2

    def test_blank_rows_are_skipped(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_bytes(b"a,b\n1,2\n\n3,4\n")
        assert read_csv(p) == (["a", "b"], [["1", "2"], ["3", "4"]])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError):
            read_csv(p)


class TestSvgFigure:
    def _figure(self):
        fig = SvgFigure(title="loss < curve", xlabel="iteration", ylabel="loss")
        xs = np.arange(10)
        fig.line(xs, np.exp(-xs / 3.0), label="a & b")
        fig.band(xs, np.exp(-xs / 3.0) - 0.05, np.exp(-xs / 3.0) + 0.05)
        fig.line(xs, np.exp(-xs / 2.0), label='"fast" > slow')
        return fig

    def test_renders_well_formed_xml(self):
        root = ET.fromstring(self._figure().render())
        assert root.tag.endswith("svg")

    def test_contains_expected_elements(self):
        svg = self._figure().render()
        assert "<polyline" in svg
        assert "<polygon" in svg
        assert "loss &lt; curve" in svg
        assert "a &amp; b" in svg
        # text content escapes & < > only; quotes stay as they are
        assert '"fast" &gt; slow' in svg
        # an uncoloured band takes the colour of the line drawn after it
        ns = {"s": "http://www.w3.org/2000/svg"}
        root = ET.fromstring(svg)
        lines = root.findall(".//s:polyline", ns)
        assert root.find(".//s:polygon", ns).get("fill") == lines[1].get("stroke") == PALETTE[1]

    def test_coordinates_stay_in_viewport(self):
        svg = self._figure().render()
        root = ET.fromstring(svg)
        ns = {"s": "http://www.w3.org/2000/svg"}
        for poly in root.findall(".//s:polyline", ns):
            coords = [float(v) for pair in poly.get("points").split() for v in pair.split(",")]
            assert all(-1 <= c <= 641 for c in coords[::2])
            assert all(-1 <= c <= 421 for c in coords[1::2])

    def test_deterministic_output(self):
        assert self._figure().render() == self._figure().render()

    def test_save(self, tmp_path):
        p = tmp_path / "fig.svg"
        self._figure().save(p)
        assert p.read_text().startswith("<svg")

    def test_empty_figure_rejected(self):
        with pytest.raises(ValidationError):
            SvgFigure().render()

    @pytest.mark.parametrize("xs,ys", [([0, 1], [0, 1, 2]), ([], [])], ids=["mismatched", "empty"])
    def test_series_arrays_must_match(self, xs, ys):
        with pytest.raises(ValidationError, match="series needs matching non-empty arrays"):
            SvgFigure().line(xs, ys)

    def test_non_finite_rejected(self):
        fig = SvgFigure()
        with pytest.raises(ValidationError):
            fig.line([0, 1], [0, np.nan])

    @pytest.mark.parametrize("hi", [np.nan, np.inf])
    def test_band_upper_edge_checked(self, hi):
        fig = SvgFigure()
        with pytest.raises(ValidationError, match="non-finite"):
            fig.band([0, 1], [0.0, 0.0], [1.0, hi])

    @pytest.mark.parametrize(
        "ys",
        [(-1e308, 1e308), (0.0, 1.7e308), (0.0, 5e-324)],
        ids=["span-overflows", "padded-top-overflows", "step-underflows"],
    )
    def test_undrawable_axis_rejected(self, ys):
        for xs, y in (([0, 1], ys), (ys, [0, 1])):
            fig = SvgFigure()
            fig.line(xs, y)
            with pytest.raises(ValidationError, match="cannot draw an axis"):
                fig.render()

    def test_constant_series_renders(self):
        fig = SvgFigure()
        fig.line([0, 1, 2], [1.0, 1.0, 1.0])
        ET.fromstring(fig.render())

    @pytest.mark.parametrize("vertical", [False, True])
    def test_ticks_below_the_axis_spacing_drawn_once(self, vertical):
        # A 0.5 step on an axis at 2**52 rounds ticks onto the same float.
        v = [2.0**52 + 1] * 2
        fig = SvgFigure()
        fig.line(*((v, [0, 1]) if vertical else ([0, 1], v)))
        root = ET.fromstring(fig.render())
        lines = [e.attrib for e in root.iter("{http://www.w3.org/2000/svg}line")]
        # x ticks run down from the frame's bottom; y ticks left from its left edge.
        ticks = [(a["x1"], a["y1"]) for a in lines if (a["x1"] != a["x2"]) != vertical]
        assert ticks and len(set(ticks)) == len(ticks), ticks

    @pytest.mark.parametrize("v", [1e17, -1e17, 1e300, 1.7e308])
    def test_constant_far_from_zero_renders(self, v):
        # Past about 2**53 a widening by 0.5 rounds away; the axis spans v +- |v|/2e4.
        for xs, ys in (([0, 1], [v, v]), ([v, v], [0, 1])):
            fig = SvgFigure()
            fig.line(xs, ys)
            ET.fromstring(fig.render())

    @pytest.mark.parametrize(
        "v",
        [[1e15 + 1, 1e15 + 2], [1e6, 1e6], [123456.1, 123456.2]],
        ids=["narrow-at-1e15", "constant-1e6", "narrow-at-123456"],
    )
    def test_tick_labels_read_apart(self, v):
        ns = {"s": "http://www.w3.org/2000/svg"}
        for xs, ys in (([0, 1], v), (v, [0, 1])):
            fig = SvgFigure()
            fig.line(xs, ys)
            root = ET.fromstring(fig.render())
            for anchor in ("middle", "end"):  # x tick labels, y tick labels
                labels = [t.text for t in root.findall(".//s:text", ns)
                          if t.get("font-size") == "11" and t.get("text-anchor") == anchor]
                assert labels and len(set(labels)) == len(labels), labels


def _eval_shaped_figure():
    # eval's curvature figure: per run a p25-p75 band, then its labelled mean line.
    fig = SvgFigure(title="curvature < 1 & more", xlabel="flow <time> & tau", ylabel="a & b < c")
    taus = np.linspace(0.0, 1.0, 11)
    for k, gamma in enumerate((0.0, 1.5)):
        mean = 0.1 + (k + 1) * taus * (1.0 - taus)
        fig.band(taus, mean - 0.02, mean + 0.03 * taus)
        fig.line(taus, mean, label=f"run gamma={gamma:g}")
    return fig


def _grouped_plot_figure():
    fig = SvgFigure(title="loss", xlabel="iteration", ylabel="loss")
    its = np.arange(0, 200, 10)
    for group, scale in (("indep", 1.0), ("ot", 0.5), ("sinkhorn", 0.75)):
        fig.line(its, scale * 4.0 / (1.0 + its), label=group)
    return fig


def _constant_figure():
    fig = SvgFigure(title="flat")
    fig.line([0, 1, 2], [1.0, 1.0, 1.0], label="c")
    return fig


def _narrow_far_from_zero_figure():
    fig = SvgFigure(xlabel="x")
    fig.line([0, 1], [1e15 + 1, 1e15 + 2])
    return fig


def _empty_label_figure():
    fig = SvgFigure(ylabel="y")
    fig.line([0, 1, 3], [2.0, -1.0, 0.5], label="")
    fig.line([0, 1, 3], [1.0, 0.0, -0.5], label="shown")
    return fig


# SHA-256 of each figure's SVG text, pinning render's exact bytes.
_GOLDEN_SVG = {
    _eval_shaped_figure: "706025c2293a7aed3f7d12ba53b93abb979cf86a225a723e1f7244a24599d564",
    _grouped_plot_figure: "9e7e4963e0f6ba3f31fc931e39a4c70b3012191096f5976562f2690d9bdcb8aa",
    _constant_figure: "4212b6813abbba2a1199b72f2c8b475b33067a021c4699f00e82a9b147e00f07",
    _narrow_far_from_zero_figure: "5b76292d463bad474470faee7f2b4153bd4c02cc13e20162ead225f428f5dc41",
    _empty_label_figure: "9743786c681cdaa81971dbfbff1b9d5af75a7b687b480a763983d796f3c0f5bd",
}


@pytest.mark.parametrize("build", list(_GOLDEN_SVG), ids=lambda f: f.__name__.strip("_"))
def test_render_bytes_pinned(build):
    assert hashlib.sha256(build().render().encode()).hexdigest() == _GOLDEN_SVG[build]
