"""The shared CSV reader behind load_frf_csv and load_measured_modes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import piezodamp as pd
from piezodamp import config, modal
from piezodamp.cli import _BLOCK, _write_csv, main
from piezodamp.errors import InvalidInputError
from piezodamp.modal import _read_csv

HEADERS = ["freq_hz,real,imag", "freq_hz,mag,phase_deg", "x_m,mode1,mode2",
           " x_m , mode1", "freq_hz,bad"]


def _check_header(header):
    if "bad" in header:
        raise InvalidInputError(f"bad header {header!r}")


def _row_walk(path, check_header, min_rows, strict):
    """The row-by-row reader the loaders used before np.loadtxt, as the
    reference. ``strict`` also rejects the numerals that float() takes and
    np.loadtxt does not: digit separators and non-ASCII digits."""
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [t.strip() for t in line.split(",")]
            if header is None:
                header = fields
                continue
            rows.append((line_no, fields))
    if header is None:
        raise InvalidInputError(f"{path}: no header line found")
    check_header(header)
    if len(rows) < min_rows:
        raise InvalidInputError(
            f"{path}: needs at least {min_rows} data rows, found {len(rows)}")
    data = np.empty((len(rows), len(header)))
    for r, (line_no, fields) in enumerate(rows):
        if len(fields) != len(header):
            raise InvalidInputError(f"{path}: line {line_no}: expected "
                                    f"{len(header)} fields, found "
                                    f"{len(fields)}")
        for c, token in enumerate(fields):
            try:
                if strict and ("_" in token or not token.isascii()):
                    raise ValueError
                v = float(token)
            except ValueError:
                raise InvalidInputError(
                    f"{path}: line {line_no}, column {header[c]!r}: "
                    f"cannot parse {token!r} as a number") from None
            if not math.isfinite(v):
                raise InvalidInputError(
                    f"{path}: line {line_no}, column {header[c]!r}: "
                    f"non-finite value {token!r}")
            data[r, c] = v
    return header, data


def _outcome(fn, *args):
    try:
        header, data = fn(*args)
    except InvalidInputError as exc:
        return ("error", str(exc))
    return ("ok", header, data.shape, data.tobytes())


_ODD_TOKENS = st.sampled_from([
    "nan", "-inf", "Infinity", "1e400", "", " ", "x", "1 2", "0x10", "1.",
    ".5", "+3", "1e", "1_0", "2_500.5", "\u0661\u0662", "3 # note", "#4"])
_NUMERALS = st.integers(0, 29).flatmap(lambda k: _ODD_TOKENS if k == 0 else (
    st.floats(allow_nan=False, allow_infinity=False).map(repr) if k < 15
    else st.floats(allow_nan=False, allow_infinity=False, width=32).map(
        lambda v: f"{v:.6g}")))
_PADS = st.sampled_from(["", " ", "  ", "\t", "\xa0", " \t "])
_FIELDS = st.tuples(_PADS, _NUMERALS, _PADS).map("".join)
_JUNK = st.sampled_from(["", "   ", "\t", "# comment", "  # indented comment",
                         "#", "#1,2,3"])


@st.composite
def _tables(draw):
    header = draw(st.sampled_from(HEADERS))
    width = header.count(",") + 1
    lines = [draw(_JUNK) for _ in range(draw(st.integers(0, 2)))]
    lines.append(header)
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_JUNK))
            continue
        n = width + draw(st.sampled_from([0] * 30 + [-1, 1]))
        lines.append(",".join(draw(_FIELDS) for _ in range(max(n, 1))))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(content=_tables(), min_rows=st.sampled_from([1, 2, 2, 8]))
def test_reader_matches_row_walk(tmp_path_factory, content, min_rows):
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(content)
    new = _outcome(_read_csv, path, _check_header, min_rows)
    assert new == _outcome(_row_walk, path, _check_header, min_rows, True)
    if new != _outcome(_row_walk, path, _check_header, min_rows, False):
        # The one allowed difference: a numeral float() takes and np.loadtxt
        # rejects is an error that names its line.
        assert new[0] == "error"
        assert new[1].startswith(f"{path}: line ")
        assert "cannot parse" in new[1]
        token = new[1].split("cannot parse ")[1][1:-len("' as a number")]
        assert "_" in token or not token.isascii()


@settings(max_examples=100, deadline=None)
@given(content=_tables(), min_rows=st.sampled_from([1, 2, 8]))
def test_reader_skips_a_byte_order_mark(tmp_path_factory, content, min_rows):
    # Excel's "CSV UTF-8" and Notepad start the file with EF BB BF. The
    # outcome, line numbers of errors included, is that of the plain file.
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(content)
    plain = _outcome(_read_csv, path, _check_header, min_rows)
    path.write_bytes(b"\xef\xbb\xbf" + content)
    assert _outcome(_read_csv, path, _check_header, min_rows) == plain


@settings(max_examples=300, deadline=None)
@given(token=_FIELDS)
@example(token="2_001")
@example(token="\u0662\u0660\u0660\u0661")
@example(token="0.0_1")
def test_ini_numbers_follow_the_csv_numeral_rule(tmp_path_factory, token):
    # One numeral rule: an INI number and the field of a one-column CSV
    # accept and refuse the same tokens, and read the same value.
    path = tmp_path_factory.getbasetemp() / "column.csv"
    path.write_text(f"v\n{token}\n", encoding="utf-8")
    csv = _outcome(_read_csv, path, _check_header, 1)
    try:
        ini = ("ok", np.array([[config._float(token, "[s] v")]]).tobytes())
    except InvalidInputError:
        ini = ("error",)
    assert ini[0] == csv[0]
    assert ini[1:] == csv[3:]


@pytest.mark.parametrize("inserted, refused", [
    (None, False), ("# note", True), ("   ", True), ("1_0,1,1", True),
    ("5,nan,1", False), ("5,1", True)])
def test_reader_matches_row_walk_past_the_first_chunk(tmp_path, monkeypatch,
                                                       inserted, refused):
    # A line that stops np.loadtxt deep in a long file: the reader reads the
    # rest again and reaches the row walk's data or its error.
    rows = [f"{i},{np.sin(i):.9g},{np.cos(i):.6g}" for i in range(60_000)]
    if inserted is not None:
        rows.insert(50_000, inserted)
    path = tmp_path / "long.csv"
    path.write_text("freq_hz,real,imag\n" + "\n".join(rows) + "\n")
    sources = []
    loadtxt = np.loadtxt

    def recording_loadtxt(source, *args, **kwargs):
        sources.append(type(source).__name__)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(modal.np, "loadtxt", recording_loadtxt)
    new = _outcome(_read_csv, path, _check_header, 2)
    monkeypatch.undo()
    assert new == _outcome(_row_walk, path, _check_header, 2, True)
    if inserted in (None, "# note", "   "):
        assert new[0] == "ok" and new[2] == (60_000, 3)
    else:
        assert new[1].startswith(f"{path}: line 50002")
    # One C pass over the open file; the filtered pass only if it refuses a
    # line (nan parses, and the walk names it).
    assert sources == ["TextIOWrapper"] + ["generator"] * refused


_SPECIAL_VALUES = st.sampled_from([
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 1.0,
    0.1, 123456789.0, 1234567891.0, -2.5e-7])
_VALUES = st.one_of(_SPECIAL_VALUES, st.floats(allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_VALUES, min_size=1, max_size=16),
       n_rows=st.sampled_from([0, 1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               2 * _BLOCK + 3]),
       width=st.integers(1, 6), tuples=st.booleans(),
       preamble=st.sampled_from(["", "# gain = 1500\n"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_writer_matches_per_row_format(tmp_path_factory, values, n_rows,
                                       width, tuples, preamble, seed):
    # Blocks of rows formatted by one % give the bytes of one format per
    # value; tuples shorter than the header leave their trailing fields empty.
    rng = np.random.default_rng(seed)
    table = np.array(values)[rng.integers(0, len(values), (n_rows, width))]
    rows = table
    if tuples:
        widths = np.where(rng.random(n_rows) < 0.8, width,
                          rng.integers(1, width + 1, n_rows))
        rows = [tuple(r[:k]) for r, k in zip(table.tolist(), widths)]
    header = [f"c{k}" for k in range(width)]
    path = tmp_path_factory.getbasetemp() / "written.csv"
    _write_csv(path, header, rows, preamble=preamble)
    expected = preamble + ",".join(header) + "\n" + "".join(
        ",".join("%.9g" % v for v in r) + "," * (width - len(r)) + "\n"
        for r in (table.tolist() if not tuples else rows))
    assert path.read_bytes() == expected.encode("utf-8")


_PREFIXES = st.sampled_from([b"", b"freq_hz,real,imag\n",
                             b"# c\r\nfreq_hz,mag,phase_deg\r\n",
                             b"x_m,mode1\n", b"x_m,mode1,mode2\n0,0,0\n"])
_BYTES = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="0123456789.,-+eE#naif \t\r\n_x\xa0",
            max_size=200).map(str.encode),
)


@settings(max_examples=200, deadline=None)
@given(prefix=_PREFIXES, body=_BYTES, tail=st.binary(max_size=4))
def test_readers_raise_only_toolkit_errors(tmp_path_factory, prefix, body,
                                           tail):
    path = tmp_path_factory.getbasetemp() / "any.csv"
    path.write_bytes(prefix + body + tail)
    for load in (pd.load_frf_csv,
                 lambda p: pd.load_measured_modes(p, [1.0])):
        try:
            load(path)
        except InvalidInputError:
            pass


@pytest.mark.parametrize("prefix", ["", "5,1,1\n" * 2000])
def test_non_utf8_bytes_are_a_parse_error(tmp_path, prefix):
    frf = tmp_path / "bad_frf.csv"
    frf.write_bytes(b"freq_hz,real,imag\n1,1,1\n2,1,1\n"
                    + prefix.encode() + b"3,\xff,2\n")
    with pytest.raises(InvalidInputError, match=r"bad_frf\.csv.*byte 0xff"):
        pd.load_frf_csv(frf)
    shapes = tmp_path / "bad_shapes.csv"
    shapes.write_bytes(b"x_m,mode1\n" + b"0,0\n" * 8 + prefix.encode()
                       + b"\xe2\x82\n")
    with pytest.raises(InvalidInputError, match=r"bad_shapes\.csv.*byte 0xe2"):
        pd.load_measured_modes(shapes, [1.0])


def test_cli_non_utf8_record_exits_1(tmp_path, capsys):
    frf = tmp_path / "bad.csv"
    frf.write_bytes(b"freq_hz,real,imag\n1,\xff,2\n2,3,4\n")
    code = main(["analyze", "--frf", str(frf), "--band", "0.5,3",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
