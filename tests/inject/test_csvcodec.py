"""Byte-identity oracle for the columnar CSV codec.

Shard bytes are a contract: manifests and done records checksum them,
and golden fixtures pin them.  The reference below is the row-at-a-time
``csv.writer`` / ``csv.reader`` code both record classes used before the
codec; every file the codec writes must match it byte for byte, and
every column the codec parses must match what the reference parses
(floats compared bit for bit).
"""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.campaign import AppCampaignConfig, AppTrialRecords, run_app_shard
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.inject.results import TrialRecords

TRIAL_TERMINATOR = "\r\n"
APP_TERMINATOR = "\n"

SPECIAL_FLOATS = [
    0.0, -0.0, np.nan, np.inf, -np.inf,
    5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    0.30000000000000004, 1.7976931348623157e308, -1.0000000000000002,
    186.25, 1e16, 1e-7,
]
# Cells the codec must quote exactly as csv.QUOTE_MINIMAL does.
SPEC_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789(),.\"'#- "


# -- the reference: the row-at-a-time implementation the codec replaced ------


def reference_to_csv(records, terminator: str) -> str:
    names = [name for name in _fields(records) if getattr(records, name) is not None]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=terminator)
    writer.writerow(["# schema_version=1"])
    writer.writerow(names)
    for row in zip(*[getattr(records, name) for name in names]):
        writer.writerow([
            repr(float(v))
            if isinstance(v, (float, np.floating))
            else (str(v) if isinstance(v, (str, np.str_)) else int(v))
            for v in row
        ])
    return buffer.getvalue()


def reference_columns(cls, text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] and rows[0][0].startswith("# schema_version="):
        rows = rows[1:]
    header, data = rows[0], rows[1:]
    template = cls.empty()
    columns = {}
    for position, name in enumerate(header):
        raw = [row[position] for row in data]
        kind = "O" if name == "fault_spec" else getattr(template, name).dtype.kind
        if kind == "O":
            columns[name] = np.array(raw, dtype="<U32")
        elif kind == "U":
            columns[name] = np.array(raw, dtype=getattr(template, name).dtype)
        elif kind == "i":
            columns[name] = np.array([int(v) for v in raw], dtype=np.int64)
        elif kind == "b":
            columns[name] = np.array([bool(int(v)) for v in raw], dtype=bool)
        else:
            columns[name] = np.array([float(v) for v in raw], dtype=np.float64)
    return columns


def _fields(records) -> list[str]:
    return list(type(records).__dataclass_fields__)


# -- builders ------------------------------------------------------------------


def make_records(cls, floats, ints, bools, strings=None, specs=None):
    """Records of ``cls`` whose columns cycle through the given values."""
    n = len(floats)
    template = cls.empty()
    kwargs = {}
    for offset, name in enumerate(_fields(template)):
        if name == "fault_spec":
            kwargs[name] = None if specs is None else np.array(specs, dtype="<U32")
            continue
        kind = getattr(template, name).dtype.kind
        if kind == "f":
            kwargs[name] = np.roll(np.array(floats, dtype=np.float64), offset)
        elif kind == "i":
            kwargs[name] = np.roll(np.array(ints, dtype=np.int64), offset)
        elif kind == "b":
            kwargs[name] = np.roll(np.array(bools, dtype=bool), offset)
        else:
            values = strings if strings is not None else ["sdc"] * n
            kwargs[name] = np.array(values, dtype=getattr(template, name).dtype)
    return cls(**kwargs)


def assert_codec_matches_reference(records, terminator):
    text = records.to_csv_string()
    assert text == reference_to_csv(records, terminator)
    assert records.to_csv_bytes() == text.encode("utf-8")
    cls = type(records)
    parsed = cls.from_csv_string(text)
    expected = reference_columns(cls, text)
    for name in _fields(records):
        column = getattr(parsed, name)
        if name not in expected:
            assert column is None, name
            continue
        assert column.dtype == expected[name].dtype, name
        if column.dtype.kind == "f":
            assert np.array_equal(column.view(np.uint64), expected[name].view(np.uint64)), name
        else:
            assert np.array_equal(column, expected[name]), name
    assert parsed.to_csv_string() == text


CLASSES = [(TrialRecords, TRIAL_TERMINATOR), (AppTrialRecords, APP_TERMINATOR)]


# -- property ------------------------------------------------------------------


@st.composite
def records_strategy(draw, cls):
    n = draw(st.integers(min_value=0, max_value=12))
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
    specs = draw(st.none() | st.lists(
        st.text(alphabet=SPEC_ALPHABET, max_size=16), min_size=n, max_size=n))
    return make_records(
        cls,
        floats=draw(st.lists(floats, min_size=n, max_size=n)),
        ints=draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)),
        bools=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        strings=draw(st.lists(st.text(alphabet=SPEC_ALPHABET, max_size=16),
                              min_size=n, max_size=n)),
        specs=specs,
    )


@given(records_strategy(TrialRecords))
def test_trial_codec_matches_reference(records):
    assert_codec_matches_reference(records, TRIAL_TERMINATOR)


@given(records_strategy(AppTrialRecords))
def test_app_codec_matches_reference(records):
    assert_codec_matches_reference(records, APP_TERMINATOR)


# -- pinned cases --------------------------------------------------------------


@pytest.mark.parametrize("cls, terminator", CLASSES)
class TestPinned:
    def test_signed_zeros_in_one_column(self, cls, terminator):
        records = make_records(cls, [0.0, -0.0, 0.0, -0.0], [1, 2, 3, 4],
                               [True, False, True, False])
        assert_codec_matches_reference(records, terminator)
        assert "-0.0" in records.to_csv_string()

    def test_nan_and_infinities(self, cls, terminator):
        records = make_records(cls, [np.nan, np.inf, -np.inf, 1.5], [0, -1, 2, 3],
                               [False] * 4)
        assert_codec_matches_reference(records, terminator)

    def test_subnormals_and_seventeen_digits(self, cls, terminator):
        values = [5e-324, 2.225073858507201e-308, 0.30000000000000004,
                  1.7976931348623157e308, -2.2250738585072014e-308]
        records = make_records(cls, values, list(range(5)), [True] * 5)
        assert_codec_matches_reference(records, terminator)

    def test_zero_rows(self, cls, terminator):
        records = cls.empty()
        assert_codec_matches_reference(records, terminator)
        assert len(cls.from_csv_string(records.to_csv_string())) == 0

    def test_fault_spec_with_a_comma_is_quoted(self, cls, terminator):
        records = make_records(cls, [1.0, 2.0], [1, 2], [True, False],
                               specs=["burst(3,0.5)", "single"])
        assert_codec_matches_reference(records, terminator)
        assert '"burst(3,0.5)"' in records.to_csv_string()
        parsed = cls.from_csv_string(records.to_csv_string())
        assert list(parsed.fault_spec) == ["burst(3,0.5)", "single"]

    def test_file_without_schema_line(self, cls, terminator):
        records = make_records(cls, [0.25, -0.0], [7, 8], [False, True])
        text = records.to_csv_string()
        bare = text.split(terminator, 1)[1]
        assert not bare.startswith("# schema_version=")
        assert cls.from_csv_string(bare).to_csv_string() == text

    @pytest.mark.parametrize("text", ["", "# schema_version=1\n", "# schema_version=1\r\n"])
    def test_empty_file_is_rejected(self, cls, terminator, text):
        with pytest.raises(ValueError, match="empty CSV|missing header"):
            cls.from_csv_string(text)

    def test_wrong_header_is_rejected(self, cls, terminator):
        with pytest.raises(ValueError, match="schema"):
            cls.from_csv_string("# schema_version=1\na,b\n1,2\n")

    @pytest.mark.parametrize("damage", ["float-in-int", "missing-cell", "truncated-row"])
    def test_malformed_cells_raise_value_error(self, cls, terminator, damage):
        text = make_records(cls, [1.5, 2.5], [3, 4], [True, False]).to_csv_string()
        schema, header, first, last, _ = text.split(terminator)
        if damage == "float-in-int":
            first = "1.5" + first[first.index(","):]
        elif damage == "missing-cell":
            first = first[first.index(",") + 1:]
        else:
            last = last[: len(last) // 2]
        with pytest.raises(ValueError):
            cls.from_csv_string(terminator.join([schema, header, first, last]))


@pytest.mark.parametrize("fault", ["single", "burst(3,0.5)"])
def test_campaign_files_are_byte_identical(small_field, fault):
    config = CampaignConfig(trials_per_bit=5, seed=3, fault=fault)
    records = run_campaign(small_field, "posit16", config).records
    assert_codec_matches_reference(records, TRIAL_TERMINATOR)


def test_app_files_are_byte_identical():
    config = AppCampaignConfig(app="cg", grid=6, iterations=(2,), trials_per_cell=3,
                               fault="burst(2,0.5)")
    records = run_app_shard(config, "posit16", 3, 3, 11)
    assert_codec_matches_reference(records, APP_TERMINATOR)
