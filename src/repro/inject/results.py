"""Columnar trial records and CSV round-trip.

The paper logs one CSV row per trial for offline analysis; this module is
that log.  Records are columnar NumPy arrays (not per-trial objects) so a
full campaign — hundreds of thousands of trials — stays cheap to build,
merge, filter, and aggregate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from repro.inject.csvcodec import CsvCodec

#: Column -> dtype, in CSV (and field) order.
_I, _F = np.int64, np.float64
_COLUMN_DTYPES = dict(
    trial=_I, bit=_I, index=_I, original=_F, faulty=_F, field=_I, regime_k=_I,
    abs_err=_F, rel_err=_F, range_rel_err=_F, mse=_F,
    faulty_mean=_F, faulty_std=_F, faulty_max=_F, faulty_min=_F,
    non_finite=bool, fault_spec="<U32",
)

#: Optional per-row columns: present only when a campaign needs them
#: (``fault_spec`` appears on non-``single`` fault models), so default
#: campaigns write byte-identical CSVs to every earlier schema-1 file.
_OPTIONAL_COLUMNS = ("fault_spec",)

#: What an absent optional column means when merging with one present.
_OPTIONAL_DEFAULTS = {"fault_spec": "single"}

_CODEC = CsvCodec(_COLUMN_DTYPES, _OPTIONAL_COLUMNS, terminator="\r\n")


@dataclass
class TrialRecords:
    """One campaign's trials, columnar.

    Attributes
    ----------
    trial:
        Trial ordinal within the (bit, campaign) grid.
    bit:
        Flipped bit position (LSB == 0).
    index:
        Index of the faulted element in the dataset.
    original / faulty:
        The element value before and after the flip (as float64; for the
        posit target "before" is the posit-rounded value, per the paper).
    field:
        Field id of the flipped bit in the target's enum.
    regime_k:
        Regime size of the original posit (0 for IEEE targets).
    abs_err / rel_err / range_rel_err / mse:
        Per-trial error metrics (QCAT equivalents).
    faulty_mean / faulty_std / faulty_max / faulty_min:
        Summary statistics of the faulty array (O(1)-updated).
    non_finite:
        Whether the faulty value was NaN/Inf (IEEE) or NaR (posit).
    """

    trial: np.ndarray
    bit: np.ndarray
    index: np.ndarray
    original: np.ndarray
    faulty: np.ndarray
    field: np.ndarray
    regime_k: np.ndarray
    abs_err: np.ndarray
    rel_err: np.ndarray
    range_rel_err: np.ndarray
    mse: np.ndarray
    faulty_mean: np.ndarray
    faulty_std: np.ndarray
    faulty_max: np.ndarray
    faulty_min: np.ndarray
    non_finite: np.ndarray
    fault_spec: np.ndarray | None = None

    def __post_init__(self) -> None:
        length = len(self.trial)
        for column in dataclass_fields(self):
            array = getattr(self, column.name)
            if array is None:
                continue
            if len(array) != length:
                raise ValueError(
                    f"column {column.name} has {len(array)} rows, expected {length}"
                )

    def __len__(self) -> int:
        return len(self.trial)

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls) -> "TrialRecords":
        return cls(**{
            name: np.empty(0, dtype=dtype)
            for name, dtype in _COLUMN_DTYPES.items()
            if name not in _OPTIONAL_COLUMNS
        })

    @classmethod
    def concatenate(cls, parts: list["TrialRecords"]) -> "TrialRecords":
        """Merge shards (e.g. per-bit or per-worker results)."""
        if not parts:
            return cls.empty()
        kwargs = {}
        for column in dataclass_fields(cls):
            arrays = [getattr(part, column.name) for part in parts]
            if column.name in _OPTIONAL_COLUMNS:
                if all(array is None for array in arrays):
                    kwargs[column.name] = None
                    continue
                default = _OPTIONAL_DEFAULTS[column.name]
                arrays = [
                    array
                    if array is not None
                    else np.full(len(part), default, dtype="<U32")
                    for array, part in zip(arrays, parts)
                ]
            kwargs[column.name] = np.concatenate(arrays)
        return cls(**kwargs)

    # -- filtering ----------------------------------------------------------

    def select(self, mask) -> "TrialRecords":
        """Row subset by boolean mask or index array."""
        kwargs = {}
        for column in dataclass_fields(self):
            array = getattr(self, column.name)
            kwargs[column.name] = None if array is None else array[mask]
        return TrialRecords(**kwargs)

    def for_bit(self, bit_index: int) -> "TrialRecords":
        """Trials that flipped one particular bit."""
        return self.select(self.bit == bit_index)

    def for_field(self, field_id: int) -> "TrialRecords":
        """Trials whose flipped bit landed in one field."""
        return self.select(self.field == field_id)

    def for_regime_size(self, k: int) -> "TrialRecords":
        """Trials whose original posit had regime size k."""
        return self.select(self.regime_k == k)

    def finite(self) -> "TrialRecords":
        """Trials whose faulty value stayed finite (non-catastrophic)."""
        return self.select(~self.non_finite)

    # -- CSV ------------------------------------------------------------------

    def column_names(self) -> list[str]:
        return [
            column.name
            for column in dataclass_fields(self)
            if getattr(self, column.name) is not None
        ]

    def write_csv(self, path: str | os.PathLike) -> None:
        """Write the paper-style CSV log."""
        with open(Path(path), "w", newline="") as handle:
            handle.write(self.to_csv_string())

    def to_csv_string(self) -> str:
        names = self.column_names()
        return _CODEC.format(names, [getattr(self, name) for name in names])

    def to_csv_bytes(self) -> bytes:
        """The exact bytes of a shard file, the ones its checksum covers."""
        return self.to_csv_string().encode("utf-8")

    @classmethod
    def read_csv(cls, path: str | os.PathLike) -> "TrialRecords":
        """Read a log written by :meth:`write_csv`."""
        with open(Path(path), newline="") as handle:
            return cls.from_csv_string(handle.read())

    @classmethod
    def from_csv_string(cls, text: str) -> "TrialRecords":
        return cls(**_CODEC.parse(text))
