"""Synthetic cohort generation and the trace CSV interchange format.

Trace files are UTF-8 CSV with LF line endings, header
``trial_id,outer_fold,inner_fold,metric,n_selected_features`` and one row per
trained model in row-major order (all inner folds of outer fold 0, then outer
fold 1, ...). Metrics are written with 17 significant digits so a round trip
preserves them bit for bit. A cohort is written as one file; reading also
takes a directory of such files, read in sorted file-name order.

Users with real data record their per-fold validation metrics in this format
from their own training loop and feed the file to ``replay``/``bench``.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice
from operator import ne
from pathlib import Path
from typing import Sequence

from .engine import CvShape, StepRecord, _step_from_checked, check_cohort
from .errors import FormatError, check_fields, check_trial_id, not_utf8
from .metrics import Direction

TRACE_HEADER = ("trial_id", "outer_fold", "inner_fold", "metric", "n_selected_features")
_QUOTE_IF_HELD = frozenset(',"\r\n')  # a trial id holding one of these is written quoted
_HEADER_LINE = ",".join(TRACE_HEADER) + "\n"
_BLOCK_CHARS = 16 * 1024  # characters read at a time; a block ends at the last line feed read
_CSV_BLOCK_ROWS = 1024  # rows taken from the csv module at a time
_NOT_STRUCTURE = bytes(b for b in range(256) if b not in b',\n"\r\0')  # dropped from a block
_ROW_SEPARATORS = b",,,,\n"


@dataclass(frozen=True)
class TraceGenConfig:
    """Synthetic cohort parameters.

    Each trial draws a base quality level uniformly from
    ``[base_min, base_max]``; steps add Gaussian noise and, with
    ``outlier_prob``, a spike of ``outlier_magnitude`` in the pessimistic
    direction. A trial is a zero-selected-features trial with probability
    ``zero_feature_prob``; such models predict a constant, so their base is
    pinned to the worst end of the quality spread. Minimized metrics are
    clamped at zero, mirroring logloss.
    """

    trials: int
    shape: CvShape
    seed: int
    base_min: float = 0.2
    base_max: float = 0.9
    noise_sd: float = 0.15
    outlier_prob: float = 0.05
    outlier_magnitude: float = 1.0
    zero_feature_prob: float = 0.10
    direction: Direction = Direction.MINIMIZE

    def __post_init__(self) -> None:
        check_fields(self)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.base_min <= self.base_max:
            raise ValueError("base_min must not exceed base_max")
        for name in ("outlier_prob", "zero_feature_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if self.outlier_magnitude < 0:
            raise ValueError("outlier_magnitude must be >= 0")


@dataclass(frozen=True, init=False)
class TrialTrace:
    """One trial over the full grid, as two columns in row-major order.

    ``metrics[i]`` and ``features[i]`` (the selected-feature count) belong to
    grid position ``shape.positions[i]``. The columns are checked once, in
    bulk, when the trace is made: one value per grid position, every metric
    finite, every count an int >= 0. The id must be a non-empty ``str`` and
    the shape a ``CvShape``. ``TrialTrace(trial_id, shape, steps)`` takes
    ``StepRecord``s instead, checks their ids and positions, and derives the
    columns from them. ``steps`` gives the ``StepRecord``s back.
    """

    trial_id: str
    shape: CvShape
    metrics: tuple[float, ...]
    features: tuple[int, ...]

    def __init__(
        self,
        trial_id: str,
        shape: CvShape,
        steps: Sequence[StepRecord] | None = None,
        *,
        metrics: Sequence[float] | None = None,
        features: Sequence[int] | None = None,
    ) -> None:
        check_trial_id(trial_id)
        if not isinstance(shape, CvShape):
            raise TypeError(f"shape must be a CvShape, got {shape!r}")
        if steps is not None:
            if metrics is not None or features is not None:
                raise TypeError("a trace takes either steps, or metrics and features")
            steps = tuple(steps)
            _check_steps(trial_id, shape, steps)
            metrics = [step.metric for step in steps]
            features = [step.selected_feature_count for step in steps]
            object.__setattr__(self, "steps", steps)
        elif metrics is None or features is None:
            raise TypeError("a trace takes either steps, or metrics and features")
        object.__setattr__(self, "trial_id", trial_id)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "metrics", tuple(metrics))
        object.__setattr__(self, "features", tuple(features))
        self._check_columns()

    def _check_columns(self) -> None:
        total = self.shape.total_steps
        for name, column in (("metrics", self.metrics), ("feature counts", self.features)):
            if len(column) != total:
                raise FormatError(
                    f"trial {self.trial_id!r} has {len(column)} {name}, expected {total}"
                )
        try:
            finite = all(map(math.isfinite, self.metrics))
        except OverflowError:  # an int no float can hold
            finite = False
        if not finite:
            for position, metric in zip(self.shape.positions, self.metrics):
                try:
                    if math.isfinite(metric):
                        continue
                    bad = metric
                except OverflowError:
                    bad = "an int no float can hold"
                raise FormatError(
                    f"trial {self.trial_id!r}: metric at step {position} must be finite, got {bad}"
                )
        # exactly int, as the file's integer field reads back; a bool is refused too
        if {*map(type, self.features)} != {int}:
            index = next(i for i, count in enumerate(self.features) if type(count) is not int)
            raise FormatError(
                f"trial {self.trial_id!r}: selected_feature_count at step "
                f"{self.shape.positions[index]} must be an int, got {self.features[index]!r}"
            )
        if min(self.features) < 0:
            index = next(i for i, count in enumerate(self.features) if count < 0)
            raise FormatError(
                f"trial {self.trial_id!r}: selected_feature_count at step "
                f"{self.shape.positions[index]} must be >= 0, got {self.features[index]}"
            )

    @cached_property
    def steps(self) -> tuple[StepRecord, ...]:
        """The steps as ``StepRecord``s: built from the columns on first read, then kept.

        The columns are already checked, so the records are built without
        checking them again. A trace made from steps keeps the tuple it was given.
        """
        trial_id = self.trial_id
        return tuple(
            _step_from_checked(trial_id, outer, inner, metric, count)
            for (outer, inner), metric, count in zip(
                self.shape.positions, self.metrics, self.features
            )
        )


def _check_steps(trial_id: str, shape: CvShape, steps: tuple[StepRecord, ...]) -> None:
    """Check the steps' ids and positions column by column; find a failing step only to name it."""
    if len(steps) != shape.total_steps:
        raise FormatError(
            f"trial {trial_id!r} has {len(steps)} steps, expected {shape.total_steps}"
        )
    # comprehensions, not map(attrgetter(...)): they read the slots faster
    if [step.trial_id for step in steps].count(trial_id) == len(steps) and [
        (step.outer_idx, step.inner_idx) for step in steps
    ] == list(shape.positions):
        return
    for index, (step, expected) in enumerate(zip(steps, shape.positions)):
        if step.trial_id != trial_id:
            raise FormatError(f"step {index} of trial {trial_id!r} carries id {step.trial_id!r}")
        if (step.outer_idx, step.inner_idx) != expected:
            raise FormatError(
                f"trial {trial_id!r}: step {index} is "
                f"({step.outer_idx}, {step.inner_idx}), expected {expected}"
            )


def generate_cohort(config: TraceGenConfig) -> list[TrialTrace]:
    """Generate a deterministic cohort; identical configs yield identical cohorts.

    The draws are spelled out rather than left to ``random.gauss`` and
    ``random.randint``, in the order and arithmetic those use, so the cohort
    is the same bytes and does not depend on how a Python version implements
    them. Per trial: the base (``uniform``), then the zero-feature draw. Per
    step: the noise, the outlier draw and the feature count (trials with
    features only).
    """
    rng = random.Random(config.seed)
    draw, bits = rng.random, rng.getrandbits
    log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
    two_pi = 2.0 * math.pi
    minimize = config.direction is Direction.MINIMIZE
    worst_base = config.base_max if minimize else config.base_min
    noise_sd, outlier_prob = config.noise_sd, config.outlier_prob
    spike = config.outlier_magnitude if minimize else -config.outlier_magnitude
    total = config.shape.total_steps
    # Normals come in Box-Muller pairs from two uniforms; the second of a pair
    # is kept for the next step, across trials too, as ``random.gauss`` keeps it.
    spare = None
    cohort: list[TrialTrace] = []
    for index in range(config.trials):
        base = rng.uniform(config.base_min, config.base_max)
        zero_features = draw() < config.zero_feature_prob
        if zero_features:
            base = worst_base
        metrics: list[float] = []
        features: list[int] = [0] * total if zero_features else []
        for _ in range(total):
            if spare is None:
                angle = draw() * two_pi
                radius = sqrt(-2.0 * log(1.0 - draw()))
                z = cos(angle) * radius
                spare = sin(angle) * radius
            else:
                z, spare = spare, None
            # a normal of mean 0.0: the 0.0 + turns a -0.0 product into 0.0
            metric = base + (0.0 + z * noise_sd)
            if draw() < outlier_prob:
                metric += spike
            if minimize and metric < 0.0:
                metric = 0.0
            metrics.append(metric)
            if not zero_features:
                # uniform on 1..100: seven random bits, drawn again while >= 100
                count = bits(7)
                while count >= 100:
                    count = bits(7)
                features.append(1 + count)
        cohort.append(
            TrialTrace(f"trial_{index:03d}", config.shape, metrics=metrics, features=features)
        )
    return cohort


def write_traces(cohort: Sequence[TrialTrace], path) -> None:
    """Write a cohort as one trace file: the header, then each trial's rows as one string.

    Only the id can need quoting, so it is quoted once per trial: wrapped in
    ``"``, each inner ``"`` doubled, when it holds a ``,``, ``"``, ``\\r`` or ``\\n``.
    The bytes are those of ``csv.writer(lineterminator="\\n")``, but for an id
    holding a lone ``\\r``, which that writer leaves bare and its reader splits.
    An id holding NUL is refused on every Python.
    """
    check_cohort(cohort)  # refuse what read_traces would refuse, before the file is made
    held = next((trace.trial_id for trace in cohort if "\0" in trace.trial_id), None)
    if held is not None:  # the csv module of Python 3.10 refuses a line holding NUL
        raise FormatError(f"trial {held!r}: a trial id holding NUL cannot be written")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_HEADER_LINE)
        for trace in cohort:
            cell = trace.trial_id
            if not _QUOTE_IF_HELD.isdisjoint(cell):
                cell = '"' + cell.replace('"', '""') + '"'
            handle.write("".join([
                f"{cell},{outer},{inner},{metric:.17g},{count}\n"
                for (outer, inner), metric, count in zip(
                    trace.shape.positions, trace.metrics, trace.features
                )
            ]))


def read_traces(path) -> list[TrialTrace]:
    """Read a cohort from a trace file, or from a directory of trace files.

    A directory's ``*.csv`` files are read in sorted file-name order, which is
    the cohort's order; replay decisions depend on it.
    """
    source = Path(path)
    if source.is_dir():
        files = sorted(source.glob("*.csv"))
        if not files:
            raise FormatError("no .csv trace files found", path=source)
        cohort: list[TrialTrace] = []
        seen: set[str] = set()
        for file in files:
            for trace in _read_file(file):
                if trace.trial_id in seen:
                    raise FormatError(
                        f"duplicate trial id {trace.trial_id!r} across files", path=file
                    )
                if cohort and trace.shape != cohort[0].shape:
                    raise FormatError(
                        f"trial {trace.trial_id!r} shape {trace.shape} differs from "
                        f"cohort shape {cohort[0].shape}",
                        path=file,
                    )
                seen.add(trace.trial_id)
                cohort.append(trace)
        return cohort
    return _read_file(source)


def _read_file(path: Path) -> list[TrialTrace]:
    """Parse blocks of rows into columns, then cut the columns into trials.

    Plain blocks are split with ``str.split``; from the first block that is not
    plain, or from line 1 if the header line is not exactly the header, the
    ``csv`` module reads the rest. Either way each block is converted and
    checked as columns, and only a block that fails is walked row by row for
    the message. Errors in rows come before errors in how trials are laid
    out, wherever in the file they are.
    """
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise FormatError(f"cannot open trace file: {exc}", path=path) from exc
    columns = _Columns(path)
    try:
        with handle:
            text = handle.read(_BLOCK_CHARS)
            lines_before = 0
            if text.startswith(_HEADER_LINE):
                text = _split_plain_blocks(handle, text[len(_HEADER_LINE):], columns)
                lines_before = 1 + len(columns.metrics)  # a plain row is one line
            if text is not None:
                _read_csv(handle, text, columns, lines_before)
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    metrics, features = columns.metrics, columns.features
    outers, inners = columns.outers, columns.inners
    trial_ids, starts = columns.trial_ids, columns.starts
    if not metrics:
        # the header is line 1, and no row follows it
        raise FormatError("trace file contains no step rows", path=path, line=1)
    starts.append(len(metrics))

    seen: set[str] = set()
    for trial_id, start in zip(trial_ids, starts):
        if trial_id in seen:
            raise FormatError(
                f"rows of trial {trial_id!r} must be contiguous",
                path=path, line=columns.line_of(start),
            )
        seen.add(trial_id)

    shape: CvShape | None = None
    grids: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    cohort = []
    for trial_id, start, stop in zip(trial_ids, starts, starts[1:]):
        rows = stop - start
        if shape is not None:
            inner_folds = shape.inner_folds
        else:
            # row-major order puts all of outer fold 0 first
            inner_folds = next((i for i, o in enumerate(outers[start:stop]) if o != 0), rows)
            if inner_folds == 0:
                raise FormatError(
                    f"trial {trial_id!r} must start at step (outer, inner)=(0, 0)",
                    path=path, line=columns.line_of(start),
                )
        if (inner_folds, rows) not in grids:
            grids[inner_folds, rows] = (
                [i // inner_folds for i in range(rows)],
                [i % inner_folds for i in range(rows)],
            )
        want_outers, want_inners = grids[inner_folds, rows]
        if outers[start:stop] != want_outers or inners[start:stop] != want_inners:
            index = next(
                i for i in range(rows)
                if (outers[start + i], inners[start + i]) != (want_outers[i], want_inners[i])
            )
            raise FormatError(
                f"trial {trial_id!r}: expected step (outer, inner)="
                f"{(want_outers[index], want_inners[index])}, "
                f"got ({outers[start + index]}, {inners[start + index]}); grid rows must be "
                "complete, unique, and in row-major order",
                path=path, line=columns.line_of(start + index),
            )
        if shape is None:
            if rows % inner_folds != 0:
                raise FormatError(
                    f"trial {trial_id!r} ends mid inner loop: {rows} rows with "
                    f"{inner_folds} inner folds",
                    path=path, line=columns.line_of(stop - 1),
                )
            try:
                shape = CvShape(outer_folds=rows // inner_folds, inner_folds=inner_folds)
            except ValueError as exc:
                raise FormatError(str(exc), path=path, line=columns.line_of(stop - 1)) from exc
        elif rows != shape.total_steps:
            raise FormatError(
                f"trial {trial_id!r} has {rows} rows, cohort shape "
                f"{shape.outer_folds}x{shape.inner_folds} requires {shape.total_steps}",
                path=path, line=columns.line_of(stop - 1),
            )
        cohort.append(
            TrialTrace(
                trial_id, shape, metrics=metrics[start:stop], features=features[start:stop]
            )
        )
    return cohort


def _split_plain_blocks(handle, chunk: str, columns: _Columns) -> str | None:
    """Split the plain blocks that start the file's data rows into ``columns``.

    A block is plain when its UTF-8 bytes, kept to ``,`` ``\\n`` ``"`` ``\\r`` and NUL
    (no other UTF-8 character holds one), are ``,,,,\\n`` a line, and it fits
    ``csv.field_size_limit()``: the ``csv`` module splits such text at its commas and
    line feeds too. A line longer than a block ends the plain blocks as well. Returns
    the text from the first block that is not plain on, or None at the end.
    """
    limit = csv.field_size_limit()
    rest = ""  # the line begun after the last line feed read
    while True:
        cut = chunk.rfind("\n") + 1
        if chunk and not cut:
            return rest + chunk
        block, rest = rest + chunk[:cut], chunk[cut:]
        if not block:
            return None
        body = block[:-1] if cut else block  # the last line may have no line feed
        kept = body.encode().translate(None, _NOT_STRUCTURE)
        if len(body) > limit or kept + b"\n" != _ROW_SEPARATORS * (kept.count(b"\n") + 1):
            return block + rest
        fields = body.replace("\n", ",").split(",")
        columns.add(*(fields[column::5] for column in range(5)))
        if not chunk:
            return None
        chunk = handle.read(_BLOCK_CHARS)


def _read_csv(handle, text: str, columns: _Columns, lines_before: int) -> None:
    """Read ``text`` and the rest of ``handle`` with the ``csv`` module, a block of rows at a time.

    ``text`` starts on line ``lines_before + 1``, with the header if that is line 1.
    It is completed to the end of its last line, so the reader gets the lines a
    ``newline=""`` file gives. Rows read before a ``csv.Error`` are checked before
    it is raised.
    """
    path = columns.path
    columns.csv_start = len(columns.metrics)
    reader = csv.reader(chain(io.StringIO(text + handle.readline(), newline=""), handle))
    rows: list[list[str]] = []
    try:
        if not lines_before:
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_HEADER:
                raise FormatError(f"header must be {','.join(TRACE_HEADER)}", path=path, line=1)
        while True:
            rows = []
            rows.extend(islice(reader, _CSV_BLOCK_ROWS))  # keeps the rows read before an error
            if not rows:
                return
            columns.add_rows(rows)
    except csv.Error as exc:  # e.g. a quoted field that runs past the field size limit
        columns.add_rows(rows)
        raise FormatError(
            f"bad CSV: {exc}", path=path, line=lines_before + reader.line_num
        ) from exc


class _Columns:
    """One file's rows as columns, added a block at a time.

    ``add`` converts a block's columns with one ``map`` each (an int field once
    per distinct spelling) and checks them in bulk; only a block that fails is
    walked row by row, by ``_row_problem``. ``trial_ids`` holds one id per run
    of contiguous rows, and ``starts`` the index of the run's first row.
    ``csv_start`` is the index of the first row the ``csv`` module read (None
    while none has): the rows before it came from plain blocks.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.metrics: list[float] = []
        self.features: list[int] = []
        self.outers: list[int] = []
        self.inners: list[int] = []
        self.trial_ids: list[str] = []
        self.starts: list[int] = []
        self.csv_start: int | None = None

    def line_of(self, index: int) -> int | None:
        """The line the data row at ``index`` ends on.

        A row from a plain block is one line, after the header line, so it is
        known without reading again, from a pipe too; a row the ``csv`` module
        read is found by ``_line_of``.
        """
        if self.csv_start is None or index < self.csv_start:
            return index + 2
        return _line_of(self.path, index)

    def add_rows(self, rows: list[list[str]]) -> None:
        if not rows:
            return
        if set(map(len, rows)) != {len(TRACE_HEADER)}:
            self._walk(rows)
        self.add(*zip(*rows))

    def add(self, ids, outers, inners, metrics, counts) -> None:
        try:
            spellings = {*outers, *inners, *counts}
            ints = dict(zip(spellings, map(int, spellings)))
            values = list(map(float, metrics))
            valid = "" not in ids and min(ints.values()) >= 0 and all(map(math.isfinite, values))
        except ValueError:
            valid = False
        if not valid:
            self._walk(zip(ids, outers, inners, metrics, counts))
        start = len(self.metrics)
        firsts = [0, *compress(range(1, len(ids)), map(ne, islice(ids, 1, None), ids))]
        if self.trial_ids and self.trial_ids[-1] == ids[0]:
            del firsts[0]  # the block's first run goes on with the last block's last run
        self.trial_ids += [ids[first] for first in firsts]
        self.starts += [start + first for first in firsts]
        self.metrics += values
        self.outers += map(ints.__getitem__, outers)
        self.inners += map(ints.__getitem__, inners)
        self.features += map(ints.__getitem__, counts)

    def _walk(self, rows) -> None:
        """Raise for the first bad row of a block that failed its check, at its line."""
        for index, row in enumerate(rows, start=len(self.metrics)):
            problem = _row_problem(row)
            if problem is not None:
                raise FormatError(problem, path=self.path, line=self.line_of(index))
        raise AssertionError(f"{self.path}: a block failed its check, but none of its rows did")


def _row_problem(row: Sequence[str]) -> str | None:
    """Why a row fails the check each block of rows gets, in the order checked; None if not."""
    if len(row) != len(TRACE_HEADER):
        return f"expected {len(TRACE_HEADER)} fields, got {len(row)}"
    trial_id, outer_text, inner_text, metric_text, count_text = row
    if not trial_id:
        return "trial_id must be non-empty"
    try:
        outer, inner, count = int(outer_text), int(inner_text), int(count_text)
    except ValueError as exc:
        return f"bad integer field: {exc}"
    try:
        metric = float(metric_text)
    except ValueError as exc:
        return f"bad metric field: {exc}"
    if not math.isfinite(metric):
        return f"metric must be finite, got {metric_text}"
    if outer < 0 or inner < 0:
        return "fold indices must be >= 0"
    if count < 0:
        return "selected_feature_count must be >= 0"
    return None


def _line_of(path: Path, index: int) -> int | None:
    """The line the data row at ``index`` ends on; the file is read again, for errors only.

    Quoted fields may hold line breaks, so after the plain blocks rows and
    lines need not match (``_Columns.line_of`` counts the plain rows). Input
    that is not a regular file, such as a pipe, cannot be read again: None.
    """
    if not path.is_file():
        return None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        for count, _ in enumerate(reader):
            if count == index + 1:  # row 0 is the header
                return reader.line_num
    raise AssertionError(f"{path} has no data row {index}")
