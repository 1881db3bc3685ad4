"""Capture-recapture datasets: validation, simulation, summaries, and file I/O.

A dataset is the detection matrix of the *observed* animals only: one binary
row per animal seen at least once, one column per sampling occasion. Animals
that were never detected are not stored; simulators keep the true population
size only as experiment bookkeeping.
"""

import csv
import json
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np


class InvalidHistoryError(ValueError):
    """Raised when a capture history violates the dataset invariants."""


@dataclass(frozen=True)
class CaptureHistory:
    """Binary detection matrix for the observed individuals.

    Attributes:
        k: number of sampling occasions (columns), at least 1.
        rows: one tuple of 0/1 entries per observed individual; every row
            has length ``k`` and contains at least one 1.
    """

    k: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k != int(self.k) or self.k < 1:
            raise InvalidHistoryError(f"need a positive whole number of occasions, got k={self.k!r}")
        rows = tuple(map(tuple, self.rows))
        for i, row in enumerate(rows):
            if len(row) != self.k:
                raise InvalidHistoryError(
                    f"row {i} has length {len(row)}, expected k={self.k}"
                )
            # checked before int() so that 0.5 or 1.9 cannot truncate to a valid entry
            if any(v not in (0, 1) for v in row):
                raise InvalidHistoryError(f"row {i} has non-binary entries")
            if not any(row):
                raise InvalidHistoryError(
                    f"row {i} is all zeros: unobserved individuals are never stored"
                )
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "rows", tuple(tuple(map(int, row)) for row in rows))

    @property
    def n_observed(self) -> int:
        return len(self.rows)

    def matrix(self) -> np.ndarray:
        """Detection matrix of shape (n_observed, k); empty datasets give (0, k)."""
        return np.array(self.rows, dtype=int).reshape(-1, self.k)


@dataclass(frozen=True)
class SufficientStats:
    """Every count the likelihoods consume.

    Attributes:
        m_k1: number of distinct animals observed at least once.
        k: number of occasions.
        n_dot: total number of captures.
        n_j: captures per occasion, length ``k``.
        f_j: frequency of frequencies, length ``k``; ``f_j[j-1]`` is the number
            of animals caught on exactly j occasions.
    """

    m_k1: int
    k: int
    n_dot: int
    n_j: tuple[int, ...]
    f_j: tuple[int, ...]

    def __post_init__(self):
        if len(self.n_j) != self.k or len(self.f_j) != self.k:
            raise ValueError("n_j and f_j must have one entry per occasion")
        checks = [
            self.n_dot == sum(self.n_j),
            self.n_dot == sum(j * f for j, f in enumerate(self.f_j, start=1)),
            self.m_k1 == sum(self.f_j),
            all(0 <= n <= self.m_k1 for n in self.n_j),
        ]
        if not all(checks):
            raise ValueError("inconsistent sufficient statistics")

    @property
    def recaptures(self) -> int:
        """Number of recaptures r = n_dot - m_k1 (total captures minus first captures)."""
        return self.n_dot - self.m_k1


def summarize(history: CaptureHistory) -> SufficientStats:
    """Reduce a capture history to its sufficient statistics."""
    mat = history.matrix()
    k = history.k
    f_j = np.bincount(mat.sum(axis=1), minlength=k + 1)[1 : k + 1]
    return SufficientStats(
        m_k1=int(mat.shape[0]),
        k=k,
        n_dot=int(mat.sum()),
        n_j=tuple(mat.sum(axis=0).tolist()),
        f_j=tuple(f_j.tolist()),
    )


def _keep_observed(full: np.ndarray, k: int) -> CaptureHistory:
    return CaptureHistory(k=k, rows=full[full.sum(axis=1) > 0].tolist())


def simulate_m0(n_true: int, p: float, k: int, seed: int) -> CaptureHistory:
    """Simulate a constant-detection dataset and drop the never-detected animals.

    Each of ``n_true`` animals gets ``k`` independent Bernoulli(p) detections.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"detection probability must be in [0, 1], got {p}")
    if n_true < 1 or k < 1:
        raise ValueError("n_true and k must be positive")
    rng = np.random.default_rng(seed)
    full = rng.binomial(1, p, size=(n_true, k))
    return _keep_observed(full, k)


def simulate_mh(n_true: int, alpha: float, beta: float, k: int, seed: int) -> CaptureHistory:
    """Simulate a heterogeneous-detection dataset.

    Each animal draws its own detection probability once from Beta(alpha, beta)
    and keeps it across all ``k`` occasions; never-detected animals are dropped.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("Beta shapes must be positive")
    if n_true < 1 or k < 1:
        raise ValueError("n_true and k must be positive")
    rng = np.random.default_rng(seed)
    p_i = rng.beta(alpha, beta, size=n_true)
    full = rng.binomial(1, p_i[:, None], size=(n_true, k))
    return _keep_observed(full, k)


def _format_from_path(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        return fmt
    suffix = path.suffix.lower().lstrip(".")
    if suffix in ("json", "csv"):
        return suffix
    raise ValueError(f"cannot infer dataset format from {path.name}; pass fmt=")


BLOCK = 8192
"""Values per text block of a FloatColumn, and rows per write of write_csv."""

class FloatColumn:
    """A float array rendered once into its ``float.__repr__`` literals.

    The literals are kept as one comma-joined string per block of ``BLOCK``
    values, so that a report can write the same text into its JSON and its CSV
    without formatting a float twice. :func:`write_json` writes a top-level
    FloatColumn value as the array ``json.dumps`` would write for its values.
    Iterating yields the literals one by one, as CSV cells for
    :func:`write_csv`; that is how ``csv.writer`` writes a float too.
    """

    __slots__ = ("blocks", "finite")

    def __init__(self, values):
        values = np.asarray(values, dtype=float).ravel()
        self.finite = bool(np.isfinite(values).all())
        self.blocks = tuple(
            ",".join(map(repr, values[i : i + BLOCK].tolist())) for i in range(0, values.size, BLOCK)
        )

    def __iter__(self):
        return chain.from_iterable(block.split(",") for block in self.blocks)


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2)`` with a final newline.

    A top-level value of a dict payload may be a :class:`FloatColumn` of finite
    values. It is written block by block as the indented array of its values;
    every other value goes through ``json.dumps``.
    """
    columns = [v for v in payload.values() if isinstance(v, FloatColumn)] if isinstance(payload, dict) else []
    if not columns:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
        return
    if not all(column.finite for column in columns):
        raise ValueError("a FloatColumn written to JSON must hold finite values")
    with Path(path).open("w") as fh:
        fh.write("{\n")
        for i, (key, value) in enumerate(payload.items()):
            if i:
                fh.write(",\n")
            if isinstance(value, FloatColumn) and value.blocks:
                fh.write(json.dumps({key: []}, indent=2)[2:-4] + "[\n    ")
                for j, block in enumerate(value.blocks):
                    if j:
                        fh.write(",\n    ")
                    fh.write(block.replace(",", ",\n    "))
                fh.write("\n  ]")
            else:
                # '{\n  "key": value\n}' without its braces is the item at indent level 1
                fh.write(json.dumps({key: [] if isinstance(value, FloatColumn) else value}, indent=2)[2:-2])
        fh.write("\n}\n")


def _plain_csv_block(rows: list) -> str | None:
    """The CSV text of ``rows`` if every cell is a string that ``csv.writer``
    would not quote, else None."""
    try:
        lines = list(map(",".join, rows))
    except TypeError:  # a cell that is not a string
        return None
    text = "\r\n".join(lines) + "\r\n"
    n_rows = len(rows)
    if (
        '"' in text
        or text.count(",") != sum(map(len, rows)) - n_rows  # a cell holds a comma
        or text.count("\r") != n_rows
        or text.count("\n") != n_rows
        or "" in lines  # a lone empty cell is written as ""
    ):
        return None
    return text


def write_csv(path: str | Path, rows) -> None:
    """Write an iterable of rows, header first, as ``csv.writer`` would.

    The rows are written ``BLOCK`` at a time. A block whose cells are all
    strings that need no quoting is joined and written in one piece; any
    other block goes through ``csv.writer``, which writes floats as their repr.
    """
    rows = iter(rows)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        # tuple() keeps a one-shot row iterator for the fallback; a tuple row is not copied
        while block := list(map(tuple, islice(rows, BLOCK))):
            text = _plain_csv_block(block)
            if text is None:
                writer.writerows(block)
            else:
                fh.write(text)


def store_history(history: CaptureHistory, path: str | Path, fmt: str | None = None) -> None:
    """Write a dataset as JSON ({"K": ..., "histories": [...]}) or header-less CSV."""
    path = Path(path)
    fmt = _format_from_path(path, fmt)
    if fmt == "json":
        write_json(path, {"K": history.k, "histories": [list(row) for row in history.rows]})
    elif fmt == "csv":
        write_csv(path, history.rows)
    else:
        raise ValueError(f"unknown dataset format {fmt!r}")


def load_history(path: str | Path, fmt: str | None = None) -> CaptureHistory:
    """Read a dataset written by :func:`store_history`.

    Raises InvalidHistoryError for all-zero rows, ragged rows, or non-binary
    entries; CSV files must be non-empty because the occasion count is inferred
    from the row length.
    """
    path = Path(path)
    fmt = _format_from_path(path, fmt)
    if fmt == "json":
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise InvalidHistoryError(f"malformed JSON dataset: {exc}") from exc
        if not isinstance(payload, dict) or "K" not in payload or "histories" not in payload:
            raise InvalidHistoryError('JSON dataset needs keys "K" and "histories"')
        try:
            return CaptureHistory(k=payload["K"], rows=payload["histories"])
        except (TypeError, ValueError) as exc:
            if isinstance(exc, InvalidHistoryError):
                raise
            raise InvalidHistoryError(f"malformed JSON dataset: {exc}") from exc
    if fmt == "csv":
        with path.open(newline="") as fh:
            try:
                rows = [tuple(int(v) for v in row) for row in csv.reader(fh) if row]
            except ValueError as exc:
                raise InvalidHistoryError(f"non-integer CSV entry: {exc}") from exc
        if not rows:
            raise InvalidHistoryError("empty CSV dataset: occasion count cannot be inferred")
        return CaptureHistory(k=len(rows[0]), rows=tuple(rows))
    raise ValueError(f"unknown dataset format {fmt!r}")
