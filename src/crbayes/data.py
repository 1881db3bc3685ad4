"""Capture-recapture datasets: validation, simulation, summaries, and file I/O.

A dataset is the detection matrix of the *observed* animals only: one binary
row per animal seen at least once, one column per sampling occasion. Animals
that were never detected are not stored; simulators keep the true population
size only as experiment bookkeeping.
"""

import csv
import json
from dataclasses import dataclass
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
    if alpha <= 0 or beta <= 0:
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


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as JSON indented by two spaces, with a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_csv(path: str | Path, rows) -> None:
    """Write an iterable of rows, header first, as CSV; floats are written as their repr."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


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
