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
    if not (alpha > 0 and beta > 0):
        raise ValueError("Beta shapes must be positive")
    if n_true < 1 or k < 1:
        raise ValueError("n_true and k must be positive")
    rng = np.random.default_rng(seed)
    p_i = rng.beta(alpha, beta, size=n_true)
    full = rng.binomial(1, p_i[:, None], size=(n_true, k))
    return _keep_observed(full, k)


def _format_from_path(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in ("json", "csv"):
        return suffix
    raise ValueError(f"cannot tell the dataset format of {path.name}: name it .json or .csv")


BLOCK = 4096
"""Values per call of the float renderer: report columns are rendered and
written this many values at a time. One call's temporaries peak at about
600 bytes per value, 2.4 MB traced at 4096 values against 4.9 MB at 8192.
A table build holds only a few arrays of its support's size, so the
report writes set a wide ``analyze``'s peak RSS: at ``--n-max 300000`` it
is 71 MB at 4096 against 74 MB at 8192. Rendering 3e5 values takes about
58 ms, against 54 ms at 8192 (one thread, 2-vCPU Xeon VM)."""

# The renderers build text in uint64 words: byte i of a value's text is bits
# 8i..8i+7 of its words, stored little-endian, and NUL bytes are padding that
# the writers delete.
_U = np.uint64
_S1, _S2, _S32, _S52, _S56, _S63 = map(_U, (1, 2, 32, 52, 56, 63))
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_FRAC, _HIDDEN, _FLOOR4 = _U(2**52 - 1), _U(2**52), _U(2**64 - 4)
_TEN, _E16 = _U(10), _U(10**16)

# A value's layout depends on decpt, the position of its decimal point
# (value = 0.d1d2... 10^decpt), stored at decpt - _DECPT_MIN; _ZERO_DECPT
# stands for a zero.
_DECPT_MIN, _ZERO_DECPT = -330, 400


def _exponent_tables():
    """Schubfach's constants by row e + 2048 irregular, for a biased exponent
    e and the irregular case of c = 2^52 with e > 1: h, decpt - _DECPT_MIN of
    a 17-digit result, and g = floor(10^-k 2^-r) + 1 in [2^125, 2^126) as
    g1 2^63 + g0, given as g1 and the 32-bit halves of g1 and g0.

    Exponents 0 and 2047 (zeros, subnormals, infinities, NaN) get the row of
    1.0; the renderer overwrites their text, except at row 4095, the row of a
    zero, whose decpt is _ZERO_DECPT."""
    powers = []
    for k in range(-324, 293):
        r = ((-k * 913124641741) >> 38) - 125  # floor(log2 10^-k) - 125
        p = 10 ** abs(k)
        g = (1 << -r) // p if k > 0 else p << -r if r < 0 else p >> r
        g1, g0 = divmod(g + 1, 2**63)
        powers.append((g1, g1 >> 32, g0 >> 32, g1 & 0xFFFFFFFF, g0 & 0xFFFFFFFF))
    powers = np.array(powers, dtype=np.uint64).T
    e, irregular = np.arange(4096) % 2048, np.arange(4096) >= 2048
    odd = (e == 0) | (e == 2047)
    e[odd], irregular[odd] = 1023, True
    q = e - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10 2^q), or of 3/4 2^q
    r = ((-k * 913124641741) >> 38) - 125
    dp = k + 17 - _DECPT_MIN
    dp[4095] = _ZERO_DECPT - _DECPT_MIN
    g = powers[:, k + 324]
    h = (q + r + 127).astype(np.uint64)
    return g[0], g[1:3].reshape(2, 1, 4096).copy(), g[3:].reshape(2, 1, 4096).copy(), h, dp


_G1, _G_HIGH, _G_LOW, _H, _DP = _exponent_tables()

_QUADS = np.arange(10000)
# the four ASCII digits of 0..9999, then (at 10000 + x) the same with trailing zeros as NUL
_DIGITS4 = sum((_QUADS // 10 ** (3 - i) % 10 + 48) << (8 * i) for i in range(4)).astype(np.uint64)
_TRAILING = (_QUADS % 10 == 0).astype(int) + (_QUADS % 100 == 0) + (_QUADS % 1000 == 0) + (_QUADS == 0)
_KEEP = np.array([2 ** (32 - 8 * t) - 1 for t in range(5)], dtype=np.uint64)
_GROUP_TEXT = np.concatenate([_DIGITS4, _DIGITS4 & _KEEP[_TRAILING]])

# the first digit 1..9 at byte 7 of the digit words
_LEAD = (np.arange(10, dtype=np.uint64) + _U(48)) << _S56

_DECPTS = np.arange(_DECPT_MIN, _ZERO_DECPT + 1)
_FIXED = (_DECPTS > -4) & (_DECPTS <= 16)
# layout class: decpt + 3 for the fixed notation, 20 and 21 for d.ddde-XX with
# two and three exponent digits, 22 for a zero
_CLASS = np.where(_FIXED, _DECPTS + 3, np.where(np.abs(_DECPTS - 1) < 100, 20, 21))
_CLASS[-1] = 22
# by decpt and sign bit: the exponent suffix "e+XX" or "e-XXX", at byte 18
# (19 after a '-') of the text, in word 2
_EXP = np.abs(_DECPTS - 1)
_SUFFIX = ord("e") | np.where(_DECPTS > 0, _U(ord("+") << 8), _U(ord("-") << 8)) | (
    _DIGITS4[_EXP] >> np.where(_EXP < 100, _U(16), _U(8)) << _U(16)
)
_SUFFIX[(_CLASS < 20) | (_CLASS == 22)] = 0
_SUFFIX = (_SUFFIX[:, None] << np.array([16, 24], dtype=np.uint64)).ravel()


def _layouts() -> np.ndarray:
    """Rows by class, sign bit and whether there is more than one significant
    digit (column 4 class + 2 sign + more).

    The 17 digits sit at bytes 7..23 of four digit words, trailing zeros as
    NUL. Rows 0-3: right shifts that move the digits before and after the
    point into place, and the matching left shifts of the next word (a shift
    by 64 bits gives 0 in numpy). Rows 4-12, per output word: the masks of the
    digits before and after the point, and the text around them, with the
    bits of '0' where a digit must show even when it is a trailing zero."""
    out = np.zeros((13, 23 * 4), dtype=np.uint64)
    for col in range(out.shape[1]):
        cls, neg, more = col // 4, col // 2 % 2, col % 2
        head = b"-" if neg else b""
        if cls == 22:
            head, point, shown = head + b"0.0", None, 0
        elif cls >= 20:
            point, shown = (1 if more else None), 1
        elif cls <= 3:  # decpt <= 0
            head, point, shown = head + b"0." + b"0" * (3 - cls), None, 1
        else:
            point, shown = cls - 3, cls - 2
        start = len(head)
        text, before, after = bytearray(head.ljust(24, b"\0")), bytearray(24), bytearray(24)
        for j in range(17 if cls != 22 else 0):
            at = start + j + (point is not None and j >= point)
            (after if at > start + j else before)[at] = 0xFF
            if j < shown:
                text[at] = ord("0")
        if point is not None:
            text[start + point] = ord(".")
        out[:4, col] = 8 * (7 - start), 8 * (6 - start), 64 - 8 * (7 - start), 64 - 8 * (6 - start)
        for w in range(3):
            for row, bytes_ in ((4, before), (7, after), (10, text)):
                out[row + w, col] = int.from_bytes(bytes_[8 * w : 8 * w + 8], "little")
    return out


_LAYOUT = _layouts()


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of a b, from the 32-bit halves of a < 2^63 and b < 2^60."""
    return a1 * b1 + ((a1 * b0 + a0 * b1 + ((a0 * b0) >> _S32)) >> _S32)


def _render_floats(values: np.ndarray) -> np.ndarray:
    """The ``float.__repr__`` text of each value of a float64 array, at most 24
    bytes, as a (3, n) array of words.

    A finite nonzero normal value is c 2^q with 2^52 <= c < 2^53. The decimals
    that read back as it fill the interval from (c - 1/2) 2^q, or (c - 1/4) 2^q
    at a power of two, to (c + 1/2) 2^q, ends included when c is even. Its
    shortest decimal comes from Schubfach (Giulietti, "The Schubfach way to
    render doubles", 2020) as the JDK's DoubleToDecimal computes it: scaled by
    10^-k the interval holds a 17-digit s; if exactly one of s' = 10 floor(s /
    10) and s' + 10 is in it, that shorter decimal is taken, otherwise s or
    s + 1, whichever is in, and if both are, the closer one, the even one on a
    tie. The products with 10^-k are rounded to odd from 128-bit products
    built from 32-bit halves. Zeros are laid out here too; subnormal and
    non-finite values take their text from ``repr``.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = v.view(np.uint64)
    e = (bits >> _S52).astype(np.int64) & 0x7FF
    frac = bits & _FRAC
    neg = np.signbit(v)
    odd = (e == 0) | (e == 2047)
    zero = v == 0
    e[odd] = 1023
    e[zero] = 2047
    irregular = (frac == 0) & (e > 1)
    row = e + 2048 * irregular
    c = frac | _HIDDEN
    # c and the interval's ends, times 4 2^h
    cp = np.empty((3, v.size), np.uint64)
    cp[0] = c << _S2
    cp[1] = cp[0] - _S2 + irregular
    cp[2] = cp[0] + _S2
    cp <<= _H[row]
    cp1, cp0 = cp >> _S32, cp & _M32
    g1_high, g0_high = _mulhi(_G_HIGH.take(row, axis=2), _G_LOW.take(row, axis=2), cp1, cp0)
    z = ((_G1[row] * cp) >> _S1) + g0_high
    vb, vbl, vbr = (g1_high + (z >> _S63)) | (((z & _M63) + _M63) >> _S63)
    out = c & _S1  # the ends are out of the interval for odd c
    low, high = vbl + out, vbr - out  # the interval, times 4 10^-k
    s = vb >> _S2
    sp10 = s // _TEN * _TEN
    upin = low <= sp10 << _S2
    wpin = (sp10 << _S2) + _U(40) <= high
    uin = low <= (vb & _FLOOR4)  # 4 s
    win = (vb | _U(3)) < high  # 4 (s + 1) <= high
    take_t = win & (~uin | ((vb & _U(3)) + (s & _S1) > 2))
    f = np.where(upin ^ wpin, sp10 + wpin * _TEN, s + take_t)
    short = f < _E16  # f has 16 or 17 digits: make it 17
    f[short] *= _TEN
    dp = _DP[row] - short
    # the digits, in int64 (f < 10^17) to index the tables
    lead, rest = np.divmod(f.view(np.int64), 10**16)
    high8, low8 = np.divmod(rest, 10**8)
    d1, d2 = np.divmod(high8, 10**4)
    d3, d4 = np.divmod(low8, 10**4)
    # a group's trailing zeros are NUL when the groups after it are zero
    digits = np.empty((4, v.size), np.uint64)
    digits[0] = _LEAD[lead]
    tail = 10000 * (low8 == 0)
    digits[1] = _GROUP_TEXT[d1 + tail * (d2 == 0)] | (_GROUP_TEXT[d2 + tail] << _S32)
    digits[2] = _GROUP_TEXT[d3 + 10000 * (d4 == 0)] | (_GROUP_TEXT[d4 + 10000] << _S32)
    digits[3] = 0
    layout = _LAYOUT.take(_CLASS[dp] * 4 + neg * 2 + (rest != 0), axis=1)
    before = (digits[:3] >> layout[0]) | (digits[1:] << layout[2])
    after = (digits[:3] >> layout[1]) | (digits[1:] << layout[3])
    words = (before & layout[4:7]) | (after & layout[7:10]) | layout[10:13]
    words[2] |= _SUFFIX[dp * 2 + neg]
    for i in np.flatnonzero(odd & ~zero):
        words[:, i] = np.frombuffer(repr(float(v[i])).encode().ljust(24, b"\0"), "<u8")
    return words


_POW10 = 10 ** np.arange(19)
# [w][i]: the mask of word w's bytes from byte i of the text on
_FROM = np.array(
    [[2**64 - (1 << 8 * min(max(i - 8 * w, 0), 8)) for i in range(21)] for w in range(3)], dtype=np.uint64
)


def _render_ints(values: np.ndarray) -> np.ndarray:
    """The decimal text of each nonnegative int64, as a (3, n) array of words:
    twenty digits, leading zeros as NUL."""
    x = np.asarray(values, dtype=np.int64)
    top, rest = np.divmod(x, 10**16)
    high8, low8 = np.divmod(rest, 10**8)
    d1, d2 = np.divmod(high8, 10**4)
    d3, d4 = np.divmod(low8, 10**4)
    words = np.empty((3, x.size), np.uint64)
    words[0] = _DIGITS4[top] | (_DIGITS4[d1] << _S32)
    words[1] = _DIGITS4[d2] | (_DIGITS4[d3] << _S32)
    words[2] = _DIGITS4[d4]
    leading = 20 - np.maximum(np.searchsorted(_POW10, x, side="right"), 1)
    return words & _FROM.take(leading, axis=1)


def _text(records: np.ndarray) -> bytes:
    """The bytes of a block of records without their NUL padding."""
    return records.tobytes().translate(None, b"\0")


class FloatColumn:
    """The float array of a posterior table's ``mass``, which :func:`write_json`
    and :func:`write_table_csv` both write as the ``repr`` text of its values.

    The text is rendered once, ``BLOCK`` values at a time, when a writer first
    needs it, and kept as 24 bytes of words per value, which every later write
    of the column lays out again. The values must not change after that.
    """

    __slots__ = ("values", "_words")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float).ravel()
        self._words = None

    def words(self) -> np.ndarray:
        """The (n, 3) words of :func:`_render_floats`, one row per value."""
        if self._words is None:
            words = np.empty((self.values.size, 3), np.uint64)
            for start in range(0, self.values.size, BLOCK):
                words[start : start + BLOCK] = _render_floats(self.values[start : start + BLOCK]).T
            self._words = words
        return self._words


_JSON_SEPARATOR = b",\n    "


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2)`` with a final newline.

    A dict payload may hold one top-level :class:`FloatColumn`, non-empty and
    of finite values (``ValueError`` otherwise). The items before it go
    through one ``json.dumps``, and so do the items after it; the column's
    words are laid out ``BLOCK`` values at a time, each value followed by the
    separator of an indented array.
    """
    keys = list(payload) if isinstance(payload, dict) else []
    columns = [i for i, key in enumerate(keys) if isinstance(payload[key], FloatColumn)]
    if not columns:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
        return
    at = columns[0]
    key, column = keys[at], payload[keys[at]]
    if len(columns) > 1 or not column.values.size or not np.isfinite(column.values).all():
        raise ValueError("a JSON payload may hold one FloatColumn, non-empty and of finite values")
    # the items before and after the column at indent level 1, each
    # '{\n  "key": value,\n ...\n}' without its braces: '' when there are none
    before, after = (json.dumps({k: payload[k] for k in part}, indent=2)[2:-2]
                     for part in (keys[:at], keys[at + 1 :]))
    head = "{\n" + (before + ",\n" if before else "") + json.dumps({key: []}, indent=2)[2:-4] + "[\n    "
    words = column.words()
    # per value: three words of text, then one of separator
    records = np.zeros((min(BLOCK, len(words)), 4), "<u8")
    records[:, 3] = int.from_bytes(_JSON_SEPARATOR, "little")
    with Path(path).open("wb") as fh:
        fh.write(head.encode())
        for start in range(0, len(words), BLOCK):
            block = records[: len(words) - start]
            block[:, :3] = words[start : start + BLOCK]
            text = _text(block)
            fh.write(text if start + BLOCK < len(words) else text[: -len(_JSON_SEPARATOR)])
        fh.write(("\n  ]" + (",\n" + after if after else "") + "\n}\n").encode())


def write_csv(path: str | Path, rows) -> None:
    """Write an iterable of rows, header first, with ``csv.writer``."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_table_csv(path: str | Path, header, start: int, column: FloatColumn, values) -> None:
    """Write the rows ``(start + i, column.values[i], values[i])``, header
    first, byte for byte as ``csv.writer`` writes them: each float as its
    ``repr``.

    ``start`` is a nonnegative integer and ``values`` a float array of the
    column's length. The column's cells are its shared words. The rows go
    ``BLOCK`` at a time: one call renders a block of ``values``, and the
    block's rows are laid out in one record matrix. The header's cells must
    need no quoting.
    """
    words, values = column.words(), np.asarray(values, dtype=float).ravel()
    # per row: three words of the integer and one of ',', then the same for
    # each float, with a line end after the last one
    records = np.zeros((min(BLOCK, len(words)), 12), "<u8")
    records[:, 3::4] = ord(",")
    records[:, -1] = int.from_bytes(b"\r\n", "little")
    with Path(path).open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for first in range(0, len(words), BLOCK):
            block = records[: len(words) - first]
            block[:, :3] = _render_ints(np.arange(start + first, start + first + len(block))).T
            block[:, 4:7] = words[first : first + BLOCK]
            block[:, 8:11] = _render_floats(values[first : first + BLOCK]).T
            fh.write(_text(block))


def store_history(history: CaptureHistory, path: str | Path) -> None:
    """Write a dataset as JSON ({"K": ..., "histories": [...]}) or header-less CSV.

    CSV infers K from the row length, so a history with no rows is refused
    before the file is opened.
    """
    path = Path(path)
    if _format_from_path(path) == "json":
        write_json(path, {"K": history.k, "histories": [list(row) for row in history.rows]})
    elif not history.rows:
        raise ValueError(
            f"cannot store a history with no rows as CSV: its occasion count K = {history.k} "
            "would be lost; use JSON, which keeps K"
        )
    else:
        write_csv(path, history.rows)


def load_history(path: str | Path) -> CaptureHistory:
    """Read a dataset written by :func:`store_history`.

    Raises InvalidHistoryError for all-zero rows, ragged rows, or non-binary
    entries; CSV files must be non-empty because the occasion count is inferred
    from the row length.
    """
    path = Path(path)
    if _format_from_path(path) == "json":
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
    with path.open(newline="") as fh:
        try:
            rows = [tuple(int(v) for v in row) for row in csv.reader(fh) if row]
        except ValueError as exc:
            raise InvalidHistoryError(f"non-integer CSV entry: {exc}") from exc
    if not rows:
        raise InvalidHistoryError("empty CSV dataset: occasion count cannot be inferred")
    return CaptureHistory(k=len(rows[0]), rows=tuple(rows))
