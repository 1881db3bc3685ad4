import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbayes.data import (
    BLOCK,
    CaptureHistory,
    FloatColumn,
    InvalidHistoryError,
    SufficientStats,
    _render_floats,
    load_history,
    simulate_m0,
    simulate_mh,
    store_history,
    summarize,
    write_csv,
    write_json,
    write_table_csv,
)

from oracles import recount_stats


def test_summarize_small_example():
    stats = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))
    assert stats.m_k1 == 2
    assert stats.n_dot == 3
    assert stats.n_j == (2, 1)
    assert stats.f_j == (1, 1)
    assert stats.recaptures == 1


def test_summarize_empty_dataset():
    stats = summarize(CaptureHistory(k=3, rows=()))
    assert stats.m_k1 == 0
    assert stats.n_dot == 0
    assert stats.f_j == (0, 0, 0)


def test_all_zero_row_rejected():
    with pytest.raises(InvalidHistoryError, match="unobserved"):
        CaptureHistory(k=2, rows=((1, 0), (0, 0)))


def test_ragged_rows_rejected():
    with pytest.raises(InvalidHistoryError, match="length"):
        CaptureHistory(k=2, rows=((1, 0), (1, 1, 0)))


def test_non_binary_entries_rejected():
    # fractional entries must not truncate to 0 or 1
    for entry in (2, 0.5, 1.9):
        with pytest.raises(InvalidHistoryError, match="non-binary"):
            CaptureHistory(k=2, rows=((1, entry),))


def test_inconsistent_stats_rejected():
    with pytest.raises(ValueError):
        SufficientStats(m_k1=2, k=2, n_dot=4, n_j=(2, 1), f_j=(1, 1))


def test_summarize_matches_double_loop_recount():
    history = simulate_m0(500, 0.35, 4, seed=20240115)
    stats = summarize(history)
    expected = recount_stats([list(r) for r in history.rows], history.k)
    assert stats.m_k1 == expected["m_k1"]
    assert stats.n_dot == expected["n_dot"]
    assert stats.n_j == expected["n_j"]
    assert stats.f_j == expected["f_j"]
    assert stats.n_dot == sum(j * f for j, f in enumerate(stats.f_j, start=1))


def test_simulate_m0_no_detection():
    history = simulate_m0(10, 0.0, 5, seed=1)
    assert history.n_observed == 0


def test_simulate_m0_certain_detection():
    history = simulate_m0(10, 1.0, 5, seed=1)
    assert history.n_observed == 10
    assert summarize(history).n_dot == 50


def test_simulate_m0_inclusion_fraction():
    n_true, p, k = 200, 0.3, 5
    history = simulate_m0(n_true, p, k, seed=99)
    p_inc = 1.0 - (1.0 - p) ** k
    se = np.sqrt(p_inc * (1.0 - p_inc) / n_true)
    assert abs(history.n_observed / n_true - p_inc) <= 3.0 * se


def test_simulate_m0_pooled_capture_frequency():
    n_true, p, k = 4000, 0.35, 3
    stats = summarize(simulate_m0(n_true, p, k, seed=7))
    trials = n_true * k
    se = np.sqrt(p * (1.0 - p) / trials)
    assert abs(stats.n_dot / trials - p) <= 4.0 * se


def test_simulate_m0_rejects_bad_p():
    with pytest.raises(ValueError):
        simulate_m0(10, 1.3, 5, seed=0)


def test_simulate_mh_rejects_bad_shapes():
    with pytest.raises(ValueError):
        simulate_mh(10, 0.0, 1.0, 5, seed=0)
    for shapes in ((np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="positive"):
            simulate_mh(10, *shapes, 5, seed=0)


def test_simulate_mh_uniform_rate_single_occasion():
    # with p ~ Beta(1,1) and one occasion, an animal is observed w.p. 1/2
    hits = sum(simulate_mh(1, 1.0, 1.0, 1, seed=s).n_observed for s in range(10_000))
    se = np.sqrt(0.25 / 10_000)
    assert abs(hits / 10_000 - 0.5) <= 3.0 * se


def test_simulate_mh_concentrated_beta_approaches_constant_detection():
    # Beta(3000, 7000) has mean 0.3 and negligible variance
    n_true, k = 2000, 5
    stats = summarize(simulate_mh(n_true, 3000.0, 7000.0, k, seed=5))
    trials = n_true * k
    se = np.sqrt(0.3 * 0.7 / trials)
    assert abs(stats.n_dot / trials - 0.3) <= 4.0 * se


def test_simulate_mh_single_occasion_counts():
    history = simulate_mh(50, 2.0, 1.0, 1, seed=3)
    assert summarize(history).f_j == (history.n_observed,)


def test_simulators_reproducible_per_seed():
    assert simulate_m0(40, 0.4, 3, seed=12).rows == simulate_m0(40, 0.4, 3, seed=12).rows
    assert simulate_mh(40, 2.0, 3.0, 3, seed=12).rows == simulate_mh(40, 2.0, 3.0, 3, seed=12).rows
    assert simulate_m0(40, 0.4, 3, seed=12).rows != simulate_m0(40, 0.4, 3, seed=13).rows


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_store_load_round_trip(tmp_path, fmt):
    history = CaptureHistory(k=2, rows=((1, 0), (0, 1), (1, 1)))
    path = tmp_path / f"data.{fmt}"
    store_history(history, path)
    assert load_history(path) == history


def test_round_trip_empty_dataset_json(tmp_path):
    history = CaptureHistory(k=2, rows=())
    path = tmp_path / "empty.json"
    store_history(history, path)
    assert load_history(path) == history


def test_store_refuses_empty_dataset_as_csv(tmp_path):
    # a CSV without rows cannot say how many occasions there were
    path = tmp_path / "empty.csv"
    with pytest.raises(ValueError, match="no rows as CSV.*K = 3.*JSON"):
        store_history(CaptureHistory(k=3, rows=()), path)
    assert not path.exists()


@pytest.mark.parametrize("name", ["d.txt", "d", "d.json.bak"])
def test_suffix_is_the_format(tmp_path, name):
    # the suffix alone says the format: any other is refused before a file is touched
    path = tmp_path / name
    with pytest.raises(ValueError, match=r"name it \.json or \.csv$"):
        store_history(CaptureHistory(k=2, rows=((1, 0),)), path)
    assert not path.exists()
    path.write_text('{"K": 2, "histories": [[1, 0]]}')
    with pytest.raises(ValueError, match=r"name it \.json or \.csv$"):
        load_history(path)


def test_cross_format_stats_agree(tmp_path):
    history = simulate_m0(80, 0.4, 4, seed=2)
    store_history(history, tmp_path / "d.json")
    store_history(history, tmp_path / "d.csv")
    assert summarize(load_history(tmp_path / "d.json")) == summarize(load_history(tmp_path / "d.csv"))


def test_load_rejects_zero_row(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"K": 2, "histories": [[1, 0], [0, 0]]}')
    with pytest.raises(InvalidHistoryError):
        load_history(path)


def test_load_rejects_k_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"K": 3, "histories": [[1, 0]]}')
    with pytest.raises(InvalidHistoryError):
        load_history(path)


def test_load_rejects_non_binary_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n2,1\n")
    with pytest.raises(InvalidHistoryError):
        load_history(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    for text in (
        "{not json",
        '{"K": 2, "histories": [[1, 0.5], [1, 1]]}',
        '{"K": 2.7, "histories": [[1, 0], [1, 1]]}',
    ):
        path.write_text(text)
        with pytest.raises(InvalidHistoryError):
            load_history(path)


COLUMN_LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,  # zeros, subnormals, the smallest normal
    1e-05, 9.999999999999999e-05, 0.0001, -0.00012,  # scientific below 1e-4, fixed from 0.0001
    9999999999999998.0, 1e16, -1.2345678901234567e16, 1234567890123456.8,  # fixed below 1e16
    1e100, -1.5e-100, 1.7976931348623157e308, 1e-307,  # three-digit exponents
    1.0 / 3.0, -2.0 / 3.0, 1.0, -123.456, 100.0,
]


def _floats(n: int, seed: int) -> np.ndarray:
    """EDGE_FLOATS, then random values of both signs from about 1e-40 to 1;
    the second half is the tail of a data-rich table's mass, a band of
    subnormals and then exact zeros."""
    rng = np.random.default_rng(seed)
    values = rng.random(n) ** 40 * rng.choice([-1.0, 1.0], n)
    tail = values[n // 2 :]
    tail[:120] = rng.random(tail[:120].size) * 1e-310
    tail[120:] = 0.0
    values[: len(EDGE_FLOATS)] = EDGE_FLOATS[:n]
    return values


def _csv_writer_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _first_difference(got: str, expected: str):
    """None when equal, else the first differing offset with some context;
    a short message, where pytest would diff two long texts line by line."""
    if got == expected:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
    return i, got[max(i - 20, 0) : i + 20], expected[max(i - 20, 0) : i + 20]


@pytest.mark.parametrize("at", [0, 2, 5], ids=["first", "middle", "last"])
@pytest.mark.parametrize("n", COLUMN_LENGTHS[1:])
def test_write_json_column_matches_json_dumps(tmp_path, n, at):
    values = _floats(n, seed=n)
    items = [("support", [1, n]), ("mean", 2.5), ("warnings", ["a,b"]), ("inf", np.inf), ("tail", {"k": [0.5]})]
    payload = dict(items[:at] + [("mass", values.tolist())] + items[at:])
    write_json(tmp_path / "c.json", {**payload, "mass": FloatColumn(values)})
    assert _first_difference((tmp_path / "c.json").read_text(), json.dumps(payload, indent=2) + "\n") is None


def test_write_json_refuses_an_empty_or_second_column(tmp_path):
    for payload in ({"support": [1, 0], "mass": FloatColumn([])}, {"a": FloatColumn([1.0]), "b": FloatColumn([2.0])}):
        with pytest.raises(ValueError, match="one FloatColumn, non-empty"):
            write_json(tmp_path / "c.json", payload)
    assert not (tmp_path / "c.json").exists()


def test_write_json_rejects_non_finite_column(tmp_path):
    for bad in (np.inf, -np.inf, np.nan):
        values = np.array([1.5, 0.0] * BLOCK + [bad])
        with pytest.raises(ValueError, match="finite"):
            write_json(tmp_path / "c.json", {"mass": FloatColumn(values), "n": 1})
    # a non-finite plain float is still spelled as json spells it
    write_json(tmp_path / "c.json", {"mass": FloatColumn([1.5]), "tail": np.inf, "sd": np.nan})
    assert (tmp_path / "c.json").read_text() == json.dumps({"mass": [1.5], "tail": np.inf, "sd": np.nan}, indent=2) + "\n"


@pytest.mark.parametrize("n", COLUMN_LENGTHS)
def test_write_csv_matches_csv_writer(tmp_path, n):
    mass = _floats(n, seed=n)
    with np.errstate(divide="ignore"):
        log_kernel = np.log(np.abs(mass))  # -inf at the zeros
    rows = [("N", "mass", "log_kernel"), *zip(range(7, n + 7), mass.tolist(), log_kernel.tolist())]
    expected = _csv_writer_text(rows)
    # the column lays out its shared words, and log_kernel is rendered BLOCK rows at a time
    write_table_csv(tmp_path / "c.csv", ("N", "mass", "log_kernel"), 7, FloatColumn(mass), log_kernel)
    assert _first_difference((tmp_path / "c.csv").read_bytes().decode(), expected) is None
    if n >= len(EDGE_FLOATS):
        assert "\r\n7,0.0,-inf\r\n8,-0.0,-inf\r\n9,5e-324,-744.4400719213812\r\n" in expected
        assert "\r\n12,1e-05,-11.512925464970229\r\n" in expected
    # plain rows go through csv.writer itself
    write_csv(tmp_path / "p.csv", rows)
    assert (tmp_path / "p.csv").read_bytes().decode() == expected


def _rendered(values: np.ndarray) -> list[str]:
    """The renderer's text of each value, rendered BLOCK values at a time."""
    texts = []
    for start in range(0, values.size, BLOCK):
        words = _render_floats(values[start : start + BLOCK])
        lines = np.concatenate([words, np.full((1, words.shape[1]), ord("\n"), np.uint64)])
        texts += lines.T.astype("<u8").tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    return texts


def _mismatches(values: np.ndarray) -> list[tuple[str, str]]:
    """(repr, rendered) for the values whose rendered text is not their repr."""
    return [(want, got) for want, got in zip(map(repr, values.tolist()), _rendered(values)) if want != got]


def test_render_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(20260418).integers(0, 2**64, size=2**20, dtype=np.uint64, endpoint=False)
    assert _mismatches(bits.view(np.float64))[:5] == []


def test_render_matches_repr_on_powers_of_two_and_layout_cuts():
    # the interval below a power of two is half as wide; the cuts of the layout
    # are scientific below 1e-4 and from 1e16, with three exponent digits from 1e100
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    cuts = np.array([1e-05, 0.0001, 9999999999999998.0, 1e16, 1e100, 1e-100])
    values = np.concatenate([powers, cuts])
    values = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])
    assert _mismatches(np.concatenate([values, -values]))[:5] == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=2**62),
)
def test_write_table_csv_matches_csv_writer_on_any_floats(tmp_path_factory, pairs, start):
    # st.floats() draws subnormals, both zeros, both infinities and NaN
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    x, y = np.array(pairs).T
    write_table_csv(path, ("N", "x", "y"), start, FloatColumn(x), y)
    rows = [("N", "x", "y"), *((start + i, x, y) for i, (x, y) in enumerate(pairs))]
    assert path.read_bytes().decode() == _csv_writer_text(rows)


@pytest.mark.parametrize(
    "cell", ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\n", "", " padded ", "plain"]
)
def test_write_csv_quotes_string_cells_as_csv_writer_does(tmp_path, cell):
    for rows in (
        [("x", "y"), (cell, "1")],
        [(cell,)],
        [("1", "2")] * (BLOCK - 1) + [("3", cell)] + [("4", "5")] * 3,
        [(cell, cell), (), ("7",), [cell]],
    ):
        write_csv(tmp_path / "q.csv", rows)
        assert _first_difference((tmp_path / "q.csv").read_bytes().decode(), _csv_writer_text(rows)) is None
    # rows that are one-shot iterators, as csv.writer accepts them
    rows = [("x", "y"), (cell, "1"), ("2", "3")]
    write_csv(tmp_path / "i.csv", map(iter, rows))
    assert (tmp_path / "i.csv").read_bytes().decode() == _csv_writer_text(rows)


@st.composite
def histories(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=k, max_size=k).filter(lambda r: any(r)),
            min_size=0,
            max_size=8,
        )
    )
    return CaptureHistory(k=k, rows=tuple(tuple(r) for r in rows))


@settings(max_examples=100, deadline=None)
@given(histories())
def test_capture_count_identity_fuzzed(history):
    stats = summarize(history)
    assert stats.n_dot == sum(j * f for j, f in enumerate(stats.f_j, start=1))
    assert stats.m_k1 == sum(stats.f_j)
    assert stats.recaptures >= 0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_simulate_then_summarize_invariants(n_true, p, k, seed):
    stats = summarize(simulate_m0(n_true, p, k, seed))
    assert stats.recaptures >= 0
    assert stats.m_k1 <= n_true
