import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbayes.data import (
    CaptureHistory,
    InvalidHistoryError,
    SufficientStats,
    load_history,
    simulate_m0,
    simulate_mh,
    store_history,
    summarize,
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
