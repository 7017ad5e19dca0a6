"""Trace invariants and CSV round-trips."""

import pytest

from shsade_pids.trace import SearchTrace, TraceError


def make_trace():
    t = SearchTrace(metadata={"algorithm": "demo", "seed": "1"})
    t.append(0, 50, 10.0, 20.0)
    t.append(1, 100, 8.0, 15.0)
    t.append(2, 150, 8.0, 12.0)
    return t


def test_append_keeps_invariants():
    t = make_trace()
    t.validate()
    assert t.final_best == 8.0
    assert t.final_evaluations == 150


def test_append_rejects_decreasing_evaluations():
    t = make_trace()
    with pytest.raises(TraceError):
        t.append(3, 140, 7.0, 10.0)


def test_append_rejects_increasing_best():
    t = make_trace()
    with pytest.raises(TraceError):
        t.append(3, 200, 9.0, 10.0)


def test_append_rejects_non_finite():
    t = SearchTrace()
    with pytest.raises(TraceError):
        t.append(0, 1, float("inf"), 0.0)


def test_equal_evaluations_coalesce():
    t = make_trace()
    t.append(5, 150, 7.5, 11.0)
    assert len(t) == 3
    assert t.rows[-1].generation == 5
    assert t.rows[-1].best_fitness == 7.5


def test_best_at_step_function():
    t = make_trace()
    assert t.best_at(50) == 10.0
    assert t.best_at(120) == 8.0
    assert t.best_at(10_000) == 8.0
    with pytest.raises(TraceError):
        t.best_at(10)


def test_csv_round_trip(tmp_path):
    t = make_trace()
    path = tmp_path / "trace.csv"
    t.write_csv(path)
    back = SearchTrace.read_csv(path)
    assert back.metadata == t.metadata
    assert [r.as_tuple() for r in back.rows] == [r.as_tuple() for r in t.rows]
    # a second write is byte-identical
    path2 = tmp_path / "again.csv"
    back.write_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("generation,evaluations,best\n0,1,2\n")
    with pytest.raises(TraceError):
        SearchTrace.read_csv(path)


def test_read_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("generation,evaluations,best_fitness,mean_fitness\n0,ten,2.0,3.0\n")
    with pytest.raises(TraceError):
        SearchTrace.read_csv(path)


def test_read_rejects_a_file_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# seed: 1\ngeneration,evaluations,best_fitness,mean_fitness\n")
    with pytest.raises(TraceError, match="no trace rows"):
        SearchTrace.read_csv(path)


def test_read_rejects_violated_invariants(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "generation,evaluations,best_fitness,mean_fitness\n"
        "0,100,5.0,6.0\n"
        "1,50,4.0,5.0\n"
    )
    with pytest.raises(TraceError):
        SearchTrace.read_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,100,4.0,5.0", "repeats the evaluation count"),
        ("1,50,4.0,5.0", "must not decrease"),
        ("1,200,6.0,5.0", "must not increase"),
        ("1,200,nan,5.0", "finite"),
    ],
)
def test_read_names_the_line_of_a_broken_invariant(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"# seed: 1\ngeneration,evaluations,best_fitness,mean_fitness\n0,100,5.0,6.0\n{row}\n")
    with pytest.raises(TraceError, match=f"bad.csv:4: .*{message}"):
        SearchTrace.read_csv(path)


@pytest.mark.parametrize(
    "column, value",
    [(1, 100), (2, 9.0), (2, float("nan")), (3, float("inf"))],
    ids=["repeated_count", "rising_best", "nan_best", "infinite_mean"],
)
def test_validate_rejects_columns_that_break_an_invariant(column, value):
    t = make_trace()
    t._columns[column][2] = value
    with pytest.raises(TraceError):
        t.validate()


def test_rows_is_a_snapshot_of_the_columns(tmp_path):
    t = make_trace()
    rows = t.rows
    t.append(3, 150, 7.5, 11.0)  # same evaluation count: replaces the last row
    t.append(4, 200, 7.0, 9.5)
    assert [r.as_tuple() for r in rows] == [(0, 50, 10.0, 20.0), (1, 100, 8.0, 15.0), (2, 150, 8.0, 12.0)]
    expected = [(0, 50, 10.0, 20.0), (1, 100, 8.0, 15.0), (3, 150, 7.5, 11.0), (4, 200, 7.0, 9.5)]
    rows = t.rows
    assert [r.as_tuple() for r in rows] == expected
    rows[0].best_fitness = -1.0
    rows[1] = rows[2]
    del rows[-1]
    rows.append(rows[0])
    assert [r.as_tuple() for r in t.rows] == expected
    assert len(t) == 4
    with pytest.raises(AttributeError):
        t.rows = []

    path = tmp_path / "trace.csv"
    t.write_csv(path)
    assert path.read_text() == (
        "# algorithm: demo\n# seed: 1\ngeneration,evaluations,best_fitness,mean_fitness\n"
        "0,50,10.0,20.0\n1,100,8.0,15.0\n3,150,7.5,11.0\n4,200,7.0,9.5\n"
    )
    back = SearchTrace.read_csv(path)
    assert [r.as_tuple() for r in back.rows] == expected
    again = tmp_path / "again.csv"
    back.write_csv(again)
    assert again.read_bytes() == path.read_bytes()
