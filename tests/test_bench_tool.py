"""Tests for tools/bench.py on synthetic verdicts; nothing here runs the benchmark."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tool", Path(__file__).resolve().parents[1] / "tools" / "bench.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = bench.load_spec()
PAIRS = (10.0, 10.4, 9.6)


def verdict(correct=True, failed=0, **values):
    """A verdict with every ``BENCHMARK.json`` metric at 1.0 except ``values``."""

    names = [metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]]
    metrics = {name: {"value": values.get(name, 1.0), "unit": "-"} for name in names}
    return {"correct": correct, "attempted": 40, "failed": failed, "metrics": metrics}


def judge(base_runs, head_runs, base_traced=None, head_traced=None):
    """Lines and failures for paired untraced runs plus one traced pass per side."""

    return bench.judge(
        SPEC, "w", base_runs + [base_traced or verdict()], head_runs + [head_traced or verdict()]
    )


@pytest.mark.parametrize(
    "metric, factor, fails",
    [
        ("wall_s", 1.30, True),
        ("wall_s", 1.20, False),
        # Higher is better: fewer simulated instructions per second is worse.
        ("sim_minstr_per_s", 0.70, True),
        ("sim_minstr_per_s", 1.30, False),
        ("ok_frac", 0.98, True),
        ("paper_gap", 1.20, True),
        # Reported, not gated.
        ("setup_s", 2.00, False),
        ("peak_rss_mb", 2.00, False),
    ],
)
def test_head_median_is_gated_on_the_benchmark_bound(metric, factor, fails):
    base = [verdict(**{metric: value}) for value in PAIRS]
    head = [verdict(**{metric: value * factor}) for value in PAIRS]
    _lines, failures = judge(base, head)
    assert [metric in failure for failure in failures] == ([True] if fails else [])


@pytest.mark.parametrize(
    "head_runs, head_traced",
    [
        ([verdict(correct=False, wall_s=1.0)] + [verdict(wall_s=1.0)] * 2, None),
        ([verdict(failed=1, wall_s=1.0)] + [verdict(wall_s=1.0)] * 2, None),
        ([verdict(wall_s=1.0)] * 3, verdict(correct=False, failed=1)),
    ],
)
def test_unsound_head_verdict_fails_whatever_its_timings(head_runs, head_traced):
    base = [verdict(wall_s=value) for value in PAIRS]
    _lines, failures = judge(base, head_runs, head_traced=head_traced)
    assert len(failures) == 1 and "head verdict" in failures[0]


def test_unsound_base_verdict_is_an_error_not_a_pass():
    with pytest.raises(bench.BenchError, match="base is not sound"):
        judge([verdict(failed=1)] + [verdict()] * 2, [verdict()] * 3)


def test_table_reports_medians_wins_and_every_layer():
    base = [verdict(wall_s=value) for value in PAIRS]
    head = [verdict(wall_s=value) for value in (9.0, 10.5, 9.5)]
    lines, failures = judge(base, head, head_traced=verdict(**{"cpu.run_self_s": 2.0}))
    assert not failures
    (wall,) = [line for line in lines if line.split()[0] == "wall_s*"]
    assert "10 [9.8-10.2]" in wall and "9.5 [9.25-10]" in wall
    assert wall.split()[-2:] == ["0.950x", "2/3"]
    assert all(any(line.split()[0] == metric["name"] for line in lines)
               for metric in SPEC["per_layer"])
    (layer,) = [line for line in lines if line.split()[0] == "cpu.run_self_s"]
    assert layer.split()[1:] == ["1", "2", "2.000x"]


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def fake_run_pass(tree, workload, trace):
        calls.append(("base" if tree == Path("base") else "head", trace))
        return verdict()

    monkeypatch.setattr(bench, "run_pass", fake_run_pass)
    base, head = bench.collect(Path("base"), "w", 3)
    assert len(base) == len(head) == 4
    assert calls == [("base", 0), ("head", 0), ("head", 0), ("base", 0),
                     ("base", 0), ("head", 0), ("base", 1), ("head", 1)]


def test_last_verdict_ignores_the_human_readable_lines_above_it():
    stdout = ("Figure 7 bars simulated by w (seed 42):\n"
              '  intsort {"not": "json"}\n'
              '{"correct": true, "failed": 0, "metrics": {}}\n\n')
    assert bench.last_verdict(stdout) == {"correct": True, "failed": 0, "metrics": {}}


@pytest.mark.parametrize("stdout", ["", "Per-layer aggregate (traced pass)\n"])
def test_output_without_a_verdict_is_an_error(stdout):
    with pytest.raises(bench.BenchError, match="no JSON verdict"):
        bench.last_verdict(stdout)


@pytest.mark.parametrize(
    "existing, expected",
    [
        ((), "BENCH_0.json"),
        (("BENCH_0.json", "BENCH_2.json", "BENCH_10.json", "BENCH_x.json"), "BENCH_11.json"),
        (tuple(f"BENCH_{n}.json" for n in range(7)) + ("BENCH_x.json",), "BENCH_7.json"),
    ],
)
def test_point_numbering(tmp_path, existing, expected):
    for name in existing:
        (tmp_path / name).write_text("{}")
    assert bench.next_point(tmp_path).name == expected
