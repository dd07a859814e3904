#!/usr/bin/env python3
"""Record and compare the repository benchmark (``BENCHMARK.json``).

Both subcommands drive ``perfbench/run.py --seconds 0``, one measured pass
per run, and read the JSON verdict on the last line of its output::

    # Record the next BENCH_<n>.json: for every workload, the verdict of an
    # untraced pass (end-to-end metrics) and of a traced pass (per-layer).
    python3 tools/bench.py point

    # Paired untraced passes of a git revision against the working tree,
    # alternating which side runs first, then one traced pass per side.
    python3 tools/bench.py compare main --workload programmable-serial --pairs 3

``compare`` checks BASE out with ``git worktree`` into a temporary
directory.  ``perfbench/run.py`` puts its own tree's ``src/`` first on
``sys.path``, and so does the daemon it spawns, so each side measures its
own code.  It prints, per workload, each end-to-end metric's base and head
median with quartiles, the head/base ratio and the pairs head won, then the
per-layer deltas of the traced passes.  It exits 1 when a head verdict is
not correct or has failures, or when the head median of a gated metric is
worse than the base median by more than that metric's ``bound`` in
``BENCHMARK.json``.  A base verdict that fails is an error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: End-to-end metrics the comparison gates on.  ``setup_s`` and
#: ``peak_rss_mb`` are reported but not gated.
GATED = ("wall_s", "sim_minstr_per_s", "ok_frac", "paper_gap")


class BenchError(Exception):
    """A run gave no verdict, git failed, or the base side is not sound."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git(*args: str) -> str:
    completed = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
    )
    if completed.returncode:
        raise BenchError(f"git {' '.join(args)}: {completed.stderr.strip()}")
    return completed.stdout.strip()


def last_verdict(stdout: str) -> dict:
    """The JSON verdict on the last line of ``run.py``'s standard output."""

    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as error:
        raise BenchError(f"run.py printed no JSON verdict: {lines[-1:]}") from error


def run_pass(tree: Path, workload: str, trace: int) -> dict:
    """One ``--seconds 0`` pass of ``workload`` by ``tree``'s own benchmark."""

    completed = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if completed.returncode:
        raise BenchError(
            f"{tree}: run.py --workload {workload} exited {completed.returncode}\n"
            + completed.stderr[-2000:]
        )
    return last_verdict(completed.stdout)


def unsound(verdicts: list[dict]) -> list[str]:
    """One line per verdict that is not ``correct: true, failed: 0``."""

    return [
        f"verdict {index}: correct={verdict.get('correct')}, failed={verdict.get('failed')}"
        for index, verdict in enumerate(verdicts)
        if not (verdict.get("correct") is True and verdict.get("failed") == 0)
    ]


def value(verdict: dict, metric: str) -> float:
    return verdict["metrics"][metric]["value"]


def spread(values: list[float]) -> tuple[float, str]:
    """The median, and the median with its quartiles as a table cell."""

    q1 = median = q3 = values[0]
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, f"{median:.4g} [{q1:.4g}-{q3:.4g}]"


def ratio(head: float, base: float) -> str:
    return f"{head / base:8.3f}x" if base else f"{'-':>9}"


def judge(spec: dict, workload: str, base: list[dict], head: list[dict]):
    """Table lines and gate failures for one workload.

    ``base`` and ``head`` hold each side's verdicts: the paired untraced
    passes in pair order, then the one traced pass.
    """

    problems = unsound(base)
    if problems:
        raise BenchError(f"{workload}: base is not sound: {'; '.join(problems)}")
    failures = [f"{workload}: head {problem}" for problem in unsound(head)]
    *base_runs, base_traced = base
    *head_runs, head_traced = head
    lines = [f"{workload}: {len(head_runs)} pairs; median [q1-q3]; * = gated",
             f"  {'metric':<20}{'base':>28}{'head':>28}  head/base  head wins"]
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [value(verdict, name) for verdict in base_runs]
        new = [value(verdict, name) for verdict in head_runs]
        (old_median, old_cell), (new_median, new_cell) = spread(old), spread(new)
        wins = sum((n < o) if lower else (n > o) for o, n in zip(old, new))
        mark = "*" if name in GATED else " "
        lines.append(f"  {name + mark:<20}{old_cell:>28}{new_cell:>28}  "
                     f"{ratio(new_median, old_median)}  {wins}/{len(new)}")
        if name in GATED:
            bound = metric["bound"]
            worse = (new_median > old_median * (1 + bound) if lower
                     else new_median < old_median * (1 - bound))
            if worse:
                failures.append(f"{workload}: {name} head median {new_median:.4g} is worse "
                                f"than base {old_median:.4g} by more than {bound:.0%}")
    lines.append(f"  {'per layer (one traced pass each)':<40}{'base':>12}{'head':>12}  head/base")
    for metric in spec["per_layer"]:
        name = metric["name"]
        old, new = value(base_traced, name), value(head_traced, name)
        lines.append(f"  {name:<40}{old:>12.4g}{new:>12.4g}  {ratio(new, old)}")
    return lines, failures


def collect(base_tree: Path, workload: str, pairs: int) -> tuple[list[dict], list[dict]]:
    trees = {"base": base_tree, "head": ROOT}
    verdicts: dict[str, list[dict]] = {"base": [], "head": []}
    for index in range(pairs):
        for side in ("base", "head") if index % 2 == 0 else ("head", "base"):
            verdicts[side].append(run_pass(trees[side], workload, 0))
            wall_s = value(verdicts[side][-1], "wall_s")
            print(f"{workload} pair {index + 1}/{pairs} {side}: wall_s {wall_s:.3f}", flush=True)
    for side in ("base", "head"):
        verdicts[side].append(run_pass(trees[side], workload, 1))
    return verdicts["base"], verdicts["head"]


def compare(spec: dict, base: str, workloads: list[str], pairs: int) -> int:
    print(f"base {base} ({git('rev-parse', base)[:12]}) vs head: the working tree "
          f"at {git('rev-parse', 'HEAD')[:12]}", flush=True)
    failures = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as scratch:
        base_tree = Path(scratch) / "tree"
        git("worktree", "add", "--detach", str(base_tree), base)
        try:
            for workload in workloads:
                lines, found = judge(spec, workload, *collect(base_tree, workload, pairs))
                print("\n".join(lines), flush=True)
                failures += found
        finally:
            git("worktree", "remove", "--force", str(base_tree))
    for failure in failures:
        print(f"FAIL: {failure}")
    print("FAIL" if failures else "OK: no gated metric regressed beyond its bound")
    return 1 if failures else 0


def next_point(directory: Path) -> Path:
    numbers = [int(match.group(1)) for path in directory.glob("BENCH_*.json")
               if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    return directory / f"BENCH_{max(numbers, default=-1) + 1}.json"


def point(spec: dict) -> int:
    workloads = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        workloads[workload] = {"end_to_end": run_pass(ROOT, workload, 0),
                               "per_layer": run_pass(ROOT, workload, 1)}
        print(f"{workload}: wall_s {value(workloads[workload]['end_to_end'], 'wall_s'):.3f}",
              flush=True)
    problems = [f"{workload} {view} {problem}" for workload, views in workloads.items()
                for view, verdict in views.items() for problem in unsound([verdict])]
    if problems:
        print("\n".join(["not recorded:", *problems]), file=sys.stderr)
        return 1
    path = next_point(ROOT)
    record = {"commit": git("rev-parse", "HEAD"), "python": platform.python_version(),
              "machine": platform.machine(), "workloads": workloads}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("point", help="record the next BENCH_<n>.json")
    paired = commands.add_parser("compare", help="paired runs of BASE against the working tree")
    paired.add_argument("base", metavar="BASE", help="git revision to compare against")
    paired.add_argument("--workload", action="append", choices=names,
                        help="repeatable (default: every workload in BENCHMARK.json)")
    paired.add_argument("--pairs", type=int, default=10, help="untraced pairs (default: 10)")
    args = parser.parse_args(argv)
    try:
        if args.command == "point":
            return point(spec)
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        return compare(spec, args.base, args.workload or names, args.pairs)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
