"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/ab_pairs.py PARENT WORKLOAD [WORKLOAD ...] [--pairs N] [--seed S]

PARENT is any git revision of this repository.  WORKLOAD names a workload
of BENCHMARK.json; `all` stands for every one of them.  The script
extracts PARENT with `git archive`, and copies the working tree (tracked
and untracked files that git does not ignore), each into a temporary
directory.  It then runs `perfbench/run.py --trace 0`, at its default run
length, N times per workload on each side.  Pair i runs every workload in
turn, each on both sides, and swaps which side goes first from one pair to
the next.  For every workload and every end-to-end metric that
BENCHMARK.json declares, it prints both medians, the parent's
interquartile range, the ratio of the medians, the number of pairs the
working tree won (a tie counts for neither side), the no-regression gate:

- `worse`: the working tree's median is worse than the parent's by more
  than the metric's relative `bound`;
- `unresolved`: otherwise, when the parent's IQR / median exceeds the
  bound, unless every run of the working tree reads better than every run
  of the parent;
- `ok`: otherwise;

and whether the runs support a claimed gain (`claim`): `yes` when the
values pass the paired test (at least ten pairs, the working tree won at
least 9/10 of them, and its median is better than the parent's by more
than the parent's IQR) and its share of failed calls (failed / attempted
over all its runs) is no larger than the parent's.  For `frames_per_s`
the raw call seconds (below) must pass the same paired test, lower being
better, so calibration drift alone cannot claim a faster rate.

A `raw call s` row follows, with no gate and no claim of its own: each
side's median over its runs of a run's median untraced call seconds as
measured (the record's `raw_call_s`, before calibration), and their ratio.
When the calibrated rate moves on a workload whose code did not change,
this row tells a machine or layout effect from the code.

It also says whether every output digest was the same on both sides, and
lists failed calls.  Each pair's values go to stderr as
the runs finish.  It writes nothing inside the repository; the temporary
directory is removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision to compare against")
    p.add_argument("workloads", nargs="+", metavar="WORKLOAD",
                   help="workload names, or all for every workload")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def extract(parent: str, dest: Path) -> None:
    """The parent revision into dest/parent, the working tree into dest/change."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest / "parent", filter="data")
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / "change" / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / "change" / name)


def select_workloads(names: list[str], declared: list[str]) -> list[str]:
    """The named workloads in declared order; `all` names every one.
    Raises ValueError on a name BENCHMARK.json does not declare."""
    unknown = sorted(set(names) - set(declared) - {"all"})
    if unknown:
        raise ValueError(f"unknown workload {unknown[0]!r}")
    return [w for w in declared if "all" in names or w in names]


def run_pairs(workloads: list[str], pairs: int, run, metrics: list[str]) -> dict:
    """runs[workload][side][i] is run(side, workload) of pair i.  Each pair
    runs every workload on both sides, parent first in even pairs and the
    working tree first in odd ones, and prints the named metrics of each
    workload to stderr."""
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(pairs):
        for w in workloads:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[w][side].append(run(side, w))
            p, c = (runs[w][side][-1]["result"]["metrics"] for side in SIDES)
            values = ", ".join(f"{n} {p[n]['value']:.6g} -> {c[n]['value']:.6g}" for n in metrics)
            print(f"pair {i + 1}/{pairs} {w}: {values}", file=sys.stderr)
    return runs


def run_side(tree: Path, work: Path, workload: str, seed: int) -> dict:
    """One perfbench run: {"record": ..., "result": ...} from its last two lines."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0", "--workdir", str(work)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree.name}: run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def paired(parent: list[float], change: list[float], higher: bool) -> tuple[int, float, float]:
    """The pairs the change won, its median's gain over the parent's, and
    the parent's IQR.  A NaN value wins no pair and is left out of the
    medians and the IQR; with none left on a side the gain is NaN."""
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    parent, change = ([v for v in vals if v == v] for vals in (parent, change))
    if not parent or not change:
        return won, float("nan"), float("nan")
    gain = statistics.median(change) - statistics.median(parent)
    return won, gain if higher else -gain, iqr(parent)


def passes(pairs: int, won: int, gain: float, spread: float) -> bool:
    """The paired test of a claimed gain (a NaN gain fails it)."""
    return pairs >= 10 and 10 * won >= 9 * pairs and gain > spread


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric over the paired runs (runs[side][i] is
    pair i's run of that side)."""
    failed_share = {side: sum(r["result"]["failed"] for r in runs[side])
                    / max(1, sum(r["result"]["attempted"] for r in runs[side])) for side in SIDES}
    raw = [run_raw_s(runs[side]) for side in SIDES]
    raw_faster = passes(len(raw[0]), *paired(*raw, higher=False))
    rows = []
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        vals = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                for side in SIDES}
        parent_med, change_med = (statistics.median(vals[s]) for s in SIDES)
        won, gain, spread = paired(vals["parent"], vals["change"], higher)
        every_run_better = (min(vals["change"]) > max(vals["parent"]) if higher
                            else max(vals["change"]) < min(vals["parent"]))
        bound, pairs = spec["bound"] * abs(parent_med), len(vals["parent"])
        rows.append({"metric": name, "unit": spec["unit"], "better": spec["better"],
                     "parent": parent_med, "change": change_med, "parent_iqr": spread,
                     "ratio": change_med / parent_med if parent_med else float("nan"),
                     "won": won, "pairs": pairs, "beyond_iqr": gain > spread,
                     "claim": passes(pairs, won, gain, spread)
                     and failed_share["change"] <= failed_share["parent"]
                     and (name != "frames_per_s" or raw_faster),
                     "gate": "worse" if -gain > bound else
                     "unresolved" if spread > bound and not every_run_better else "ok"})
    return rows


def run_raw_s(runs: list[dict]) -> list[float]:
    """Each run's median untraced raw call seconds; NaN for a run that timed
    no call."""
    return [statistics.median(calls) if (calls := [
        s for part in r["record"]["raw_call_s"]["untraced"].values() for s in part])
        else float("nan") for r in runs]


def raw_call_s(runs: list[dict]) -> float:
    """The median over runs of run_raw_s, NaN left out; NaN when no run
    timed a call."""
    meds = [m for m in run_raw_s(runs) if m == m]
    return statistics.median(meds) if meds else float("nan")


def digest_mismatches(runs: dict[str, list[dict]]) -> list[str]:
    """Digest keys whose values are not one and the same on both sides."""
    values: dict[str, dict[str, set]] = {}
    for side in SIDES:
        for run in runs[side]:
            for key, seen in run["record"]["digests"].items():
                values.setdefault(key, {s: set() for s in SIDES})[side].update(seen)
    return sorted(key for key, by_side in values.items()
                  if len(by_side["parent"] | by_side["change"]) != 1
                  or not by_side["parent"] or not by_side["change"])


def report(runs: dict[str, list[dict]], end_to_end: list[dict]) -> str:
    out = [f"{'metric':<14}{'parent':>12}{'change':>12}{'parent IQR':>12}"
           f"{'ratio':>8}{'won':>8}  beyond IQR  gate        claim"]
    for r in summarize(runs, end_to_end):
        out.append(f"{r['metric']:<14}{r['parent']:>12.4g}{r['change']:>12.4g}"
                   f"{r['parent_iqr']:>12.4g}{r['ratio']:>8.3f}{r['won']:>5}/{r['pairs']:<2}"
                   f"  {'yes' if r['beyond_iqr'] else 'no':<10}  {r['gate']:<10}"
                   f"  {'yes' if r['claim'] else 'no':<5}  ({r['better']} is better)")
    parent, change = (raw_call_s(runs[side]) for side in SIDES)
    out.append(f"{'raw call s':<14}{parent:>12.4g}{change:>12.4g}{'':>12}{change / parent:>8.3f}"
               "  (uncalibrated; informational, no gate)")
    bad = digest_mismatches(runs)
    out.append("digests: all equal between the sides" if not bad
               else f"digests: differ for {', '.join(bad)}")
    for side in SIDES:
        failed = sum(r["result"]["failed"] for r in runs[side])
        wrong = sum(not r["result"]["correct"] for r in runs[side])
        if failed or wrong:
            out.append(f"{side}: {failed} failed calls, {wrong} runs with problems")
    return "\n".join(out)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        workloads = select_workloads(args.workloads, [w["name"] for w in spec["workloads"]])
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    try:
        extract(args.parent, tmp)
        runs = run_pairs(workloads, args.pairs,
                         lambda side, w: run_side(tmp / side, tmp / "work", w, args.seed),
                         [m["name"] for m in spec["end_to_end"]])
    except subprocess.CalledProcessError as e:
        print(f"error: {' '.join(e.cmd)}: {e.stderr.decode().strip()}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for w in workloads:
        print(f"{w}, seed {args.seed}, {args.pairs} pairs, {args.parent} -> working tree")
        print(report(runs[w], spec["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
