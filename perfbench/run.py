"""seqtransfer benchmark: three workloads through the real CLI, in one process.

    python3 perfbench/run.py --workload decode_lm --seed 1 --seconds 25 --trace 0

Run from anywhere; it benchmarks the seqtransfer source in `src/` of the
checkout that holds this file, and exits 2 without a result when there is
none.  Each run sets the workload up several times from the seed (the
median is `setup_s`), then makes timed CLI calls one after another, a
closed loop with one client, until `--seconds` have passed and every input
of the workload's rotation has had a call.  Outputs are checked: every call
exits 0, decoded text uses only vocabulary characters, repeated calls on
one input write byte-identical reports and checkpoints, and a training call
lowers its train loss.

`--trace 0` reports the end-to-end metrics.  `--trace 1` makes each call
twice, untraced and then traced, and reports per-layer metrics from the
traced ones (see layers.py), plus the tracing overhead: the median
difference between the two calls of a pair.  The last stdout line is
the result object; the line before it is a record of the machine, the
sizes, the output digests and any problems found.  The default seed is
DEFAULT_SEED; HELD_OUT_SEED is kept back to confirm gain claims.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from spans import Tracer, median
from workloads import FULL, TINY, WORKLOADS, Files, digest, foreign_chars, \
    hypotheses_digest, printed_cer, report_hypotheses, report_totals, train_losses, \
    tree_digest

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 90210
# Typical time of one reference loop (see Calibration) on the 2-vCPU Intel
# Xeon virtual machine the benchmark was tuned on.
REF_NOMINAL_S = 0.016


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0, help="timed-loop length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--workdir", type=Path, default=ROOT / ".perfbench_work",
                   help="scratch directory (default: .perfbench_work in the checkout)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class SetupError(Exception):
    pass


def run_cli(cli, argv):
    """One in-process CLI call: (exit code, seconds, stdout, stderr).  An
    exception escaping cli.main counts as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback is a failed call, not a failed benchmark
            traceback.print_exc()
            rc = -1
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Calibration:
    """How fast the machine runs right now, from a fixed loop of Python
    arithmetic and small NumPy calls, the mix the workloads run.

    On a shared machine the same CPU work can take 1.5 times longer from one
    minute to the next.  Timing the reference loop before and after each
    measured interval and dividing the interval by their mean (relative to
    REF_NOMINAL_S) cancels most of that drift; the loop does not touch the
    program, so no change to it can move the factor."""

    def __init__(self, np):
        self._np = np
        self._a = np.linspace(-1.0, 1.0, 1024).reshape(32, 32)
        self.reference_s: list[float] = [self._measure()]

    def _loop(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i
        for _ in range(1500):
            self._np.tanh(self._a @ self._a)
        return time.perf_counter() - t0

    def _measure(self) -> float:
        return statistics.median(self._loop() for _ in range(3))

    def scale(self, seconds: float) -> float:
        """Seconds of an interval that ended just now, as they would read
        on the nominal machine."""
        before = self.reference_s[-1]
        self.reference_s.append(self._measure())
        return seconds * REF_NOMINAL_S / ((before + self.reference_s[-1]) / 2)


def machine_record(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    env = {v: os.environ.get(v) for v in THREAD_VARS}
    threads = blas_threads()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": vendor, "blas_threads": threads,
            "thread_env": env,
            "threads_pinned": all(v == "1" for v in env.values()) and threads in (1, None)}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before NumPy loads its BLAS
        os.environ[var] = "1"
    pkg = ROOT / "src" / "seqtransfer"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no seqtransfer source at {pkg}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import seqtransfer
    from seqtransfer import cli
    if Path(seqtransfer.__file__).resolve().parent != pkg:
        print(f"error: imported seqtransfer from {seqtransfer.__file__}, not {pkg}",
              file=sys.stderr)
        return 2

    machine = machine_record(np)
    if not machine["threads_pinned"]:
        print(f"warning: BLAS threads are not pinned to 1: {machine}", file=sys.stderr)
    work = args.workdir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(cli, WORKLOADS[args.workload], TINY if args.tiny else FULL, args.seed,
                      work, Tracer(layers.PACKAGE, layers.TARGETS) if args.trace else None,
                      Calibration(np))
        bench.set_up()
        bench.timed_loop(args.seconds)
        bench.score()
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        metrics = layers.layer_metrics(bench.tracer)
        metrics["bench.call_s"] = {"value": median(bench.all_seconds(False)), "unit": "s"}
        metrics["bench.trace_overhead_s"] = {"value": median(bench.trace_pairs), "unit": "s"}
        for name, m in metrics.items():
            if "absent" in m:
                print(f"note: {name} is absent: {m['absent']}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": median(bench.setup_seconds), "unit": "s"},
            "frames_per_s": {"value": bench.rate("frames"), "unit": "frames/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    # reported, not bounded: both vary with the seed far more than timing
    # noise does (see README.md)
    unbounded = {
        "samples_per_s": {"value": bench.rate("samples"), "unit": "1/s"},
        "cer": {"value": bench.cer, "unit": "ratio"},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "sizes": vars(bench.sizes), "machine": machine, "unbounded": unbounded,
              "setup_s": bench.setup_seconds,
              "call_s": {"untraced": bench.seconds[False], "traced": bench.seconds[True]},
              "trace_pairs_s": bench.trace_pairs,
              "raw_setup_s": bench.raw_setup_seconds,
              "raw_call_s": {"untraced": bench.raw_seconds[False],
                             "traced": bench.raw_seconds[True]},
              "reference_s": bench.cal.reference_s,
              "parts": [vars(p) | {"manifest": Path(p.manifest).name} for p in bench.parts],
              "digests": bench.digests, "problems": bench.problems}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


class Bench:
    def __init__(self, cli, workload, sizes, seed, work: Path, tracer, cal: Calibration):
        self.cli, self.w, self.sizes, self.seed, self.dir = cli, workload, sizes, seed, work
        self.tracer, self.cal = tracer, cal
        self.parts = []  # the timed calls' inputs, known after set-up
        # calibrated seconds (see Calibration), and as measured; set-ups, and
        # calls by traced, then by part
        self.setup_seconds: list[float] = []
        self.raw_setup_seconds: list[float] = []
        self.seconds: dict[bool, dict[int, list[float]]] = {False: {}, True: {}}
        self.raw_seconds: dict[bool, dict[int, list[float]]] = {False: {}, True: {}}
        # traced minus untraced seconds of two back-to-back calls on one part
        self.trace_pairs: list[float] = []
        self.digests: dict[str, list[str]] = {}
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.cer: float | None = None
        self.part_cer: dict[int, float] = {}
        self.files = None
        self.first_output: dict[int, Path] = {}  # kept for scoring, by part
        self._ops = 0

    @contextlib.contextmanager
    def _traced(self, on: bool, phase: str):
        if not on:
            yield
            return
        self.tracer.install()
        try:
            with self.tracer.operation(self._ops, phase):
                yield
        finally:
            self.tracer.uninstall()
            self._ops += 1

    def _digest(self, key: str, value: str) -> None:
        seen = self.digests.setdefault(key, [])
        if seen and value != seen[0]:
            self.problems.append(f"{key} differs between repeats: {seen[0]} then {value}")
        seen.append(value)

    def all_seconds(self, traced: bool) -> list[float]:
        return [s for secs in self.seconds[traced].values() for s in secs]

    def rate(self, unit: str) -> float:
        """Frames or samples per calibrated second over one pass through the
        parts: their total over the sum of each part's median call."""
        done = [k for k in range(len(self.parts)) if self.seconds[False].get(k)]
        if not done:
            return 0.0
        return (sum(getattr(self.parts[k], unit) for k in done)
                / sum(median(self.seconds[False][k]) for k in done))

    def set_up(self) -> None:
        for rep in range(self.w.setup_reps(self.sizes)):
            f = Files(self.dir / f"setup{rep}")
            raw = scaled = 0.0
            with self._traced(self.tracer is not None, layers.SETUP):
                for argv in self.w.setup(f, self.seed, self.sizes):
                    rc, dt, _, err = run_cli(self.cli, argv)
                    if rc != 0:
                        raise SetupError(f"set-up `{argv[0]}` exited {rc}: {err.strip()}")
                    raw += dt
                    scaled += self.cal.scale(dt)
            self.raw_setup_seconds.append(raw)
            self.setup_seconds.append(scaled)
            self._digest("setup.data", tree_digest(f.data))
            self._digest("setup.lm", digest(f.lm))
            if self.w.trains_source:
                self._digest("setup.source_ckpt", digest(f.source_ckpt))
            if rep == 0:
                self.files = f
                self.parts = self.w.parts(f, self.sizes, self.seed)
            else:
                shutil.rmtree(f.root)

    def timed_loop(self, seconds: float) -> None:
        """Calls one after another until `seconds` have passed and every
        part has had a call; a traced run calls each part untraced, then
        traced, and stops after a whole pair."""
        deadline = time.perf_counter() + seconds
        tracing = self.tracer is not None
        n = len(self.parts)
        i = 0
        untraced_s = None  # seconds of the last untraced call, if it succeeded
        while True:
            k, traced = ((i // 2) % n, i % 2 == 1) if tracing else (i % n, False)
            out = self.dir / f"call{i}"
            out.mkdir()
            argv = self.w.call(self.files, out, self.sizes, self.parts[k])
            with self._traced(traced, layers.TIMED):
                rc, dt, stdout, stderr = run_cli(self.cli, argv)
            self.attempted += 1
            i += 1
            scaled = self.cal.scale(dt)
            if rc != 0:
                self.failed += 1
                self.problems.append(f"call {i - 1} exited {rc}: {stderr.strip()[-500:]}")
                untraced_s = None
            else:
                self.raw_seconds[traced].setdefault(k, []).append(dt)
                self.seconds[traced].setdefault(k, []).append(scaled)
                if traced and untraced_s is not None:
                    self.trace_pairs.append(scaled - untraced_s)
                untraced_s = None if traced else scaled
                self._check_output(k, out, stdout)
            if self.first_output.get(k) is None or self.first_output[k].parent != out:
                shutil.rmtree(out)
            if time.perf_counter() >= deadline and i >= (2 * n if tracing else n) \
                    and not (tracing and i % 2):
                break

    def _check_output(self, k: int, out: Path, stdout: str) -> None:
        output = out / self.w.output
        key = "" if len(self.parts) == 1 else f".part{k}"
        if self.w.score_on is None:
            self._check_report(output, stdout, "hypotheses" + key, k)
        elif output.is_file():
            self._digest("checkpoint" + key, digest(output))
        else:
            self.problems.append(f"{out.name} wrote no {output.name}")
        if self.w.loss_log is not None and (out / self.w.loss_log).is_file():
            self._digest("loss_log" + key, digest(out / self.w.loss_log))
        self.first_output.setdefault(k, output)

    def score(self) -> None:
        """CER of the outputs, outside the timed loop: pooled over the first
        report of every part, or the greedy CER of the first written
        checkpoint; then the workload's training check."""
        if self.w.score_on is None:
            try:
                totals = [report_totals(p) for p in self.first_output.values()]
            except (OSError, ValueError, IndexError) as e:
                self.problems.append(f"report totals: {e}")
                return
            if totals:
                self.cer = sum(e for e, _ in totals) / sum(c for _, c in totals)
        elif 0 in self.first_output:
            report = self.dir / "score_report.tsv"
            rc, _, stdout, stderr = run_cli(self.cli, [
                "eval", "--checkpoint", str(self.first_output[0]),
                "--data", self.files.manifest(*self.w.score_on), "--report", str(report)])
            if rc != 0:
                self.problems.append(f"scoring eval exited {rc}: {stderr.strip()[-500:]}")
                return
            self._check_report(report, stdout, "score_hypotheses", None)
            self.cer = self.part_cer.get(None)
        if self.w.loss_log is not None and self.sizes.quality_gates and 0 in self.first_output:
            try:
                losses = train_losses(self.first_output[0].parent / self.w.loss_log)
            except (OSError, ValueError, IndexError) as e:
                self.problems.append(f"{self.w.loss_log}: {e}")
                return
            if len(losses) < 2 or not losses[-1] < losses[0]:
                self.problems.append(f"train loss did not fall over the epochs: {losses}")

    def _check_report(self, report: Path, stdout: str, key: str, k) -> None:
        """Vocabulary check and digest of an `eval --report` file, and the CER
        eval printed, which must repeat for the same input `k`."""
        try:
            hyps = report_hypotheses(report)
            value = printed_cer(stdout)
        except (OSError, ValueError) as e:
            self.problems.append(f"{key}: {e}")
            return
        bad = foreign_chars(hyps, self.files.vocab)
        if bad:
            self.problems.append(f"{key}: non-vocabulary characters {sorted(bad)}")
        self._digest(key, hypotheses_digest(hyps))
        seen = self.part_cer.setdefault(k, value)
        if value != seen:
            self.problems.append(f"{key}: CER differs between repeats: {seen} then {value}")


if __name__ == "__main__":
    sys.exit(main())
