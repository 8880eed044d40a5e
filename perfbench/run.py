"""pprep benchmark runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload reports --seed 1 --seconds 16 --trace 0

Runs one workload in this single process and thread: it calls
``pprep.cli.main`` for each operation, as a user's ``pprep`` command
would, on inputs written by the seeded generator. Whole rounds of
operations run until their summed latency reaches ``--seconds``. Every
output is checked against the independent oracles in ``checks``, in a
separate checker process (``checker.py``) so that this process runs only
pprep and the harness.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, times scaled to a reference host speed by a probe
loop timed before each operation (see README.md); with ``--trace 1`` the
same operations are replayed under the span tracer and the metrics are the
per-layer ones, per attempted operation, plus the tracing overhead. The
line before it holds details: per-subcommand medians, the 90th percentile
where enough samples lie above it, each failed operation with its known
fault, and the first problems that made the run incorrect.

An operation counts as failed when it fails through one of the known
faults in ``workloads.FAULTS``, in the way recorded there. Any other
failure, and any output that a check rejects, makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 12
# The latency metrics are scaled to a reference host on which the probe
# loop in machine_probe takes PROBE_REF_MS; the 2-core host the benchmark
# was built on ranged from about 0.75 to 1.25 ms.
PROBE_ITERATIONS = 10_000
PROBE_REF_MS = 1.0
# The untimed warm-up call of each subcommand runs on a fixed pair that no
# workload draws, with small grids so that it stays quick.
WARMUP_PAIR = ((0.3, 0.1), (0.25, 0.1))
WARMUP_CONFIG = {"grid_points": 11, "design_grid_points": 5}

sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    stderr: str
    # "<type> in <file>:<function>" of an uncaught exception.
    exception: str | None
    seconds: float


@dataclass
class Record:
    op: workloads.Op
    argv: list[str]
    grid_dir: Path | None
    outcome: Outcome
    probe_ms: float
    grid_bytes: int = 0
    failed: bool = False
    # The known fault it failed through, as recorded in workloads.FAULTS.
    fault: str | None = None

    @property
    def ref_seconds(self) -> float:
        """Latency scaled to the reference host speed."""
        return self.outcome.seconds * PROBE_REF_MS / self.probe_ms


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing pprep.cli, each
    start scaled to the reference host speed like the latencies."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", "import pprep.cli"]

    def start() -> float:
        t0 = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - t0

    times = []
    for _ in range(SETUP_REPEATS + 1):
        seconds, probe_ms = probed(start)
        times.append(seconds * PROBE_REF_MS / probe_ms)
    # The first start compiles bytecode when the checkout has none yet.
    return statistics.median(times[1:])


def cache_clearers() -> list:
    """cache_clear of every lru_cache in pprep: each operation starts as
    cold as a fresh ``pprep`` process."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "pprep" or name.startswith("pprep."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear) and getattr(value, "__module__", None) == name:
                    found.append(clear)
    return found


def call_main(main, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the pprep process would die with exit 1
            code = 1
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            exception = f"{type(exc).__name__} in {Path(frame.filename).name}:{frame.name}"
            print(f"{exception}: {exc}", file=err)
        seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), exception, seconds)


def prepare(op: workloads.Op, base: Path) -> tuple[list[str], Path | None]:
    path = inputs.write_records(base, op.pair, op.fmt)
    argv = [op.command, "--input", str(path)]
    config = inputs.write_config(base.with_suffix(".config.json"), op.config)
    if config is not None:
        argv += ["--config", str(config)]
    grid_dir = None
    if op.grid_out:
        grid_dir = base.with_suffix(".grid")
        argv += ["--grid-out", str(grid_dir)]
    return argv, grid_dir


class Checker:
    """The checker process (``checker.py``), one request at a time."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "checker.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        # Wait until it has imported everything, so that it does not
        # compete with the timed calls.
        self._read()
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"checker process ended with exit code {self.proc.wait()}")
        return json.loads(line)

    def check(self, record: Record) -> str | None:
        """The failed check for ``record``'s output, or None."""
        op = record.op
        request = {
            "command": op.command, "original": op.pair.original, "replication": op.pair.replication,
            "config": op.config, "stdout": record.outcome.stdout,
            "grid_dir": None if record.grid_dir is None else str(record.grid_dir),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()["error"]


def judge(record: Record, checker: Checker) -> str | None:
    """Check one operation's outcome; sets ``record.failed`` and returns
    what makes the run incorrect, or None.

    An operation with a known fault that fails in the recorded way counts
    as failed and the run stays correct. Any other nonzero exit counts as
    failed too but makes the run incorrect, as does any rejected output.
    """
    op, outcome = record.op, record.outcome
    if outcome.exit_code == 0:
        error = checker.check(record)
        if error is None:
            return None
    else:
        error = outcome.stderr.strip()
    fault = workloads.FAULTS.get(op.known_fault)
    known = fault is not None and outcome.exit_code == fault.exit_code and fault.signature in error
    record.failed = known or outcome.exit_code != 0
    if known:
        record.fault = op.known_fault
        return None
    return f"{op.command} {op.pair.original}/{op.pair.replication}: exit {outcome.exit_code}, {error[:300]}"


def machine_probe() -> float:
    """Milliseconds of a fixed pure-Python loop, the median of three.

    Shared hosts change speed by tens of percent within seconds; the
    probes around an operation say how fast the host ran it.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def probed(call):
    """``call()``'s result and the mean of the probes right before and
    right after it."""
    before = machine_probe()
    result = call()
    return result, (before + machine_probe()) / 2


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(main, checker: Checker, workload: str, seed: int, seconds: float, work: Path):
    clearers = cache_clearers()
    template = next(workloads.rounds(workload, seed))
    for command in dict.fromkeys(op.command for op in template):
        warm = workloads.Op(command, inputs.Pair(*WARMUP_PAIR), config=WARMUP_CONFIG,
                            grid_out=command != "test")
        argv, grid_dir = prepare(warm, work / f"warmup-{command}")
        call_main(main, argv)
        if grid_dir is not None:
            shutil.rmtree(grid_dir, ignore_errors=True)

    records: list[Record] = []
    failures: list[str] = []
    busy = 0.0
    for round_index, ops in enumerate(workloads.rounds(workload, seed)):
        for i, op in enumerate(ops):
            argv, grid_dir = prepare(op, work / f"r{round_index}-{i}")
            for clear in clearers:
                clear()
            outcome, probe_ms = probed(lambda: call_main(main, argv))
            busy += outcome.seconds
            record = Record(op, argv, grid_dir, outcome, probe_ms)
            records.append(record)
            problem = judge(record, checker)
            if problem is not None:
                failures.append(f"round {round_index} op {i} {problem}")
            if grid_dir is not None:
                record.grid_bytes = sum(f.stat().st_size for f in grid_dir.glob("*") if f.is_file())
                shutil.rmtree(grid_dir, ignore_errors=True)
        if busy >= seconds:
            return records, failures, busy, round_index + 1


def replay_traced(main, records: list[Record], trace_path: Path) -> tuple[spans.Tracer, float, list[str]]:
    """Run the recorded operations again under the tracer; returns the
    tracer, the summed traced latency at the reference host speed and any
    output that differs from the untraced call's."""
    tracer = spans.Tracer()
    clearers = cache_clearers()
    root = tracer.wrap("cli.main", main)
    mismatches = []
    traced = 0.0
    tracer.install()
    try:
        for index, record in enumerate(records):
            for clear in clearers:
                clear()
            tracer.begin_op(index)
            outcome, probe_ms = probed(lambda: call_main(root, record.argv))
            traced += outcome.seconds * PROBE_REF_MS / probe_ms
            if (outcome.exit_code, outcome.stdout) != (record.outcome.exit_code, record.outcome.stdout):
                mismatches.append(f"op {index} {record.op.command}: traced output differs")
            if record.grid_dir is not None:
                shutil.rmtree(record.grid_dir, ignore_errors=True)
    finally:
        tracer.uninstall()
    tracer.save(trace_path)
    return tracer, traced, mismatches


def end_to_end_metrics(records: list[Record], setup_s: float, peak_rss_mb: float) -> dict:
    ok = [r.ref_seconds * 1e3 for r in records if not r.failed]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_ref_s": {"value": len(ok) / sum(r.ref_seconds for r in records), "unit": "1/s"},
        "op_p50_ref_ms": {"value": statistics.median(ok), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


PER_OP_SPAN_METRICS = [
    ("special.log_kummer_m", "calls"), ("special.log_kummer_m", "self_ms"),
    ("special.normal_logpdf", "calls"), ("special.normal_logpdf", "self_ms"),
    ("inference.theta_grid", "self_ms"), ("inference.joint_grid", "self_ms"),
    ("inference.summarize", "self_ms"), ("inference.alpha_mode", "self_ms"),
    ("bayes_factors.bf01_power_prior", "self_ms"), ("bayes_factors.bf_dc_beta", "self_ms"),
    ("design.find_design", "self_ms"),
    ("hierarchical.hier_marginal_posterior_theta_r", "calls"),
    ("hierarchical.hier_marginal_posterior_theta_r", "self_ms"),
    ("cli.load_input", "ms"), ("cli.render_report", "ms"), ("cli.export", "ms"),
]


def per_layer_metrics(tracer: spans.Tracer, records: list[Record], overhead_pct: float) -> dict:
    summary = tracer.summary()
    by_name = summary["by_name"]
    n = len(records)
    zero = {"calls": 0, "ms": 0.0, "self_ms": 0.0}

    def per_op(value: float, unit: str) -> dict:
        return {"value": value / n, "unit": unit}

    metrics = {}
    for name, field in PER_OP_SPAN_METRICS:
        unit = "count/op" if field == "calls" else "ms/op"
        metrics[f"{name}.{field}"] = per_op(by_name.get(name, zero)[field], unit)
    for branch in ("series", "quad"):
        key = f"special.log_kummer_m.{branch}_calls"
        metrics[key] = per_op(tracer.counts.get(key, 0), "count/op")
    for key in (
        "quadrature.integrate_unit.calls.inference", "quadrature.integrate_unit.calls.special",
        "quadrature.integrate_semiinf.calls.hierarchical",
    ):
        metrics[key] = per_op(summary["caller_layers"].get(key, 0), "count/op")
    metrics["quadrature.integrand_evals"] = per_op(tracer.counts.get("quadrature.integrand_evals", 0), "count/op")
    prs = by_name.get("design.prob_replication_success", zero)["calls"]
    prs += tracer.counts.get("design.prob_replication_success.inner_calls", 0)
    metrics["design.prob_replication_success.calls"] = per_op(prs, "count/op")
    for layer, value in summary["layer_self_ms"].items():
        metrics[f"{layer}.self_ms"] = per_op(value, "ms/op")
    metrics["cli.export.bytes"] = per_op(sum(r.grid_bytes for r in records), "bytes/op")
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import pprep
    import pprep.cli

    if Path(pprep.__file__).resolve().parent != SRC / "pprep":
        raise SystemExit(f"pprep imported from {pprep.__file__}, not from {SRC}")

    setup_s = measure_setup() if args.trace == 0 else None
    work = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Checker() as checker:
            records, failures, busy, rounds = run_workload(
                pprep.cli.main, checker, args.workload, args.seed, args.seconds, work
            )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            untraced = sum(r.ref_seconds for r in records)
            tracer, traced, mismatches = replay_traced(
                pprep.cli.main, records, OUT / f"spans-{args.workload}-{args.seed}.npz"
            )
            failures += mismatches
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r.failed]
    ok_ms: dict[str, list[float]] = {}
    for r in records:
        if not r.failed:
            ok_ms.setdefault(r.op.command, []).append(r.outcome.seconds * 1e3)
    all_ok = [v for values in ok_ms.values() for v in values]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "busy_s": busy,
        "machine_probe_ms": statistics.median(r.probe_ms for r in records),
        "samples": len(all_ok),
        # As measured, before scaling to the reference host speed.
        "ops_per_s": len(all_ok) / busy,
        "op_p50_ms": statistics.median(all_ok),
        **{f"{cmd}_p50_ms": statistics.median(v) for cmd, v in ok_ms.items()},
        "samples_per_command": {cmd: len(v) for cmd, v in ok_ms.items()},
        # The 90th percentile only where at least 10 samples lie above it.
        "op_p90_ms": percentile(all_ok, 90) if len(all_ok) >= 100 else None,
        "failed_operations": sorted({
            f"{r.op.command} {r.op.pair.original}/{r.op.pair.replication}: exit {r.outcome.exit_code}, "
            f"{r.fault or 'unexpected'}"
            for r in failed
        }),
        "problems": failures[:20],
    }
    if args.trace:
        detail["tracing_overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        metrics = per_layer_metrics(tracer, records, detail["tracing_overhead_pct"])
    else:
        metrics = end_to_end_metrics(records, setup_s, peak_rss_mb)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
