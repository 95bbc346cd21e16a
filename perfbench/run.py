"""combisphere benchmark: four seeded closed-loop workloads against the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one thread, one client: each item starts only after
the previous one returned.  Set-up (import plus corpus build) runs here and
in two fresh interpreters; ``setup_s`` is the median of the three plus one
untimed warm-up pass.  Then whole passes over the workload's corpus are
timed until ``--seconds`` have elapsed.  Every output is compared with the warm-up output of the same item
and checked by the benchmark's own code in ``checks.py``, outside the timed
calls.

Every reported time is normalised by a calibration loop timed between the
items (see ``calibration.py``), because the host's speed drifts by up to 2x;
the raw wall-clock figures are printed as comment lines beside them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the timed passes are followed by one traced pass, and the last
line carries the per-layer metrics.  The traced run also prints named rows
for the baseline inputs and writes its spans and a report under
``.perfbench-run/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
OUT = ROOT / ".perfbench-run"
SETUP_SAMPLES = 3  # set-ups per run; setup_s reports their median
# the calibration loop that slows like each workload's dominant layer
CALIBRATION = {
    "sphere-certify": calibration.COMBINATORIAL,
    "small-complex-sweep": calibration.COMBINATORIAL,
    "exact-hull": calibration.ARITHMETIC,
    "cli-session": calibration.COMBINATORIAL,
}


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import combisphere
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import combisphere from {src}: {exc}")
    if Path(combisphere.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: combisphere was imported from {combisphere.__file__}, not {src}")


def build(workload: str, seed: int, workdir: Path):
    import workloads

    if workload == "sphere-certify":
        return workloads.sphere_certify(seed)
    if workload == "small-complex-sweep":
        return workloads.small_complex_sweep(seed)
    if workload == "exact-hull":
        return workloads.exact_hull(seed)
    digests = json.loads((HERE / "cli_digests.json").read_text())
    return workloads.cli_session(seed, workdir, digests)


def setup_probe(workload: str, seed: int) -> float:
    """Import and corpus build in a fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


class Pass:
    """One pass over the corpus: latency and plain output per item.  Item
    latencies also go to ``meter``, which calibrates between items."""

    def __init__(self, items, meter, tracer=None, label=""):
        self.outputs = []
        self.seconds = 0.0
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = f"{label}:{i}"
            meter.before_item()
            start = time.perf_counter()
            try:
                result = item.run()
            except Exception as exc:  # an undocumented exception fails the item
                result = exc
            elapsed = time.perf_counter() - start
            meter.record(elapsed)
            self.seconds += elapsed
            if isinstance(result, Exception):
                self.outputs.append(("raised", type(result).__name__, str(result)))
            else:
                self.outputs.append(item.extract(result))


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    data = sorted(values)
    pos = q / 100 * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Judge:
    """Checks each pass's outputs against the warm-up output and the
    independent checkers, keeping only the counts."""

    def __init__(self, items, reference):
        self.items, self.reference = items, reference
        self.memo = {}
        self.attempted = self.failed = self.decidable = self.decided = 0
        self.messages = []

    def problem(self, i, plain):
        if isinstance(plain, tuple) and plain[:1] == ("raised",):
            return f"raised {plain[1]}: {plain[2]}"
        key = (i, plain)
        if key not in self.memo:
            try:
                self.memo[key] = self.items[i].verify(plain)
            except Exception as exc:  # output the checker cannot even read
                self.memo[key] = f"checker could not read the output: {exc!r}"
        return self.memo[key]

    def add(self, outputs):
        for i, plain in enumerate(outputs):
            item = self.items[i]
            self.attempted += 1
            message = self.problem(i, plain)
            if message is None and plain != self.reference[i]:
                message = "output differs from the warm-up output of the same call"
            if message is not None:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{item.name}: {message}")
            if item.decided is not None:
                self.decidable += 1
                self.decided += plain[:1] != ("raised",) and item.decided(plain)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sphere-certify", "small-complex-sweep", "exact-hull", "cli-session"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    manifest = json.loads((HERE / "manifest.json").read_text())["workloads"][args.workload]

    import_library()
    tracer = tracing.Tracer() if args.trace else None
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if tracer:
            tracer.item = "setup"
            tracer.install()
        items, rows = build(args.workload, args.seed, workdir)
        if tracer:
            tracer.uninstall()
        built = time.perf_counter() - T0
        if args.setup_probe:
            print(built)
            return 0
        return measure(args, manifest, items, rows, tracer, built)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, manifest, items, rows, tracer, built) -> int:
    loop = CALIBRATION[args.workload]
    setup_meter = calibration.Meter(loop)
    setups = [built]
    for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
        setup_meter.before_item()
        setups.append(setup_probe(args.workload, args.seed))
    warmup = Pass(items, setup_meter)
    setup_meter.finish()
    setup_wall = statistics.median(setups) + warmup.seconds
    setup_s = setup_wall * setup_meter.factor()

    judge = Judge(items, warmup.outputs)
    meter = calibration.Meter(loop)
    pass_seconds = []
    began = time.perf_counter()
    while not pass_seconds or time.perf_counter() - began < args.seconds:
        p = Pass(items, meter)
        pass_seconds.append(p.seconds)
        judge.add(p.outputs)
    meter.finish()
    # read before the statistics below, whose copies of the samples grow with their number
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer:
        traced_meter = calibration.Meter(loop)
        tracer.install()
        try:
            traced = Pass(items, traced_meter, tracer, "traced")
        finally:
            tracer.uninstall()
        traced_meter.finish()
        judge.add(traced.outputs)

    for message in judge.messages:
        print(f"# FAILED {message}")
    failed, attempted = judge.failed, judge.attempted
    q = manifest["tail_percentile"]
    latencies = meter.normalised()
    summary = {
        "workload": args.workload, "seed": args.seed, "passes": len(pass_seconds),
        "items": len(latencies), "tail_percentile": q,
        "samples_beyond_tail": round(len(latencies) * (1 - q / 100)),
        "calibration_samples": len(meter.cal),
        "calibration_median_s": statistics.median(meter.cal),
        "error_ratio": failed / attempted,
    }
    print("# " + json.dumps(summary))

    if tracer:
        metrics = tracer.metrics()
        untraced = statistics.median(pass_seconds) * meter.factor()
        metrics["trace.overhead_ratio"] = traced.seconds * traced_meter.factor() / untraced - 1
        units = tracing.metric_units()
        report = trace_report(args, items, rows, tracer, metrics)
        for row in report["rows"]:
            print("# row " + json.dumps(row))
        print("# machine " + json.dumps(report["machine"]))
        out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        values = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (percentile(latencies, q) * 1e3, "ms"),
            "decided_ratio": (judge.decided / judge.decidable if judge.decidable else 1.0, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        raw = meter.latencies
        wall = {
            "setup_s": setup_wall,
            "items_per_s": len(raw) / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": percentile(raw, q) * 1e3,
        }
        for name, (value, unit) in values.items():
            note = f" (wall clock {wall[name]:.6g})" if name in wall else ""
            print(f"# {name} = {value:.6g} {unit}{note}")
        print(f"# error_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
        out = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def trace_report(args, items, rows, tracer, metrics) -> dict:
    """Named rows for the baseline inputs (untraced, median of three runs,
    in wall and normalised seconds), machine info, and the span file."""
    by_name = {item.name: item for item in items}
    meter = calibration.Meter(CALIBRATION[args.workload])
    results = []
    for name in rows:
        for _ in range(3):
            meter.before_item()
            start = time.perf_counter()
            result = by_name[name].run()
            meter.record(time.perf_counter() - start)
        results.append(result)
    meter.finish()
    normalised = meter.normalised()
    out_rows = []
    for k, (name, result) in enumerate(zip(rows, results)):
        out_rows.append({"workload": args.workload, "input": name,
                         "seconds": statistics.median(meter.latencies[3 * k:3 * k + 3]),
                         "normalised_s": statistics.median(normalised[3 * k:3 * k + 3]),
                         "outcome": describe(by_name[name].extract(result))})
    report = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
        "workload": args.workload, "seed": args.seed, "rows": out_rows, "metrics": metrics,
    }
    stem = f"trace-{args.workload}-seed{args.seed}"
    tracer.write(OUT / f"{stem}.spans.jsonl.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def describe(plain) -> str:
    """A one-line summary of an item's plain output for a named row."""
    if isinstance(plain, tuple) and plain and plain[0] in ("certified", "refuted", "unknown"):
        return f"{plain[0]}, {len(plain[2])} moves"
    if isinstance(plain, tuple) and len(plain) == 2 and isinstance(plain[0], int):
        return f"exit {plain[0]}, {len(plain[1].encode())} bytes"
    if isinstance(plain, tuple) and len(plain) == 2:
        return f"{len(plain[0])} hull facets"
    return repr(plain)[:80]


if __name__ == "__main__":
    sys.exit(main())
