"""rimcert benchmark: certified verdicts end to end, and per layer when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Workloads (README.md says why each one is there):

  decided_sweep     ~200 cheap decided specs, closed loop of report.certify
  finite_noncyclic  21 sweep specs refuted by completed index > 1 tables
  overflow          6 inconclusive sweep specs, both enumerations overflow
  batch_sweep       a slice of the proposition sweep through run_batch and
                    batch_json on min(2, nproc) worker processes

The seed picks a cost-stratified sample from the frozen pool and its order.
The timed section is one pass over the sample.  A run makes as many passes
as the frozen cost of a pass fits in --seconds (at least one), and timings
are medians over passes.  Every verdict is
checked against the table frozen in pool.json.  With --trace 1 passes
alternate untraced and traced, and the per-layer metrics come from the
spans of the traced passes.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it are a readable summary.  The exit code is 0 only
when the benchmark ran; a wrong verdict is reported as correct = false.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from spans import ROW_PROBES, Recorder, self_times
from verdicts import check, load_pool, spec_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

# Metric name -> unit; the JSON line carries exactly one of these sets.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "spec_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "surgery.surgered_group_s": "s",
    "surgery.relator_length": "count",
    "diagrams.braid_closure_diagram_s": "s",
    "invariants.alexander_polynomial_s": "s",
    "invariants.normal_invariant_report_s": "s",
    "abelian.abelian_invariants_s": "s",
    "groups.collapse_presentation_s": "s",
    "groups.collapsed_gens": "count",
    "groups.collapsed_relator_length": "count",
    "enumeration.meridian_s": "s",
    "enumeration.order_s": "s",
    "enumeration.calls": "count",
    "enumeration.cosets_defined": "count",
    "enumeration.completed": "count",
    "enumeration.overflow.max_cosets": "count",
    "enumeration.overflow.timeout": "count",
    "enumeration.useful_ratio": "ratio",
    "enumeration.cosets_per_s": "1/s",
    "certify.certify_cyclic_s": "s",
    "certify.self_s": "s",
    "certify.stage.abelianization": "count",
    "certify.stage.meridian_index": "count",
    "certify.stage.group_order": "count",
    "certify.stage.overflow": "count",
    "certify.decided_frac": "ratio",
    "report.certify_s": "s",
    "report.self_s": "s",
    "batch.run_batch_s": "s",
    "batch.batch_json_s": "s",
    "batch.errors": "count",
    "trace.overhead_frac": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no source tree, bad arguments)."""


# -- inputs ---------------------------------------------------------------


def stratified(keys: list[str], pool: dict, windows: int, width: int,
               rng: random.Random) -> list[str]:
    """One spec from each of `windows` cost windows of `width` specs.

    The pool is sorted by its frozen cost; window i is the `width` specs
    around quantile (i + 0.5) / windows.  Any seed thus draws specs of
    nearly the same costs, so runs with different seeds stay comparable.
    """
    ranked = sorted(keys, key=lambda k: (pool["verdicts"][k]["ms"], k))
    picked = []
    for i in range(windows):
        centre = (i + 0.5) * len(ranked) / windows
        lo = min(max(0, round(centre - width / 2)), len(ranked) - width)
        picked.append(rng.choice(ranked[lo:lo + width]))
    rng.shuffle(picked)
    return picked


def certify_sample(name: str, pool: dict, rng: random.Random, tiny: bool) -> list[str]:
    keys = pool["pools"][name]
    if tiny:  # the cheapest few, for the self-test
        ranked = sorted(keys, key=lambda k: pool["verdicts"][k]["ms"])
        return ranked[: {"decided_sweep": 8, "finite_noncyclic": 2, "overflow": 1}[name]]
    if name == "decided_sweep":
        return stratified(keys, pool, len(keys) // 2, 2, rng)
    if name == "finite_noncyclic":
        return stratified(keys, pool, len(keys), 1, rng)
    return stratified(keys, pool, 6, 4, rng)


def batch_config(pool: dict, rng: random.Random, tiny: bool) -> tuple[dict, str | None]:
    """Sweep-order slice of the proposition sweep, and its frozen digest."""
    b = pool["batch"]
    limits = pool["limits"]
    parallelism = min(2, os.cpu_count() or 1)
    if tiny:
        sweeps, digest = [b["rest"]], None
    else:
        i = rng.randrange(len(b["heads"]))
        sweeps, digest = [b["heads"][i], b["rest"]], b["seed_sha256"][i]
    return {"sweeps": sweeps, **limits, "parallelism": parallelism}, digest


# -- measurement ----------------------------------------------------------


def measure_setup(docs: list[dict]) -> tuple[float, float]:
    """Median (setup_s, import_s) over fresh interpreters."""
    setups, imports = [], []
    payload = json.dumps(docs)
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=payload, capture_output=True, text=True, check=True, timeout=120,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


class RssSampler:
    """Peak of this process's plus its children's resident memory.

    Batch workers are separate processes, so getrusage on this process
    alone would miss them; the sampler adds up VmRSS every 20 ms.
    """

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _rss_kb(pid: str) -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
        except OSError:  # the process ended between listing and reading
            pass
        return 0

    def _children(self) -> list[str]:
        kids = []
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children", encoding="ascii") as f:
                    kids.extend(f.read().split())
            except OSError:
                pass
        return kids

    def _run(self) -> None:
        while not self._stop.wait(0.02):
            total = self._rss_kb("self") + sum(self._rss_kb(p) for p in self._children())
            self.peak_kb = max(self.peak_kb, total)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Pass:
    wall: float
    traced: bool
    latencies: list[float] = field(default_factory=list)
    spans: list = field(default_factory=list)


@dataclass
class Tally:
    attempted: int = 0
    decided: int = 0
    failures: list[str] = field(default_factory=list)

    def verdict(self, frozen: dict, verdict: dict, label: str) -> None:
        self.attempted += 1
        decided, failure = check(frozen, verdict)
        self.decided += decided
        if failure is not None:
            self.failures.append(f"{label}: {failure}")

    def error(self, label: str, message: str) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: error: {message}")


class Workload:
    """A prepared workload: inputs drawn, rimcert imported, ready to pass."""

    def __init__(self, name: str, seed: int, tiny: bool = False,
                 worker_dir: str | None = None):
        self.name = name
        self.pool = load_pool()
        rng = random.Random(seed)
        self.tally = Tally()
        self.texts: list[str] = []
        self.limits = self.pool["limits"]
        if name == "batch_sweep":
            self.config, self.digest = batch_config(self.pool, rng, tiny)
            self.batch = importlib.import_module("rimcert.batch")
            self.docs = self.batch.expand_config(self.config)
        else:
            keys = certify_sample(name, self.pool, rng, tiny)
            self.docs = [self.pool["verdicts"][k]["spec"] for k in keys]
        # Frozen cost of one pass; a batch pass ends with its slowest worker.
        cost_s = [self.pool["verdicts"][spec_key(doc)]["ms"] / 1000 for doc in self.docs]
        self.pass_estimate = sum(cost_s)
        if name == "batch_sweep":
            self.pass_estimate = max(max(cost_s), sum(cost_s) / self.config["parallelism"])
            # Rows run in worker processes, so one probe times each row there.
            self.row_timer = Recorder(worker_dir, ROW_PROBES)
        self.report = importlib.import_module("rimcert.report")
        surgery = importlib.import_module("rimcert.surgery")
        self.specs = [surgery.spec_from_json(doc) for doc in self.docs]

    def certify_pass(self, traced: bool) -> Pass:
        outcomes = []
        latencies = []
        start = time.perf_counter()
        for spec in self.specs:
            t = time.perf_counter()
            try:
                outcome = self.report.certify(spec, self.limits["max_cosets"],
                                              self.limits["timeout"]).verdict
            except Exception as exc:  # an error row, counted as a failure
                outcome = exc
            latencies.append(time.perf_counter() - t)
            outcomes.append(outcome)
        wall = time.perf_counter() - start
        for doc, outcome in zip(self.docs, outcomes):
            key = spec_key(doc)
            if isinstance(outcome, Exception):
                self.tally.error(key, repr(outcome))
            else:
                self.tally.verdict(self.pool["verdicts"][key], outcome.to_json(), key)
        return Pass(wall, traced, latencies)

    def batch_pass(self, traced: bool) -> Pass:
        # A traced pass has the full recorder installed instead.
        timer = None if traced else self.row_timer
        if timer is not None:
            timer.install()
        start = time.perf_counter()
        try:
            text = self.batch.batch_json(self.batch.run_batch(self.config))
        finally:
            wall = time.perf_counter() - start
            if timer is not None:
                timer.uninstall()
        self.check_batch(text)
        self.texts.append(text)
        if timer is None:
            return Pass(wall, traced)
        timer.merge_workers()
        latencies = [span.duration for span in timer.spans]
        timer.spans = []
        return Pass(wall, traced, latencies)

    def check_batch(self, text: str) -> None:
        rows = json.loads(text)["rows"]
        if [row["spec"] for row in rows] != self.docs:
            self.tally.failures.append("batch rows are not in config order")
        for row in rows:
            key = spec_key(row["spec"])
            if "error" in row:
                self.tally.error(key, row["error"])
            else:
                self.tally.verdict(self.pool["verdicts"][key], row["verdict"], key)

    def check_bytes(self) -> bool:
        """Every parallel output equals the frozen serial output.

        Where the bytes differ from the frozen ones, a later commit may
        have changed a certificate legitimately; the outputs must then
        equal a serial run of the same code.  Returns whether the bytes
        equal the frozen ones.
        """
        frozen = [hashlib.sha256(t.encode()).hexdigest() == self.digest for t in self.texts]
        if all(frozen):
            return True
        config = {**self.config, "parallelism": 1}
        serial = self.batch.batch_json(self.batch.run_batch(config))
        mismatched = sum(text != serial for text in self.texts)
        if mismatched:
            self.tally.failures.append(
                f"{mismatched} parallel outputs differ from the serial output")
        return False


def run_passes(work: Workload, seconds: float, trace: bool,
               recorder: Recorder | None) -> list[Pass]:
    """Make as many passes as fit in `seconds`, alternating kinds when traced.

    The count is fixed before timing, from the frozen cost of a pass, and
    is at least one of each kind.  A count read off the clock would let a slow first pass cut a run
    short, mixing one- and two-pass runs.
    """
    kinds = [False, True] if trace else [False]
    count = max(len(kinds), int(seconds // work.pass_estimate))
    one_pass = work.batch_pass if work.name == "batch_sweep" else work.certify_pass
    passes: list[Pass] = []
    for i in range(count):
        traced = kinds[i % len(kinds)]
        if traced:
            recorder.install()
        try:
            p = one_pass(traced)
        finally:
            if traced:
                recorder.uninstall()
        if traced:
            recorder.merge_workers()
            p.spans, recorder.spans = recorder.spans, []
        passes.append(p)
    return passes


# -- metrics --------------------------------------------------------------


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals over one traced pass."""
    own = self_times(spans)
    total: Counter = Counter()
    self_total: Counter = Counter()
    counts: Counter = Counter()
    for span, own_s in zip(spans, own):
        total[span.name] += span.duration
        self_total[span.name] += own_s
        a = span.attrs
        if span.name == "surgery.surgered_group":
            counts["surgery.relator_length"] += a["relator_length"]
        elif span.name == "groups.collapse_presentation":
            counts["groups.collapsed_gens"] += a["gens"]
            counts["groups.collapsed_relator_length"] += a["relator_length"]
        elif span.name == "enumeration.todd_coxeter":
            total[f"enumeration.{a['role']}"] += span.duration
            counts["enumeration.calls"] += 1
            counts["enumeration.cosets_defined"] += a["cosets_defined"]
            counts["enumeration.completed"] += a["complete"]
            if a["reason"] is not None:
                counts[f"enumeration.overflow.{a['reason']}"] += 1
        elif span.name == "certify.certify_cyclic":
            counts[f"certify.stage.{a['stage']}"] += 1
            counts["certify.verdicts"] += 1
            counts["certify.decided"] += a["status"] != "inconclusive"
        elif span.name == "batch.run_batch":
            counts["batch.errors"] += a["errors"]
    enum_s = total["enumeration.todd_coxeter"]
    m = {
        "surgery.surgered_group_s": total["surgery.surgered_group"],
        "diagrams.braid_closure_diagram_s": total["diagrams.braid_closure_diagram"],
        "invariants.alexander_polynomial_s": total["invariants.alexander_polynomial"],
        "invariants.normal_invariant_report_s": total["invariants.normal_invariant_report"],
        "abelian.abelian_invariants_s": total["abelian.abelian_invariants"],
        "groups.collapse_presentation_s": total["groups.collapse_presentation"],
        "enumeration.meridian_s": total["enumeration.meridian"],
        "enumeration.order_s": total["enumeration.order"],
        "certify.certify_cyclic_s": total["certify.certify_cyclic"],
        "certify.self_s": self_total["certify.certify_cyclic"],
        "report.certify_s": total["report.certify"],
        "report.self_s": self_total["report.certify"],
        "batch.run_batch_s": total["batch.run_batch"],
        "batch.batch_json_s": total["batch.batch_json"],
        "enumeration.useful_ratio": (
            counts["enumeration.completed"] / counts["enumeration.calls"]
            if counts["enumeration.calls"] else 0.0
        ),
        "enumeration.cosets_per_s": (
            counts["enumeration.cosets_defined"] / enum_s if enum_s else 0.0
        ),
        "certify.decided_frac": (
            counts["certify.decided"] / counts["certify.verdicts"]
            if counts["certify.verdicts"] else 0.0
        ),
    }
    for name in PER_LAYER:
        if name not in m and PER_LAYER[name] == "count":
            m[name] = counts[name]
    return m


def percentile(values: list[float], q: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    batch = name == "batch_sweep"
    worker_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT) if trace or batch else None
    try:
        work = Workload(name, seed, tiny, worker_dir)
        setup_s, import_s = measure_setup(work.docs)
        recorder = Recorder(worker_dir) if trace else None
        if batch:
            with RssSampler() as rss:
                passes = run_passes(work, seconds, trace, recorder)
            peak_mb = max(rss.peak_kb / 1024, self_peak_mb())
        else:
            passes = run_passes(work, seconds, trace, recorder)
            peak_mb = self_peak_mb()
    finally:
        if worker_dir is not None:
            shutil.rmtree(worker_dir, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    latencies = [x for p in plain for x in p.latencies]
    info: dict[str, object] = {"passes": len(plain), "specs per pass": len(work.docs)}
    if batch:
        same = work.check_bytes()
        if work.digest is not None:
            info["bytes equal the reference commit's"] = "yes" if same else "no"
    walls = [p.wall for p in plain]
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "spec_p50_ms": statistics.median(latencies) * 1000,
        "peak_rss_mb": peak_mb,
    }
    tally = work.tally
    info["decided_frac"] = tally.decided / tally.attempted
    info["failed_frac"] = len(tally.failures) / tally.attempted
    if len(latencies) >= 100:
        info["spec_p90_ms"] = percentile(latencies, 0.9) * 1000

    if trace:
        traced = [layer_metrics(p.spans) for p in passes if p.traced]
        metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        metrics["cli.import_s"] = import_s
        traced_wall = statistics.median(p.wall for p in passes if p.traced)
        metrics["trace.overhead_frac"] = traced_wall / e2e["wall_s"] - 1
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "info": info,
        "failures": tally.failures,
    }


def print_summary(name: str, result: dict) -> None:
    print(f"workload {name}")
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    for key, value in result["info"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {key:40s} {shown}")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")


def import_rimcert() -> None:
    """Import rimcert from this checkout's src/, never from elsewhere."""
    if not (SRC / "rimcert" / "__init__.py").is_file():
        raise BenchmarkError(f"no rimcert source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    rimcert = importlib.import_module("rimcert")
    if Path(rimcert.__file__).resolve().parent != (SRC / "rimcert").resolve():
        raise BenchmarkError(f"rimcert imported from {rimcert.__file__}, not {SRC}")


NAMES = ("decided_sweep", "finite_noncyclic", "overflow", "batch_sweep")


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory stays its own."""
    lines = {}
    for name in NAMES:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr, end="")
            return out.returncode
        *summary, last = out.stdout.strip().splitlines()
        print("\n".join(summary))
        lines[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in lines.values()),
        "attempted": sum(r["attempted"] for r in lines.values()),
        "failed": sum(r["failed"] for r in lines.values()),
        "metrics": {f"{n}.{k}": m for n, r in lines.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="cheapest few inputs only, for the self-test")
    args = parser.parse_args(argv)
    try:
        import_rimcert()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print_summary(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
