#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bvattack package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload t7-sampling --seed 1 --seconds 8 --trace 0

The benchmark imports the package from `src/` and drives it from outside
through two public entry points, `bvattack.experiments.run_experiment` and
`bvattack.cli.main(argv)`, called in-process.  The load is one closed-loop
client: one process, one thread, each call sent after the previous returned.
Every input is derived from --seed; the same seed gives the same inputs.

A run sets up once untimed, then repeats the workload's cycle of calls until
--seconds of calls have passed, with nine timed set-ups spread between the
cycles (set-up time is their median).  Every call is checked
from outside: an experiment must report `passed`, a CLI call must exit with
the expected code and report the expected answer, and each report's SHA-256
must equal that of the same call in every other repeat.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs one cycle untraced, then sets up once and runs at least two
cycles with every layer wrapped (see tracing.py), and prints the per-layer
metrics for one set-up plus one cycle, the tracing overhead, and whether
the work counts repeated exactly between cycles.

Before the result, one JSON line {"detail": ...} records the environment,
per-call latency statistics, hashes and the self-time breakdown.  The last
line of stdout is the result: {"correct", "attempted", "failed", "metrics"},
with the metric names and units that BENCHMARK.json declares.
Work files go to .perfbench_work/ at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
MIN_TRACED_CYCLES = 2
MIB = 1 << 20


def _import_package():
    """Import bvattack from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bvattack
        from bvattack import boolfn, cli, experiments
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bvattack from {src}: {exc}")
    if src.resolve() not in Path(bvattack.__file__).resolve().parents:
        sys.exit(f"perfbench: bvattack was imported from {bvattack.__file__}, not {src}")
    return boolfn, cli, experiments


boolfn, cli, experiments = _import_package()
from tracing import EXACT_COUNTS, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def sha256_text(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
    return h.hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# operations: one public call, plus an outside check of what it returned


@dataclass
class Op:
    """One call of a cycle.  `call` is timed; `check` is not, and returns
    (ok, digest of everything the call produced, note)."""

    kind: str
    trials: int
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, str, str]]


def experiment_op(which: str, n: int, trials: int, seed: int) -> Op:
    cfg = experiments.ExperimentConfig(which=which, n=n, trials=trials, seed=seed)

    def call():
        return experiments.run_experiment(cfg)

    def check(res):
        d = res.to_dict()
        note = "" if res.passed else "failed checks: " + ", ".join(
            c["label"] for c in d["checks"] if not c["passed"])
        return res.passed, sha256_text(json.dumps(d, sort_keys=True)), note

    return Op(which, trials, call, check)


def read_keys(path: Path) -> dict:
    """The `keys k=v ...` line of an open cipher file, as integers."""
    with open(path) as fh:
        fh.readline()
        toks = fh.readline().split()
    if not toks or toks[0] != "keys":
        raise ValueError(f"{path} has no keys line")
    return {k: int(v, 0) for k, v in (t.split("=", 1) for t in toks[1:])}


def cli_op(kind: str, argv: list[str], check_result: Callable[[dict], str],
           outputs: tuple[Path, ...] = ()) -> Op:
    """A cli.main call that must exit 0; check_result returns '' when the
    report's result is right, else what is wrong with it."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(raw):
        code, out, err = raw
        digest = sha256_text(out, *(sha256_file(p) for p in outputs))
        if code != 0:
            return False, digest, f"exit code {code}: {err.strip()[-200:]}"
        try:
            note = check_result(json.loads(out)["result"])
        except (ValueError, KeyError, TypeError) as exc:
            note = f"unreadable report or cipher file: {exc!r}"
        return not note, digest, note

    return Op(kind, 1, call, check)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A seeded set-up plus a fixed cycle of operations."""

    name = ""
    largest_array = (0, "")  # (bytes, what), computed from array sizes
    # Warm-up experiments stop early on some inputs, so their seed is fixed:
    # set-up time then varies with the machine, not with the workload seed.
    WARMUP_SEED = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(8)]
        self.workdir = workdir

    def setup(self) -> str:
        """Prepare inputs; returns a digest that must repeat on every set-up."""
        raise NotImplementedError

    def cycle(self) -> list[Op]:
        raise NotImplementedError


class T7Sampling(Workload):
    name = "t7-sampling"
    N, TRIALS = 6, 30
    # keyed family G on n + 2n = 18 input bits, one int64 word per input
    largest_array = (8 << 18, "2^18 int64 words: keyed family G(x||k) of the n=6 toy cipher")

    def setup(self) -> str:
        # warm-up at a 12-bit family; graded only for repeating exactly
        res = experiments.run_experiment(experiments.ExperimentConfig(
            which="T7", n=4, trials=30, seed=self.WARMUP_SEED))
        return sha256_text(json.dumps(res.to_dict(), sort_keys=True))

    def cycle(self) -> list[Op]:
        return [experiment_op("T7", self.N, self.TRIALS, self.seeds[1])]


class SuiteSmall(Workload):
    name = "suite-small"
    WHICH = ("T1", "T2", "T3", "T4", "T5", "T6", "T8")
    # 12-bit tables: T4's 2n-bit Feistel table (n=6), T6/T8's toy family (n=4)
    largest_array = (8 << 12, "2^12 int64 words: 12-bit Feistel and toy-family tables")

    def setup(self) -> str:
        # warm-up of every experiment at its default width and 30 trials
        digests = []
        for which in self.WHICH:
            n, _ = experiments.default_shape(which)
            res = experiments.run_experiment(experiments.ExperimentConfig(
                which=which, n=n, trials=30, seed=self.WARMUP_SEED))
            digests.append(json.dumps(res.to_dict(), sort_keys=True))
        return sha256_text(*digests)

    def cycle(self) -> list[Op]:
        return [experiment_op(w, *experiments.default_shape(w), self.seeds[1])
                for w in self.WHICH]


class CliWide(Workload):
    name = "cli-wide"
    # Two to three bits below the table caps (EM 20, toy family 24, function
    # files 24), so that a cycle takes about 2.5 s and a run holds a dozen
    # cycles for steady medians.  Every table is still 2 MiB or larger.
    EM_N, TOY_N, SPECTRUM_N = 18, 7, 20
    # attack-impossible builds the keyed family of the n=7, 3-round toy cipher:
    # 2^(7 + 14) int64 words.
    largest_array = (8 << 21, "2^21 int64 words: keyed family of the n=7 toy cipher "
                              "(18-bit EM tables 2 MiB, 20-bit spectrum 8 MiB)")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.em = workdir / "em.cipher"
        self.toy = workdir / "toy.cipher"
        self.fn = workdir / f"boolfn{self.SPECTRUM_N}.txt"

    def setup(self) -> str:
        bits = np.random.default_rng(self.seeds[0]).integers(
            0, 2, size=1 << self.SPECTRUM_N, dtype=np.uint8)
        boolfn.save_function(self.fn, boolfn.BooleanFunction(self.SPECTRUM_N, bits))
        return sha256_file(self.fn)

    def cycle(self) -> list[Op]:
        s = self.seeds

        def em_keys(result):
            want = read_keys(self.em)
            got = {"k1": result["k1"], "k2": result["k2"]}
            return "" if got == want else f"recovered {got}, file holds {want}"

        def impossible(result):
            s_true = read_keys(self.toy)["s"]
            if not result["certificate_valid"]:
                return "certificate not valid"
            return "" if s_true in result["alive"] else f"true key {s_true} sieved out"

        def written(result):
            return "" if result["secrets_included"] else "secrets missing"

        return [
            cli_op("gen-cipher-em", ["gen-cipher", "--kind", "even-mansour", "--n", str(self.EM_N),
                    "--seed", str(s[1]), "--out", str(self.em)], written, (self.em,)),
            cli_op("attack-em", ["attack-em", str(self.em), "--seed", str(s[2])], em_keys),
            cli_op("gen-cipher-toy", ["gen-cipher", "--kind", "toy", "--n", str(self.TOY_N),
                    "--seed", str(s[3]), "--out", str(self.toy)], written, (self.toy,)),
            cli_op("attack-impossible", ["attack-impossible", str(self.toy), "--seed", str(s[4])],
                   impossible),
            cli_op("spectrum", ["spectrum", str(self.fn)],
                   lambda r: "" if r["parseval_ok"] else "Parseval check failed"),
        ]


WORKLOADS = {w.name: w for w in (T7Sampling, SuiteSmall, CliWide)}


# ---------------------------------------------------------------------------
# running


@dataclass
class CallRecord:
    kind: str
    seconds: float
    ok: bool
    digest: str
    note: str


class Runner:
    """Runs cycles and grades each call, including against earlier repeats."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.records: list[CallRecord] = []
        self.first_digest: dict[int, str] = {}

    def cycle(self) -> float:
        """Run one cycle; returns its wall time, checks excluded."""
        wall = 0.0
        for pos, op in enumerate(self.workload.cycle()):
            t0 = time.perf_counter()
            raw = op.call()
            dt = time.perf_counter() - t0
            wall += dt
            ok, digest, note = op.check(raw)
            first = self.first_digest.setdefault(pos, digest)
            if digest != first:
                ok, note = False, "; ".join(filter(None, (note, "report differs from first repeat")))
            self.records.append(CallRecord(op.kind, dt, ok, digest, note))
        return wall

    @property
    def trials_per_cycle(self) -> int:
        return sum(op.trials for op in self.workload.cycle())

    def failures(self) -> list[dict]:
        return [{"kind": r.kind, "note": r.note} for r in self.records if not r.ok]


def tail_stats(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median_s": statistics.median(values)}
    for pct in (99.9, 99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}_s"] = float(np.percentile(values, pct))
            break
    return out


def call_stats(records: list[CallRecord]) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.seconds)
    return {k: tail_stats(v) for k, v in kinds.items()}


def run_plain(workload: Workload, seconds: float) -> tuple[dict, dict, Runner, bool]:
    """Cycles until --seconds of calls have passed, stopping at the count whose
    total lands nearest.  The first set-up is untimed: it pays one-time costs
    and makes the inputs.  The timed set-ups are spread between the cycles in
    step with the elapsed time, so that they meet the same drift in machine
    speed as the cycles do."""
    setup_digests = [workload.setup()]
    setup_times: list[float] = []

    def setups_until(count: int) -> None:
        while len(setup_times) < count:
            t0 = time.perf_counter()
            setup_digests.append(workload.setup())
            setup_times.append(time.perf_counter() - t0)

    runner = Runner(workload)
    walls: list[float] = []
    while not walls or sum(walls) < seconds - statistics.fmean(walls) / 2:
        walls.append(runner.cycle())
        setups_until(min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * sum(walls) / seconds)))
    setups_until(SETUP_REPEATS)

    stats = call_stats(runner.records)
    attempted = len(runner.records)
    failed = attempted - sum(r.ok for r in runner.records)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "trials_per_s": runner.trials_per_cycle / statistics.median(walls),
        "slowest_call_s": max(s["median_s"] for s in stats.values()),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
        "ok_rate": (attempted - failed) / attempted,
    }
    setup_ok = len(set(setup_digests)) == 1
    detail = {
        "setup_s": setup_times,
        "setup_digest_repeats": setup_ok,
        "cycles": len(walls),
        "cycle_wall_s": walls,
        "calls": stats,
    }
    return metrics, detail, runner, setup_ok


def layer_metrics(setup: dict, cycles: list[dict], overhead: float, spans: float) -> dict:
    """Per-layer metrics for one set-up plus one (mean) cycle."""
    keys = set(setup).union(*cycles)
    v = {k: setup.get(k, 0) + statistics.fmean(c.get(k, 0) for c in cycles) for k in keys}
    draws = v.get("bv.draw.draws", 0)
    v["bv.distinct_per_draw"] = v.get("bv.draw.distinct", 0) / draws if draws else 0.0
    v["gf2.rows_per_draw"] = v.get("gf2.solve.rows", 0) / draws if draws else 0.0
    v["trace.overhead"] = overhead
    v["trace.spans"] = spans
    return {name: v.get(name, 0) for name in PER_LAYER}


def exact_count_mismatches(cycles: list[dict]) -> dict:
    """Counts that differ between traced cycles; all must repeat exactly."""
    keys = [k for k in set().union(*cycles) if k in EXACT_COUNTS or k.endswith(".calls")]
    bad = {}
    for k in sorted(keys):
        vals = [c.get(k, 0) for c in cycles]
        if len(set(vals)) > 1:
            bad[k] = vals
    return bad


def run_traced(workload: Workload, seconds: float):
    """Untraced and traced cycles alternate, so that drift in machine speed
    falls on both sides of the overhead ratio alike."""
    base_setup = workload.setup()
    runner = Runner(workload)
    tracer = Tracer()
    with tracer.installed():
        setup_begin = tracer.mark()
        traced_setup = workload.setup()
        setup_end = tracer.mark()

    plain: list[float] = []
    traced: list[float] = []
    cycle_marks: list[tuple] = []
    t0 = time.perf_counter()
    while (len(traced) < MIN_TRACED_CYCLES
           or time.perf_counter() - t0 < seconds - statistics.fmean(plain + traced)):
        plain.append(runner.cycle())
        with tracer.installed():
            begin = tracer.mark()
            traced.append(runner.cycle())
            cycle_marks.append((begin, tracer.mark()))

    setup_agg = tracer.aggregate(setup_begin, setup_end)
    cycles = [tracer.aggregate(a, b) for a, b in cycle_marks]
    overhead = statistics.median(traced) / statistics.median(plain)
    spans = statistics.fmean(b[0] - a[0] for a, b in cycle_marks)
    metrics = layer_metrics(setup_agg, cycles, overhead, spans)
    mismatches = exact_count_mismatches(cycles)
    setup_ok = base_setup == traced_setup

    mean_wall = statistics.fmean(traced)
    selfs = {k[:-len(".self_s")]: statistics.fmean(c.get(k, 0.0) for c in cycles)
             for k in set().union(*cycles) if k.endswith(".self_s")}
    breakdown = {k: {"self_s_per_cycle": v, "share_of_cycle": v / mean_wall}
                 for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])}
    detail = {
        "untraced_cycle_s": plain,
        "traced_cycle_s": traced,
        "tracing_overhead": overhead,
        "self_time_breakdown": breakdown,
        "exact_counts": {k: [c.get(k, 0) for c in cycles] for k in EXACT_COUNTS},
        "exact_count_mismatches": mismatches,
        "setup_digest_matches_untraced": setup_ok,
    }
    return metrics, detail, runner, setup_ok and not mismatches


# ---------------------------------------------------------------------------
# environment


def _git_revision() -> str | None:
    # the ceiling keeps git from reporting an enclosing repository's HEAD
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def environment(workload: Workload, seed: int) -> dict:
    src = sorted((ROOT / "src" / "bvattack").glob("*.py"))
    return {
        "git_revision": _git_revision(),
        "src_sha256": sha256_text(*(p.name + p.read_text() for p in src)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "seed": seed,
        "largest_array_bytes": {"value": workload.largest_array[0],
                                "what": workload.largest_array[1],
                                "source": "computed from array sizes"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    # one name for both trace settings: reports carry file paths, and a traced
    # run must give the same report hashes as an untraced one
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            metrics, detail, runner, consistent = run_traced(workload, args.seconds)
        else:
            metrics, detail, runner, consistent = run_plain(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    attempted = len(runner.records)
    failed = attempted - sum(r.ok for r in runner.records)
    detail.update({"workload": args.workload, "trace": args.trace,
                   "environment": environment(workload, args.seed),
                   "failures": runner.failures(),
                   "digests": sorted({(r.kind, r.digest) for r in runner.records})})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]}
                    for k in (PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
