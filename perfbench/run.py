#!/usr/bin/env python3
"""End-to-end benchmark of the twrelay command line.

    python3 perfbench/run.py --workload region --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) in this process as a closed loop
with one client: every job is one `twrelay.cli.main(argv)` call, started
when the previous one has returned. The workload's job list (its data
set) is generated from --seed and run in full passes, back to back, for
about --seconds; then each job's output is checked, and the first job is
rerun to check that its CSV bytes repeat.

A fixed calibration kernel (speed.py) is timed between jobs, and each
job's time is scaled by the kernel's reference time over its time just
before and after the job: times are reported in seconds at the
reference machine speed, so that drift of a shared machine cancels. Raw
seconds are printed too.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
passes with traced ones, in which every layer's public functions are
wrapped by perfbench/tracer.py, and prints the per-layer metrics. Each
metric is printed as a line `name value unit`, and the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The program is imported from src/ of the checkout
that holds this file; without it the benchmark exits with a non-zero
status and prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is first imported; children inherit.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9

import speed  # noqa: E402  (sibling modules; they need no program code)
import workloads  # noqa: E402


def load_program():
    """Import twrelay from the checkout's src/, never from elsewhere."""
    if not (SRC / "twrelay" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'twrelay'}")
    sys.path.insert(0, str(SRC))
    import twrelay.cli

    if not Path(twrelay.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: twrelay imported from {twrelay.__file__}, not {SRC}")
    return twrelay.cli


# ------------------------------------------------------------------- jobs


@dataclass
class Pass:
    """One run of the whole job list: raw job times, and calibration kernel
    times taken before the first job and after each job."""

    job_s: List[float] = field(default_factory=list)
    kernel_s: List[float] = field(default_factory=list)
    elapsed: float = 0.0

    def scaled(self) -> List[float]:
        """Job times in seconds at the reference speed, each scaled by the
        kernel samples just before and just after it."""
        return [speed.at_reference(t, a, b) for t, a, b in zip(self.job_s, self.kernel_s, self.kernel_s[1:])]


def per_job_s(passes: List[Pass]) -> List[float]:
    """Each job's median time over the passes, at the reference speed, so
    that a burst of machine load in one pass moves no job's figure."""
    return [statistics.median(times) for times in zip(*(p.scaled() for p in passes))]


class Runner:
    """Runs job argv lists through cli.main and records what happened."""

    def __init__(self, cli, workdir: Path) -> None:
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def out_dir(self, index: int) -> Path:
        return self.workdir / f"job{index:03d}"

    def run(self, argv: List[str], out: Path) -> Tuple[bool, float]:
        """One job; returns (succeeded, seconds)."""
        self.attempted += 1
        ok = False
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                ok = self.cli.main(argv + ["--out", str(out)]) == 0
        except SystemExit as exc:  # argparse errors exit through here
            print(f"perfbench: job {argv} exited with {exc.code}", file=sys.stderr)
        except Exception:  # a failing job is counted, the run goes on
            print(f"perfbench: job {argv} raised", file=sys.stderr)
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        if not ok:
            self.failed += 1
        return ok, elapsed

    def run_pass(self, jobs: List[List[str]], tracer=None, first_id: int = 0) -> Pass:
        """All jobs once, back to back, with a calibration kernel between jobs."""
        done = Pass()
        t0 = time.perf_counter()
        done.kernel_s.append(speed.sample())
        for j, argv in enumerate(jobs):
            if tracer is not None:
                tracer.job = first_id + j
            done.job_s.append(self.run(argv, self.out_dir(j))[1])
            done.kernel_s.append(speed.sample())
        done.elapsed = time.perf_counter() - t0
        return done


def prepare(workload: str, seed: int, tiny: bool) -> Tuple[List[List[str]], Runner]:
    """Import the program, generate the job list and run one untimed
    warm-up job, so lazy imports and LAPACK set-up are not charged to job 1."""
    cli = load_program()
    jobs = workloads.jobs(workload, seed, tiny=tiny)
    OUT.mkdir(exist_ok=True)
    runner = Runner(cli, Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)))
    runner.run(workloads.warmup(jobs[0]), runner.workdir / "warmup")
    runner.attempted = runner.failed = 0
    return jobs, runner


def setup_probe(workload: str, seed: int) -> None:
    """Child-process mode: set up as a run does, report, and exit."""
    _, runner = prepare(workload, seed, tiny=False)
    print("ready", flush=True)
    shutil.rmtree(runner.workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Median seconds from process start to ready-for-first-timed-job, over
    SETUP_PROBES child processes: raw, and at the reference speed."""
    times, scaled = [], []
    before = speed.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        after = speed.sample()
        times.append(elapsed)
        scaled.append(speed.at_reference(elapsed, before, after))
        before = after
    return statistics.median(times), statistics.median(scaled)


# ----------------------------------------------------------------- checks


def check_outputs(workload: str, jobs: List[List[str]], runner: Runner) -> Tuple[List[Tuple[str, bool, str]], List[float]]:
    """Output checks on the last pass, plus the determinism rerun of job 0."""
    import checks

    results = []
    sums: List[float] = []
    for j, argv in enumerate(jobs):
        out = runner.out_dir(j)
        try:
            found = checks.CHECKS[workload](str(out))
            sums += checks.rate_sums(str(out))
        except (OSError, KeyError, ValueError) as exc:
            found = [("readable", False, f"{type(exc).__name__}: {exc}")]
        results += [(f"job{j}:{name}", ok, detail) for name, ok, detail in found]

    rerun = runner.workdir / "rerun0"
    runner.run(jobs[0], rerun)
    first, again = checks.csv_bytes(str(runner.out_dir(0))), checks.csv_bytes(str(rerun))
    same = bool(first) and first == again
    results.append(("job0:deterministic", same, f"{len(first)} CSV files compared byte for byte"))
    return results, sums


def percentile_line(values: List[float]) -> Optional[str]:
    """Highest of p99.9/p99/p95/p90/p75 with at least 10 samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
            return f"job_s.p{p:g} {cut!r} s (n={n})"
    return None


# ------------------------------------------------------------------ runs


def run_passes(seconds: float, one_round) -> None:
    """Call one_round() until another round would end after `seconds`
    (at least once); one_round returns the seconds it took."""
    start = time.perf_counter()
    while True:
        took = one_round()
        if time.perf_counter() - start + took > seconds:
            return


def untraced(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    jobs, runner = prepare(workload, seed, tiny)
    setup_raw, setup_s = measure_setup(workload, seed)
    passes: List[Pass] = []

    def one_round() -> float:
        passes.append(runner.run_pass(jobs))
        return passes[-1].elapsed

    run_passes(seconds, one_round)
    attempted, failed = runner.attempted, runner.failed
    results, sums = check_outputs(workload, jobs, runner)
    shutil.rmtree(runner.workdir, ignore_errors=True)

    job_s = [t for p in passes for t in p.scaled()]
    per_job = per_job_s(passes)
    raw_wall = statistics.median(sum(p.job_s) for p in passes)
    check_failures = sum(1 for _, ok, _ in results if not ok)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_job), "s"),
        "job_s.p50": (statistics.median(per_job), "s"),
        "mean_rate_bits": (statistics.fmean(sums), "bits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"passes {len(passes)} of {len(jobs)} jobs; {len(job_s)} job runs",
        percentile_line(job_s),
        f"raw (unscaled) wall_s {raw_wall!r} s, setup_s {setup_raw!r} s",
        f"fail_ratio {failed / attempted!r} 1 ({failed} of {attempted} jobs)",
        f"check_fail_ratio {check_failures / len(results)!r} 1 ({check_failures} of {len(results)} checks)",
    ]
    return _result(results, attempted, failed, metrics, notes)


def traced(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    from tracer import Tracer

    jobs, runner = prepare(workload, seed, tiny)
    tracer = Tracer()
    plain: List[Pass] = []
    spanned: List[Pass] = []

    def one_round() -> float:
        plain.append(runner.run_pass(jobs))
        tracer.install()
        try:
            spanned.append(runner.run_pass(jobs, tracer, first_id=len(spanned) * len(jobs)))
        finally:
            tracer.uninstall()
        return plain[-1].elapsed + spanned[-1].elapsed

    run_passes(seconds, one_round)
    attempted, failed = runner.attempted, runner.failed
    results, _ = check_outputs(workload, jobs, runner)
    shutil.rmtree(runner.workdir, ignore_errors=True)
    tracer.save(str(OUT / f"spans-{workload}-seed{seed}.npz"))

    raw_wall = statistics.median(sum(p.job_s) for p in spanned)
    wall = sum(per_job_s(spanned))
    plain_wall = sum(per_job_s(plain))
    metrics, identities = layer_metrics(tracer, len(spanned), raw_wall, wall / raw_wall)
    metrics["trace.overhead_s"] = (wall - plain_wall, "s")
    results += identities
    check_failures = sum(1 for _, ok, _ in results if not ok)
    notes = [
        f"traced passes {len(spanned)} of {len(jobs)} jobs; per-layer figures are per pass",
        f"traced wall_s {wall!r} s, untraced wall_s {plain_wall!r} s, raw traced wall_s {raw_wall!r} s",
        f"fail_ratio {failed / attempted!r} 1 ({failed} of {attempted} jobs)",
        f"check_fail_ratio {check_failures / len(results)!r} 1 ({check_failures} of {len(results)} checks)",
    ] + [f"identity {name}: {'holds' if ok else 'FAILS'} ({detail})" for name, ok, detail in identities]
    return _result(results, attempted, failed, metrics, notes)


LAYERS = ("sdp", "linalg", "beamformer", "schemes", "model", "bounds", "df", "io", "cli")


def layer_metrics(tracer, passes: int, wall: float, scale: float):
    """Per-layer metrics, per traced pass, and the two counting identities.
    `wall` is the raw traced pass time; raw span times are scaled by
    `scale`, the traced passes' ratio of reference to raw time."""
    spans = tracer.summary()
    counts = tracer.counts
    m: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (value / passes * (scale if unit == "s" else 1.0), unit)

    def calls(span: str) -> int:
        return spans[span]["calls"]

    for span, stats in (
        ("sdp.solve_sdp", ("calls", "self_s")),
        ("sdp.extract_rank_one", ("calls", "self_s")),
        ("linalg.eig_sym", ("calls", "self_s")),
        ("linalg.svd_tall", ("calls", "self_s")),
        ("linalg.herm_sqrt_2x2", ("self_s",)),
        ("beamformer.min_relay_power", ("calls", "self_s")),
        ("beamformer.build_qcqp", ("self_s",)),
        ("beamformer.max_sum_rate", ("calls", "s")),
        ("beamformer.rate_region_boundary", ("s",)),
        ("beamformer.capacity_region", ("s",)),
        ("schemes.sweep_region", ("s",)),
        ("schemes.scheme_max_sum_rate", ("calls", "s")),
        ("model.effective", ("calls", "self_s")),
        ("model.rate_pair_reduced", ("calls", "self_s")),
        ("model.relay_power_reduced", ("calls", "self_s")),
        ("bounds.bounds_report", ("s",)),
        ("bounds.c_ub", ("calls", "s")),
        ("df.bc_wsrmax", ("calls", "self_s")),
        ("df.bc_boundary", ("s",)),
        ("df.bc_ray_exit", ("calls", "s")),
        ("df.df_boundary_value", ("calls", "s")),
        ("df.df_tau_slice", ("self_s",)),
        ("io.write_csv", ("calls", "self_s")),
        ("cli.main", ("s",)),
    ):
        for stat in stats:
            put(f"{span}.{stat}", spans[span][stat], "count" if stat == "calls" else "s")
    for key in ("iters", "infeasible", "failed"):
        put(f"sdp.solve_sdp.{key}", counts[f"sdp.solve_sdp.{key}"], "count")
    put("beamformer.min_relay_power.raised", counts["beamformer.min_relay_power.raised"], "count")
    builders = [spans["schemes.mrr_mrt"], spans["schemes.zfr_zft"]]
    put("schemes.builder.calls", sum(b["calls"] for b in builders), "count")
    put("schemes.builder.self_s", sum(b["self_s"] for b in builders), "s")
    put("io.bytes_written", counts["io.bytes_written"], "bytes")

    rays = calls("beamformer.max_sum_rate")
    probes = tracer.calls_under("beamformer.min_relay_power", "beamformer.max_sum_rate")
    m["beamformer.probes_per_ray"] = (probes / rays if rays else 0.0, "count")
    feasible = counts["beamformer.min_relay_power.feasible"]
    mrp = calls("beamformer.min_relay_power")
    m["beamformer.probe_feasible_ratio"] = (feasible / mrp if mrp else 0.0, "1")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, stats in spans.items():
        layer_self[span.split(".")[0]] += stats["self_s"]
    put("cli.self_s", layer_self["cli"], "s")
    for layer in LAYERS:
        m[f"{layer}.share"] = (layer_self[layer] / passes / wall, "1")

    solves, optimal = calls("sdp.solve_sdp"), counts["sdp.solve_sdp.optimal"]
    identities = [
        ("extract_rank_one.calls == optimal solves", calls("sdp.extract_rank_one") == optimal,
         f"{calls('sdp.extract_rank_one')} vs {optimal}"),
        ("solve_sdp.calls == min_relay_power.calls", solves == mrp, f"{solves} vs {mrp}"),
    ]
    return m, identities


def _result(results, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]], notes) -> dict:
    for name, ok, detail in results:
        if not ok:
            print(f"check FAILED {name}: {detail}", file=sys.stderr)
    return {
        "notes": [n for n in notes if n],
        "checks": results,
        "result": {
            "correct": all(ok for _, ok, _ in results),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
        },
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run: {"notes": lines for people, "checks": (name, ok,
    detail) of every check made, "result": the object printed last}."""
    return (traced if trace else untraced)(workload, seed, seconds, tiny)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in run["notes"]:
        print(note)
    for name, metric in run["result"]["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
