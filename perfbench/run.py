"""End-to-end benchmark of the powerchains CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
`src/` directory.  A single client runs the workload's jobs (perfbench/jobs.py)
one at a time, closed loop: each job is a fresh `python -m powerchains ...
--json` process, because CLI users pay the import and cold caches on every
run.  The run repeats whole passes over the job list while another pass fits
in --seconds (at least one pass), so every run times the same mix.

The host is shared, and neighbours slow it by up to ~40% for minutes at a
time, which moves every wall time alike.  So after each job the benchmark
times a fixed reference task that runs no program code (`calibrate`: a
pure-Python loop and a bare interpreter start), and reports times in
reference seconds: wall seconds scaled by CAL_REF_S over the run's mean
reference-task time.  A change to the program moves reference seconds as it
moves wall seconds.  The wall-second figures are printed as text.  Every
output is checked (perfbench/checks.py); a job fails on an exit code other
than 0 or 1, a timeout, or a failed check.

With --trace 0 the run prints the end-to-end metrics.  With --trace 1 it runs
one pass, each job once untraced and once under perfbench/tracer.py, and
prints the per-layer metrics; the spans go to a sidecar in .bench_out/.
The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import jobs as jobgen
import metrics
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

JOB_LIMIT_S = 60.0     # per-job time limit; a failed job counts as this long
RUN_CAP_S = 140.0      # no job starts after this, so a run ends within 180 s
CAL_REF_S = 0.09       # time of `calibrate` at reference speed


def calibrate() -> float:
    """Wall time of a fixed compute task: the host's current speed."""
    start = time.perf_counter()
    x = 12345
    for i in range(400_000):
        x = (x * x + i) % 1000003
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


@dataclass
class Launch:
    wall_s: float
    code: int | None          # None: killed at the time limit
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


@dataclass
class JobRecord:
    job: jobgen.Job
    launch: Launch | None     # None: not started before the run cap
    failure: str | None
    result: dict | None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def wall_s(self) -> float:
        return self.launch.wall_s if self.launch else JOB_LIMIT_S


class Runner:
    """Launches job processes from the checkout and checks their output."""

    def __init__(self, workload: str, seed: int, job_list):
        self.workload = workload
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "POWERCHAINS_WORKERS")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.rng = random.Random(f"check:{workload}:{seed}")
        self.digests = {}
        if DIGESTS.exists():
            recorded = json.loads(DIGESTS.read_text())
            self.digests = recorded.get(workload, {}).get(str(seed), {})
        self.table = oracle.PrimeTable(max([checks.EXACT_BELOW] +
                                           [j.limit for j in job_list if j.limit]))
        self.cap = time.perf_counter() + RUN_CAP_S
        self.cal_s = [calibrate()]   # `calibrate` times, one after each job

    def launch(self, args: list[str], timeout: float) -> Launch:
        """Run `python args...` to completion or the timeout, timing it from
        spawn to exit; the whole process group is killed on timeout."""
        out_path, err_path = OUT_DIR / "job.stdout", OUT_DIR / "job.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT, start_new_session=True)
        try:
            timed_out = False
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                if not poller.poll(max(timeout, 0.0) * 1000):
                    timed_out = True
                    os.killpg(proc.pid, signal.SIGKILL)
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Launch(wall, None if timed_out else proc.returncode, usage.ru_maxrss,
                      out_path.read_bytes(), err_path.read_bytes())

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over the run."""
        return CAL_REF_S / statistics.fmean(self.cal_s)

    def run_job(self, job: jobgen.Job) -> JobRecord:
        remaining = self.cap - time.perf_counter()
        if remaining <= 0:
            return JobRecord(job, None, "not started: run cap reached", None)
        launch = self.launch(["-m", "powerchains", *job.argv()], min(JOB_LIMIT_S, remaining))
        self.cal_s.append(calibrate())
        failure, result = self.evaluate(job, launch)
        return JobRecord(job, launch, failure, result)

    def evaluate(self, job: jobgen.Job, launch: Launch):
        """(failure reason or None, parsed result or None)."""
        if launch.code is None:
            return f"timed out after {launch.wall_s:.1f} s", None
        if launch.code not in (0, 1):
            lines = launch.stderr.decode(errors="replace").strip().splitlines()
            return f"exit {launch.code}: {lines[-1] if lines else ''}", None
        digest = self.digests.get(job.key)
        if digest and hashlib.sha256(launch.stdout).hexdigest() != digest:
            return "stdout differs from the recorded digest", None
        try:
            payload = json.loads(launch.stdout)
        except ValueError:
            return "stdout is not JSON", None
        result = payload.get("result")
        reason = checks.check_output(job, payload, self.rng, self.table)
        if reason is None and launch.code != checks.expected_exit(job, result):
            reason = f"exit {launch.code} does not match the result"
        return reason, result


def _without_workers(payload: dict) -> dict:
    payload["config"].pop("workers", None)
    return payload


def check_workers(runner: Runner, records: list[JobRecord]) -> None:
    """Rerun one sampled range job with --workers 2, untimed: apart from the
    echoed worker count its output must be identical."""
    candidates = [r for r in records if r.ok and r.job.command in jobgen.Z_COMMANDS
                  and r.job.max_count is None]
    if not candidates:
        return
    rec = runner.rng.choice(candidates)
    remaining = runner.cap - time.perf_counter()
    if remaining <= 0:
        return
    launch = runner.launch(["-m", "powerchains", *rec.job.argv(workers=2)],
                           min(JOB_LIMIT_S, remaining))
    if launch.code is None:
        failure = "--workers 2 rerun timed out"
    elif launch.code != rec.launch.code:
        failure = "--workers 2 exit code differs"
    else:
        try:
            same = (_without_workers(json.loads(launch.stdout)) ==
                    _without_workers(json.loads(rec.launch.stdout)))
        except ValueError:
            same = False
        failure = None if same else "--workers 2 output differs"
    if failure:
        for r in records:
            if r.job == rec.job:
                r.failure = failure


def setup_time(runner: Runner) -> float:
    """Wall time of a fresh `python -m powerchains --version` process."""
    launch = runner.launch(["-m", "powerchains", "--version"], JOB_LIMIT_S)
    if launch.code != 0:
        raise SystemExit("powerchains --version failed: "
                         + launch.stderr.decode(errors="replace")[-500:])
    return launch.wall_s


def run_passes(runner: Runner, job_list, seconds: float):
    """Whole passes over the job list while another pass fits in `seconds`.
    The first pass launches a set-up probe before each job, so set-up time
    is sampled across the run."""
    records, setup, passes = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for job in job_list:
            if not passes:
                setup.append(setup_time(runner))
            records.append(runner.run_job(job))
        passes += 1
        now = time.perf_counter()
        if now + (now - start) > deadline or now >= runner.cap:
            return records, setup, passes


def end_to_end(runner: Runner, job_list, seconds: float):
    records, setup, passes = run_passes(runner, job_list, seconds)
    if runner.workload == "zscan":
        check_workers(runner, records)
    scale = runner.scale
    times = metrics.job_times(records, JOB_LIMIT_S, scale)
    ok = [r for r in records if r.ok]
    credit = sum(metrics.moduli_credit(r.job, r.result, runner.table) for r in ok)
    busy = sum(r.wall_s for r in ok)
    values = {
        "job_p50_s": (statistics.median(times), "s"),
        "moduli_per_s": (credit / (busy * scale) if busy else 0.0, "1/s"),
        "setup_s": (statistics.median(setup) * scale, "s"),
        "peak_rss_mb": (max((r.launch.maxrss_kb for r in records if r.launch),
                            default=0) / 1024, "MB"),
        "success_rate": (len(ok) / len(records), "ratio"),
    }
    tail = metrics.tail_percentile(times)
    notes = [f"passes {passes}, jobs {len(records)}, "
             f"fail_rate {1 - len(ok) / len(records):.4f} ratio "
             f"({len(records) - len(ok)}/{len(records)})",
             "job time tail: " + (f"p{tail[0]} {tail[1]:.4f} reference s" if tail
                                  else "fewer than 11 jobs, no tail percentile"),
             f"reference seconds per wall second {scale:.4f}; in wall seconds: "
             f"job p50 {statistics.median(metrics.job_times(records, JOB_LIMIT_S)):.4f} s, "
             f"moduli/s {credit / busy if busy else 0.0:.1f}, "
             f"setup {statistics.median(setup):.4f} s"]
    return records, values, notes, {"setup_s": setup, "cal_s": runner.cal_s}


def per_layer(runner: Runner, job_list, seconds: float):
    """One pass; each job runs untraced (timed and checked), then under the
    tracer, whose stdout and exit code must match."""
    records, traced, sidecar = [], [], []
    spans_path = OUT_DIR / "spans.json"
    for i, job in enumerate(job_list):
        plain = runner.run_job(job)
        records.append(plain)
        remaining = runner.cap - time.perf_counter()
        if not plain.ok or remaining <= 0:
            continue
        spans_path.unlink(missing_ok=True)
        launch = runner.launch([str(HERE / "tracer.py"), str(spans_path), "--", *job.argv()],
                               min(JOB_LIMIT_S, remaining))
        if (launch.code, launch.stdout) != (plain.launch.code, plain.launch.stdout):
            plain.failure = "traced output differs from untraced output"
            continue
        spans = json.loads(spans_path.read_text())
        traced.append((job, plain.result, plain.wall_s, launch.wall_s, spans))
        sidecar.append({"trace": i + 1, "argv": job.argv(), "wall_s": launch.wall_s,
                        "spans": spans})
    layer = metrics.layer_metrics(traced, runner.table)
    values = {name: (layer[name], unit) for name, unit in metrics.LAYER_UNITS.items()}
    notes = [f"traced jobs {len(traced)} of {len(records)}; "
             "per-layer values are totals over one pass"]
    return records, values, notes, {"traces": sidecar}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="powerchains CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(jobgen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=jobgen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "powerchains" / "__init__.py").is_file():
        print(f"error: no powerchains source under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    job_list = jobgen.generate(ns.workload, ns.seed)
    runner = Runner(ns.workload, ns.seed, job_list)
    runner.launch(["-m", "powerchains", "--version"], JOB_LIMIT_S)  # compile bytecode

    measure = per_layer if ns.trace else end_to_end
    records, values, notes, extra = measure(runner, job_list, ns.seconds)

    failed = [r for r in records if not r.ok]
    stem = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "jobs": [{"argv": r.job.argv(), "wall_s": r.wall_s,
                  "exit": r.launch.code if r.launch else None,
                  "maxrss_kb": r.launch.maxrss_kb if r.launch else None,
                  "sha256": hashlib.sha256(r.launch.stdout).hexdigest() if r.launch else None,
                  "failure": r.failure} for r in records],
        **extra}))

    print(f"workload {ns.workload}, seed {ns.seed}, trace {ns.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in values.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:32s} {shown} {unit}")
    for key, failure in dict.fromkeys((r.job.key, r.failure) for r in failed):
        print(f"FAILED {key[:120]}: {failure}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
