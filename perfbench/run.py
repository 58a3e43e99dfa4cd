"""apvar benchmark: cold-process jobs in a closed loop, one client.

    python3 perfbench/run.py --workload table_cache --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a checkout.  Every job is a fresh ``perfbench/job.py``
process, started only after the previous one has exited, so the residue
caches are cold for each job as they are for each ``apvar`` command.  Jobs
run in rounds, and a new round starts only if it is predicted (from the last
round) to end within ``--seconds``; the first round always runs.

With ``--trace 0`` the jobs run untraced and the run reports the
``end_to_end`` metrics of BENCHMARK.json: wall_s, cpu_s and peak_rss_mb as
medians over the jobs (wall and CPU time and ru_maxrss of each job process,
from wait4) and setup_s, the median over the jobs and over the set-up-only
processes started before each job of the time from spawn to apvar imported
and inputs made.

With ``--trace 1`` untraced and traced jobs alternate, and the run reports
the ``per_layer`` metrics: medians over the traced jobs of each
``<module>.<function>.<metric>``, ``trace.overhead_s`` (median traced minus
median untraced wall time) and, on variance_growth,
``stats.variance_total.pool_speedup`` (median wall of untraced jobs at one
thread over that at the CLI's default thread count; 0 elsewhere).  A
function the workload never calls reads 0.  The spans of the last traced
run of each workload are kept in ``.perfbench/trace-<workload>.jsonl``.

Before the final JSON line the run prints a summary per workload: each
end-to-end metric with its unit, the wall-time tail percentile when there
are enough jobs for one, failed_frac, and the host.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table_cache", "variance_growth", "checks")
TABLE_X = {"table_cache": 10**7, "variance_growth": 65536, "checks": 100000}
SETUP_PROBES_PER_JOB = 2  # set-up-only processes before each job, for setup_s
RUN_LIMIT_S = 170.0  # a run must end within 180 s; jobs still going are killed


class JobError(RuntimeError):
    pass


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (p, value) with p an integer percent and value the nearest-rank
    p-th percentile, or None when there are fewer than 11 samples.
    """
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(samples)[rank - 1]


def host_info() -> dict:
    llc = 0
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        got = subprocess.run(["getconf", level], capture_output=True, text=True, check=False).stdout.strip()
        if got.isdigit() and int(got) > 0:
            llc = int(got)
            break
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "llc_bytes": llc,
    }


def spawn(workload, seed, job_id, scratch, deadline, *, threads, spans=None, setup_only=False) -> dict:
    """Run one job process to completion; its result plus wall, CPU and RSS."""
    out = scratch / f"{job_id}.json"
    log = scratch / f"{job_id}.log"
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed),
           "--job-id", job_id, "--threads", str(threads), "--tmp", str(scratch), "--out", str(out)]
    if spans:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    with open(log, "w") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(start)], stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.exists():
        tail = log.read_text()[-2000:]
        raise JobError(f"job {job_id} exited with {proc.returncode}:\n{tail}")
    result = json.loads(out.read_text())
    result.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024)
    return result


def median_of(jobs, key):
    return statistics.median(j[key] for j in jobs)


def run_workload(workload, seed, seconds, trace, spec, host) -> dict:
    """All jobs of one run: the summary, check counts and BENCHMARK.json metrics."""
    nproc = host["nproc"]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench"))
    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    counter = itertools.count()

    def job(**kw):
        return spawn(workload, seed, f"{workload}-{seed}-{next(counter)}", scratch, deadline, **kw)

    plain, traced, single, probes = [], [], [], []

    def rounds():
        """Yield once per round: always once, then again while a round that
        lasts as long as the last one would still end within ``seconds``."""
        start = time.monotonic()
        yield
        while True:
            now = time.monotonic()
            if now + (now - start) - begin > seconds:
                return
            start = now
            yield

    try:
        if trace:
            for _ in rounds():
                plain.append(job(threads=nproc))
                traced.append(job(threads=nproc, spans=scratch / f"spans-{len(traced)}.jsonl"))
                if workload == "variance_growth" and nproc > 1:
                    single.append(job(threads=1))
            with open(ROOT / ".perfbench" / f"trace-{workload}.jsonl", "w") as dst:
                for i in range(len(traced)):
                    with open(scratch / f"spans-{i}.jsonl") as src:
                        shutil.copyfileobj(src, dst)
        else:
            for _ in rounds():
                probes += [job(threads=nproc, setup_only=True) for _ in range(SETUP_PROBES_PER_JOB)]
                plain.append(job(threads=nproc))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    jobs = plain + traced + single
    attempted = sum(j["attempted"] for j in jobs)
    failures = [f for j in jobs for f in j["failures"]]
    walls = [j["wall_s"] for j in plain]
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "jobs": len(jobs),
        "wall_s": {"p50": statistics.median(walls), "tail": tail_percentile(walls), "n": len(walls), "samples": walls},
        "cpu_s": {"p50": median_of(plain, "cpu_s")},
        "peak_rss_mb": {"p50": median_of(plain, "peak_rss_mb")},
        "setup_s": {"p50": median_of(plain + probes, "setup_s"), "n": len(plain + probes)},
        "failed_frac": {"value": len(failures) / attempted, "failed": len(failures), "attempted": attempted},
        "failures": failures[:20],
        "host": {**host, "table_bytes_computed": 8 * (TABLE_X[workload] + 1)},
    }
    if trace:
        values = {}
        for name in {k for j in traced for k in j["layers"]}:
            values[name] = statistics.median(j["layers"].get(name, 0) for j in traced)
        values["trace.overhead_s"] = median_of(traced, "wall_s") - summary["wall_s"]["p50"]
        values["stats.variance_total.pool_speedup"] = (
            median_of(single, "wall_s") / summary["wall_s"]["p50"] if single else 0.0
        )
        wanted = spec["per_layer"]
    else:
        values = {name: summary[name]["p50"] for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    return {"summary": summary, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def describe(summary) -> str:
    w = summary["wall_s"]
    tail = f"p{w['tail'][0]}={w['tail'][1]:.4f} s" if w["tail"] else "no tail percentile (needs >= 11 jobs)"
    f = summary["failed_frac"]
    return (
        f"{summary['workload']} seed={summary['seed']} trace={summary['trace']} jobs={summary['jobs']}: "
        f"wall_s p50={w['p50']:.4f} s (n={w['n']}, {tail}; jobs: {' '.join(f'{t:.3f}' for t in w['samples'])}), "
        f"cpu_s p50={summary['cpu_s']['p50']:.4f} s, "
        f"peak_rss_mb p50={summary['peak_rss_mb']['p50']:.1f} MB, "
        f"setup_s p50={summary['setup_s']['p50']:.4f} s (n={summary['setup_s']['n']}), "
        f"failed_frac={f['failed']}/{f['attempted']}={f['value']:.4g}\n"
        f"  host: {json.dumps(summary['host'])} (table bytes computed from x, not a bandwidth measurement)"
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="start jobs until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn a terminate request into SystemExit, so the running job is killed
    # and reaped and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "apvar" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'apvar'} not found; run from an apvar checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    host = host_info()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec, host) for w in names}
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in results.values():
        print(describe(r["summary"]))
        if r["summary"]["failures"]:
            print("  failed checks: " + "; ".join(r["summary"]["failures"]))
    if args.workload == "all":
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
