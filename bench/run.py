"""qcext benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload grid-extend --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

Run from the root of a source checkout (``src/qcext`` must be there).  Each run
starts one fresh client process (``client.py``) with ``src`` on PYTHONPATH and
the BLAS/OpenMP pools pinned to one thread.  The client issues the workload's
``qcext`` commands through ``qcext.cli.main`` in a closed loop, one at a time;
this process makes the seeded inputs and checks every output against the
oracles in ``workloads.py`` while the client waits, outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats one
cycle of the workload's ops, alternating untraced and traced passes, and
reports the per-layer metrics of ``spans.py`` and the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLIENT = BENCH / "client.py"

MIN_OPS = 100          # so that ten latencies lie beyond the 90th percentile
MIN_PASSES = 3         # passes over a run's ops, at least; an op's latency is its fastest
SETUP_PROBES = 4       # extra fresh processes timed to ready, besides the worker
RUN_WALL_CAP = 140.0   # seconds; a run stops issuing ops after this
KILL_SLACK = 25.0      # a client still busy this long after the cap is killed
READY_TIMEOUT = 60.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


def child_env() -> dict:
    """This process's environment (thread pools already pinned), with only the
    checkout's ``src`` on the import path and a fixed hash seed."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class Client:
    """One client process; set-up is timed from spawn to its ready line."""

    def __init__(self, workdir: Path, probe=False, importtime=False, deadline=None,
                 cpu=None):
        self.err_path = workdir / f"client-{time.monotonic_ns()}.err"
        flags = ["-X", "importtime"] if importtime else []
        args = [sys.executable, *flags, str(CLIENT)] + (["--probe"] if probe else [])
        self._err = open(self.err_path, "w", encoding="utf-8")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._err)
        if cpu is not None:
            self.pin(cpu)
        timeout = (READY_TIMEOUT if deadline is None
                   else max(1.0, deadline + KILL_SLACK - time.monotonic()))
        self._watchdog = threading.Timer(timeout, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        ready = self._read()
        self.setup_s = time.perf_counter() - t0
        self.import_ms = ready["import_ms"]
        if not Path(ready["qcext"]).resolve().is_relative_to(SRC):
            self.close()
            raise BenchError(f"qcext imported from {ready['qcext']}, not {SRC}")

    def pin(self, cpu: int) -> None:
        os.sched_setaffinity(self.proc.pid, {cpu})

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise BenchError("client exited early: " + self.stderr()[-2000:])
        return json.loads(line)

    def call(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stderr(self) -> str:
        if not self._err.closed:
            self._err.flush()
        return self.err_path.read_text(encoding="utf-8", errors="replace")

    def close(self) -> None:
        try:
            if self.proc.stdin:
                self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._watchdog.cancel()
            self._err.close()
            if self.proc.stdout:
                self.proc.stdout.close()


def scipy_import_ms(importtime_log: str) -> float:
    """Total self time of scipy modules in a ``-X importtime`` log, in ms."""
    total = 0
    for m in re.finditer(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", importtime_log):
        if m.group(2).split(".")[0] == "scipy":
            total += int(m.group(1))
    return total / 1e3


class Tally:
    """Ops attempted and failed; any failure makes the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.first_failure = ""

    def add(self, verdict) -> None:
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.first_failure = self.first_failure or verdict.detail

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def probe_defects(client, workload, seed, workdir, cpus) -> list:
    """Run the workload's defect probes (outside ``attempted``) and describe
    each: the known defect it shows, fixed, or a new failure."""
    lines = []
    for op in workload.probes(np.random.default_rng([seed, 1]), workdir):
        with open(op.spec["map_path"], "w", encoding="utf-8") as fh:
            fh.write(op.input_text)
        client.pin(fastest_cpu(cpus))
        verdict = workload.check(op, client.call(op.message(False)))
        state = ("passes (defect fixed?)" if verdict.ok else
                 f"known defect {verdict.known}" if verdict.known else "NEW FAILURE")
        lines.append(f"{op.kind} probe: {state}{': ' + verdict.detail if verdict.detail else ''}")
    return lines


def _spin(n=10000):
    x = 0
    for i in range(n):
        x += i * i
    return x


def fastest_cpu(cpus) -> int:
    """The CPU on which a short fixed loop runs fastest right now.

    On a shared host each CPU has slow periods of tens of seconds, 1.3-1.8
    times slower, which come and go independently on the two CPUs measured.
    """
    if len(cpus) < 2:
        return cpus[0]
    best = (float("inf"), cpus[0])
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            _spin()
            best = min(best, (time.perf_counter() - t0, cpu))
    finally:
        os.sched_setaffinity(0, cpus)
    return best[1]


def _output_digest(op, reply):
    """Exit code, certificate and a hash of every file the op wrote."""
    h = hashlib.sha256()
    for path in (op.out, op.follow and op.follow["values"]):
        if path:
            h.update(Path(path).read_bytes())
    return reply.get("rc"), reply.get("cert_gap"), h.hexdigest()


def verify(workload, op, reply):
    """Check an op's output with its oracle.  A repeat whose output is
    byte-identical to one that passed passes without the oracle, which keeps
    the passes cheap; any other output is checked in full."""
    try:
        digest = _output_digest(op, reply)
    except OSError:
        digest = None
    if digest is not None and digest == op.passed_digest:
        return Verdict(True)
    verdict = workload.check(op, reply)
    if verdict.ok:
        op.passed_digest = digest
    return verdict


def _issue(client, workload, op, trace, tally, cpus):
    """Write the op's input, run it on the fastest CPU and check its output."""
    with open(op.spec["map_path"], "w", encoding="utf-8") as fh:
        fh.write(op.input_text)
    for path in (op.out, op.follow and op.follow["values"]):
        if path and os.path.exists(path):
            os.remove(path)   # a run that writes nothing must not pass on old output
    client.pin(fastest_cpu(cpus))
    reply = client.call(op.message(trace))
    tally.add(verify(workload, op, reply))
    return reply


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_ops: int = MIN_OPS, probes: int = SETUP_PROBES,
                 workdir: Path | None = None) -> dict:
    """One run: the result object (the last output line) and what ``report``
    prints besides it."""
    workload = WORKLOADS[name]
    own_dir = workdir is None
    if own_dir:
        workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    t_start = time.monotonic()
    deadline = t_start + RUN_WALL_CAP
    try:
        setups, imports, scipy_ms = [], [], []
        cpus = sorted(os.sched_getaffinity(0))

        def probe_setup(n):
            for _ in range(n):
                probe = Client(workdir, probe=True, importtime=trace, deadline=deadline,
                               cpu=fastest_cpu(cpus))
                probe.close()
                setups.append(probe.setup_s)
                imports.append(probe.import_ms)
                if trace:
                    scipy_ms.append(scipy_import_ms(probe.stderr()))

        # half the probes before the ops and half after, so that one slow
        # moment of the host does not decide the median
        probe_setup(probes // 2)
        client = Client(workdir, deadline=deadline, cpu=fastest_cpu(cpus))
        setups.append(client.setup_s)
        rng = np.random.default_rng(seed)
        tally = Tally()
        try:
            if trace:
                body = _traced_loop(client, workload, rng, seconds, tally, workdir, deadline, cpus)
            else:
                body = _timed_loop(client, workload, rng, seconds, min_ops, tally,
                                   workdir, deadline, cpus)
            defects = probe_defects(client, workload, seed, workdir, cpus)
            probe_setup(probes - probes // 2)
            rss = client.call({"end": True})["maxrss_mb"]
        finally:
            client.close()
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass  # another run still uses it

    if trace:
        metrics = dict(body["metrics"])
        metrics["setup.import_ms"] = {"value": statistics.median(imports), "unit": "ms"}
        metrics["setup.import_scipy_ms"] = {"value": statistics.median(scipy_ms), "unit": "ms"}
        metrics["trace.overhead_pct"] = {"value": body["overhead_pct"], "unit": "%"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **body["metrics"],
                   "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {
        "result": {"correct": tally.failed == 0, "attempted": tally.attempted,
                   "failed": tally.failed, "metrics": metrics},
        "fail_frac": tally.fail_frac,
        "defects": defects,
        "first_failure": tally.first_failure,
        "missing": body.get("missing", []),
        "ops": body["ops"],
        "wall_s": time.monotonic() - t_start,
    }


def _timed_loop(client, workload, rng, seconds, min_ops, tally, workdir, deadline, cpus):
    """The fewest whole cycles of ops that hold ``min_ops``, then passes over
    the same ops, each in a new random order, until ``seconds`` have passed
    (at least MIN_PASSES in all).  An op's latency is its fastest pass, so
    that a slow period of the host seldom decides it; few ops and many passes
    make the fastest pass more likely to meet a quiet moment."""
    t_end = time.monotonic() + seconds
    ops, lat = [], []
    for op in workload.ops(rng, workdir):
        ops.append(op)
        lat.append(_issue(client, workload, op, False, tally, cpus)["latency"])
        whole = len(ops) % workload.cycle_len == 0   # keep the mix exact
        if (whole and len(ops) >= min_ops) or time.monotonic() > deadline:
            break
    passes = 1
    while passes < MIN_PASSES or time.monotonic() < t_end:
        for i in rng.permutation(len(ops)):
            now = time.monotonic()
            if now > deadline or (passes >= MIN_PASSES and now > t_end):
                break
            reply = _issue(client, workload, ops[i], False, tally, cpus)
            lat[i] = min(lat[i], reply["latency"])
        passes += 1
        if time.monotonic() > deadline:
            break
    ms = np.array(lat) * 1e3
    return {"ops": len(ops), "metrics": {
        "ops_per_s": {"value": len(ops) / (ms.sum() / 1e3), "unit": "1/s"},
        "op_p50_ms": {"value": float(np.percentile(ms, 50)), "unit": "ms"},
        "op_p90_ms": {"value": float(np.percentile(ms, 90)), "unit": "ms"},
    }}


def _traced_loop(client, workload, rng, seconds, tally, workdir, deadline, cpus):
    """Alternate untraced and traced passes over one cycle of ops."""
    ops = workload.cycle(rng, workdir, 0)
    sums = {False: 0.0, True: 0.0}
    totals: dict[str, float] = {}
    missing: set[str] = set()
    n_traced = 0
    t0 = time.monotonic()
    while True:
        for trace in (False, True):
            for op in ops:
                reply = _issue(client, workload, op, trace, tally, cpus)
                sums[trace] += reply["latency"]
                if trace:
                    n_traced += 1
                    for key, value in reply["trace"].items():
                        totals[key] = totals.get(key, 0.0) + value
                    totals["bytes_out"] = totals.get("bytes_out", 0.0) + reply.get("bytes_out", 0)
                    missing.update(reply["missing"])
        if time.monotonic() - t0 >= seconds or time.monotonic() > deadline:
            break
    metrics, gone = spans.layer_metrics(totals, n_traced, missing)
    return {"ops": 2 * n_traced, "metrics": metrics, "missing": gone + sorted(missing),
            "overhead_pct": 100.0 * (sums[True] / sums[False] - 1.0)}


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True)
        sha = done.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def report(name: str, seed: int, run: dict) -> str:
    res = run["result"]
    lines = [f"# workload {name} seed {seed}: {run['ops']} ops in {run['wall_s']:.1f} s wall"]
    for key, m in res["metrics"].items():
        lines.append(f"{key:40s} {m['value']:14.6g} {m['unit']}")
    lines.append(f"{'fail_frac':40s} {run['fail_frac']:14.6g} 1   "
                 f"({res['failed']} of {res['attempted']} ops)")
    if run["first_failure"]:
        lines.append(f"# first failure: {run['first_failure']}")
    lines += [f"# {line}" for line in run["defects"]]
    if run["missing"]:
        lines.append(f"# missing (target gone, not reported): {', '.join(run['missing'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcext" / "cli.py").is_file():
        print(f"error: no qcext sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"# env: {json.dumps(environment())}")
    results = {}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            print(f"# trace overhead: {run['result']['metrics']['trace.overhead_pct']['value']:.1f}% "
                  "against the untraced passes over the same ops")
        print(report(name, args.seed, run), flush=True)
        results[name] = run["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
