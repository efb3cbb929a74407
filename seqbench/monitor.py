"""Workload ``monitor_randomized_ensemble``: ``seqdr monitor`` on a pipe.

Each round is one 4000-row ``randomized_ate`` stream fed to a fresh
``seqdr monitor`` child through stdin by a closed loop with one client:
the next row is written only after the previous row's output line has
been read. At most two processes run at once, this one and the child.
"""

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import reference
from bootstrap import CPUS, OUT, ROOT, pin

ALPHA = 0.1
OPT_T = 125
N_ROWS = 4000
OVERHEAD_PAIRS = 3
MONITOR_ARGS = ["monitor", "--alpha", str(ALPHA), "--opt-t", str(OPT_T), "--crossfit",
                "--learner", "ensemble", "--schema", "d=3"]


def stream_csv(seqdr, seed, k):
    """CSV lines of stream k of the run with this seed."""
    from seqdr.simlab import generate_stream

    scenario = seqdr.SimScenario(kind="randomized_ate", n=N_ROWS,
                                 seed=seqdr.SeedSpec(seed))
    x, a, y, pi = generate_stream(scenario, k)
    return [seqdr.io.serialize_observation(
        seqdr.Observation(x=x[i], a=int(a[i]), y=float(y[i]), known_pi=float(pi[i])))
        + "\n" for i in range(N_ROWS)]


class _LineReader:
    """Line reads from a pipe without Python's read-ahead buffering."""

    def __init__(self, fd):
        self.fd = fd
        self.buf = b""

    def readline(self):
        while b"\n" not in self.buf:
            chunk = os.read(self.fd, 65536)
            if not chunk:
                line, self.buf = self.buf, b""
                return line
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line + b"\n"


def piped_round(lines):
    """Stream ``lines`` through one monitor child in a closed loop.

    Returns (seconds from spawn to header, seconds of the streaming phase,
    per-row latencies, output bytes, rows answered, exit code, the
    child's peak RSS in MB).
    """
    cmd = [sys.executable, "-m", "seqdr.cli"] + MONITOR_ARGS + ["--input", "-"]
    latencies = np.empty(len(lines))
    with open(OUT / "monitor-stderr.txt", "ab") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, cwd=ROOT, bufsize=0)
        try:
            reader = _LineReader(proc.stdout.fileno())
            out = [reader.readline()]
            t_ready = time.perf_counter()
            wfd = proc.stdin.fileno()
            answered = 0
            for i, line in enumerate(lines):
                t0 = time.perf_counter()
                os.write(wfd, line.encode())
                reply = reader.readline()
                latencies[i] = time.perf_counter() - t0
                if not reply.endswith(b"\n"):
                    break
                out.append(reply)
                answered += 1
            t_done = time.perf_counter()
            proc.stdin.close()
            out.append(reader.readline())
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return (t_ready - t_spawn, t_done - t_ready, latencies[:answered],
            b"".join(out), answered, proc.returncode, usage.ru_maxrss / 1024)


def run(seqdr, seed, seconds):
    """Untraced run: whole streams until ``seconds`` of streaming have passed."""
    rho = reference.mixture_rho(ALPHA, OPT_T)
    setups, stream_secs, latencies, rss, checks = [], [], [], [], []
    attempted = failed = 0
    k = 0
    while sum(stream_secs) < seconds or len(latencies) * N_ROWS < 10_000:
        # streams alternate between the CPUs: each CPU's speed wanders on
        # its own for minutes at a time, and a run that sat on one CPU
        # measured that CPU's spell, not the program
        pin(k)
        t0 = time.perf_counter()
        lines = stream_csv(seqdr, seed, k)
        build = time.perf_counter() - t0
        ready, streaming, lat, text, answered, code, peak = piped_round(lines)
        setups.append(build + ready)
        rss.append(peak)
        stream_secs.append(streaming)
        latencies.append(lat)
        attempted += N_ROWS
        failed += N_ROWS - answered
        if code != 0 or answered < N_ROWS:
            checks.append((f"stream {k}", False, f"exit code {code}, {answered} rows answered"))
        else:
            ok, detail = reference.check_monitor_rows(text.decode(), N_ROWS, ALPHA, rho)
            checks.append((f"stream {k} rows", ok, detail))
        k += 1
    # medians over streams: a burst of load on the shared machine moves one
    # stream, not the run
    rates = [len(lat) / secs for lat, secs in zip(latencies, stream_secs)]
    p50s = [np.percentile(lat, 50) for lat in latencies]
    with open(OUT / f"samples-monitor_randomized_ensemble-seed{seed}.json", "w") as fh:
        json.dump({"setup_s": setups, "stream_s": stream_secs, "peak_rss_mb": rss,
                   "stream_p50_us": [1e6 * v for v in p50s],
                   "cpu": [CPUS[i % len(CPUS)] for i in range(k)]}, fh)
    lat = np.concatenate(latencies) * 1e6
    metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "rows_per_s": (float(np.median(rates)), "rows/s"),
        "row_latency_p50_us": (1e6 * float(np.median(p50s)), "us"),
        "row_latency_p999_us": (float(np.percentile(lat, 99.9)), "us"),
        "peak_rss_mb": (float(np.median(rss)), "MB"),
    }
    print(f"monitor: {k} streams, {lat.size} rows timed", file=sys.stderr)
    return attempted, failed, metrics, checks


def in_process(main, path, out_path):
    argv = MONITOR_ARGS + ["--input", str(path), "--out", str(out_path)]
    t0 = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - t0


def run_traced(seqdr, seed, seconds):
    """Traced run: ``seqdr.cli.main`` in this process on the same rows read
    from a file, with spans around every layer.

    Stream 0 also goes through an untraced piped child and an untraced
    in-process call; the traced output must match both byte for byte.
    After the per-layer figures are taken, stream 0 is run OVERHEAD_PAIRS
    more times untraced and traced in turn, so the tracing overhead
    compares passes made seconds apart on the same rows.
    """
    import tracing
    from seqdr.cli import main

    lines = stream_csv(seqdr, seed, 0)
    _, _, _, piped, answered, code, _ = piped_round(lines)
    checks = [("piped stream 0", code == 0 and answered == N_ROWS, f"exit code {code}")]
    first = OUT / "monitor-in.csv"
    first.write_text("".join(lines))
    plain_code, _ = in_process(main, first, OUT / "monitor-plain.csv")
    plain = (OUT / "monitor-plain.csv").read_bytes()

    tracer = tracing.Tracer()
    tracing.install(tracer, seqdr)

    def traced_pass(path):
        tracer.active = True
        try:
            return in_process(lambda argv: tracer.call("cli.main", main, argv),
                              path, OUT / "monitor-traced.csv")
        finally:
            tracer.active = False

    traced_secs, k, attempted, failed = 0.0, 0, 0, 0
    try:
        while k == 0 or traced_secs < seconds:
            path = first
            if k > 0:
                path = OUT / "monitor-in-next.csv"
                path.write_text("".join(stream_csv(seqdr, seed, k)))
            code, secs = traced_pass(path)
            tracer.end_stream()
            traced_secs += secs
            attempted += N_ROWS
            failed += 0 if code == 0 else N_ROWS
            if k == 0:
                traced = (OUT / "monitor-traced.csv").read_bytes()
                checks.append(("traced output equals piped output", traced == piped,
                               f"{len(traced)} vs {len(piped)} bytes"))
                checks.append(("traced output equals in-process output",
                               traced == plain and plain_code == 0,
                               f"{len(traced)} vs {len(plain)} bytes"))
            k += 1
        layers = tracing.layer_metrics(tracer, k)
        pairs = [(in_process(main, first, OUT / "monitor-plain.csv")[1],
                  traced_pass(first)[1]) for _ in range(OVERHEAD_PAIRS)]
    finally:
        tracer.restore()
    plain_secs, pass_secs = (statistics.median(p) for p in zip(*pairs))
    summary = {"workload": "monitor_randomized_ensemble", "seed": seed, "streams": k,
               "traced_rows_per_s": N_ROWS * k / traced_secs,
               "stream0_untraced_rows_per_s": N_ROWS / plain_secs,
               "stream0_traced_rows_per_s": N_ROWS / pass_secs,
               "overhead": 1.0 - plain_secs / pass_secs}
    tracer.write(OUT / f"trace-monitor_randomized_ensemble-seed{seed}.jsonl", summary)
    print(f"monitor traced: stream 0 at {N_ROWS / pass_secs:.0f} rows/s traced, "
          f"{N_ROWS / plain_secs:.0f} untraced in process "
          f"({100 * summary['overhead']:.1f}% overhead)", file=sys.stderr)
    return attempted, failed, layers, checks
