#!/usr/bin/env python3
"""The repository benchmark: Table II at paper scale, the attack-vs-defense
matrix, and a campaign_server replay.

    python3 benchmark/run.py --workload table2_paper --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 15

Run it from the root of the repository. It builds the program and the benchmark's
rtbench from source into .bench_build/, warms the oracle cache
there, runs one workload for about --seconds seconds, checks every output,
and prints readable lines, a `record:` line (host, build, and every metric
with its median, quartiles and n) and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See benchmark/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
DATA = BUILD / "data"
WORK = BUILD / "work"
RTBENCH = BUILD / "rtbench"
SERVER = BUILD / "robotack" / "examples" / "campaign_server"

WORKLOADS = ("table2_paper", "defense_serial", "server_replay")
SETUP_SPAWNS = 8        # set-ups timed before and again after the window
SERVER_WORKERS = 4      # forked workers of the replayed server
CLIENTS = 3             # closed-loop client connections
BLOCK = 50              # requests per replay block (see make_requests)
LARGE_RUNS = 160        # runs per campaign of the block's large request
REQUEST_TIMEOUT_S = 120.0


class BenchError(Exception):
    """A failure that means no result can be printed."""


def log(msg):
    print(msg, flush=True)


def env():
    e = dict(os.environ)
    e["ROBOTACK_DATA_DIR"] = str(DATA)
    e["TMPDIR"] = str(BUILD / "tmp")  # the compiler's temporary files too
    e.pop("RT_TRACE", None)
    e.pop("RT_CHAOS", None)
    e.pop("RT_CAMPAIGN_CACHE", None)
    return e


# ---------------------------------------------------------------------------
# Build.

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no program sources next to {BENCH_DIR.name}/")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rtbench",
                  "campaign_server", "-j", "4"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env(), cwd=ROOT).returncode != 0:
                tail = build_log.read_text().splitlines()[-20:]
                sys.stderr.write("\n".join(tail) + "\n")
                raise BenchError("build failed (see .bench_build/build.log)")
    # Train the oracle set once per checkout; set-up then loads it.
    DATA.mkdir(exist_ok=True)
    run_checked([str(RTBENCH), "setup"], timeout=600)


def run_checked(cmd, timeout, cwd=None):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       env=env(), cwd=cwd or ROOT, timeout=timeout, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-2000:])
        raise BenchError(f"{Path(cmd[0]).name} exited {p.returncode}")
    return p.stdout


# ---------------------------------------------------------------------------
# Statistics.

def summary(values):
    """median, q1, q3, n (quartiles as statistics.quantiles(n=4))."""
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0], 1
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return statistics.median(v), q1, q3, len(v)


def tail(values, failed=0, missing=0.0):
    """The highest percentile with at least ten samples beyond it; failed
    requests count as `missing` (beyond any limit). Returns value, pct, n."""
    v = sorted(list(values) + [missing] * failed)
    n = len(v)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def percentile(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Set-up time and memory.

def time_setup_inproc():
    samples = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        p = subprocess.Popen([str(RTBENCH), "setup"], stdout=subprocess.PIPE,
                             env=env(), cwd=ROOT, text=True)
        line = p.stdout.readline().strip()
        samples.append(time.perf_counter() - t0)
        p.stdout.close()
        if p.wait(timeout=60) != 0 or line != "ready":
            raise BenchError("rtbench setup failed")
    return samples


def run_with_rss(cmd, timeout):
    """Runs cmd; returns (stdout, peak RSS in MB of that process)."""
    with open(WORK / "child.out", "w+") as out:
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE,
                             env=env(), cwd=ROOT, text=True)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(p.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                p.kill()
                pid, status, usage = os.wait4(p.pid, 0)
                p.returncode = -9
                raise BenchError(f"{Path(cmd[0]).name} timed out")
            time.sleep(0.02)
        p.returncode = os.waitstatus_to_exitcode(status)
        err = p.stderr.read()
        p.stderr.close()
        out.seek(0)
        text = out.read()
    if p.returncode != 0:
        sys.stderr.write(err[-2000:])
        raise BenchError(f"{Path(cmd[0]).name} exited {p.returncode}")
    return text, usage.ru_maxrss / 1024.0


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ---------------------------------------------------------------------------
# In-process workloads.

def run_inproc(workload, seed, seconds, trace):
    setup = time_setup_inproc()
    text, rss = run_with_rss(
        [str(RTBENCH), "inproc", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        timeout=seconds * 4 + 120)
    setup += time_setup_inproc()
    lines = text.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    res = json.loads(lines[-1])
    samples = {"setup_s": setup, "peak_rss_mb": [rss]}
    if not trace:
        # The first pass warms allocator and page caches; it is checked but
        # not timed.
        walls = res["pass_wall_s"][1:]
        per_pass = len(res["latency_ms"]) // len(res["pass_wall_s"])
        latencies = res["latency_ms"][per_pass:]
        samples["runs_per_s"] = res["runs_per_s"][1:]
        samples["sim_frames_per_s"] = res["sim_frames_per_s"][1:]
        samples["requests_per_s"] = [per_pass / w for w in walls]
        samples["latency_p50_ms"] = latencies
        samples["latency_tail_ms"] = latencies
    extra = {"digest": res["digest"], "threads": res["threads"],
             "runs_per_pass": res["runs_per_pass"]}
    return samples, res.get("layers", {}), res["attempted"], res["failed"], \
        extra


# ---------------------------------------------------------------------------
# server_replay: campaign_server over its Unix socket, closed loop.

PAIRS = [("DS-1", "Disappear"), ("DS-1", "Move_Out"), ("DS-2", "Disappear"),
         ("DS-2", "Move_Out"), ("DS-3", "Move_In"), ("DS-4", "Move_In")]
MODES = ["R", "RwoSH", "Golden"]


def make_requests(seed, count):
    """The replay's request sequence, a pure function of the seed.

    Every block of BLOCK requests holds one large fresh request (Table II's
    four DS-1/DS-2 campaigns at paper scale) at the block's middle, fresh
    small requests (1-2 campaigns of 4-32 runs, log-uniform sizes) at the
    other even positions, and at odd positions a repeat of an earlier
    request, which the server answers from its cache. Sizes, pairs and modes
    are fixed multisets per block, shuffled by the seed, so every block
    costs about the same whatever the seed. Returns [(line, runs, repeat)].
    """
    rng = random.Random(seed)
    smalls = BLOCK // 2 - 1
    sizes = [round(4 * 8 ** ((k + 0.5) / smalls)) for k in range(smalls)]
    out = []
    fresh = 0
    while len(out) < count:
        s_sizes = sizes[:]
        rng.shuffle(s_sizes)
        s_pairs = [PAIRS[k % len(PAIRS)] for k in range(smalls)]
        rng.shuffle(s_pairs)
        s_modes = [MODES[k % len(MODES)] for k in range(smalls)]
        rng.shuffle(s_modes)
        small = 0
        for pos in range(BLOCK):
            if pos % 2 == 1 and out:
                out.append(out[rng.randrange(len(out))][:2] + (True,))
                continue
            fresh += 1
            req_seed = seed * 1000003 + fresh * 7919
            if pos == 2 * (BLOCK // 4):
                out.append((f"run scenarios=DS-1,DS-2 vectors=Disappear,"
                            f"Move_Out modes=R runs={LARGE_RUNS} "
                            f"seed={req_seed}", 4 * LARGE_RUNS, False))
                continue
            scen, vec = s_pairs[small]
            mode = s_modes[small]
            modes = mode if small % 2 == 0 else \
                mode + "," + MODES[(MODES.index(mode) + 1) % len(MODES)]
            n = s_sizes[small]
            out.append((f"run scenarios={scen} vectors={vec} modes={modes} "
                        f"runs={n} seed={req_seed}",
                        n * len(modes.split(",")), False))
            small += 1
    return out[:count]


def read_reply(sock):
    buf = b""
    while True:
        if buf == b"busy\n":
            return buf
        if buf.endswith(b"end\n") and (len(buf) == 4 or buf[-5:-4] == b"\n"):
            return buf
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk


def connect(path, timeout):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    s.connect(path)
    return s


def spawn_server(tag, trace_path=None):
    """Starts campaign_server on a fresh cache; returns (proc, socket path,
    seconds from spawn to the socket accepting)."""
    sock_path = os.path.relpath(WORK / f"{tag}.sock", ROOT)
    cache = WORK / f"{tag}.cache"
    (WORK / f"{tag}.sock").unlink(missing_ok=True)
    if cache.exists():
        for f in cache.iterdir():
            f.unlink()
    cmd = [str(SERVER), "--socket", sock_path, "--workers",
           str(SERVER_WORKERS), "--cache-dir", str(cache)]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    t0 = time.perf_counter()
    with open(WORK / f"{tag}.log", "w") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                env=env(), cwd=ROOT)
    while True:
        try:
            connect(sock_path, 5.0).close()
            break
        except OSError:
            if proc.poll() is not None or time.perf_counter() - t0 > 60:
                stop_server(proc, None)
                raise BenchError("campaign_server did not start")
            time.sleep(0.001)
    return proc, sock_path, time.perf_counter() - t0, cache


def stop_server(proc, sock_path):
    if proc.poll() is None and sock_path:
        try:
            with connect(sock_path, 5.0) as s:
                s.sendall(b"shutdown\n")
        except OSError:
            pass
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    return proc.returncode


def replay(requests, seconds, tag, trace_path=None):
    """One closed-loop replay against a fresh server. Returns a dict of raw
    observations."""
    proc, sock_path, _, cache = spawn_server(tag, trace_path)
    lock = threading.Lock()
    state = {"next": 0, "answered": set()}
    records = []  # (index, latency_s, reply bytes or None, was_answered)
    errors = []
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def client():
        try:
            s = connect(sock_path, REQUEST_TIMEOUT_S)
        except OSError as e:
            errors.append(str(e))
            return
        with s:
            while time.perf_counter() < deadline:
                with lock:
                    i = state["next"]
                    state["next"] += 1
                    seen = requests[i][0] in state["answered"]
                line = requests[i][0]
                t0 = time.perf_counter()
                try:
                    s.sendall(line.encode() + b"\n")
                    reply = read_reply(s)
                except (OSError, ConnectionError) as e:
                    records.append((i, time.perf_counter() - t0, None, seen))
                    errors.append(str(e))
                    return
                records.append((i, time.perf_counter() - t0, reply, seen))
                with lock:
                    state["answered"].add(line)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    stats = {}
    try:
        with connect(sock_path, 30.0) as s:
            s.sendall(b"stats\n")
            stats = json.loads(read_reply(s).decode().splitlines()[0])
    except (OSError, ConnectionError, ValueError) as e:
        errors.append(f"stats: {e}")
    rss = vm_hwm_mb(proc.pid) if proc.poll() is None else 0.0
    code = stop_server(proc, sock_path)
    if code != 0:
        errors.append(f"server exited {code}")
    return {"records": records, "wall": wall, "stats": stats, "rss": rss,
            "errors": errors, "cache": cache}


def reference_replies(cost):
    """Every distinct request ({line: runs}) answered by campaign_server in
    stdin batch mode on one thread (no cache, no workers); four such servers
    share the list. Returns {line: reply bytes}."""
    groups = [[] for _ in range(4)]
    loads = [0] * 4
    for line in sorted(cost, key=lambda l: (-cost[l], l)):
        k = loads.index(min(loads))
        groups[k].append(line)
        loads[k] += cost[line]
    replies = {}

    def answer(group):
        p = subprocess.Popen([str(SERVER), "--threads", "1"],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, env=env(), cwd=ROOT)
        try:
            out, _ = p.communicate("\n".join(group).encode() + b"\n",
                                   timeout=170)
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
        # In batch mode each reply starts with the CSV header. A group that
        # does not split one reply per request leaves its requests without
        # a reference, so their replies count as failed.
        header = out.split(b"\n", 1)[0] + b"\n"
        chunks = [header + c for c in out.split(header) if c]
        if p.returncode == 0 and len(chunks) == len(group):
            replies.update(zip(group, chunks))

    threads = [threading.Thread(target=answer, args=(g,))
               for g in groups if g]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies


def trace_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [e for e in events if e.get("ph") == "X"]


def server_layers(obs, requests, spans):
    """Per-layer metrics of one traced replay."""
    by = {}
    for e in spans:
        by.setdefault(e["name"], []).append(e)

    def p50_ms(name):
        return percentile([e["dur"] / 1e3 for e in by.get(name, [])
                           if e["pid"] == 0], 0.5)

    # Forked-worker balance: the worker spans that start inside each wave.
    imbalance, busy, capacity = [], 0.0, 0.0
    workers = sorted(by.get("shard_worker", []), key=lambda e: e["ts"])
    for wave in by.get("shard_wave", []):
        lo, hi = wave["ts"], wave["ts"] + wave["dur"]
        durs = [w["dur"] for w in workers if lo <= w["ts"] <= hi]
        if not durs:
            continue
        busy += sum(durs)
        capacity += len(durs) * wave["dur"]
        if len(durs) >= 2:
            imbalance.append(max(durs) / (sum(durs) / len(durs)))
    cells = [e["dur"] / 1e3 for e in by.get("campaign_cell", [])]
    ok = [r for r in obs["records"] if r[2] not in (None, b"busy\n")]
    hits = [r[1] * 1e3 for r in ok if r[3]]
    misses = [r[1] * 1e3 for r in ok if not r[3]]
    runs = sum(requests[r[0]][1] for r in ok)
    st = obs["stats"]
    lookups = st.get("rt_campaign_cache_hits_total", 0) + \
        st.get("rt_campaign_cache_misses_total", 0)
    sent = [requests[r[0]] for r in obs["records"]]
    return {
        "server.queue_wait_ms_p50": p50_ms("request_queue_wait"),
        "server.execute_ms_p50": p50_ms("request_execute"),
        "server.serialize_ms_p50": p50_ms("request_serialize"),
        "server.hit_latency_p50_ms": percentile(hits, 0.5),
        "server.miss_latency_p50_ms": percentile(misses, 0.5),
        "service.cache_hit_ratio":
            st.get("rt_campaign_cache_hits_total", 0) / max(1, lookups),
        "service.repeat_share":
            sum(1 for r in sent if r[2]) / max(1, len(sent)),
        "service.cache_lookup_us_p50": p50_ms("cache_lookup") * 1e3,
        "service.cache_store_us_p50": p50_ms("cache_store") * 1e3,
        "service.response_bytes_per_run":
            sum(len(r[2]) for r in ok) / max(1, runs),
        "shard.worker_busy_imbalance": percentile(imbalance, 0.5),
        "shard.waves": float(st.get("rt_shard_waves_total", 0)),
        "shard.worker_deaths": float(st.get("rt_shard_worker_deaths_total", 0)),
        "shard.retry_waves": float(st.get("rt_shard_retry_waves_total", 0)),
        "experiments.run_ms_p50": percentile(cells, 0.5),
        "experiments.run_ms_p99": percentile(cells, 0.99),
        "experiments.thread_idle_share":
            1.0 - busy / capacity if capacity else 0.0,
    }


def check_replay(obs, requests):
    """Compares every reply with the stdin-batch reference; returns
    (attempted, failed, latencies of good replies in ms)."""
    recs = obs["records"]
    ref = reference_replies({requests[r[0]][0]: requests[r[0]][1]
                             for r in recs if r[2] not in (None, b"busy\n")})
    good, failed = [], 0
    for i, latency, reply, _ in recs:
        line = requests[i][0]
        if reply is None or reply == b"busy\n" or \
                reply[:-4] != ref.get(line) or b"\nerror " in b"\n" + reply:
            failed += 1
            continue
        good.append(latency * 1e3)
    failed += len(obs["errors"])
    return len(recs), failed, good


def cache_scan(cache, seconds, trace):
    text = run_checked([str(RTBENCH), "cache-scan", "--dir", str(cache),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       timeout=seconds * 3 + 120)
    return json.loads(text.strip().splitlines()[-1])


def time_setup_server():
    samples = []
    for _ in range(SETUP_SPAWNS):
        proc, sock_path, t, _ = spawn_server("setup")
        samples.append(t)
        if stop_server(proc, sock_path) != 0:
            raise BenchError("campaign_server did not shut down cleanly")
    return samples


def run_server(seed, seconds, trace):
    requests = make_requests(seed, 20000)
    setup = time_setup_server()
    samples = {}
    layers = {}
    if not trace:
        obs = replay(requests, seconds, "replay")
        attempted, failed, good = check_replay(obs, requests)
        scan = cache_scan(obs["cache"], 0, 0)
        failed += scan["failed"]
        bad = attempted - len(good)
        wall = obs["wall"]
        samples.update({
            "requests_per_s": [len(good) / wall],
            "runs_per_s": [scan["runs"] / wall],
            "sim_frames_per_s": [scan["frames"] / wall],
            "latency_p50_ms": good,
            "latency_tail_ms": (good, bad, wall * 1e3),
            "peak_rss_mb": [obs["rss"]],
        })
    else:
        # Half the window untraced, half with the server's span tracer on:
        # their throughput ratio is the tracing overhead.
        plain = replay(requests, seconds / 2, "plain")
        trace_path = WORK / "replay.trace.json"
        traced = replay(requests, seconds / 2, "traced", trace_path)
        attempted, failed = 0, 0
        rates = []
        for o in (plain, traced):
            a, f, good = check_replay(o, requests)
            attempted += a
            failed += f
            rates.append(len(good) / o["wall"])
        scan = cache_scan(traced["cache"], max(1.0, seconds / 5), 1)
        attempted += scan["attempted"]
        failed += scan["failed"]
        layers = server_layers(traced, requests, trace_spans(trace_path))
        layers.update(scan["layers"])
        layers["trace.span_overhead_share"] = rates[0] / rates[1] - 1.0
    samples["setup_s"] = setup + time_setup_server()
    extra = {"requests_sent": attempted}
    return samples, layers, attempted, failed, extra


# ---------------------------------------------------------------------------
# Record and output.

def host_record(args, load):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    compiler, flags, build_type = "unknown", "unknown", "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1]
                compiler = subprocess.run([cxx, "--version"], text=True,
                                          stdout=subprocess.PIPE).stdout \
                    .splitlines()[0]
    cc = BUILD / "compile_commands.json"
    if cc.is_file():
        for entry in json.loads(cc.read_text()):
            if entry["file"].endswith("closed_loop.cpp"):
                words = entry["command"].split()
                flags = " ".join(w for w in words[1:] if w.startswith("-")
                                 and not w.startswith(("-I", "-o", "-c")))
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout.strip() or "none"
    digest = hashlib.sha256()
    for top in ("src", "examples", "CMakeLists.txt"):
        paths = [ROOT / top] if (ROOT / top).is_file() else \
            sorted((ROOT / top).rglob("*"))
        for p in paths:
            if p.is_file():
                digest.update(str(p.relative_to(ROOT)).encode())
                digest.update(p.read_bytes())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "compiler": compiler, "flags": flags, "build_type": build_type,
            "git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "loadavg_start": load, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_one(args, record):
    if args.workload == "server_replay":
        samples, layers, attempted, failed, extra = run_server(
            args.seed, args.seconds, args.trace)
    else:
        samples, layers, attempted, failed, extra = run_inproc(
            args.workload, args.seed, args.seconds, args.trace)
    spec = load_spec()
    metrics, detail = {}, {}
    if not args.trace:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name == "latency_tail_ms":
                data = samples[name]
                good, bad, missing = data if isinstance(data, tuple) \
                    else (data, 0, 0.0)
                value, pct, n = tail(good, bad, missing)
                detail[name] = {"value": value, "percentile": pct, "n": n}
            else:
                med, q1, q3, n = summary(samples[name])
                value = med
                detail[name] = {"median": med, "q1": q1, "q3": q3, "n": n}
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        layers["failed_share"] = failed / max(1, attempted)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": float(layers.get(m["name"], 0.0)),
                                  "unit": m["unit"]}
    record.update(extra)
    record["failed_share"] = failed / max(1, attempted)
    record["metrics"] = detail or {k: v["value"] for k, v in metrics.items()}
    log(f"checks: {attempted} attempted, {failed} failed "
        f"(failed_share {failed / max(1, attempted):.4f})")
    for name, d in detail.items():
        unit = metrics[name]["unit"]
        if "median" in d:
            log(f"  {name:<18} {d['median']:.6g} {unit}  "
                f"(q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, n {d['n']})")
        else:
            log(f"  {name:<18} {d['value']:.6g} {unit}  "
                f"(p{d['percentile']:.1f} of n {d['n']})")
    log("record: " + json.dumps(record, sort_keys=True))
    return {"correct": failed == 0, "attempted": int(max(1, attempted)),
            "failed": int(failed), "metrics": metrics}


def run_all(args):
    """Every workload in turn; their results merge into one."""
    rows = []
    for w in WORKLOADS:
        log(f"== {w}")
        p = subprocess.run([sys.executable, __file__, "--workload", w,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--trace", str(args.trace)],
                           stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if p.returncode != 0:
            raise BenchError(f"workload {w} failed")
        lines = p.stdout.strip().splitlines()
        for line in lines[:-1]:
            log(line)
        rows.append((w, json.loads(lines[-1])))
    return {"correct": all(r["correct"] for _, r in rows),
            "attempted": sum(r["attempted"] for _, r in rows),
            "failed": sum(r["failed"] for _, r in rows),
            "metrics": {f"{w}.{k}": v for w, r in rows
                        for k, v in r["metrics"].items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        if args.workload == "all":
            build()
            result = run_all(args)
        else:
            with open("/proc/loadavg") as f:
                load = [float(x) for x in f.read().split()[:3]]
            build()
            record = host_record(args, load)
            WORK.mkdir(parents=True, exist_ok=True)
            result = run_one(args, record)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
