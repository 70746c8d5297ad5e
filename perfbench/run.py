#!/usr/bin/env python3
"""The repo benchmark: four pipeline workloads through the `lvp` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload timing --seed 1 --seconds 10 --trace 0

`--trace 0` measures the end-to-end metrics of one workload with no
tracing. `--trace 1` runs the workload once untraced, then once through
the probe (`perfbench/probe`), which times each layer's public functions
and reports the per-layer metrics. Both build the program from source
first. The last line of stdout is one JSON object; everything else goes
to stderr. See perfbench/README.md for why each workload and metric.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
FAST = ("sc", "xlisp", "grep", "doduc")
SUITE = (
    "cc1-271", "cc1", "cjpeg", "compress", "doduc", "eqntott", "gawk", "gperf", "grep",
    "hydro2d", "mpeg", "perl", "quick", "sc", "swm256", "tomcatv", "xlisp",
)
MB = 1e6
GB = 1 << 30

# name -> `lvp` arguments, the experiments whose reports are checked,
# whether the run reads a filled disk cache, the free memory and disk a
# run needs (peak RSS and bytes written, with headroom), and the fewest
# iterations a run measures: with three, the median leaves out a slow
# first iteration (see perfbench/README.md).
# BENCHMARK.json lists all but `trace`, which is run by hand (see
# perfbench/README.md).
WORKLOADS = {
    "timing": dict(
        cmd=["bench", "fig6", "table6", "ablation_machine", "--fast", "--threads", "2"],
        experiments=["fig6", "table6", "ablation_machine"],
        warm=False, mem_gb=2, disk_gb=1, runs=3,
    ),
    "predict": dict(
        cmd=["bench", "fig1", "table3", "ablation_lvpt", "ablation_lct", "ablation_predictor",
             "--threads", "2"],
        experiments=["fig1", "table3", "ablation_lvpt", "ablation_lct", "ablation_predictor"],
        warm=False, mem_gb=8, disk_gb=3, runs=2,
    ),
    "trace": dict(
        cmd=["bench", "table1", "characterize", "--threads", "2"],
        experiments=["table1", "characterize"],
        warm=False, mem_gb=8, disk_gb=3, runs=2,
    ),
    "check-warm": dict(
        cmd=["check", "--all", "--fast", "--cross-check", "--value-flow", "--threads", "2"],
        experiments=[],
        warm=True, mem_gb=2, disk_gb=1, runs=3,
    ),
}

# Reports checked byte for byte against a copy under perfbench/golden
# instead of results/<experiment>.txt, keyed by (experiment, --fast).
# Each copy is used only while results/<experiment>.txt has the SHA-256
# it was taken against; once a program change regenerates that file, the
# copy retires itself and the report is checked against results/ again.
#
# - ablation_predictor, full suite: the committed results file predates
#   the interprocedural value-flow pass, which grew the statically-claimed
#   loads its second section counts (doduc 6 -> 23 claimed pcs). Its first
#   section is the same in both files.
# - ablation_machine, --fast: every row is a mean over the fast subset, so
#   the full-suite results file cannot check it.
SNAPSHOTS = {
    ("ablation_predictor", False): (
        "ablation_predictor.txt", "6761f12bef4efaf5a6976c6ec66bfe06d81739be6875564f6d434d605289026d"),
    ("ablation_machine", True): (
        "ablation_machine_fast.txt", "34cf2b54c28bd1431a60707887840ff5945978a875d8c61aee35ef1a0c628bc5"),
}
# In a `--fast` report, the first token of the rows that are means over
# the fast subset. Without a live snapshot they are checked for shape only.
SUBSET_MEAN_ROWS = {
    "fig6": ("GM",),
    "table6": ("GM",),
    "ablation_machine": ("620/2", "620", "620+", "620x4"),
}

CHECK_VERDICTS = ("cross-check: PASS (16 cell(s))", "value-flow: PASS (16 cell(s))")


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build(trace):
    """Builds the CLI (and for a traced run the probe) from source."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    cmds = [["cargo", "build", "--release", "--offline", "-q", "-p", "lvp-cli"]]
    if trace:
        manifest = os.path.join(HERE, "probe", "Cargo.toml")
        cmds.append(["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest])
    for cmd in cmds:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    target = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(target, "lvp"), os.path.join(target, "lvp-perfbench-probe")


def mem_available_gb():
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024 / GB
    return 0.0


def check_room(spec):
    """Refuses to start a run the machine has no room for."""
    mem = mem_available_gb()
    disk = shutil.disk_usage(ROOT).free / GB
    if mem < spec["mem_gb"] or disk < spec["disk_gb"]:
        raise SystemExit(
            f"not enough room: {mem:.1f} GiB memory and {disk:.1f} GiB disk free, "
            f"need {spec['mem_gb']} and {spec['disk_gb']}"
        )


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for f in files:
            total += os.lstat(os.path.join(base, f)).st_size
    return total


def run_lvp(lvp, args, cwd):
    """Runs one `lvp` process in `cwd`; its stdout is kept there as
    report.txt. Returns wall and CPU seconds, peak RSS, exit code and
    the report."""
    out_path = os.path.join(cwd, "report.txt")
    err_path = cwd + ".stderr"
    # Start every measured run with no dirty pages left by earlier runs
    # (the cold workloads write up to 2 GB each), so that it waits only
    # for its own write-back.
    os.sync()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([lvp] + args, cwd=cwd, stdout=out, stderr=err)
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as f:
        err_text = f.read()
    os.remove(err_path)
    if err_text.strip():
        log(err_text.rstrip()[-2000:])
    with open(out_path, encoding="utf-8") as f:
        report = f.read()
    return dict(
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        peak_rss_mb=ru.ru_maxrss * 1024 / MB,
        rc=p.returncode,
        report=report,
    )


def prepare(lvp, path, spec):
    """The cold workloads' set-up: check for room, make a fresh working
    directory, and check that the built program runs there and knows
    the whole suite."""
    check_room(spec)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    r = subprocess.run([lvp, "suite"], cwd=path, capture_output=True, text=True)
    names = tuple(line.split()[0] for line in r.stdout.splitlines()[1:] if line.strip())
    if r.returncode != 0 or names != SUITE:
        raise SystemExit(f"`lvp suite` failed in a fresh directory: {r.stderr.strip()}")


# ---- output checks -------------------------------------------------------

REPORT_END = re.compile(r"^\[(\w+): [0-9.]+s\]\n", re.M)


def split_reports(out):
    """Splits `lvp bench` output into {experiment: report text}, dropping
    the `[name: t]`, `engine:` and `stages:` lines."""
    parts = REPORT_END.split(out)
    reports = {}
    text = parts[0]
    for i in range(1, len(parts), 2):
        reports[parts[i]] = text[1:] if text.startswith("\n") and reports else text
        text = parts[i + 1]
    return reports


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def snapshot(exp, fast):
    """The path of the live snapshot that checks `exp`, or None."""
    if (exp, fast) not in SNAPSHOTS:
        return None
    name, sha = SNAPSHOTS[exp, fast]
    results = read(os.path.join(ROOT, "results", f"{exp}.txt"))
    if hashlib.sha256(results.encode()).hexdigest() != sha:
        return None
    return os.path.join(HERE, "golden", name)


def golden(exp, fast):
    """(golden text, whether the report must equal it byte for byte)."""
    path = snapshot(exp, fast)
    if path:
        return read(path), True
    return read(os.path.join(ROOT, "results", f"{exp}.txt")), not fast


def table_lines(text, drop=()):
    """Token lists of a report's lines, without rows of `drop` workloads."""
    lines = (line.split() for line in text.splitlines())
    return [t for t in lines if not (t and t[0] in drop)]


NUMBER = re.compile(r"^[-+]?[0-9.]+[%x]?$")
RULE = re.compile(r"^-+$")


def compare_report(exp, text, fast):
    """Mismatch descriptions between a report and its golden. A
    full-suite report, or one with a live snapshot, must match byte for
    byte. Otherwise a `--fast` report must match the golden's fast-subset
    rows and text lines token for token. Only two kinds of line may
    differ: rules, whose length follows the widest row, and subset-mean
    rows, which must keep the golden's labels and differ only in numbers."""
    want, exact = golden(exp, fast)
    if exact:
        if text == want:
            return []
        for i, (a, b) in enumerate(zip(text.splitlines(), want.splitlines())):
            if a != b:
                return [f"{exp} line {i + 1}: got {a!r}, golden {b!r}"]
        return [f"{exp}: length {len(text)} differs from golden {len(want)}"]
    got = table_lines(text)
    exp_lines = table_lines(want, drop=set(SUITE) - set(FAST))
    if len(got) != len(exp_lines):
        return [f"{exp}: {len(got)} lines, golden fast subset has {len(exp_lines)}"]
    problems = []
    means = SUBSET_MEAN_ROWS.get(exp, ())
    for g, w in zip(got, exp_lines):
        if g == w:
            continue
        if len(g) == len(w) == 1 and RULE.match(g[0]) and RULE.match(w[0]):
            continue
        if w and w[0] in means and len(g) == len(w) and all(
                a == b or (NUMBER.match(a) and NUMBER.match(b)) for a, b in zip(g, w)):
            continue
        problems.append(f"{exp}: got {' '.join(g)!r}, golden {' '.join(w)!r}")
    return problems


def check_bench(spec, r):
    """(attempted, failures) for one `lvp bench` run: one attempt for the
    exit code, one per experiment and one for the disk-load count, and at
    most one failure for each. Every mismatched line is logged."""
    failures = []
    if r["rc"] != 0:
        failures.append(f"lvp bench exited {r['rc']}")
    reports = split_reports(r["report"])
    fast = "--fast" in spec["cmd"]
    for exp in spec["experiments"]:
        if exp not in reports:
            failures.append(f"{exp}: report missing")
        else:
            problems = compare_report(exp, reports[exp], fast)
            for p in problems[1:]:
                log(f"mismatch: {p}")
            if problems:
                more = f" (and {len(problems) - 1} more lines)" if len(problems) > 1 else ""
                failures.append(problems[0] + more)
    engine = re.search(r"^engine: .*traces (\d+) computed / (\d+) cached / (\d+) disk", r["report"], re.M)
    if not engine or engine.group(3) != "0":
        failures.append("cold run did not report `0 disk` trace loads")
    return len(spec["experiments"]) + 2, failures


def check_check(r, cache_dir):
    """(attempted, failures) for one `lvp check` run. Exit 1 means
    baselined findings, not failure."""
    failures = []
    if r["rc"] not in (0, 1):
        failures.append(f"lvp check exited {r['rc']}")
    lines = set(r["report"].splitlines())
    failures += [f"missing `{v}`" for v in CHECK_VERDICTS if v not in lines]
    entries = len(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else 0
    if entries != 16:
        failures.append(f"disk cache holds {entries} entries, expected 16")
    return len(CHECK_VERDICTS) + 2, failures


def engine_counts(report):
    m = re.search(
        r"traces (\d+) computed / (\d+) cached / (\d+) disk, annotations (\d+) computed / (\d+) cached, "
        r"timings (\d+) computed / (\d+) cached",
        report,
    )
    return tuple(int(x) for x in m.groups()) if m else None


# ---- one workload, untraced ----------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failures += failures


def run_cold(lvp, name, spec, seconds, tally, min_runs):
    """Cold iterations in fresh directories until `seconds` have been
    measured, and at least `min_runs` of them. Each directory is deleted
    afterwards."""
    base = os.path.join(WORK, f"{name}-{os.getpid()}")
    setups, runs, measured = [], [], 0.0

    def timed_prepare():
        t0 = time.perf_counter()
        prepare(lvp, base, spec)
        setups.append(time.perf_counter() - t0)

    for _ in range(15):  # set-up is cheap, so time several
        timed_prepare()
    while True:
        r = run_lvp(lvp, spec["cmd"], base)
        r["disk_mb"] = dir_bytes(base) / MB
        tally.add(*check_bench(spec, r))
        runs.append(r)
        log(f"{name} run {len(runs)}: wall {r['wall_s']:.2f} s, cpu {r['cpu_s']:.2f} s")
        measured += r["wall_s"]
        shutil.rmtree(base)
        if measured >= seconds and len(runs) >= min_runs:
            return setups, runs, base
        timed_prepare()


def run_warm(lvp, name, spec, seconds, tally, min_runs, fills=3):
    """`check-warm`: set-up is the run that fills the disk cache (timed
    `fills` times, each in a fresh directory); the measured runs read it."""
    base = os.path.join(WORK, f"{name}-{os.getpid()}")
    cache = os.path.join(base, "target", "lvp-cache")
    setups, runs = [], []
    for _ in range(fills):
        t0 = time.perf_counter()
        check_room(spec)
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        fill = run_lvp(lvp, spec["cmd"], base)
        setups.append(time.perf_counter() - t0)
        tally.add(*check_check(fill, cache))
    measured = 0.0
    while measured < seconds or len(runs) < min_runs:
        r = run_lvp(lvp, spec["cmd"], base)
        r["disk_mb"] = dir_bytes(base) / MB
        tally.add(*check_check(r, cache))
        runs.append(r)
        log(f"{name} run {len(runs)}: wall {r['wall_s']:.2f} s, cpu {r['cpu_s']:.2f} s")
        measured += r["wall_s"]
    return setups, runs, base


def end_to_end(setups, runs, tally):
    def med(key):
        return statistics.median(r[key] for r in runs)

    attempted = max(tally.attempted, 1)
    return {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "disk_mb": (med("disk_mb"), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_frac": ((attempted - len(tally.failures)) / attempted, "fraction"),
    }


# ---- one workload, traced -------------------------------------------------

PREDICTOR_KINDS = {
    "last-value": "last_value",
    "stride": "stride",
    "context": "context",
    "store-to-load": "s2l",
    "hybrid": "hybrid",
}
# Layer groups for the layer-mix check. The probe's stand-alone codec
# calls (trace.encode / trace.decode) are measurement-only and left out:
# in the real run encoding happens inside the disk store and decoding
# inside the disk load.
MIX_GROUPS = {
    "lang.compile": "sim",
    "sim.run_traced": "sim",
    "harness.disk_store": "disk_store",
    "harness.disk_load": "disk_load",
    "predictor.annotate": "predictor",
    "predictor.characterize": "predictor",
    "uarch.simulate": "uarch",
    "analyze.memory": "analyze",
    "analyze.value_flow": "analyze",
    "harness.cross_check": "oracle",
    "harness.value_flow_check": "oracle",
}
# What each workload was chosen to stress: these groups together must
# hold more of its traced work than any other group.
EXPECTED_MIX = {
    "timing": ("uarch",),
    "predict": ("predictor",),
    "trace": ("sim", "disk_store"),
    "check-warm": ("disk_load", "analyze", "oracle"),
}


def read_spans(path):
    spans = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            for k in header[3:]:
                row[k] = int(row[k])
            spans.append(row)
    return spans


def layer_metrics(spans, probe, untraced_wall, name):
    """Per-layer metrics from the spans. A layer the workload's own cells
    never call is measured on the held-out cells, so that every metric
    exists on every workload; `heldout.*` always uses held-out cells."""
    own = [s for s in spans if not s["heldout"]]
    held = [s for s in spans if s["heldout"]]
    fell_back = []

    def pick(layer, detail=None, only_heldout=False):
        def sel(pool):
            return [s for s in pool if s["layer"] == layer and (detail is None or s["detail"] == detail)]

        if only_heldout:
            return sel(held)
        chosen = sel(own)
        if not chosen:
            fell_back.append(layer + (f"[{detail}]" if detail else ""))
            chosen = sel(held)
        return chosen

    def total(ss, key):
        return sum(s[key] for s in ss)

    def per(ss, key):
        return total(ss, "dur_ns") / max(total(ss, key), 1)

    def mean_ms(ss):
        return total(ss, "dur_ns") / 1e6 / max(len(ss), 1)

    m = {}
    m["lang.compile_ms"] = (mean_ms(pick("lang.compile")), "ms")
    sim = pick("sim.run_traced")
    m["sim.ns_per_instr"] = (per(sim, "entries"), "ns")
    m["sim.bytes_per_instr"] = (total(sim, "bytes") / max(total(sim, "entries"), 1), "B")
    enc = pick("trace.encode")
    m["trace.encode_ns_per_entry"] = (per(enc, "entries"), "ns")
    m["trace.decode_ns_per_entry"] = (per(pick("trace.decode"), "entries"), "ns")
    m["trace.bytes_per_entry"] = (total(enc, "bytes") / max(total(enc, "entries"), 1), "B")
    m["harness.disk_store_s"] = (total(pick("harness.disk_store"), "dur_ns") / 1e9, "s")
    m["harness.disk_load_s"] = (total(pick("harness.disk_load"), "dur_ns") / 1e9, "s")
    for kind, key in PREDICTOR_KINDS.items():
        m[f"predictor.{key}.ns_per_load"] = (per(pick("predictor.annotate", kind), "loads"), "ns")
    m["predictor.characterize_ns_per_entry"] = (per(pick("predictor.characterize"), "entries"), "ns")
    ann = pick("predictor.annotate")
    m["predictor.accuracy"] = (total(ann, "correct") / max(total(ann, "predictions"), 1), "fraction")
    m["predictor.coverage"] = (total(ann, "correct") / max(total(ann, "loads"), 1), "fraction")
    for group in ("620", "620p", "21164"):
        m[f"uarch.{group}.ns_per_instr"] = (per(pick("uarch.simulate", group), "entries"), "ns")
    m["uarch.620.ns_per_cycle"] = (per(pick("uarch.simulate", "620"), "cycles"), "ns")
    m["uarch.sim_cycles"] = (total(pick("uarch.simulate"), "cycles"), "count")
    m["analyze.memory_ms"] = (mean_ms(pick("analyze.memory")), "ms")
    m["analyze.value_flow_ms"] = (mean_ms(pick("analyze.value_flow")), "ms")
    m["harness.crosscheck_ns_per_entry"] = (per(pick("harness.cross_check"), "entries"), "ns")
    m["harness.value_flow_check_ns_per_entry"] = (per(pick("harness.value_flow_check"), "entries"), "ns")

    durations = [s["dur_ns"] / 1e6 for s in own]
    cuts = statistics.quantiles(durations, n=10) if len(durations) > 1 else durations * 9
    m["harness.job_p50_ms"] = (statistics.median(durations), "ms")
    m["harness.job_p90_ms"] = (cuts[8], "ms")
    m["harness.job_samples"] = (len(durations), "count")
    busy = sum(s["dur_ns"] for s in own) / 1e9
    m["harness.busy_frac"] = (busy / (probe["workload_wall_s"] * probe["threads"]), "fraction")

    def hit_ratio(layer):
        c = probe["counts"][layer]
        if c["computed"] + c["hits"] == 0:
            fell_back.append(f"harness.{layer} requests")
            c = probe["heldout_counts"][layer]
        return c["hits"] / max(c["computed"] + c["hits"], 1)

    m["harness.trace_hit_ratio"] = (hit_ratio("traces"), "fraction")
    m["harness.annotation_hit_ratio"] = (hit_ratio("annotations"), "fraction")
    resident = total([s for s in own if s["layer"] in ("sim.run_traced", "harness.disk_load")], "bytes")
    m["harness.resident_trace_mb"] = (resident / MB, "MB")
    m["bench.trace_overhead_s"] = (probe["workload_wall_s"] - untraced_wall, "s")

    m["heldout.sim.ns_per_instr"] = (per(pick("sim.run_traced", only_heldout=True), "entries"), "ns")
    m["heldout.predictor.ns_per_load"] = (per(pick("predictor.annotate", only_heldout=True), "loads"), "ns")
    for group in ("620", "21164"):
        ss = pick("uarch.simulate", group, only_heldout=True)
        m[f"heldout.uarch.{group}.ns_per_instr"] = (per(ss, "entries"), "ns")

    if fell_back:
        log(f"{name}: measured on held-out cells only: {', '.join(sorted(set(fell_back)))}")
    return m


def layer_mix(spans, name):
    """Logs each layer group's share of the workload's traced work and
    whether the groups the workload was chosen for hold most of it."""
    shares = {}
    for s in spans:
        if not s["heldout"] and s["layer"] in MIX_GROUPS:
            g = MIX_GROUPS[s["layer"]]
            shares[g] = shares.get(g, 0) + s["dur_ns"]
    work = sum(shares.values()) or 1
    text = ", ".join(f"{g} {v / work:.1%}" for g, v in sorted(shares.items(), key=lambda kv: -kv[1]))
    expected = EXPECTED_MIX[name]
    held = sum(shares.get(g, 0) for g in expected) / work
    rival = max((v for g, v in shares.items() if g not in expected), default=0) / work
    verdict = "as chosen" if held > rival else "MISMATCH"
    log(f"{name}: layer mix {text}; {'+'.join(expected)} hold {held:.1%}, next group {rival:.1%}: {verdict}")


def coverage(name, probe, untraced, tally):
    """The traced run must compute exactly the cells the untraced run did."""
    c = probe["counts"]
    if WORKLOADS[name]["warm"]:
        report = untraced["report"]
        got = (c["cross_checks"]["computed"], c["value_flows"]["computed"], c["traces"]["computed"])
        want = tuple(16 if v in report else -1 for v in CHECK_VERDICTS) + (16,)
    else:
        want = engine_counts(untraced["report"])
        got = (
            c["traces"]["computed"], c["traces"]["hits"], 0,
            c["annotations"]["computed"], c["annotations"]["hits"],
            c["timings"]["computed"], c["timings"]["hits"],
        )
    ok = got == want
    tally.add(1, [] if ok else [f"coverage: traced run computed {got}, untraced run {want}"])
    log(f"{name}: coverage traced {got} vs untraced {want}: {'match' if ok else 'MISMATCH'}")


def fingerprint(name, probe, untraced, tally):
    """On `timing`, the base IPCs the probe renders from its own timing
    cells must equal the untraced run's `fig6` rows and `ablation_machine`
    GMs, so the probe times the same machines as the experiments."""
    fp = probe["fingerprint"]
    if fp is None:
        return
    reports = split_reports(untraced["report"])
    got = {("fig6", m, w): v for m, w, v in fp["fig6"]}
    got.update({("ablation_machine", m): v for m, v in fp["ablation_machine"]})
    want = {}
    machines = {m for m, _, _ in fp["fig6"]}
    section = None
    for t in table_lines(reports.get("fig6", "")):
        if t[:1] == ["=="]:
            section = next((x for x in t if x in machines), None)
        elif t and t[0] in FAST:
            want["fig6", section, t[0]] = t[1]
    for t in table_lines(reports.get("ablation_machine", "")):
        if t and t[0] in SUBSET_MEAN_ROWS["ablation_machine"]:
            want["ablation_machine", t[0]] = t[1]
    ok = got == want
    diff = [f"{'/'.join(map(str, k))} traced {got.get(k)} untraced {want.get(k)}"
            for k in sorted(set(got) | set(want), key=str) if got.get(k) != want.get(k)]
    tally.add(1, [] if ok else ["fingerprint: " + ", ".join(diff)])
    log(f"{name}: {len(got)} base IPCs traced vs untraced: {'match' if ok else 'MISMATCH'}")


def run_traced(lvp, probe_bin, name, spec, seed, tally):
    if spec["warm"]:
        _, runs, base = run_warm(lvp, name, spec, 0, tally, 1, fills=1)
    else:
        _, runs, base = run_cold(lvp, name, spec, 0, tally, 1)
        prepare(lvp, base, spec)
    untraced = runs[-1]
    spans_path = os.path.join(WORK, f"{name}-{os.getpid()}.spans.tsv")
    r = subprocess.run(
        [probe_bin, name, str(seed), base, spans_path],
        cwd=ROOT, capture_output=True, text=True,
    )
    shutil.rmtree(base)
    if r.returncode != 0:
        raise SystemExit(f"probe failed ({r.returncode}): {r.stderr.strip()[-2000:]}")
    probe = json.loads(r.stdout.strip().splitlines()[-1])
    spans = read_spans(spans_path)
    os.remove(spans_path)
    tally.add(probe["attempted"], probe["failures"])
    coverage(name, probe, untraced, tally)
    fingerprint(name, probe, untraced, tally)
    layer_mix(spans, name)
    return layer_metrics(spans, probe, untraced["wall_s"], name)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    # A terminated run still stops and waits for the process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if a.seed < 0:
        ap.error("--seed must not be negative")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(os.path.join(ROOT, "crates")):
        raise SystemExit("run from the root of a checkout: no Cargo.toml and crates/ here")

    spec = WORKLOADS[a.workload]
    lvp, probe_bin = build(a.trace == 1)
    os.makedirs(WORK, exist_ok=True)
    tally = Tally()
    fast = "--fast" in spec["cmd"]
    for exp, is_fast in SNAPSHOTS:
        if exp in spec["experiments"] and is_fast == fast:
            path = snapshot(exp, fast)
            if path:
                log(f"note: {exp} is checked against {os.path.relpath(path, ROOT)}, not results/{exp}.txt "
                    "(see perfbench/README.md)")
            else:
                log(f"note: results/{exp}.txt has changed since perfbench/golden took its copy; "
                    "checking against results/ instead (see perfbench/README.md)")
    if a.trace:
        metrics = run_traced(lvp, probe_bin, a.workload, spec, a.seed, tally)
    elif spec["warm"]:
        setups, runs, base = run_warm(lvp, a.workload, spec, a.seconds, tally, spec["runs"])
        shutil.rmtree(base)
        metrics = end_to_end(setups, runs, tally)
    else:
        setups, runs, _ = run_cold(lvp, a.workload, spec, a.seconds, tally, spec["runs"])
        metrics = end_to_end(setups, runs, tally)
    for f in tally.failures:
        log(f"FAILED: {f}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
