"""Pure helpers of the repository benchmark: percentiles, ratios, span self
times, the per-layer metric map, and metric derivation from a raw report of
latte_perfbench. No I/O here, so the self-tests can exercise all of it."""

import math
import re
import statistics

WORKLOADS = ("train_cnn", "train_seq", "serve_mixed")
TRAIN = ("train_cnn", "train_seq")
SERVE = ("serve_mixed",)

EPS_US = 1e-3
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Every per-layer metric: its unit, which direction is better, the workloads
# whose path runs through the layer (elsewhere the metric reads 0), and the
# end-to-end metric and workloads it should move. "moves" is None for the
# controls, which no change to the library should move.
LAYERS = {
    "compiler.compile_ms":
        ("ms", "lower", WORKLOADS, ("setup_s", WORKLOADS)),
    "compiler.arena_mb":
        ("MB", "lower", WORKLOADS,
         ("peak_rss_mb", ("train_cnn", "serve_mixed"))),
    "compiler.tasks": ("count", "lower", WORKLOADS, ("p50_ms", TRAIN)),
    "compiler.gemm_ensembles":
        ("count", "higher", WORKLOADS, ("p50_ms", TRAIN)),
    "compiler.interpreted_ensembles":
        ("count", "lower", WORKLOADS, ("p50_ms", TRAIN)),
    "compiler.fusion_groups":
        ("count", "higher", WORKLOADS, ("p50_ms", TRAIN)),
    "compiler.program_cache_compiles":
        ("count", "lower", SERVE, ("setup_s", SERVE)),
    "compiler.program_cache_coalesced":
        ("count", "higher", SERVE, ("setup_s", SERVE)),
    "jit.build_s": ("s", "lower", TRAIN, ("setup_s", TRAIN)),
    "jit.compiles": ("count", "lower", TRAIN, ("setup_s", TRAIN)),
    "jit.disk_cache_hits": ("count", "lower", TRAIN, ("setup_s", TRAIN)),
    "jit.tasks": ("count", "higher", TRAIN, ("p50_ms", ("train_seq",))),
    "jit.fallback_tasks":
        ("count", "lower", TRAIN, ("p50_ms", ("train_seq",))),
    "engine.forward_ms_p50": ("ms", "lower", WORKLOADS, ("p50_ms", TRAIN)),
    "engine.backward_ms_p50": ("ms", "lower", TRAIN, ("p50_ms", TRAIN)),
    "solvers.update_ms_p50":
        ("ms", "lower", TRAIN, ("p50_ms", ("train_cnn",))),
    "kernels.sgemm_gflops.conv_fwd":
        ("GFLOP/s", "higher", WORKLOADS, ("p50_ms", ("train_cnn",))),
    "kernels.sgemm_gflops.conv_wgrad":
        ("GFLOP/s", "higher", WORKLOADS, ("p50_ms", ("train_cnn",))),
    "serve.submit_us_p50": ("us", "lower", SERVE, ("tail_ms", SERVE)),
    "serve.batch_exec_ms": ("ms", "lower", SERVE, ("p50_ms", SERVE)),
    "serve.deadline_flush_share":
        ("ratio", "lower", SERVE, ("p50_ms", SERVE)),
    "serve.replica_busy_share":
        ("ratio", "lower", SERVE, ("items_per_s", SERVE)),
    "serve.fill_ratio": ("ratio", "higher", SERVE, ("items_per_s", SERVE)),
    "serve.goodput_rps": ("1/s", "higher", SERVE, ("items_per_s", SERVE)),
    "serve.shed": ("count", "lower", SERVE, ("success_ratio", SERVE)),
    "serve.deadline_shed":
        ("count", "lower", SERVE, ("success_ratio", SERVE)),
    "serve.deadline_missed":
        ("count", "lower", SERVE, ("success_ratio", SERVE)),
    "serve.all_ready_s": ("s", "lower", SERVE, ("setup_s", SERVE)),
    "loadgen.late_ms_p99": ("ms", "lower", SERVE, None),
    "baselines.caffe_step_ms": ("ms", "lower", WORKLOADS, None),
    "trace.overhead_pct": ("%", "lower", WORKLOADS, None),
}


def percentile(values, q):
    """The q-th percentile (0..100) with linear interpolation between
    closest ranks, as statistics.quantiles(method="inclusive")."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(num, den):
    """num / den, 0 when den is 0 (an empty phase, not a failure)."""
    return num / den if den else 0.0


def spread(values):
    """Distance between the first and third quartile as a share of the
    median: the steadiness measure the benchmark is tuned against."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return ratio(q3 - q1, med)


def self_times(spans):
    """Self time of every complete ("X") span: its duration minus the part
    of it that spans nested inside it on the same lane cover. Returns a
    list parallel to spans (None for spans of other kinds). Times are in
    microseconds; spans touching within EPS_US are siblings, not nested
    (timestamps pass through doubles)."""
    out = [None] * len(spans)
    by_tid = {}
    for i, s in enumerate(spans):
        if s.get("ph") == "X":
            by_tid.setdefault(s.get("tid", 0), []).append(i)
    for idx in by_tid.values():
        idx.sort(key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
        stack = []  # (end, index)
        for i in idx:
            ts, dur = spans[i]["ts"], spans[i]["dur"]
            while stack and stack[-1][0] <= ts + EPS_US:
                stack.pop()
            out[i] = dur
            if stack:
                parent = stack[-1][1]
                # Children are clipped to the parent's interval.
                end = min(ts + dur, stack[-1][0])
                out[parent] -= max(0.0, end - ts)
            stack.append((ts + dur, i))
    return out


def self_time_table(spans):
    """{name: (count, total_ms, self_ms)} over complete spans."""
    table = {}
    for s, st in zip(spans, self_times(spans)):
        if st is None:
            continue
        n, tot, slf = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (n + 1, tot + s["dur"] / 1e3, slf + st / 1e3)
    return table


def end_to_end(report):
    """The end-to-end metrics of an untraced run, by name."""
    s, c = report["samples"], report["counters"]
    if report["workload"] in TRAIN:
        times = s["step_ms"]
        items = c["items_per_step"] * len(times) / (sum(times) / 1e3)
    else:
        times = s["latency_ms"]
        items = c["saturated_rps"]
    return {
        "setup_s": statistics.median(s["setup_s"]),
        "peak_rss_mb": c["peak_rss_mb"],
        "success_ratio": 1.0 - ratio(report["failed"], report["attempted"]),
        "p50_ms": percentile(times, 50),
        "tail_ms": percentile(times, 90),
        "items_per_s": items,
    }


def per_layer(report):
    """The per-layer metrics of a traced run, by name. A metric whose layer
    is not on the workload's path reads 0; one that is must be derivable
    from the report, or KeyError names what is missing."""
    w = report["workload"]
    s, c, spans = report["samples"], report["counters"], report["spans"]
    selfs = self_times(spans)
    durs, self_by_name = {}, {}
    for sp, st in zip(spans, selfs):
        durs.setdefault(sp["name"], []).append(sp["dur"] / 1e3)
        if st is not None:
            self_by_name.setdefault(sp["name"], []).append(st / 1e3)

    def p50_ms(name):
        if name not in durs:
            raise KeyError("no %s spans" % name)
        return percentile(durs[name], 50)

    def self_ms(name):
        if name not in self_by_name:
            raise KeyError("no %s spans" % name)
        return statistics.median(self_by_name[name])

    def gflops(shape):
        flops = c["kernels.sgemm_flops." + shape]
        return flops / (p50_ms("kernels.sgemm." + shape) * 1e-3) / 1e9

    key = "step_ms" if w in TRAIN else "latency_ms"
    derive = {
        "compiler.compile_ms": lambda: self_ms("compiler.compile"),
        "jit.build_s": lambda: self_ms("engine.executor_build") / 1e3,
        "engine.forward_ms_p50": lambda: p50_ms("engine.forward"),
        "engine.backward_ms_p50": lambda: p50_ms("engine.backward"),
        "solvers.update_ms_p50": lambda: p50_ms("solvers.step"),
        "kernels.sgemm_gflops.conv_fwd": lambda: gflops("conv_fwd"),
        "kernels.sgemm_gflops.conv_wgrad": lambda: gflops("conv_wgrad"),
        "serve.submit_us_p50": lambda: p50_ms("serve.submit") * 1e3,
        "loadgen.late_ms_p99": lambda: percentile(s["late_ms"], 99),
        "baselines.caffe_step_ms": lambda: p50_ms("baselines.caffe_step"),
        "trace.overhead_pct": lambda: 100.0 * (
            percentile(s[key], 50) / percentile(s["untraced." + key], 50)
            - 1.0),
    }
    out = {}
    for name, (_, _, on, _) in LAYERS.items():
        if w not in on:
            out[name] = 0.0
        elif name in derive:
            out[name] = derive[name]()
        else:
            out[name] = c[name]
    return out


def check_spec(spec):
    """Problems with a BENCHMARK.json document against the benchmark's own
    rules: charsets, limits, and agreement with LAYERS. Empty when fine."""
    errs = []
    e2e = spec.get("end_to_end", [])
    layers = spec.get("per_layer", [])
    if not 1 <= len(e2e) <= 16:
        errs.append("end_to_end must list 1..16 metrics")
    if not 1 <= len(layers) <= 128:
        errs.append("per_layer must list 1..128 metrics")
    if not 2 <= len(spec.get("workloads", [])) <= 8:
        errs.append("workloads must list 2..8 entries")
    names = [m["name"] for m in e2e + layers] + \
        [w["name"] for w in spec.get("workloads", [])]
    if len(names) != len(set(names)):
        errs.append("names must be unique")
    for n in names:
        if not NAME_RE.match(n):
            errs.append("bad name %r" % n)
    for m in e2e + layers:
        if not UNIT_RE.match(m["unit"]):
            errs.append("bad unit %r of %s" % (m["unit"], m["name"]))
        if m["better"] not in ("lower", "higher"):
            errs.append("bad direction of %s" % m["name"])
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            errs.append("end_to_end %s has wrong keys" % m["name"])
        elif not 0 < m["bound"] <= 0.25:
            errs.append("bound of %s out of (0, 0.25]" % m["name"])
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            errs.append("per_layer %s has wrong keys" % m["name"])
    if [w["name"] for w in spec.get("workloads", [])] != list(WORKLOADS):
        errs.append("workloads differ from analysis.WORKLOADS")
    if {m["name"] for m in layers} != set(LAYERS):
        errs.append("per_layer differs from analysis.LAYERS")
    e2e_names = {m["name"] for m in e2e}
    for m in layers:
        if m["name"] not in LAYERS:
            continue
        unit, better, on, moves = LAYERS[m["name"]]
        if (m["unit"], m["better"]) != (unit, better):
            errs.append("unit/direction of %s differ from LAYERS" % m["name"])
        if moves is not None:
            target, where = moves
            if target not in e2e_names:
                errs.append("%s moves unknown metric %s" % (m["name"],
                                                            target))
            if not where or not set(where) <= set(on):
                errs.append("%s must move a workload it is measured on"
                            % m["name"])
    return errs
