"""fama-lab's layers as seen by the tracer: which functions make up each layer
and how their spans turn into the per-layer metrics in BENCHMARK.json.

Times are self seconds per traced call, summed over every process that did
the work (pool workers included), so they are busy times, not wall times.
Counts are per traced call too; the normals drawn and the port-tensor bytes
are computed from array shapes in the call's arguments, not measured.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict

from tracer import Span, Target, self_times

PACKAGE = "fama_lab"

TARGETS = [
    # RNG draws: complex normals (count computed: two reals per entry) and
    # the Gamma-ratio sampler behind the i.i.d. benchmark.
    Target("fama_lab.mc_engine:_cgauss",
           lambda a, r: {"normals": 2 * math.prod(a["shape"])}),
    Target("fama_lab.mc_engine:marginal_model_sample"),
    # Precoder: MRT normalization, ZF Gram check, solve and resample.
    Target("fama_lab.mc_engine:_weights_for_scheme",
           lambda a, r: {"precoded": a["H"].shape[0], "resampled": r[1]}),
    Target("fama_lab.mc_engine:_zf_weights"),
    # Chunk kernels: reference channels, port assembly + projection + SIR,
    # selection + binning, and the i.i.d. benchmark chunk.
    Target("fama_lab.mc_engine:_reference_matrix"),
    Target("fama_lab.mc_engine:_chunk_ports_sir",
           lambda a, r: {"port_tensor_bytes": a["n"] * len(a["mu"]) * a["M"] * 16}),
    Target("fama_lab.mc_engine:_chunk_outage_physical"),
    Target("fama_lab.mc_engine:_chunk_outage_iid"),
    # Chunked driver and its process pools.
    Target("fama_lab.mc_engine:_run_chunked",
           lambda a, r: {"chunks": -(-a["total"] // a["chunk_size"])}),
    Target("fama_lab.mc_engine:ProcessPoolExecutor"),
    # Outside the chunk: analytic envelope, CSV and manifest output, geometry.
    Target("fama_lab.analytic_stats:outage_envelope"),
    Target("fama_lab.cli:write_curve_csv",
           lambda a, r: {"csv_bytes": os.path.getsize(a["path"])}),
    Target("fama_lab.cli:RunManifest.write"),
    Target("fama_lab.channel_geom:geometry_for_config"),
]

# Layer time metric -> span names whose self times it sums.
_SELF_TIME = {
    "randlin.draw_s": ("mc_engine._cgauss",),
    "randlin.marginal_draw_s": ("mc_engine.marginal_model_sample",),
    "precoding.busy_s": ("mc_engine._weights_for_scheme", "mc_engine._zf_weights"),
    "mc_engine.reference_s": ("mc_engine._reference_matrix",),
    "mc_engine.ports_sir_s": ("mc_engine._chunk_ports_sir",),
    "mc_engine.select_bin_s": ("mc_engine._chunk_outage_physical",),
    "mc_engine.iid_s": ("mc_engine._chunk_outage_iid",),
    "analytic_stats.envelope_s": ("analytic_stats.outage_envelope",),
    "cli.csv_write_s": ("cli.write_curve_csv",),
    "cli.manifest_s": ("cli.RunManifest.write",),
}
# Count metric -> (span name, count key), or None to count the spans.
_COUNTS = {
    "randlin.normals": ("mc_engine._cgauss", "normals"),
    "precoding.resampled": ("mc_engine._weights_for_scheme", "resampled"),
    "mc_engine.port_tensor_bytes": ("mc_engine._chunk_ports_sir", "port_tensor_bytes"),
    "mc_engine.chunks": ("mc_engine._run_chunked", "chunks"),
    "mc_engine.chunked_calls": ("mc_engine._run_chunked", None),
    "mc_engine.pools_started": ("mc_engine.ProcessPoolExecutor", None),
    "analytic_stats.envelope_calls": ("analytic_stats.outage_envelope", None),
    "cli.csv_bytes": ("cli.write_curve_csv", "csv_bytes"),
}
# Metric -> the targets it is measured from, to mark it absent when one is.
_SOURCES = {
    **_SELF_TIME,
    **{metric: (name,) for metric, (name, _) in _COUNTS.items()},
    "precoding.resample_ratio": ("mc_engine._weights_for_scheme",),
    "mc_engine.pool_overhead_s": ("mc_engine._run_chunked",),
    "channel_geom.geometry_s": ("channel_geom.geometry_for_config",),
}


def pool_overhead(spans: list[Span]) -> float:
    """Time inside `_run_chunked` that its chunk work does not explain.

    Chunk spans are the direct children of a `_run_chunked` span (a pool
    worker inherits the open span when it is forked).  In-process they cover
    part of its interval; in a pool each worker's chunks run in parallel, so
    the busiest worker's total is what the wall time must cover.
    """
    children = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.parent is not None and s.name != "mc_engine.ProcessPoolExecutor":
            children[s.parent][s.pid] += s.duration
    total = 0.0
    for s in spans:
        if s.name == "mc_engine._run_chunked":
            per_pid = children.get(s.sid, {})
            total += s.duration - max(per_pid.values(), default=0.0)
    return total


def layer_metrics(call_spans: list[Span], calls: int, setup_spans: list[Span],
                  absent: list[str], broken_counters: set[str]) -> tuple[dict, list]:
    """Per-layer metrics per timed call, plus the metrics whose targets are
    absent (their value is reported as 0)."""
    per_call = self_time_table(call_spans, calls)
    count_by_name = defaultdict(float)
    counts = defaultdict(float)
    for s in call_spans:
        count_by_name[s.name] += 1
        for key, value in s.counts.items():
            counts[(s.name, key)] += value
    out = {}
    for metric, names in _SELF_TIME.items():
        out[metric] = sum(per_call.get(n, 0.0) for n in names)
    for metric, (name, key) in _COUNTS.items():
        total = count_by_name[name] if key is None else counts[(name, key)]
        out[metric] = total / calls
    precoded = counts[("mc_engine._weights_for_scheme", "precoded")]
    out["precoding.resample_ratio"] = (
        counts[("mc_engine._weights_for_scheme", "resampled")] / precoded
        if precoded else 0.0
    )
    out["mc_engine.pool_overhead_s"] = pool_overhead(call_spans) / calls
    out["channel_geom.geometry_s"] = sum(
        s.duration for s in setup_spans if s.name == "channel_geom.geometry_for_config"
    )
    missing = set(absent) | set(broken_counters)
    absent_metrics = sorted(
        metric for metric, names in _SOURCES.items() if missing.intersection(names)
    )
    return out, absent_metrics


def self_time_table(call_spans: list[Span], calls: int) -> dict[str, float]:
    """Self seconds per call of every traced name, largest first."""
    own = self_times(call_spans)
    table = defaultdict(float)
    for s in call_spans:
        table[s.name] += own[s.sid] / calls
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))
