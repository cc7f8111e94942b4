//! The metric tables. `BENCHMARK.json` repeats them (a test keeps the two
//! equal); `compare` takes bounds and directions from here.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a user of the system sees; measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_geomean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One layer's work, from the traced run. `exact` metrics are counts that
/// repeat bit for bit for a seed; `compare` fails on any change to them.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn measured(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

pub const PER_LAYER: [PerLayer; 38] = [
    measured("parser.parse_us", "us"),
    measured("gir.param_us", "us"),
    measured("server.shape_us", "us"),
    measured("server.overhead_us", "us"),
    PerLayer {
        name: "server.cache_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        exact: false,
    },
    measured("server.cache_evictions", "count"),
    measured("server.queued", "count"),
    measured("server.rejected", "count"),
    measured("core.rbo_us", "us"),
    measured("core.type_infer_us", "us"),
    measured("core.cbo_us", "us"),
    measured("core.convert_us", "us"),
    exact("core.plan_nodes", "count", Better::Lower),
    exact("core.plan_quality", "ratio", Better::Lower),
    measured("exec.execute_us", "us"),
    measured("exec.single_machine_us", "us"),
    exact("exec.intermediate_records", "count", Better::Lower),
    exact("exec.rows_out", "count", Better::Higher),
    exact("exec.records_per_row", "ratio", Better::Lower),
    exact("exec.comm_records", "count", Better::Lower),
    exact("exec.comm_bytes", "bytes", Better::Lower),
    exact("exec.locality_hits", "count", Better::Higher),
    measured("exec.exchange_peak_bytes", "bytes"),
    measured("graph.generate_s", "s"),
    measured("graph.stats_s", "s"),
    measured("graph.shard_s", "s"),
    measured("graph.image_write_s", "s"),
    measured("graph.image_load_s", "s"),
    exact("graph.image_bytes_per_edge", "bytes", Better::Lower),
    measured("glogue.build_s", "s"),
    measured("share.parser_pct", "%"),
    measured("share.gir_pct", "%"),
    measured("share.server_pct", "%"),
    measured("share.core_pct", "%"),
    measured("share.exec_pct", "%"),
    measured("share.bench_pct", "%"),
    measured("trace_overhead_pct", "%"),
    measured("verify_s", "s"),
];
