//! The names this benchmark reports in: workloads and metrics, exactly
//! as `BENCHMARK.json` at the repository root lists them (a test holds
//! the two together). The per-workload constants — request counts,
//! paced rates, pool sizes — are fixed here and are the same on every
//! commit.

use crate::sut::{Backend, Net};

pub struct Workload {
    pub name: &'static str,
    pub net: Net,
    pub backend: Backend,
    /// Requests travel over loopback TCP to the reactor frontend.
    pub over_socket: bool,
    /// Inputs are LIF spike frames (≈ 3 % active), not third-zero noise.
    pub spikes: bool,
    /// Open-loop rate of the paced phase, requests per second.
    pub paced_rps: f64,
    /// Requests per saturation segment (≈ 0.25 s at the seed commit).
    pub segment_requests: u64,
    /// Distinct inputs a run cycles through.
    pub pool: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// The traced run also measures what the telemetry recorder costs
    /// (a second server without one, alternating segments).
    pub recorder_arm: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "mlp_inproc",
        net: Net::Mlp,
        backend: Backend::Sparse,
        over_socket: false,
        spikes: false,
        paced_rps: 16_000.0,
        segment_requests: 20_000,
        pool: 256,
        setup_repeats: 9,
        recorder_arm: true,
    },
    Workload {
        name: "mlp_net",
        net: Net::Mlp,
        backend: Backend::Sparse,
        over_socket: true,
        spikes: false,
        paced_rps: 12_000.0,
        segment_requests: 10_000,
        pool: 256,
        setup_repeats: 9,
        recorder_arm: false,
    },
    Workload {
        name: "fc_dense",
        net: Net::AlexFc,
        backend: Backend::Sparse,
        over_socket: false,
        spikes: false,
        paced_rps: 800.0,
        segment_requests: 800,
        pool: 64,
        setup_repeats: 3,
        recorder_arm: false,
    },
    Workload {
        name: "fc_spike",
        net: Net::AlexFc,
        backend: Backend::Gated,
        over_socket: false,
        spikes: true,
        paced_rps: 800.0,
        segment_requests: 1_000,
        pool: 64,
        setup_repeats: 3,
        recorder_arm: false,
    },
    Workload {
        name: "mlp_sim",
        net: Net::Mlp,
        backend: Backend::Simulator,
        over_socket: false,
        spikes: false,
        paced_rps: 3_000.0,
        segment_requests: 2_000,
        pool: 256,
        setup_repeats: 9,
        recorder_arm: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub const PER_LAYER: [(&str, &str); 56] = [
    ("client.raw_throughput_rps", "1/s"),
    ("client.throughput_iqr_pct", "%"),
    ("client.sat_latency_p50_us", "us"),
    ("client.latency_p95_us", "us"),
    ("client.latency_p99_us", "us"),
    ("client.gen_lag_p99_us", "us"),
    ("client.trace_overhead_pct", "%"),
    ("client.residual_us", "us"),
    ("host.calib_ms", "ms"),
    ("host.calib_iqr_pct", "%"),
    ("host.cpu_us_per_req", "us"),
    ("net.encode_request_ns", "ns"),
    ("net.decode_request_ns", "ns"),
    ("net.encode_response_ns", "ns"),
    ("net.decode_response_ns", "ns"),
    ("net.assembler_ns_per_frame", "ns"),
    ("net.wire_bytes_per_req", "B"),
    ("net.ping_rtt_us", "us"),
    ("net.added_latency_us", "us"),
    ("serve.submit_ns", "ns"),
    ("serve.server_latency_p50_us", "us"),
    ("serve.reply_delivery_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_wait_mean_us", "us"),
    ("serve.batch_wait_mean_us", "us"),
    ("serve.worker_busy_share", "ratio"),
    ("serve.lane_us_per_req", "us"),
    ("serve.worker_kernel_share", "ratio"),
    ("serve.rejected_count", "count"),
    ("serve.allocs_per_req", "count"),
    ("serve.alloc_bytes_per_req", "B"),
    ("serve.start_s", "s"),
    ("serve.lane_compile_s", "s"),
    ("compress.kernel_us.l0", "us"),
    ("compress.kernel_us.l1", "us"),
    ("compress.kernel_us.l2", "us"),
    ("compress.dense_lane_us_per_req", "us"),
    ("compress.speedup_vs_dense", "ratio"),
    ("compress.macs_per_req", "count"),
    ("compress.weight_bytes_per_req", "B"),
    ("compress.gmacs_per_s", "1/s"),
    ("compress.input_zero_block_share", "ratio"),
    ("compress.gate_skip_fraction", "ratio"),
    ("compress.gated_lane_us_per_req", "us"),
    ("compress.encode_s", "s"),
    ("accel.run_network_us", "us"),
    ("accel.sim_cycles_per_req", "count"),
    ("accel.sim_energy_pj_per_req", "pJ"),
    ("accel.host_ns_per_sim_cycle", "ns"),
    ("accel.dram_stall_cycle_share", "ratio"),
    ("nn.materialize_s", "s"),
    ("sparsity.prune_s", "s"),
    ("registry.encode_s", "s"),
    ("registry.decode_s", "s"),
    ("registry.artifact_bytes", "B"),
    ("telemetry.recorder_cost_pct", "%"),
];
