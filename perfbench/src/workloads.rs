//! The benchmark's workloads: a model, the Poisson arrival rate of the
//! fixed-rate phase, and its p99 latency limit. Rates were set on a 2-core
//! x86-64 host, where the saturation capacities quoted below were measured
//! with the default `BatchConfig`.

use korch_ir::OpGraph;
use korch_models::{subgraphs, SegformerConfig};

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub build: fn() -> OpGraph,
    /// Mean rate of the fixed-rate phase's Poisson arrivals, requests per
    /// second.
    pub rate_rps: f64,
    /// p99 latency limit of the fixed-rate phase; a run above it is flagged.
    pub p99_limit_ms: f64,
}

fn segformer_tiny() -> OpGraph {
    korch_models::segformer(SegformerConfig::tiny())
}

fn segformer_attention() -> OpGraph {
    subgraphs::segformer_attention(512, 64, 4)
}

pub const WORKLOADS: &[Workload] = &[
    // Dispatch- and boundary-bound: 10 partitions of 27 small kernels, so
    // per-partition spawn, boundary copies and the batcher's hold dominate
    // (saturation ≈ 800 req/s, 2.2 ms direct). A quarter of saturation
    // still leaves the server lightly loaded and fills a 1000-request
    // latency stretch every 5 s.
    Workload {
        name: "segformer_poisson",
        build: segformer_tiny,
        rate_rps: 200.0,
        p99_limit_ms: 20.0,
    },
    // Kernel-body-bound: one partition of 5 large kernels (matmul, softmax
    // chain, tiling on 2 cores) with dispatch nearly idle — the counter
    // workload for dispatch and serving changes (3.3 ms direct, saturation
    // ≈ 750 req/s). At 1024 tokens a request took 10 ms, so 1000 samples
    // needed 30 s at a light rate and single host stalls moved p99 by half
    // from run to run. A request takes more CPU than a segformer one, so it
    // runs at a fifth of saturation (about a fifth of the two cores busy).
    Workload {
        name: "attention_poisson",
        build: segformer_attention,
        rate_rps: 150.0,
        p99_limit_ms: 25.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
