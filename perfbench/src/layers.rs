//! Per-layer measurements taken from outside the program: the compile
//! stages replayed through their public functions and timed here, direct
//! calls timed here, and what the runtime already exposes (profiles, arena
//! counters, the trace recorder's snapshot).

use crate::serve::{bit_identical, Pool};
use crate::stats::{self, median};
use korch_core::{partition, CompiledModel, KorchConfig};
use korch_cost::{kernel_spec, Backend, Device, Profiler};
use korch_fission::FissionEngine;
use korch_ir::{OpGraph, PrimGraph};
use korch_orch::{enumerate_states, identify_kernels, kernel_classes, optimize, ResourceClass};
use korch_runtime::{PlanExecutor, RuntimeProfile};
use korch_telemetry::{EventKind, TraceEvent};
use korch_transform::optimize_graph;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Timings and counts of one replay of the compile pipeline.
#[derive(Debug, Default)]
pub struct StageReplay {
    pub fission_s: f64,
    pub prims: usize,
    pub partition_s: f64,
    pub partitions: usize,
    pub cache_hits: usize,
    pub transform_s: f64,
    pub variants: usize,
    pub states_s: f64,
    /// States enumerated across every orchestrated variant.
    pub states: usize,
    pub identify_s: f64,
    pub blp_s: f64,
    pub blp_nodes: usize,
    pub blp_pivots: usize,
    pub blp_constraints: usize,
    /// BLP-fed candidates of the chosen variants, cache hits included
    /// (the pipeline's `PipelineStats::candidate_kernels`).
    pub candidates: usize,
    /// Kernels of the chosen plans.
    pub kernels: usize,
    /// Solves whose node count, pivot count or plan changed when the same
    /// problem was solved again.
    pub unrepeatable_solves: usize,
}

impl StageReplay {
    pub fn timed_s(&self) -> f64 {
        self.fission_s
            + self.partition_s
            + self.transform_s
            + self.states_s
            + self.identify_s
            + self.blp_s
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Replays `Korch::optimize` stage by stage, in pipeline order, with the
/// same configuration, partition cache and variant choice. Each BLP is
/// solved twice and a solve whose node count, pivot count or plan differs
/// the second time is counted in `unrepeatable_solves`.
pub fn replay_stages(
    g: &OpGraph,
    device: &Device,
    config: &KorchConfig,
) -> Result<StageReplay, String> {
    let mut r = StageReplay::default();
    let fission = timed(&mut r.fission_s, || FissionEngine::new().fission(g))
        .map_err(|e| format!("fission: {e}"))?;
    let pg = fission.prim_graph;
    r.prims = pg.nodes().iter().filter(|n| !n.kind.is_source()).count();
    let parts = timed(&mut r.partition_s, || {
        partition(&pg, config.partition_max_prims)
    })
    .map_err(|e| format!("partition: {e}"))?;
    r.partitions = parts.len();
    let profiler = Profiler::new(device.clone());
    let orch = &config.orchestrator;
    let backends = [Backend::Generated, Backend::Vendor];
    // Per fingerprint: (BLP-fed candidates, kernels) of the chosen variant.
    let mut cache: HashMap<u64, (usize, usize)> = HashMap::new();
    for part in &parts {
        let fp = part.graph.fingerprint();
        if config.cache {
            if let Some(&(candidates, kernels)) = cache.get(&fp) {
                r.cache_hits += 1;
                r.candidates += candidates;
                r.kernels += kernels;
                continue;
            }
        }
        let variants: Vec<PrimGraph> = timed(&mut r.transform_s, || {
            optimize_graph(&part.graph, &config.transform)
        });
        r.variants += variants.len();
        let mut best: Option<(f64, usize, usize)> = None;
        for variant in variants.iter().take(config.variants_to_orchestrate.max(1)) {
            let space = timed(&mut r.states_s, || {
                enumerate_states(variant, orch.max_states.unwrap_or(1_500))
            });
            r.states += space.states.len();
            let cands = timed(&mut r.identify_s, || {
                identify_kernels(variant, &space, &profiler, &orch.identify, &backends)
            });
            let solved = timed(&mut r.blp_s, || {
                optimize(variant, &cands, Some(&space), &orch.optimize)
            });
            let (plan, report) = match solved {
                Ok(ok) => ok,
                Err(korch_orch::OrchError::Infeasible(_)) => continue,
                Err(e) => return Err(format!("orchestration: {e}")),
            };
            r.blp_nodes += report.solver_nodes;
            r.blp_pivots += report.solver_pivots;
            r.blp_constraints += report.num_constraints;
            let again = optimize(variant, &cands, Some(&space), &orch.optimize);
            let same = again.is_ok_and(|(p, rep)| {
                rep.solver_nodes == report.solver_nodes
                    && rep.solver_pivots == report.solver_pivots
                    && p.kernels.len() == plan.kernels.len()
                    && p.total_latency.0.to_bits() == plan.total_latency.0.to_bits()
            });
            if !same {
                r.unrepeatable_solves += 1;
            }
            let cost = plan.total_latency.0;
            if best.is_none_or(|(c, _, _)| cost < c) {
                best = Some((cost, report.num_candidates, plan.kernel_count()));
            }
        }
        let (_, candidates, kernels) =
            best.ok_or_else(|| "no variant could be orchestrated".to_string())?;
        r.candidates += candidates;
        r.kernels += kernels;
        if config.cache {
            cache.insert(fp, (candidates, kernels));
        }
    }
    Ok(r)
}

/// Per-kernel-class time and computed work of direct runs.
#[derive(Debug, Default)]
pub struct KernelClasses {
    pub memory_us: f64,
    pub compute_us: f64,
    /// Flops of compute-class kernels, computed from tensor shapes.
    pub compute_flops: f64,
    /// Bytes read and written by memory-class kernels, computed from
    /// tensor shapes.
    pub memory_bytes: f64,
}

/// Direct-call measurements of the compiled model against the
/// TensorRT-rule plan on the same executor configuration.
#[derive(Debug, Default)]
pub struct Direct {
    pub calls: usize,
    /// Mean wall time of `CompiledModel::execute`, µs.
    pub execute_us: f64,
    /// Mean Σ over partitions of `PlanExecutor::execute` wall time, µs.
    pub partition_exec_us: f64,
    pub classes: KernelClasses,
    /// Median per-call time of the Korch model and the TensorRT-rule plan.
    pub korch_median_us: f64,
    pub trt_median_us: f64,
}

/// Alternates `model.execute` and `trt.execute` over the pool for at least
/// `min_s` seconds (and at least 20 calls each), checking every output
/// against its reference bit for bit. Returns `Err` with the first
/// mismatch.
pub fn time_direct(
    model: &CompiledModel,
    trt: &PlanExecutor,
    trt_refs: &[Vec<korch_tensor::Tensor>],
    pool: &Pool,
    min_s: f64,
) -> Result<Direct, String> {
    let parts = model.partitions();
    for p in parts.iter() {
        p.executor.reset_profile();
    }
    let mut korch_us = Vec::new();
    let mut trt_us = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < 20 || start.elapsed().as_secs_f64() < min_s {
        let k = i % pool.inputs.len();
        let t = Instant::now();
        let out = model
            .execute(&pool.inputs[k])
            .map_err(|e| format!("execute: {e}"))?;
        korch_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !bit_identical(&out, &pool.refs[k]) {
            return Err(format!(
                "direct execute of pool input {k} changed between calls"
            ));
        }
        let t = Instant::now();
        let out = trt
            .execute(&pool.inputs[k])
            .map_err(|e| format!("trt execute: {e}"))?;
        trt_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !bit_identical(&out, &trt_refs[k]) {
            return Err(format!(
                "TensorRT-rule plan differs from execute_plan on input {k}"
            ));
        }
        i += 1;
    }
    let profiles: Vec<RuntimeProfile> = parts.iter().map(|p| p.executor.profile()).collect();
    let mut classes = KernelClasses::default();
    for (p, prof) in parts.iter().zip(&profiles) {
        let kinds = kernel_classes(&p.graph, &p.plan);
        for ((k, class), st) in p.plan.kernels.iter().zip(kinds).zip(&prof.per_kernel) {
            let members = k.members.iter().copied().collect();
            let spec = kernel_spec(&p.graph, &members, &k.outputs);
            let n = st.count as f64;
            match class {
                ResourceClass::Compute => {
                    classes.compute_us += st.total_us;
                    classes.compute_flops += spec.total_flops() as f64 * n;
                }
                ResourceClass::Memory => {
                    classes.memory_us += st.total_us;
                    classes.memory_bytes += spec.bytes_moved() as f64 * n;
                }
            }
        }
    }
    let calls = korch_us.len();
    Ok(Direct {
        calls,
        execute_us: korch_us.iter().sum::<f64>() / calls as f64,
        partition_exec_us: profiles.iter().map(|p| p.total_wall_us).sum::<f64>() / calls as f64,
        classes,
        korch_median_us: median(&korch_us),
        trt_median_us: median(&trt_us),
    })
}

/// Executor counters summed over every partition's profile.
#[derive(Debug, Default)]
pub struct ExecutorTotals {
    pub runs: u64,
    pub steals: u64,
    pub parks: u64,
    pub tile_tasks: u64,
    /// Σ kernel body time (tiles summed), µs.
    pub busy_us: f64,
    /// Σ lanes × run wall time, µs.
    pub lane_us: f64,
}

pub fn executor_totals(model: &CompiledModel) -> ExecutorTotals {
    let mut t = ExecutorTotals::default();
    for p in model.partitions().iter() {
        let prof = p.executor.profile();
        t.runs += prof.runs;
        t.steals += prof.steals;
        t.parks += prof.parks;
        t.tile_tasks += prof.tile_tasks;
        t.busy_us += prof.per_kernel.iter().map(|k| k.total_us).sum::<f64>();
        t.lane_us += prof.total_wall_us * p.executor.lane_count() as f64;
    }
    t
}

/// Arena counters summed over every shard's partitions.
#[derive(Debug, Default)]
pub struct ArenaTotals {
    pub live_bytes: u64,
    pub peak_bytes: u64,
    pub allocs: u64,
    pub reuse_hits: u64,
}

pub fn arena_totals(model: &CompiledModel) -> ArenaTotals {
    let mut t = ArenaTotals::default();
    for shard in model.shard_snapshots().iter() {
        for p in shard.iter() {
            let a = p.executor.arena_stats();
            t.live_bytes += a.live_bytes;
            t.peak_bytes += a.peak_bytes;
            t.allocs += a.total_allocs;
            t.reuse_hits += a.reuse_hits;
        }
    }
    t
}

/// What the recorder's snapshot says about the traced phase.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub queue_wait_us: Vec<f64>,
    /// Per request: `Request` span time not covered by its kernel or tile
    /// spans (routing, dispatch, boundary copies, parking), µs.
    pub request_self_us: Vec<f64>,
    pub retries: u64,
}

pub fn summarize_trace(events: &[TraceEvent]) -> TraceSummary {
    let mut s = TraceSummary::default();
    let mut requests: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    let mut bodies: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for e in events {
        let span = (e.start_us, e.start_us + e.dur_us);
        match e.kind {
            EventKind::QueueWait => s.queue_wait_us.push(e.dur_us),
            EventKind::Request => {
                requests.insert(e.trace, span);
            }
            EventKind::Kernel { .. } | EventKind::Tile { .. } if e.trace != 0 => {
                bodies.entry(e.trace).or_default().push(span)
            }
            EventKind::Routed { retry: true, .. } => s.retries += 1,
            _ => {}
        }
    }
    s.request_self_us = requests
        .iter()
        .filter_map(|(id, &span)| Some(stats::self_time(span, bodies.get(id)?)))
        .collect();
    s
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
