//! End-to-end and per-layer benchmark of Korch: compile time, open-loop
//! serving latency and capacity, and a traced per-layer breakdown. See
//! README.md for how to run it and what each metric means.
//!
//! Usage: `korch-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the command exits non-zero when any
//! output check fails.

mod layers;
mod serve;
mod stats;
mod workloads;

use korch_baselines::{orchestrate_baseline, Baseline};
use korch_core::{CompiledModel, Korch, KorchConfig};
use korch_cost::Device;
use korch_exec::{execute_ops, execute_plan};
use korch_fission::FissionEngine;
use korch_ir::{OpGraph, OpKind};
use korch_runtime::{BatchConfig, PlanExecutor, RuntimeConfig, Server};
use korch_telemetry::{EventKind, Telemetry};
use serve::{Phase, Pool};
use stats::{median, percentile, Rng};
use std::sync::Arc;
use std::time::Instant;
use workloads::Workload;

/// Largest accepted |served − op-level reference|, relative to the largest
/// reference magnitude (the compiled plans reassociate fused reductions).
const OP_LEVEL_TOLERANCE: f32 = 1e-3;
/// Compiles per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Before the first measured phase the server is warmed up, unmeasured:
/// at saturation for `WARMUP_S` seconds, then with `WARMUP_REQUESTS`
/// requests at the fixed rate. Without the saturated part, fixed-rate
/// latency crept up over the first seconds and stayed up until the first
/// saturation phase; an idle pause did not help.
const WARMUP_S: f64 = 3.0;
const WARMUP_REQUESTS: usize = 32;
/// The untraced run measures in rounds of a fixed-rate phase followed by a
/// saturation phase. Throughput is the best round's. Latency percentiles
/// come from the calmest stretch of `STRETCH` consecutive fixed-rate
/// requests (the fewest p99 can rest on) over all rounds, tried at every
/// `STRETCH_STEP` requests: on a shared host, CPU taken by other tenants
/// for seconds to minutes at a time doubles p99 wherever it lands, and a
/// run keeps its figure as long as one stretch escaped.
const ROUNDS: usize = 3;
const STRETCH: usize = 1000;
const STRETCH_STEP: usize = 100;
/// A saturation phase: its length, the start of its counting window, and
/// the requests kept outstanding, in batches of `BatchConfig::max_batch`.
const SATURATION_S: f64 = 3.5;
const SATURATION_SKIP_S: f64 = 0.5;
const SATURATION_BATCHES: usize = 4;
/// Minimum time of the alternating direct Korch / TensorRT-rule calls.
const DIRECT_S: f64 = 1.5;
/// Share of the fixed-rate schedule replayed untraced in a traced run, for
/// the tracing-overhead ratio (a median needs far fewer samples than p99).
const OVERHEAD_SHARE: f64 = 0.2;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                workload =
                    Some(workloads::find(&value).ok_or_else(|| bad(&format!("one of {names:?}")))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics, operation counts and failed checks of one run.
#[derive(Default)]
struct Out {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Served requests and those that failed or mismatched, all phases.
    requests: u64,
    request_failures: u64,
    problems: Vec<String>,
}

impl Out {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Records one checked operation; a failed one fails the run.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Folds a serving phase's requests into the counts.
    fn phase(&mut self, name: &str, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.requests += phase.attempted;
        self.request_failures += phase.failed;
        if phase.failed > 0 {
            self.problems.push(format!(
                "{name}: {} of {} responses failed or differed from the direct reference",
                phase.failed, phase.attempted
            ));
        }
        println!("# {name}: {} requests", phase.attempted);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("korch-perfbench: {e}");
            eprintln!(
                "usage: korch-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut out = Out::default();
    let run = if args.trace {
        run_traced(&args, &mut out)
    } else {
        run_untraced(&args, &mut out)
    };
    if let Err(e) = run {
        eprintln!("korch-perfbench: {}: {e}", args.workload.name);
        std::process::exit(1);
    }
    for p in &out.problems {
        eprintln!("korch-perfbench: FAILED: {p}");
    }
    println!("{}", out.json());
    if !out.problems.is_empty() {
        std::process::exit(1);
    }
}

fn input_shapes(g: &OpGraph) -> Vec<Vec<usize>> {
    g.nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            OpKind::Input { shape } => Some(shape.clone()),
            _ => None,
        })
        .collect()
}

/// Counts of a compile that must repeat exactly.
#[derive(Debug, PartialEq)]
struct CompileCounts {
    kernels: usize,
    candidates: usize,
    partitions: usize,
    states: usize,
    cache_hits: usize,
    latency_bits: u64,
}

impl CompileCounts {
    fn of(m: &CompiledModel) -> Self {
        let s = m.stats();
        CompileCounts {
            kernels: m.kernel_count(),
            candidates: s.candidate_kernels,
            partitions: s.partitions,
            states: s.states,
            cache_hits: s.cache_hits,
            latency_bits: m.latency_ms().to_bits(),
        }
    }
}

/// Builds the seeded pool, takes each entry's direct reference from
/// `model`, checks it against the op-level interpreter, and runs the static
/// verifier on the compiled plans.
fn build_pool(
    g: &OpGraph,
    model: &CompiledModel,
    seed: u64,
    out: &mut Out,
) -> Result<Pool, String> {
    let inputs = Pool::inputs(&input_shapes(g), seed);
    let mut refs = Vec::with_capacity(inputs.len());
    let mut worst = 0f32;
    let mut checked = 0;
    for (k, input) in inputs.iter().enumerate() {
        let direct = model
            .execute(input)
            .map_err(|e| format!("direct execute: {e}"))?;
        let ops = execute_ops(g, input).map_err(|e| format!("execute_ops: {e}"))?;
        let scale = ops
            .iter()
            .flat_map(|t| t.as_slice())
            .fold(1f32, |m, x| m.max(x.abs()));
        let err = direct
            .iter()
            .zip(&ops)
            .map(|(a, b)| a.max_abs_diff(b).unwrap_or(f32::INFINITY))
            .fold(0f32, f32::max)
            / scale;
        worst = worst.max(err);
        checked += ops.iter().map(|t| t.numel()).sum::<usize>();
        out.check(
            direct.len() == ops.len() && err <= OP_LEVEL_TOLERANCE,
            || format!("pool input {k}: compiled output is {err:e} (relative) from execute_ops"),
        );
        refs.push(direct);
    }
    println!(
        "# op-level agreement over {checked} output elements: worst relative error {worst:e} (tolerance {OP_LEVEL_TOLERANCE:e})"
    );
    let verified = model.verify();
    out.check(verified.is_ok(), || {
        format!("CompiledModel::verify: {:?}", verified.err())
    });
    Ok(Pool { inputs, refs })
}

/// Requests of a fixed-rate phase lasting `seconds`, but never fewer than
/// p99 needs.
fn fixed_requests(w: &Workload, seconds: f64) -> usize {
    ((w.rate_rps * seconds).ceil() as usize).max(stats::min_samples(0.99))
}

/// Due times and pool picks of `n` fixed-rate requests.
fn fixed_schedule(w: &Workload, seed: u64, n: usize) -> (Vec<f64>, Vec<usize>) {
    let due = stats::poisson_schedule(&mut Rng::new(seed ^ 0xA5A5_0001), w.rate_rps, n);
    let picks = Pool::picks(&mut Rng::new(seed ^ 0xA5A5_0002), n);
    (due, picks)
}

fn warm_up(server: &Server, pool: &Pool, w: &Workload, out: &mut Out) {
    let saturated = serve::run_saturated(
        server,
        pool,
        &mut Rng::new(0xA5A5_0004),
        SATURATION_BATCHES * BatchConfig::default().max_batch,
        WARMUP_S,
    );
    out.phase("warm-up at saturation", &saturated);
    let due = stats::uniform_schedule(w.rate_rps, WARMUP_REQUESTS);
    let picks: Vec<usize> = (0..WARMUP_REQUESTS)
        .map(|i| i % pool.inputs.len())
        .collect();
    let phase = serve::run_phase(server, pool, &due, &picks);
    out.phase("warm-up", &phase);
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn p99(name: &str, values: Vec<f64>) -> Result<f64, String> {
    let n = values.len();
    percentile(&sorted(values), 0.99)
        .ok_or_else(|| format!("{name}: {n} samples are too few for p99"))
}

fn check_arena(model: &CompiledModel, what: &str, out: &mut Out) {
    let live = layers::arena_totals(model).live_bytes;
    out.check(live == 0, || {
        format!("{what}: {live} arena bytes still live after drain")
    });
}

fn run_untraced(args: &Args, out: &mut Out) -> Result<(), String> {
    let w = args.workload;
    let g = (w.build)();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let runtime = RuntimeConfig::default();
    println!(
        "# workload {} seed {} host cores {} lanes {}",
        w.name,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        runtime.lanes
    );

    let mut setup_s = Vec::new();
    let mut first: Option<CompileCounts> = None;
    let mut model = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let m = korch
            .compile_with(&g, &runtime)
            .map_err(|e| format!("compile: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        let counts = CompileCounts::of(&m);
        match &first {
            Some(c0) => out.check(*c0 == counts, || {
                format!("compile {rep} counted {counts:?}, compile 0 counted {c0:?}")
            }),
            None => first = Some(counts),
        }
        model = Some(m);
    }
    let model = Arc::new(model.ok_or("no setup repetition")?);
    println!("# setup_s per compile: {setup_s:?}");
    let pool = build_pool(&g, &model, args.seed, out)?;

    let server = Server::start_sharded(Arc::clone(&model), BatchConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    warm_up(&server, &pool, w, out);
    let n = fixed_requests(w, args.seconds / ROUNDS as f64);
    let (mut calm, mut p50, mut throughput, mut late) = (vec![], vec![], vec![], vec![]);
    for round in 0..ROUNDS {
        let seed = args.seed ^ ((round as u64) << 48);
        let (due, picks) = fixed_schedule(w, seed, n);
        let fixed = serve::run_phase(&server, &pool, &due, &picks);
        out.phase(&format!("round {round} fixed-rate"), &fixed);
        p50.push(median(&fixed.latency_ms));
        calm.push(
            stats::calmest_stretch(&fixed.latency_ms, STRETCH, STRETCH_STEP)
                .ok_or_else(|| format!("latency: {n} samples are too few for p99"))?,
        );
        late.extend(fixed.late_ms);
        let saturated = serve::run_saturated(
            &server,
            &pool,
            &mut Rng::new(seed ^ 0xA5A5_0003),
            SATURATION_BATCHES * BatchConfig::default().max_batch,
            SATURATION_S,
        );
        out.phase(&format!("round {round} saturation"), &saturated);
        throughput.push(saturated.throughput(SATURATION_SKIP_S, SATURATION_S));
    }
    let served = server.shutdown();
    let peak_rss_mb = layers::peak_rss_mb().ok_or("cannot read VmHWM")?;
    check_arena(&model, "served model", out);

    let calmest = calm
        .iter()
        .copied()
        .min_by(|a, b| a.p99.total_cmp(&b.p99))
        .ok_or("no fixed-rate round")?;
    let stretches: Vec<(f64, f64)> = calm.iter().map(|c| (c.p50, c.p99)).collect();
    println!(
        "# fixed-rate rounds of {n} requests: round p50 {p50:.3?} ms; calmest {STRETCH}-request stretch (p50, p99) {stretches:.3?} ms; p99 {:.3} ms against a {} ms limit{}",
        calmest.p99,
        w.p99_limit_ms,
        if calmest.p99 > w.p99_limit_ms { ": FLAGGED, over the limit" } else { ": within" },
    );
    println!(
        "# saturation rounds: {throughput:.1?} req/s; generator late p99 {:.3} ms; batch mean {:.2}",
        p99("generator lateness", late)?,
        served.mean_batch,
    );

    out.metric("setup_s", median(&setup_s), "s");
    out.metric("latency_p50_ms", calmest.p50, "ms");
    out.metric("latency_p99_ms", calmest.p99, "ms");
    let highest = throughput.iter().copied().fold(0.0, f64::max);
    out.metric("throughput_rps", highest, "req/s");
    let ok = (out.requests - out.request_failures) as f64 / out.requests.max(1) as f64;
    out.metric("ok_frac", ok, "share");
    out.metric("peak_rss_mb", peak_rss_mb, "MiB");
    Ok(())
}

fn run_traced(args: &Args, out: &mut Out) -> Result<(), String> {
    let w = args.workload;
    let g = (w.build)();
    let device = Device::v100();
    let config = KorchConfig::default();
    let korch = Korch::new(device.clone(), config.clone());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Compile stages, replayed and timed one by one.
    let replay = layers::replay_stages(&g, &device, &config)?;
    if replay.unrepeatable_solves > 0 {
        println!(
            "# WARNING: {} BLP solves changed node or pivot counts when solved again",
            replay.unrepeatable_solves
        );
    }

    // The servable model, compiled as `Korch::compile_with` does, with the
    // executor build timed apart.
    let t = Instant::now();
    let optimized = korch.optimize(&g).map_err(|e| format!("optimize: {e}"))?;
    let optimize_s = t.elapsed().as_secs_f64();
    let (due, picks) = fixed_schedule(w, args.seed, fixed_requests(w, args.seconds));
    let kernels = optimized.kernel_count();
    let parts = optimized.partitions().len();
    // Every ring can hold every event of the traced phase (kernel and tile
    // spans, arena samples, per-request serving events), so none drop.
    let ring_capacity = (due.len() + 2 * WARMUP_REQUESTS) * (2 * kernels + 2 * parts + 16);
    let hub = Arc::new(Telemetry::with_capacity(cores, ring_capacity));
    let traced_runtime = RuntimeConfig {
        telemetry: Some(Arc::clone(&hub)),
        ..RuntimeConfig::default()
    };
    let t = Instant::now();
    let traced_model = Arc::new(
        CompiledModel::from_optimized(&optimized, &traced_runtime)
            .map_err(|e| format!("build executors: {e}"))?,
    );
    let executor_build_s = t.elapsed().as_secs_f64();
    let setup_s = optimize_s + executor_build_s;
    let plain_model = Arc::new(
        CompiledModel::from_optimized(&optimized, &RuntimeConfig::default())
            .map_err(|e| format!("build executors: {e}"))?,
    );

    // The replay must count what the pipeline counted.
    let st = optimized.stats();
    let pairs = [
        ("partition.count", replay.partitions, st.partitions),
        ("partition.cache_hits", replay.cache_hits, st.cache_hits),
        ("fission.prims", replay.prims, st.prim_nodes),
        ("orch.candidates", replay.candidates, st.candidate_kernels),
        ("orch.kernels", replay.kernels, kernels),
    ];
    for (name, replayed, compiled) in pairs {
        out.check(replayed == compiled, || {
            format!("{name}: stage replay counted {replayed}, Korch::optimize {compiled}")
        });
    }

    let pool = build_pool(&g, &plain_model, args.seed, out)?;
    let verified = traced_model.verify();
    out.check(verified.is_ok(), || {
        format!("traced model verify: {:?}", verified.err())
    });

    // Korch's plan against the TensorRT-rule plan on the same executor
    // configuration and inputs.
    let pg = FissionEngine::new()
        .fission(&g)
        .map_err(|e| format!("fission: {e}"))?
        .prim_graph;
    let trt_plan = orchestrate_baseline(Baseline::TensorRt, &g, &device)
        .map_err(|e| format!("TensorRT-rule plan: {e}"))?;
    let trt = PlanExecutor::new(&pg, &trt_plan, RuntimeConfig::default())
        .map_err(|e| format!("TensorRT-rule executor: {e}"))?;
    let trt_refs = pool
        .inputs
        .iter()
        .map(|i| execute_plan(&pg, &trt_plan, i))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("execute_plan: {e}"))?;
    let direct = layers::time_direct(&plain_model, &trt, &trt_refs, &pool, DIRECT_S);
    out.check(direct.is_ok(), || {
        format!("direct calls: {:?}", direct.as_ref().err())
    });
    let direct = direct.unwrap_or_default();
    out.attempted += 2 * direct.calls as u64;
    let trt_live = trt.arena_stats().live_bytes;
    out.check(trt_live == 0, || {
        format!("TensorRT-rule executor: {trt_live} arena bytes live")
    });

    // Untraced replay of the schedule's first share, for the overhead ratio.
    let n_plain = ((due.len() as f64 * OVERHEAD_SHARE) as usize).max(stats::min_samples(0.5));
    let server = Server::start_sharded(Arc::clone(&plain_model), BatchConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    warm_up(&server, &pool, w, out);
    let plain = serve::run_phase(&server, &pool, &due[..n_plain], &picks[..n_plain]);
    out.phase("untraced comparison", &plain);
    server.shutdown();
    check_arena(&plain_model, "untraced model", out);

    // The traced phase: one hub on both the server and the executors.
    let batch = BatchConfig {
        telemetry: Some(Arc::clone(&hub)),
        ..BatchConfig::default()
    };
    let server = Server::start_sharded(Arc::clone(&traced_model), batch)
        .map_err(|e| format!("start server: {e}"))?;
    let recorder = hub.recorder();
    recorder.set_enabled(false);
    warm_up(&server, &pool, w, out);
    for p in traced_model.partitions().iter() {
        p.executor.reset_profile();
    }
    recorder.clear();
    recorder.set_enabled(true);
    let traced = serve::run_phase(&server, &pool, &due, &picks);
    out.phase("traced fixed-rate", &traced);
    let served = server.shutdown();
    recorder.set_enabled(false);
    check_arena(&traced_model, "traced model", out);
    let events = recorder.snapshot();
    let trace = layers::summarize_trace(&events);
    let batches: Vec<f64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BatchFormed { size } => Some(size as f64),
            _ => None,
        })
        .collect();
    let exec = layers::executor_totals(&traced_model);
    let arena = layers::arena_totals(&traced_model);
    let requests = traced.attempted.max(1) as f64;
    let dropped = recorder.dropped();
    out.check(dropped == 0, || {
        format!("the trace recorder dropped {dropped} events")
    });
    out.check(exec.runs == traced.attempted * parts as u64, || {
        format!(
            "traced phase: {} partition runs for {} requests of {parts} partitions",
            exec.runs, traced.attempted
        )
    });
    println!(
        "# server batch mean {:.3}, {} batches",
        served.mean_batch, served.batches
    );

    let classes = &direct.classes;
    out.metric("fission.s", replay.fission_s, "s");
    out.metric("fission.prims", replay.prims as f64, "count");
    out.metric("partition.s", replay.partition_s, "s");
    out.metric("partition.count", replay.partitions as f64, "count");
    out.metric("partition.cache_hits", replay.cache_hits as f64, "count");
    out.metric("transform.s", replay.transform_s, "s");
    out.metric("transform.variants", replay.variants as f64, "count");
    out.metric("orch.states_s", replay.states_s, "s");
    out.metric("orch.states", replay.states as f64, "count");
    out.metric("orch.identify_s", replay.identify_s, "s");
    out.metric("orch.candidates", st.candidate_kernels as f64, "count");
    out.metric("orch.kernels", kernels as f64, "count");
    out.metric("orch.kernels_trt", trt_plan.kernel_count() as f64, "count");
    out.metric(
        "orch.simulated_speedup_vs_trt",
        trt_plan.latency_ms() / optimized.latency_ms(),
        "ratio",
    );
    out.metric(
        "orch.measured_speedup_vs_trt",
        direct.trt_median_us / direct.korch_median_us,
        "ratio",
    );
    out.metric("blp.solve_s", replay.blp_s, "s");
    out.metric("blp.nodes", replay.blp_nodes as f64, "count");
    out.metric("blp.pivots", replay.blp_pivots as f64, "count");
    out.metric("blp.constraints", replay.blp_constraints as f64, "count");
    out.metric(
        "blp.unrepeatable_solves",
        replay.unrepeatable_solves as f64,
        "count",
    );
    out.metric("setup.s", setup_s, "s");
    out.metric(
        "setup.unattributed_frac",
        1.0 - (replay.timed_s() + executor_build_s) / setup_s,
        "share",
    );
    out.metric("runtime.executor_build_s", executor_build_s, "s");
    out.metric(
        "executor.steals_per_req",
        exec.steals as f64 / requests,
        "count",
    );
    out.metric(
        "executor.parks_per_req",
        exec.parks as f64 / requests,
        "count",
    );
    out.metric(
        "executor.tile_tasks_per_req",
        exec.tile_tasks as f64 / requests,
        "count",
    );
    out.metric(
        "executor.idle_frac",
        1.0 - exec.busy_us / exec.lane_us.max(f64::MIN_POSITIVE),
        "share",
    );
    out.metric(
        "runtime.request_self_us",
        median(&trace.request_self_us),
        "us",
    );
    out.metric("core.execute_us", direct.execute_us, "us");
    out.metric("core.partition_exec_us", direct.partition_exec_us, "us");
    out.metric(
        "core.boundary_us",
        direct.execute_us - direct.partition_exec_us,
        "us",
    );
    let calls = direct.calls.max(1) as f64;
    out.metric("kernel.memory_us", classes.memory_us / calls, "us");
    out.metric("kernel.compute_us", classes.compute_us / calls, "us");
    out.metric(
        "kernel.compute_gflops",
        classes.compute_flops / (classes.compute_us * 1e3).max(f64::MIN_POSITIVE),
        "GFLOP/s",
    );
    out.metric(
        "kernel.memory_gbps",
        classes.memory_bytes / (classes.memory_us * 1e3).max(f64::MIN_POSITIVE),
        "GB/s",
    );
    out.metric("arena.peak_bytes", arena.peak_bytes as f64, "bytes");
    out.metric(
        "arena.reuse_frac",
        arena.reuse_hits as f64 / arena.allocs.max(1) as f64,
        "share",
    );
    out.metric("arena.live_bytes_end", arena.live_bytes as f64, "bytes");
    let queue_wait = sorted(trace.queue_wait_us);
    out.metric(
        "serving.queue_wait_p50_us",
        percentile(&queue_wait, 0.5).unwrap_or(0.0),
        "us",
    );
    out.metric(
        "serving.queue_wait_p99_us",
        p99("queue wait", queue_wait)?,
        "us",
    );
    out.metric(
        "serving.batch_mean",
        batches.iter().sum::<f64>() / batches.len().max(1) as f64,
        "count",
    );
    out.metric("router.retries", trace.retries as f64, "count");
    out.metric(
        "telemetry.overhead_ratio",
        median(&traced.latency_ms) / median(&plain.latency_ms),
        "ratio",
    );
    out.metric("telemetry.dropped", dropped as f64, "count");
    out.metric(
        "bench.gen_late_p99_ms",
        p99("generator lateness", traced.late_ms.clone())?,
        "ms",
    );
    out.metric("bench.traced_requests", traced.attempted as f64, "count");
    out.metric("bench.untraced_requests", plain.attempted as f64, "count");
    out.metric("bench.host_cores", cores as f64, "count");
    Ok(())
}
