//! The request generators. The open-loop one has a submitter (the calling
//! thread) that releases requests at their due times whatever the server is
//! doing, and a collector thread that waits for the responses. The
//! saturating one keeps a fixed number of requests outstanding.
//! Both check every response bit for bit against the direct reference for
//! its input.

use crate::stats::Rng;
use korch_runtime::{ResponseHandle, Server};
use korch_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The seeded input pool and each entry's reference outputs.
pub struct Pool {
    pub inputs: Vec<Vec<Tensor>>,
    pub refs: Vec<Vec<Tensor>>,
}

/// Distinct pooled inputs per run.
pub const POOL_SIZE: usize = 16;

impl Pool {
    /// `POOL_SIZE` input sets of the given shapes, drawn from `seed`.
    pub fn inputs(shapes: &[Vec<usize>], seed: u64) -> Vec<Vec<Tensor>> {
        let mut rng = Rng::new(seed);
        (0..POOL_SIZE)
            .map(|_| {
                shapes
                    .iter()
                    .map(|s| Tensor::random(s.clone(), rng.next_u64()))
                    .collect()
            })
            .collect()
    }

    /// Pool indices of `n` requests, drawn from `rng`.
    pub fn picks(rng: &mut Rng, n: usize) -> Vec<usize> {
        (0..n).map(|_| rng.below(POOL_SIZE)).collect()
    }
}

/// Whether two output lists are bit-identical.
pub fn bit_identical(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per request, due time → response observed by the collector, ms.
    pub latency_ms: Vec<f64>,
    /// Per request, how late the submitter released it, ms.
    pub late_ms: Vec<f64>,
    /// Completion times of successful requests, seconds from phase start.
    pub done_s: Vec<f64>,
    pub attempted: u64,
    /// Errors plus responses that differ from the reference.
    pub failed: u64,
}

impl Phase {
    /// Completions per second inside `[from_s, to_s]`, measured between
    /// the first and the last completion in the window so that the count
    /// is not quantised by the window edges.
    pub fn throughput(&self, from_s: f64, to_s: f64) -> f64 {
        // `done_s` is recorded in completion order, so it is ascending.
        let inside: Vec<f64> = self
            .done_s
            .iter()
            .copied()
            .filter(|&t| t >= from_s && t <= to_s)
            .collect();
        match (inside.first(), inside.last()) {
            (Some(first), Some(last)) if last > first => (inside.len() - 1) as f64 / (last - first),
            _ => 0.0,
        }
    }
}

/// Runs one open-loop phase: request `i` uses pooled input `picks[i]` and
/// is due `due_s[i]` seconds after the phase starts.
pub fn run_phase(server: &Server, pool: &Pool, due_s: &[f64], picks: &[usize]) -> Phase {
    let (tx, rx) = mpsc::channel::<(usize, Instant, ResponseHandle)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        // The collector blocks on each response in submission order: at a
        // light load requests rarely overtake each other, and blocking
        // leaves both cores to the server where polling would not.
        let collector = scope.spawn(move || {
            let mut phase = Phase::default();
            for (i, due, handle) in rx {
                let result = handle.wait();
                let now = Instant::now();
                phase.attempted += 1;
                phase
                    .latency_ms
                    .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
                match result {
                    Ok(outs) if bit_identical(&outs, &pool.refs[picks[i]]) => {
                        phase.done_s.push((now - start).as_secs_f64());
                    }
                    _ => phase.failed += 1,
                }
            }
            phase
        });
        let mut late_ms = Vec::with_capacity(due_s.len());
        for (i, &d) in due_s.iter().enumerate() {
            let inputs = pool.inputs[picks[i]].clone();
            let due = start + Duration::from_secs_f64(d);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let handle = server.submit(inputs);
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            tx.send((i, due, handle)).expect("collector alive");
        }
        drop(tx);
        let mut phase = collector.join().expect("collector panicked");
        phase.late_ms = late_ms;
        phase
    })
}

/// Keeps `outstanding` requests queued or running for `seconds`: each
/// response is checked and immediately replaced by the next request (inputs
/// drawn from `rng`). With more requests outstanding than one batch holds,
/// the server always finds a full batch waiting, as under an arrival rate
/// above its capacity, while the generator holds only `outstanding` inputs.
pub fn run_saturated(
    server: &Server,
    pool: &Pool,
    rng: &mut Rng,
    outstanding: usize,
    seconds: f64,
) -> Phase {
    let mut phase = Phase::default();
    let submit = |rng: &mut Rng| {
        let k = rng.below(pool.inputs.len());
        (k, server.submit(pool.inputs[k].clone()))
    };
    let mut queue: VecDeque<_> = (0..outstanding).map(|_| submit(rng)).collect();
    let start = Instant::now();
    let record = |phase: &mut Phase, k: usize, handle: ResponseHandle| {
        let result = handle.wait();
        phase.attempted += 1;
        match result {
            Ok(outs) if bit_identical(&outs, &pool.refs[k]) => {
                phase.done_s.push(start.elapsed().as_secs_f64());
            }
            _ => phase.failed += 1,
        }
    };
    while start.elapsed().as_secs_f64() < seconds {
        let (k, handle) = queue.pop_front().expect("requests outstanding");
        record(&mut phase, k, handle);
        queue.push_back(submit(rng));
    }
    for (k, handle) in queue {
        record(&mut phase, k, handle);
    }
    phase
}
