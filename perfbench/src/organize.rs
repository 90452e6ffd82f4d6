//! organize-fast: closed-loop organizer decisions on one worker thread.
//! One op is one `optimize` call on a fresh surrogate-attached evaluator
//! under the `fig8 --fast` spec; ops visit all eight Fig. 8 benchmarks
//! once per round, in a seeded order.

use std::time::Instant;

use tac25d_core::prelude::*;
use tac25d_floorplan::units::Mm;

use crate::gen::round_order;
use crate::golden::{self, Signature};
use crate::measure::{Op, Probe, Window};
use crate::trace;

/// The `fig8 --fast` spec: grid 24, 2 mm interposer-edge step.
pub fn spec() -> SystemSpec {
    let mut s = SystemSpec::fast();
    s.thermal.grid = 24;
    s.edge_step = Mm(2.0);
    s
}

/// The `fig8` decision configuration: surrogate screening, seed 42.
pub fn config() -> OptimizerConfig {
    OptimizerConfig {
        fidelity: Fidelity::surrogate_default(),
        ..OptimizerConfig::with_seed(42)
    }
}

/// The benchmark of the untimed warm-up decision. Fixed, so set-up time
/// does not depend on the seed.
pub const WARMUP: Benchmark = Benchmark::Hpccg;

/// The inputs every decision shares.
pub struct Organizer {
    spec: SystemSpec,
    golden: [Signature; 8],
}

impl Organizer {
    /// Builds the spec and loads the golden signatures.
    pub fn new() -> Organizer {
        Organizer {
            spec: spec(),
            golden: golden::fig8(),
        }
    }

    /// One decision for `benchmark`; true when its signature matches the
    /// golden row.
    pub fn decide(&self, benchmark: Benchmark, op: u64) -> bool {
        let _op = trace::span("bench.op", op, 0);
        let ev = {
            let _new = trace::span("bench.evaluator_new", op, 0);
            Evaluator::with_surrogate(self.spec.clone(), SurrogateConfig::default())
        };
        let Ok(result) = optimize(&ev, benchmark, &config()) else {
            return false;
        };
        let row = Benchmark::all()
            .iter()
            .position(|&b| b == benchmark)
            .expect("every benchmark has a golden row");
        golden::signature(&result) == Some(self.golden[row])
    }
}

impl Default for Organizer {
    fn default() -> Self {
        Organizer::new()
    }
}

/// One set-up: spec, golden, and the warm-up decision. Returns the
/// organizer, the seconds it took and whether the warm-up decision was
/// right.
pub fn setup() -> (Organizer, f64, bool) {
    let t = Instant::now();
    let organizer = Organizer::new();
    let ok = organizer.decide(WARMUP, u64::MAX);
    (organizer, t.elapsed().as_secs_f64(), ok)
}

/// When a window stops. Windows always end on a whole round, so every
/// benchmark is decided equally often.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the first round that ends at least this many seconds in.
    After(f64),
    /// After exactly this many rounds.
    Rounds(u64),
}

/// Runs whole rounds from `first_round` until `stop`; returns the window
/// and the next round index.
pub fn run(organizer: &Organizer, seed: u64, first_round: u64, stop: Stop) -> (Window, u64) {
    let mut probe = Probe::start();
    let mut ops = Vec::new();
    let mut failed = 0;
    let mut round = first_round;
    loop {
        for (i, &benchmark) in round_order(seed, round).iter().enumerate() {
            let t = Instant::now();
            let ok = organizer.decide(benchmark, round * 8 + i as u64);
            ops.push(Op::new(probe.elapsed_s(), t.elapsed().as_secs_f64() * 1e3));
            if !ok {
                eprintln!("organize-fast: round {round}: {benchmark} disagrees with the golden");
                failed += 1;
            }
        }
        round += 1;
        let done = match stop {
            Stop::After(s) => probe.elapsed_s() >= s,
            Stop::Rounds(n) => round - first_round >= n,
        };
        if done {
            break;
        }
        // Each round is one slice: the same eight decisions every time.
        probe.mark();
    }
    let attempted = ops.len() as u64;
    (probe.finish(ops, attempted, failed), round)
}
