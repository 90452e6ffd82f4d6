//! Seeded input generators. Every input the program sees is a pure
//! function of the workload seed, so two runs with one seed send the same
//! requests in the same order.

use std::collections::HashSet;

use tac25d_power::benchmarks::Benchmark;

/// SplitMix64: a small, fixed, well-mixed generator. Kept local so the
/// benchmark's inputs never change when the program's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in stream `stream` (independent sequences
    /// per stream from one seed).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The order in which organize-fast visits the eight Fig. 8 benchmarks
/// in round `round`: every round is a seeded permutation of all eight.
pub fn round_order(seed: u64, round: u64) -> [Benchmark; 8] {
    let mut order = Benchmark::all();
    Rng::new(seed, 0x0F16_0000 + round).shuffle(&mut order);
    order
}

/// A chiplet organization on the 0.25 mm lattice, spacings in quarter
/// millimetres.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Symmetric 4-chiplet organization with central gap `s3`.
    Sym4 {
        /// Central gap, quarter mm.
        s3: i64,
    },
    /// Symmetric 16-chiplet organization.
    Sym16 {
        /// Outer-ring gap, quarter mm.
        s1: i64,
        /// Centre-chiplet offset, quarter mm.
        s2: i64,
        /// Central gap, quarter mm.
        s3: i64,
    },
}

/// Largest sym4 central gap drawn, quarter mm (10 mm: a 30 mm interposer).
const SYM4_S3_MAX: i64 = 40;
/// Largest sym16 outer gap drawn, quarter mm (4 mm).
const SYM16_S1_MAX: i64 = 16;
/// Largest sym16 central gap drawn, quarter mm (8 mm). With `S1_MAX` the
/// interposer stays at or below 36 mm and every gap at or below the
/// 12 mm the Fig. 8 organizations already close timing with at 1 GHz.
const SYM16_S3_MAX: i64 = 32;
/// Largest sym16 centre offset drawn, quarter mm (6 mm).
const SYM16_S2_MAX: i64 = 24;

fn mm(quarters: i64) -> f64 {
    quarters as f64 / 4.0
}

impl Layout {
    /// Draws a sym4 layout (`sym16 == false`) or a sym16 layout that
    /// satisfies Eq. (10), `2·s1 + s3 − 2·s2 ≥ 0`, by construction: `s2`
    /// is drawn at or below `s1 + s3/2`.
    pub fn draw(rng: &mut Rng, sym16: bool) -> Layout {
        if sym16 {
            let s1 = rng.range(0, SYM16_S1_MAX);
            let s3 = rng.range(0, SYM16_S3_MAX);
            let s2 = rng.range(0, ((2 * s1 + s3) / 2).min(SYM16_S2_MAX));
            Layout::Sym16 { s1, s2, s3 }
        } else {
            Layout::Sym4 {
                s3: rng.range(0, SYM4_S3_MAX),
            }
        }
    }

    /// Whether the layout satisfies Eq. (10) (trivially true for sym4).
    pub fn satisfies_eq10(&self) -> bool {
        match *self {
            Layout::Sym4 { .. } => true,
            Layout::Sym16 { s1, s2, s3 } => 2 * s1 + s3 - 2 * s2 >= 0,
        }
    }

    /// The layout in the service's layout grammar.
    pub fn grammar(&self) -> String {
        match *self {
            Layout::Sym4 { s3 } => format!("sym4:{}", mm(s3)),
            Layout::Sym16 { s1, s2, s3 } => format!("sym16:{},{},{}", mm(s1), mm(s2), mm(s3)),
        }
    }
}

/// The VF points of the paper's table, MHz.
pub const VF_MHZ: [u32; 5] = [1000, 800, 533, 400, 320];
/// Smallest active-core count drawn.
const CORES_MIN: u16 = 16;
/// Largest active-core count drawn (the whole chip).
const CORES_MAX: u16 = 256;

/// One `/v1/evaluate` request: the evaluator's cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalKey {
    /// Organization.
    pub layout: Layout,
    /// Benchmark.
    pub benchmark: Benchmark,
    /// VF point, MHz.
    pub freq_mhz: u32,
    /// Active cores.
    pub cores: u16,
}

impl EvalKey {
    /// The request body.
    pub fn body(&self) -> String {
        format!(
            r#"{{"benchmark": "{}", "layout": "{}", "freq_mhz": {}, "cores": {}}}"#,
            self.benchmark.name(),
            self.layout.grammar(),
            self.freq_mhz,
            self.cores
        )
    }
}

/// `n` distinct layouts: a quarter sym4, the rest sym16. The fixed mix
/// keeps the pool's cost the same from seed to seed.
pub fn layout_pool(rng: &mut Rng, n: usize) -> Vec<Layout> {
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    while pool.len() < n {
        let l = Layout::draw(rng, pool.len() >= n / 4);
        if seen.insert(l) {
            pool.push(l);
        }
    }
    pool
}

/// `n` distinct eval keys over a pool of `pool_size` layouts. No key
/// repeats, so with `n` well below the key space every request is a
/// cache miss; the bounded pool bounds the models the evaluator keeps.
pub fn key_stream(seed: u64, stream: u64, pool_size: usize, n: usize) -> Vec<EvalKey> {
    let mut rng = Rng::new(seed, stream);
    let pool = layout_pool(&mut rng, pool_size);
    let benchmarks = Benchmark::all();
    let mut seen = HashSet::new();
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let key = EvalKey {
            layout: pool[rng.below(pool.len() as u64) as usize],
            benchmark: benchmarks[rng.below(8) as usize],
            freq_mhz: VF_MHZ[rng.below(VF_MHZ.len() as u64) as usize],
            cores: rng.range(i64::from(CORES_MIN), i64::from(CORES_MAX)) as u16,
        };
        if seen.insert(key) {
            keys.push(key);
        }
    }
    keys
}

/// Layouts in the serve-cold pool. At about 2.2 MB per grid-32 package
/// model (the evaluator's model cache has no eviction) the pool holds the
/// daemon's model memory near 35 MB, and its model builds stay well
/// inside the slowest 1% of a run's requests.
pub const COLD_POOL: usize = 16;
/// Distinct requests in the serve-hot set.
pub const HOT_REQUESTS: usize = 64;
/// Layouts behind the serve-hot set.
pub const HOT_POOL: usize = 8;

/// The serve-cold request stream for `seed`: `n` never-repeating keys.
pub fn cold_stream(seed: u64, n: usize) -> Vec<EvalKey> {
    key_stream(seed, 0xC01D, COLD_POOL, n)
}

/// The serve-hot request set for `seed`.
pub fn hot_set(seed: u64) -> Vec<EvalKey> {
    key_stream(seed, 0x0407, HOT_POOL, HOT_REQUESTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_core::prelude::SystemSpec;
    use tac25d_floorplan::organization::ChipletLayout;
    use tac25d_serve::protocol::parse_layout;

    #[test]
    fn same_seed_same_inputs() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(cold_stream(seed, 500), cold_stream(seed, 500));
            assert_eq!(hot_set(seed), hot_set(seed));
            assert_eq!(round_order(seed, 3), round_order(seed, 3));
        }
        assert_ne!(cold_stream(1, 50), cold_stream(2, 50));
        assert_ne!(round_order(7, 0), round_order(7, 1));
    }

    #[test]
    fn rounds_are_permutations_of_all_eight() {
        for round in 0..20 {
            let mut names: Vec<_> = round_order(9, round).iter().map(|b| b.name()).collect();
            names.sort_unstable();
            let mut all: Vec<_> = Benchmark::all().iter().map(|b| b.name()).collect();
            all.sort_unstable();
            assert_eq!(names, all);
        }
    }

    #[test]
    fn keys_never_repeat_and_pool_is_bounded() {
        for seed in 0..5 {
            let keys = cold_stream(seed, 20_000);
            let distinct: HashSet<_> = keys.iter().collect();
            assert_eq!(distinct.len(), keys.len());
            let layouts: HashSet<_> = keys.iter().map(|k| k.layout).collect();
            assert!(layouts.len() <= COLD_POOL);
            let pool = layout_pool(&mut Rng::new(seed, 1), COLD_POOL);
            let sym4 = pool
                .iter()
                .filter(|l| matches!(l, Layout::Sym4 { .. }))
                .count();
            assert_eq!(sym4, COLD_POOL / 4);
            let hot = hot_set(seed);
            assert_eq!(hot.iter().collect::<HashSet<_>>().len(), HOT_REQUESTS);
            assert!(hot.iter().map(|k| k.layout).collect::<HashSet<_>>().len() <= HOT_POOL);
        }
    }

    #[test]
    fn every_generated_request_is_valid() {
        // Validity is checked against the library, not the generator's own
        // bounds: each layout parses, satisfies Eq. (10) and the package
        // rules, and closes NoC link timing at the fastest VF point; each
        // request decodes to an in-range VF point and core count.
        let spec = SystemSpec::fast();
        let fastest = spec.vf.nominal();
        for seed in 0..40 {
            let mut keys = cold_stream(seed, 256);
            keys.extend(hot_set(seed));
            for key in keys {
                assert!(key.layout.satisfies_eq10(), "{key:?}");
                let grammar = key.layout.grammar();
                let layout = parse_layout(&grammar).expect("layout parses");
                assert!(matches!(
                    layout,
                    ChipletLayout::Symmetric4 { .. } | ChipletLayout::Symmetric16 { .. }
                ));
                layout
                    .validate(&spec.chip, &spec.rules)
                    .unwrap_or_else(|e| panic!("{grammar}: {e}"));
                spec.noc
                    .power(&spec.chip, &layout, &spec.rules, fastest, 1.0)
                    .unwrap_or_else(|e| panic!("{grammar}: {e}"));
                let v = tac25d_obs::json::parse(&key.body()).expect("body is JSON");
                let req =
                    tac25d_serve::protocol::EvaluateRequest::from_json(&v).expect("body decodes");
                assert!(spec.vf.at_frequency(req.freq_mhz).is_some());
                assert!((1..=spec.chip.core_count()).contains(&req.cores));
                assert_eq!(req.benchmark, key.benchmark);
            }
        }
    }

    #[test]
    fn quarter_mm_grammar_round_trips() {
        let l = Layout::Sym16 {
            s1: 5,
            s2: 2,
            s3: 14,
        };
        assert_eq!(l.grammar(), "sym16:1.25,0.5,3.5");
        assert_eq!(Layout::Sym4 { s3: 8 }.grammar(), "sym4:2");
    }
}
