//! Timed windows: what one stretch of closed-loop ops did, end to end
//! (latencies, CPU, failures) and per layer (obs counter deltas).

use std::collections::BTreeMap;
use std::time::Instant;

use tac25d_obs as obs;

use crate::host;

/// Linear-interpolation percentile (`p` in 0..=100) of ascending values.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unordered values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Mean of unordered values without their lowest and highest tenth
/// (at least one value from each end once there are three or more; 0
/// when empty).
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = if v.len() < 3 { 0 } else { v.len().div_ceil(10) };
    let kept = &v[cut..v.len() - cut];
    ratio(kept.iter().sum(), kept.len() as f64)
}

/// Harrell–Davis estimate of the `p`-th percentile (0 < p < 100) of
/// ascending values: a weighted mean of every order statistic, with
/// weights from the Beta((n+1)q, (n+1)(1−q)) distribution, q = p/100.
///
/// organize-fast latencies are a mixture of eight well-separated
/// per-benchmark clusters, and with whole rounds the plain median falls
/// exactly between two clusters, on the extremes of both. Averaging the
/// order statistics around the percentile keeps the estimate steady.
pub fn harrell_davis(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let q = p / 100.0;
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    // On large samples the Beta distribution is near normal and weights
    // beyond twelve standard deviations are below f64 resolution: sum only
    // the ranks inside (serve-hot has about a million samples).
    let (lo, hi) = if n <= 4096 {
        (0, n)
    } else {
        let reach = 12.0 * (q * (1.0 - q) / (n + 2) as f64).sqrt();
        let lo = ((q - reach) * n as f64).floor().max(0.0) as usize;
        (lo, (((q + reach) * n as f64).ceil() as usize).min(n))
    };
    let mut cdf = incomplete_beta(a, b, lo as f64 / n as f64);
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate().take(hi).skip(lo) {
        let next = incomplete_beta(a, b, (i + 1) as f64 / n as f64);
        sum += (next - cdf) * x;
        cdf = next;
    }
    sum
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection keeps the series in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Regularized incomplete beta function I_x(a, b).
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The continued fraction converges fast on this side of the mean.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let nonzero = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / nonzero(1.0 + even * d);
        c = nonzero(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / nonzero(1.0 + odd * d);
        c = nonzero(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Counter and histogram state of the obs registry at one instant.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    /// `(count, sum)` of `serve.queue_wait_us`.
    queue_wait: (u64, u64),
}

impl Registry {
    /// Reads the live registry.
    pub fn read() -> Registry {
        let queue_wait = obs::registry::histogram_snapshot()
            .into_iter()
            .find(|(name, ..)| name == "serve.queue_wait_us")
            .map_or((0, 0), |(_, _, count, sum)| (count, sum));
        Registry {
            counters: obs::registry::counter_snapshot().into_iter().collect(),
            queue_wait,
        }
    }

    /// What changed from `before` to `self`.
    pub fn since(&self, before: &Registry) -> Registry {
        Registry {
            counters: self
                .counters
                .iter()
                .map(|(name, v)| {
                    let was = before.counters.get(name).copied().unwrap_or(0);
                    (name.clone(), v.saturating_sub(was))
                })
                .collect(),
            queue_wait: (
                self.queue_wait.0.saturating_sub(before.queue_wait.0),
                self.queue_wait.1.saturating_sub(before.queue_wait.1),
            ),
        }
    }

    /// A counter's value (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Every counter, by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Mean `serve.queue_wait_us` (0 when nothing was queued).
    pub fn queue_wait_mean_us(&self) -> f64 {
        ratio(self.queue_wait.1 as f64, self.queue_wait.0 as f64)
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload bypasses).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One completed op. Single precision (microsecond resolution over a
/// minute) halves the benchmark's own memory per op, which serve-hot
/// records about a million of per run and `rss_mb` would otherwise carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Op {
    end_s: f32,
    latency_ms: f32,
}

impl Op {
    /// An op that completed `end_s` seconds into the window after
    /// `latency_ms`.
    pub fn new(end_s: f64, latency_ms: f64) -> Op {
        Op {
            end_s: end_s as f32,
            latency_ms: latency_ms as f32,
        }
    }
}

/// A slice boundary: seconds into the window and process CPU seconds
/// used by then.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    t_s: f64,
    cpu_s: f64,
}

/// One slice of a window: its ops' latencies (ascending), wall time and
/// CPU time.
struct Slice {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
}

/// What one timed window did.
///
/// The window is cut into slices (a round of decisions, a sixth of a
/// serve-cold run or half a second of serve-hot) and each end-to-end
/// timing is the trimmed mean of its per-slice values (see
/// [`trimmed_mean`]), so a burst of host contention that slows a slice
/// does not move the run's figure.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Every op that completed (a failed check still completed).
    pub ops: Vec<Op>,
    marks: Vec<Mark>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or returned a wrong result.
    pub failed: u64,
    /// Wall time of the window, s.
    pub elapsed_s: f64,
    /// Steal share of host CPU time in the window.
    pub steal: f64,
    /// Obs registry deltas over the window.
    pub registry: Registry,
}

impl Window {
    /// Ops that completed.
    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    /// Trimmed mean over slices of `f`, skipping slices without ops. One
    /// slice's latencies are copied out at a time, so the copy adds little
    /// to the process's peak memory.
    fn over_slices(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        // Ops are in completion order.
        let at = |t_s: f64| self.ops.partition_point(|op| f64::from(op.end_s) < t_s);
        let values: Vec<f64> = self
            .marks
            .windows(2)
            .filter_map(|m| {
                let mut latencies_ms: Vec<f64> = self.ops[at(m[0].t_s)..at(m[1].t_s)]
                    .iter()
                    .map(|op| f64::from(op.latency_ms))
                    .collect();
                latencies_ms.sort_by(f64::total_cmp);
                let slice = Slice {
                    latencies_ms,
                    wall_s: m[1].t_s - m[0].t_s,
                    cpu_s: m[1].cpu_s - m[0].cpu_s,
                };
                (!slice.latencies_ms.is_empty()).then(|| f(&slice))
            })
            .collect();
        trimmed_mean(&values)
    }

    /// Completed ops per second.
    pub fn throughput(&self) -> f64 {
        self.over_slices(|s| ratio(s.latencies_ms.len() as f64, s.wall_s))
    }

    /// A latency percentile (Harrell–Davis), ms.
    pub fn latency_ms(&self, p: f64) -> f64 {
        self.over_slices(|s| harrell_davis(&s.latencies_ms, p))
    }

    /// Process CPU time per op, ms.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.over_slices(|s| ratio(s.cpu_s * 1e3, s.latencies_ms.len() as f64))
    }

    /// A counter delta per completed op.
    pub fn per_op(&self, counter: &str) -> f64 {
        ratio(self.registry.counter(counter) as f64, self.ops() as f64)
    }
}

/// A window in progress: clocks and registry as they were at its start,
/// and the slice boundaries marked so far.
pub struct Probe {
    start: Instant,
    ticks: (u64, u64),
    registry: Registry,
    marks: Vec<Mark>,
}

impl Probe {
    /// Reads every clock and the registry.
    pub fn start() -> Probe {
        let registry = Registry::read();
        let ticks = host::host_ticks();
        let cpu_s = host::process_cpu_s();
        Probe {
            start: Instant::now(),
            ticks,
            registry,
            marks: vec![Mark { t_s: 0.0, cpu_s }],
        }
    }

    /// Seconds since the probe started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Ends the current slice now.
    pub fn mark(&mut self) {
        self.marks.push(Mark {
            t_s: self.elapsed_s(),
            cpu_s: host::process_cpu_s(),
        });
    }

    /// Closes the window (and its last slice) over the ops it ran.
    pub fn finish(mut self, mut ops: Vec<Op>, attempted: u64, failed: u64) -> Window {
        self.mark();
        // An op that completed as the window closed belongs to the last
        // slice.
        let end = self.marks.last_mut().expect("the closing mark");
        let last_op = ops.iter().map(|op| f64::from(op.end_s)).fold(0.0, f64::max);
        end.t_s = end.t_s.max(last_op + 1e-6);
        ops.sort_unstable_by(|a, b| a.end_s.total_cmp(&b.end_s));
        Window {
            ops,
            elapsed_s: self.elapsed_s(),
            steal: host::steal_share(self.ticks, host::host_ticks()),
            registry: Registry::read().since(&self.registry),
            marks: self.marks,
            attempted,
            failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // A tenth (rounded up) off each end: 1 of 5, 2 of 12.
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 3.0, -50.0]), 2.0);
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(trimmed_mean(&twelve), 6.5);
        assert_eq!(trimmed_mean(&[1.0, 4.0]), 2.5);
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn harrell_davis_matches_reference_values() {
        // Symmetric data: every percentile estimate is symmetric too.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((harrell_davis(&v, 50.0) - 5.5).abs() < 1e-9);
        assert!((harrell_davis(&v, 10.0) + harrell_davis(&v, 90.0) - 11.0).abs() < 1e-9);
        // Weights sum to one: a constant sample estimates the constant.
        for n in [2, 7, 100, 100_000] {
            let c = vec![3.25; n];
            for p in [1.0, 50.0, 90.0, 99.0] {
                assert!((harrell_davis(&c, p) - 3.25).abs() < 1e-9, "n={n} p={p}");
            }
        }
        // Two separated clusters of equal size: the median estimate sits
        // between them, and moving one cluster's extreme shifts it far
        // less than it shifts the interpolated median.
        let mut gap: Vec<f64> = (0..40).map(|i| 100.0 + f64::from(i % 5)).collect();
        gap.extend((0..40).map(|i| 200.0 + f64::from(i % 5)));
        gap.sort_by(f64::total_cmp);
        let (hd, linear) = (harrell_davis(&gap, 50.0), percentile(&gap, 50.0));
        assert!(hd > 104.0 && hd < 200.0);
        gap[39] = 150.0;
        gap.sort_by(f64::total_cmp);
        let hd_shift = harrell_davis(&gap, 50.0) - hd;
        let linear_shift = percentile(&gap, 50.0) - linear;
        assert!(hd_shift > 0.0 && hd_shift < linear_shift / 4.0);
        assert!((incomplete_beta(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
        assert!((ln_gamma(10.0) - 362_880f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn timings_are_trimmed_means_over_slices() {
        let mut probe = Probe::start();
        let mut ops = Vec::new();
        // Five slices of ten ops; the third is ten times slower.
        for slice in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let latency_ms = if slice == 2 { 10.0 } else { 1.0 };
            let end_s = probe.elapsed_s();
            ops.extend((0..10).map(|_| Op::new(end_s, latency_ms)));
            probe.mark();
        }
        let w = probe.finish(ops, 50, 0);
        assert_eq!(w.ops(), 50);
        assert_eq!(w.latency_ms(50.0), 1.0);
        assert_eq!(w.latency_ms(99.0), 1.0);
        assert!(w.throughput() > 0.0);
        assert!(w.cpu_ms_per_op() >= 0.0);
        assert_eq!(Window::default().throughput(), 0.0);
    }

    #[test]
    fn registry_deltas() {
        let before = Registry::read();
        obs::counter!("perfbench.test.delta").add(3);
        let delta = Registry::read().since(&before);
        assert_eq!(delta.counter("perfbench.test.delta"), 3);
        assert_eq!(delta.counter("perfbench.test.never"), 0);
    }
}
