//! Closed-form analytic placement stage: a differentiable peak-temperature
//! proxy over the *continuous* spacing parameters of the 16-chiplet
//! organization, with exact analytic gradients and a projected-gradient
//! descender.
//!
//! The exact coupled solver and the tier-1 kernel surrogate both operate
//! on the 0.5 mm spacing lattice; neither exposes a gradient, so the
//! multi-start greedy explores blindly. This module trades fidelity for
//! differentiability: each chiplet's power footprint is modelled as a
//! uniform square source under a Gaussian point-spread of width `σ`
//! (the package's lateral heat-spreading length), whose superposed
//! temperature rise has a closed form in products of error functions —
//! the classic Gaussian-integral kernel of analytical thermal placers.
//! Peak temperature is smoothed with a log-sum-exp over the chiplet-center
//! probes so the objective is C^∞ everywhere, and the paper's fixed-edge
//! manifold constraint `2·s1 + s3 = const` (Eq. 9) is eliminated by
//! substitution: the descent runs over `(s1, s2)` alone with `s3` implied,
//! and Eq. (10) reduces to the box `0 ≤ s1, s2 ≤ free/2` handled by
//! projection.
//!
//! The proxy is *only* a seeding heuristic: its minima are snapped to the
//! search lattice and handed to the screened greedy as start points. No
//! feasibility claim ever rests on it, so its absolute calibration is
//! deliberately loose — what matters is that its basins coincide with the
//! exact solver's cool placements, which `verify seed` checks end-to-end
//! (decision equality) and the proptests check locally (gradient
//! consistency).
//!
//! Everything here is deterministic: restarts come from a fixed fractional
//! grid of the box, not an RNG, so two runs with the same inputs produce
//! bit-identical seeds on every platform with IEEE-754 doubles.
//!
//! The 16 chiplet centres sit on six axis positions, shared by x and y,
//! so each evaluation tabulates the footprint integral and its derivative
//! over the 36 position differences once and the (probe, source) loop
//! reads the tables ([`Manifold16::objective_grad`]). Each entry is the
//! per-pair value of the same two doubles, so the tabulation changes no
//! bit; the per-pair loop is kept as the test oracle.

/// Error function, evaluated via the cancellation-free confluent
/// hypergeometric series `erf(x) = 2x/√π · e^{−x²} · Σ (2x²)^n/(2n+1)!!`
/// (all terms positive), accurate to ~1 ulp over the range the kernel
/// uses. Saturates to ±1 beyond |x| ≥ 6 where 1 − |erf| < 1e-16.
#[must_use]
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let ax = x.abs();
    if ax >= 6.0 {
        return x.signum();
    }
    let z = ax * ax;
    let mut term = ax;
    let mut sum = ax;
    let mut n = 0u32;
    while n < 300 {
        n += 1;
        term *= 2.0 * z / (2.0 * f64::from(n) + 1.0);
        let next = sum + term;
        if next == sum {
            break;
        }
        sum = next;
    }
    let val = core::f64::consts::FRAC_2_SQRT_PI * (-z).exp() * sum;
    val.copysign(x)
}

/// Exact derivative of [`erf`]: `2/√π · e^{−x²}`.
#[must_use]
pub fn derf(x: f64) -> f64 {
    core::f64::consts::FRAC_2_SQRT_PI * (-x * x).exp()
}

/// Tunables of the analytic proxy and its descender. Defaults are loose
/// physical calibrations for the paper's package (silicon interposer
/// under a copper spreader): they only need to reproduce the *shape* of
/// the exact landscape, not its values.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticConfig {
    /// Lateral heat-spreading length of the package stack, mm.
    pub sigma_mm: f64,
    /// Peak self-rise per watt of a chiplet footprint, °C/W.
    pub rise_per_watt: f64,
    /// Uniform far-field rise per total watt, °C/W (a spacing-independent
    /// offset that keeps the proxy temperature-like; no gradient).
    pub background_per_watt: f64,
    /// Log-sum-exp smoothing temperature for the peak, °C. Smaller is
    /// sharper (closer to a hard max) but less smooth.
    pub smooth_max_c: f64,
    /// Maximum projected-gradient iterations per restart.
    pub max_iters: usize,
    /// Convergence threshold on the projected step length, mm.
    pub step_tol_mm: f64,
}

impl Default for AnalyticConfig {
    fn default() -> Self {
        AnalyticConfig {
            sigma_mm: 3.0,
            rise_per_watt: 0.3,
            background_per_watt: 0.02,
            smooth_max_c: 0.75,
            max_iters: 60,
            step_tol_mm: 1e-4,
        }
    }
}

/// The fixed-edge 16-chiplet spacing manifold: chiplet geometry plus the
/// per-chiplet power map, everything the proxy needs to place sources.
///
/// Coordinates follow `ChipletLayout::chiplet_rects`: row-major over the
/// 4×4 grid, chiplet 0 at the lower-left, outer-ring chiplets on the
/// `[s1, s3, s1]` grid and the four centre chiplets at `±s2` around the
/// interposer centre lines, with `s3 = free − 2·s1` implied.
#[derive(Debug, Clone)]
pub struct Manifold16 {
    /// Chiplet edge length, mm.
    pub wc: f64,
    /// Interposer guard band, mm.
    pub guard: f64,
    /// The manifold constant `2·s1 + s3`, mm (edge − 4·wc − 2·guard).
    pub free: f64,
    /// Dissipated power per chiplet, watts, in `chiplet_rects` order.
    pub watts: [f64; 16],
}

/// One continuous optimum found by [`Manifold16::descend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticOptimum {
    /// Outer-ring spacing, mm.
    pub s1_mm: f64,
    /// Centre-chiplet offset, mm.
    pub s2_mm: f64,
    /// Smoothed peak-rise proxy at the optimum, °C.
    pub peak_proxy_c: f64,
}

/// Result of a full multi-restart descent.
#[derive(Debug, Clone)]
pub struct DescentOutcome {
    /// Local optima, ascending by proxy value (coolest first), one per
    /// restart (duplicates are not removed — snapping dedupes).
    pub optima: Vec<AnalyticOptimum>,
    /// Objective+gradient evaluations spent across all restarts.
    pub grad_evals: usize,
}

/// Deterministic restart pattern, as fractions of the `[0, free/2]` box:
/// the box centre, its four quadrant midpoints, and the near-origin
/// corner (the greedy's historic bias towards small spacings).
const RESTART_FRACTIONS: [(f64, f64); 6] = [
    (0.5, 0.5),
    (0.25, 0.25),
    (0.75, 0.75),
    (0.25, 0.75),
    (0.75, 0.25),
    (0.05, 0.05),
];

/// The six axis positions of the chiplet centres, as `axis_center`
/// arguments: outer grid positions 0..4, then the centre block's grid
/// positions 1 and 2. The same six serve x and y.
const AXIS_SLOTS: [(usize, bool); 6] = [
    (0, false),
    (1, false),
    (2, false),
    (3, false),
    (1, true),
    (2, true),
];

/// Each chiplet's `(x, y)` index into [`AXIS_SLOTS`], in `chiplet_rects`
/// order (the same row-major walk as `Manifold16::centers`).
fn chiplet_slots() -> [(usize, usize); 16] {
    core::array::from_fn(|k| {
        let (row, col) = (k / 4, k % 4);
        let inner = (1..=2).contains(&row) && (1..=2).contains(&col);
        let slot = |idx: usize| if inner { idx + 3 } else { idx };
        (slot(col), slot(row))
    })
}

/// The one-axis footprint integral `F` of a chiplet source and its
/// derivative `F'`, at half-width `h` and Gaussian scale `s = σ√2`.
struct Footprint {
    h: f64,
    s: f64,
}

impl Footprint {
    fn new(m: &Manifold16, cfg: &AnalyticConfig) -> Self {
        Footprint {
            h: m.wc / 2.0,
            s: cfg.sigma_mm * core::f64::consts::SQRT_2,
        }
    }

    fn f(&self, d: f64) -> f64 {
        (erf((d + self.h) / self.s) - erf((d - self.h) / self.s)) / 2.0
    }

    fn df(&self, d: f64) -> f64 {
        (derf((d + self.h) / self.s) - derf((d - self.h) / self.s)) / (2.0 * self.s)
    }
}

/// Log-sum-exp smooth max of the probe rises `t` (shifted by the hard max
/// for stability) and its gradient from the per-probe gradients.
fn smooth_max(
    cfg: &AnalyticConfig,
    t: &[f64; 16],
    g1: &[f64; 16],
    g2: &[f64; 16],
) -> (f64, f64, f64) {
    let tau = cfg.smooth_max_c;
    let m = t.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let mut z = 0.0;
    let mut zg1 = 0.0;
    let mut zg2 = 0.0;
    for p in 0..16 {
        let e = ((t[p] - m) / tau).exp();
        z += e;
        zg1 += e * g1[p];
        zg2 += e * g2[p];
    }
    (m + tau * (z / 16.0).ln(), zg1 / z, zg2 / z)
}

impl Manifold16 {
    /// Upper bound of both box coordinates: `s1 ≤ free/2` keeps `s3 ≥ 0`
    /// and `s2 ≤ free/2` is exactly Eq. (10) on the fixed-edge manifold.
    #[must_use]
    pub fn half_free(&self) -> f64 {
        (self.free / 2.0).max(0.0)
    }

    /// Projects a point onto the feasible box — the manifold constraint
    /// itself is enforced by construction (`s3` is never a free
    /// variable), so projection is a clamp.
    #[must_use]
    pub fn project(&self, s1: f64, s2: f64) -> (f64, f64) {
        let hi = self.half_free();
        (s1.clamp(0.0, hi), s2.clamp(0.0, hi))
    }

    /// Chiplet-centre coordinates along one axis for grid position
    /// `idx ∈ 0..4`, plus the derivatives ∂/∂s1 and ∂/∂s2. `inner` marks
    /// the centre-block cells (grid positions 1 and 2 of an inner
    /// row/column).
    fn axis_center(&self, idx: usize, inner: bool, s1: f64, s2: f64) -> (f64, f64, f64) {
        let half = self.wc / 2.0;
        let lg = self.guard;
        let wc = self.wc;
        if inner {
            // Centre of the interposer: edge/2 = lg + 2·wc + free/2.
            let c = lg + 2.0 * wc + self.free / 2.0;
            match idx {
                1 => (c - s2 - half, 0.0, -1.0),
                2 => (c + s2 + half, 0.0, 1.0),
                _ => unreachable!("inner cells sit at grid positions 1 and 2"),
            }
        } else {
            match idx {
                0 => (lg + half, 0.0, 0.0),
                1 => (lg + wc + s1 + half, 1.0, 0.0),
                // s3 = free − 2·s1 makes this lg + 2wc + free − s1 + half.
                2 => (lg + 2.0 * wc + self.free - s1 + half, -1.0, 0.0),
                3 => (lg + 3.0 * wc + self.free + half, 0.0, 0.0),
                _ => unreachable!("grid positions are 0..4"),
            }
        }
    }

    /// All 16 chiplet centres and their position Jacobians at `(s1, s2)`:
    /// `(x, dx/ds1, dx/ds2, y, dy/ds1, dy/ds2)` in `chiplet_rects` order.
    fn centers(&self, s1: f64, s2: f64) -> [(f64, f64, f64, f64, f64, f64); 16] {
        let mut out = [(0.0, 0.0, 0.0, 0.0, 0.0, 0.0); 16];
        for row in 0..4 {
            for col in 0..4 {
                let inner = (1..=2).contains(&row) && (1..=2).contains(&col);
                let (x, dx1, dx2) = self.axis_center(col, inner, s1, s2);
                let (y, dy1, dy2) = self.axis_center(row, inner, s1, s2);
                out[row * 4 + col] = (x, dx1, dx2, y, dy1, dy2);
            }
        }
        out
    }

    /// The smoothed peak-rise proxy and its exact gradient at `(s1, s2)`.
    ///
    /// Rise at probe `p` from source `j` is the Gaussian-integral kernel
    /// `w_j·A·F(px−cx_j)·F(py−cy_j)` with
    /// `F(d) = (erf((d+h)/σ√2) − erf((d−h)/σ√2))/2` (`h` = half the
    /// chiplet edge), probes at the 16 chiplet centres, and the peak is
    /// `τ·ln Σ_p exp(T_p/τ)`. Both probes and sources move with the
    /// spacing parameters, so the gradient carries both terms.
    ///
    /// The centres sit on six axis positions, the same six on x and y, so
    /// every `px − cx` and `py − cy` is one of 36 differences. `F` and
    /// `F'` are tabulated over them once per call: 72 `erf` and 72 `exp`
    /// calls instead of 1,024 of each. Each table entry is computed from
    /// the same difference of the same centre coordinates as the per-pair
    /// evaluation, and the (probe, source) loop keeps its operands and
    /// summation order, so the result is bitwise the same.
    #[must_use]
    pub fn objective_grad(&self, cfg: &AnalyticConfig, s1: f64, s2: f64) -> (f64, f64, f64) {
        let c = self.centers(s1, s2);
        let fp = Footprint::new(self, cfg);
        let pos = AXIS_SLOTS.map(|(idx, inner)| self.axis_center(idx, inner, s1, s2).0);
        let mut f = [[0.0f64; 6]; 6];
        let mut df = [[0.0f64; 6]; 6];
        for (a, &pa) in pos.iter().enumerate() {
            for (b, &pb) in pos.iter().enumerate() {
                let d = pa - pb;
                f[a][b] = fp.f(d);
                df[a][b] = fp.df(d);
            }
        }
        let slots = chiplet_slots();
        let base = self.background(cfg);
        let amp = cfg.rise_per_watt;
        // Per-probe rise and its gradient.
        let mut t = [0.0f64; 16];
        let mut g1 = [0.0f64; 16];
        let mut g2 = [0.0f64; 16];
        for (p, probe) in c.iter().enumerate() {
            let (_, px1, px2, _, py1, py2) = *probe;
            let (sx, sy) = slots[p];
            let mut acc = base;
            let (mut a1, mut a2) = (0.0, 0.0);
            for (j, src) in c.iter().enumerate() {
                let (_, cx1, cx2, _, cy1, cy2) = *src;
                let (jx, jy) = slots[j];
                let (fx, fy) = (f[sx][jx], f[sy][jy]);
                let w = self.watts[j] * amp;
                acc += w * fx * fy;
                let dfx = df[sx][jx];
                let dfy = df[sy][jy];
                a1 += w * (dfx * (px1 - cx1) * fy + fx * dfy * (py1 - cy1));
                a2 += w * (dfx * (px2 - cx2) * fy + fx * dfy * (py2 - cy2));
            }
            t[p] = acc;
            g1[p] = a1;
            g2[p] = a2;
        }
        smooth_max(cfg, &t, &g1, &g2)
    }

    /// [`Manifold16::objective_grad`] evaluated pair by pair: `F` and `F'`
    /// of every (probe, source) offset computed afresh. Kept as the
    /// bit-identity oracle of the tabulated path.
    #[cfg(test)]
    fn objective_grad_per_pair(&self, cfg: &AnalyticConfig, s1: f64, s2: f64) -> (f64, f64, f64) {
        let c = self.centers(s1, s2);
        let fp = Footprint::new(self, cfg);
        let base = self.background(cfg);
        let amp = cfg.rise_per_watt;
        let mut t = [0.0f64; 16];
        let mut g1 = [0.0f64; 16];
        let mut g2 = [0.0f64; 16];
        for (p, probe) in c.iter().enumerate() {
            let (px, px1, px2, py, py1, py2) = *probe;
            let mut acc = base;
            let (mut a1, mut a2) = (0.0, 0.0);
            for (j, src) in c.iter().enumerate() {
                let (cx, cx1, cx2, cy, cy1, cy2) = *src;
                let (dx, dy) = (px - cx, py - cy);
                let (fx, fy) = (fp.f(dx), fp.f(dy));
                let w = self.watts[j] * amp;
                acc += w * fx * fy;
                let dfx = fp.df(dx);
                let dfy = fp.df(dy);
                a1 += w * (dfx * (px1 - cx1) * fy + fx * dfy * (py1 - cy1));
                a2 += w * (dfx * (px2 - cx2) * fy + fx * dfy * (py2 - cy2));
            }
            t[p] = acc;
            g1[p] = a1;
            g2[p] = a2;
        }
        smooth_max(cfg, &t, &g1, &g2)
    }

    /// The spacing-independent far-field offset every probe starts from.
    fn background(&self, cfg: &AnalyticConfig) -> f64 {
        let total: f64 = self.watts.iter().sum();
        cfg.background_per_watt * total
    }

    /// Multi-restart projected-gradient descent over the box. Fully
    /// deterministic: fixed restart pattern, fixed backtracking schedule.
    #[must_use]
    pub fn descend(&self, cfg: &AnalyticConfig) -> DescentOutcome {
        let hi = self.half_free();
        let mut optima = Vec::with_capacity(RESTART_FRACTIONS.len());
        let mut grad_evals = 0usize;
        for &(f1, f2) in &RESTART_FRACTIONS {
            let (mut x1, mut x2) = (f1 * hi, f2 * hi);
            let (mut val, mut d1, mut d2) = self.objective_grad(cfg, x1, x2);
            grad_evals += 1;
            // Initial step sized to the box so the first probe is a
            // meaningful fraction of the search range.
            let mut step = (hi / 4.0).max(cfg.step_tol_mm);
            for _ in 0..cfg.max_iters {
                let gnorm = d1.hypot(d2);
                if gnorm * step < 1e-12 {
                    break;
                }
                // Backtracking: shrink until the projected step improves.
                let mut accepted = false;
                for _ in 0..25 {
                    let (n1, n2) = self.project(x1 - step * d1, x2 - step * d2);
                    let moved = (n1 - x1).hypot(n2 - x2);
                    if moved < cfg.step_tol_mm {
                        break;
                    }
                    let (nval, nd1, nd2) = self.objective_grad(cfg, n1, n2);
                    grad_evals += 1;
                    if nval < val - 1e-10 {
                        x1 = n1;
                        x2 = n2;
                        val = nval;
                        d1 = nd1;
                        d2 = nd2;
                        step = (step * 1.5).min(hi.max(cfg.step_tol_mm));
                        accepted = true;
                        break;
                    }
                    step *= 0.5;
                }
                if !accepted {
                    break;
                }
            }
            optima.push(AnalyticOptimum {
                s1_mm: x1,
                s2_mm: x2,
                peak_proxy_c: val,
            });
        }
        optima.sort_by(|a, b| {
            a.peak_proxy_c
                .partial_cmp(&b.peak_proxy_c)
                .expect("proxy values are finite")
                .then(a.s1_mm.partial_cmp(&b.s1_mm).expect("finite"))
                .then(a.s2_mm.partial_cmp(&b.s2_mm).expect("finite"))
        });
        DescentOutcome { optima, grad_evals }
    }
}

/// Snaps continuous optima to the spacing lattice, deduplicating while
/// preserving order (coolest proxy first), clamped to the same bounds the
/// greedy searches. Returns at most `k` distinct `(s1_units, s2_units)`
/// lattice coordinates.
#[must_use]
pub fn snap_to_lattice(
    optima: &[AnalyticOptimum],
    step_mm: f64,
    s1_max_units: i64,
    s2_max_units: i64,
    k: usize,
) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = Vec::with_capacity(k);
    for o in optima {
        let pt = (
            ((o.s1_mm / step_mm).round() as i64).clamp(0, s1_max_units),
            ((o.s2_mm / step_mm).round() as i64).clamp(0, s2_max_units),
        );
        if !out.contains(&pt) {
            out.push(pt);
            if out.len() == k {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifold(free: f64, watts: [f64; 16]) -> Manifold16 {
        Manifold16 {
            wc: 4.5,
            guard: 1.0,
            free,
            watts,
        }
    }

    fn uniform_watts(w: f64) -> [f64; 16] {
        [w; 16]
    }

    #[test]
    fn erf_matches_known_values() {
        // Abramowitz & Stegun table values.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.520_499_877_8),
            (1.0, 0.842_700_792_9),
            (2.0, 0.995_322_265_0),
            (3.0, 0.999_977_909_5),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-9, "erf({x})");
            assert!((erf(-x) + want).abs() < 1e-9, "erf(-{x})");
        }
        assert_eq!(erf(7.0), 1.0);
        assert_eq!(erf(-7.0), -1.0);
    }

    /// SplitMix64 mapped to `[0, 1)`: a seeded stream for the oracle
    /// corpus without an RNG dependency.
    fn unit_stream(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn assert_tabulated_is_per_pair(m: &Manifold16, cfg: &AnalyticConfig, s1: f64, s2: f64) {
        let (v, d1, d2) = m.objective_grad(cfg, s1, s2);
        let (ov, od1, od2) = m.objective_grad_per_pair(cfg, s1, s2);
        let case = format!("free {} at ({s1}, {s2}), watts {:?}", m.free, m.watts);
        assert_eq!(v.to_bits(), ov.to_bits(), "value, {case}");
        assert_eq!(d1.to_bits(), od1.to_bits(), "d/ds1, {case}");
        assert_eq!(d2.to_bits(), od2.to_bits(), "d/ds2, {case}");
    }

    #[test]
    fn tabulated_objective_is_bitwise_the_per_pair_oracle() {
        let cfg = AnalyticConfig::default();
        let mut u = unit_stream(0x7AC2_5D00);
        for _ in 0..600 {
            let free = 18.0 * u();
            let watts: [f64; 16] = core::array::from_fn(|_| 5.0 + 20.0 * u());
            let m = manifold(free, watts);
            let hi = m.half_free();
            assert_tabulated_is_per_pair(&m, &cfg, hi * u(), hi * u());
            assert_tabulated_is_per_pair(&m, &cfg, 0.0, 0.0);
            assert_tabulated_is_per_pair(&m, &cfg, hi, hi);
        }
        let m = manifold(0.0, uniform_watts(10.0));
        assert_tabulated_is_per_pair(&m, &cfg, 0.0, 0.0);
    }

    #[test]
    fn gradient_matches_central_differences() {
        let m = manifold(
            12.0,
            [
                10.0, 12.0, 9.0, 11.0, 13.0, 18.0, 17.0, 12.0, 11.0, 16.0, 19.0, 10.0, 9.0, 12.0,
                11.0, 10.0,
            ],
        );
        let cfg = AnalyticConfig::default();
        let h = 1e-5;
        for &(s1, s2) in &[(1.0, 2.0), (3.0, 3.0), (5.5, 0.5), (0.2, 5.8)] {
            let (_, g1, g2) = m.objective_grad(&cfg, s1, s2);
            let fd1 = (m.objective_grad(&cfg, s1 + h, s2).0 - m.objective_grad(&cfg, s1 - h, s2).0)
                / (2.0 * h);
            let fd2 = (m.objective_grad(&cfg, s1, s2 + h).0 - m.objective_grad(&cfg, s1, s2 - h).0)
                / (2.0 * h);
            let scale = g1.abs().max(fd1.abs()).max(1e-8);
            assert!(
                (g1 - fd1).abs() / scale < 1e-5,
                "ds1 at ({s1},{s2}): {g1} vs {fd1}"
            );
            let scale = g2.abs().max(fd2.abs()).max(1e-8);
            assert!(
                (g2 - fd2).abs() / scale < 1e-5,
                "ds2 at ({s1},{s2}): {g2} vs {fd2}"
            );
        }
    }

    #[test]
    fn uniform_power_optimum_spreads_the_centre() {
        // With equal power everywhere the coolest layout separates the
        // centre chiplets from each other and from the ring: the optimum
        // should not collapse to s2 = 0.
        let m = manifold(12.0, uniform_watts(14.0));
        let out = m.descend(&AnalyticConfig::default());
        let best = out.optima.first().expect("descent returns optima");
        assert!(best.s2_mm > 0.5, "uniform optimum at s2 = {}", best.s2_mm);
        assert!(out.grad_evals > 0);
    }

    #[test]
    fn descent_is_deterministic() {
        let m = manifold(9.5, uniform_watts(12.0));
        let cfg = AnalyticConfig::default();
        let a = m.descend(&cfg);
        let b = m.descend(&cfg);
        assert_eq!(a.grad_evals, b.grad_evals);
        assert_eq!(a.optima, b.optima);
    }

    #[test]
    fn iterates_stay_in_the_box_and_on_the_manifold() {
        let m = manifold(7.0, uniform_watts(15.0));
        let out = m.descend(&AnalyticConfig::default());
        for o in &out.optima {
            assert!(o.s1_mm >= 0.0 && o.s1_mm <= m.half_free() + 1e-12);
            assert!(o.s2_mm >= 0.0 && o.s2_mm <= m.half_free() + 1e-12);
            // Reconstructing s3 from the manifold constant keeps Eq. (10).
            let s3 = m.free - 2.0 * o.s1_mm;
            assert!(2.0 * o.s1_mm + s3 - 2.0 * o.s2_mm >= -1e-9);
        }
    }

    #[test]
    fn snap_dedupes_and_clamps() {
        let optima = [
            AnalyticOptimum {
                s1_mm: 1.24,
                s2_mm: 2.26,
                peak_proxy_c: 10.0,
            },
            AnalyticOptimum {
                s1_mm: 1.26,
                s2_mm: 2.24,
                peak_proxy_c: 10.1,
            },
            AnalyticOptimum {
                s1_mm: 99.0,
                s2_mm: -3.0,
                peak_proxy_c: 10.2,
            },
        ];
        let pts = snap_to_lattice(&optima, 0.5, 6, 6, 4);
        assert_eq!(pts, vec![(2, 5), (3, 4), (6, 0)]);
    }

    #[test]
    fn zero_free_manifold_degenerates_gracefully() {
        let m = manifold(0.0, uniform_watts(10.0));
        let out = m.descend(&AnalyticConfig::default());
        assert!(out.optima.iter().all(|o| o.s1_mm == 0.0 && o.s2_mm == 0.0));
    }
}
