//! Property-based tests of the sparse solver and the thermal model.

use proptest::prelude::*;
use tac25d_floorplan::prelude::*;
use tac25d_thermal::coupled::{solve_coupled, solve_coupled_direct, AffineSource, CoupledOptions};
use tac25d_thermal::model::{PackageModel, ThermalConfig, ThermalError};
use tac25d_thermal::sparse::{pcg, TripletMatrix};

fn tiny_config() -> ThermalConfig {
    ThermalConfig {
        grid: 12,
        ..ThermalConfig::default()
    }
}

fn die() -> Rect {
    Rect::from_corner(0.0, 0.0, 18.0, 18.0)
}

/// `watts · (1 + slope · (T − 45))` over `rect`.
fn leaky(rect: Rect, watts: f64, slope: f64) -> AffineSource {
    AffineSource {
        rect,
        p0: watts * (1.0 - slope * 45.0),
        dp_dt: watts * slope,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// PCG solves random grounded resistor networks to the requested
    /// tolerance (verified against the residual definition itself).
    #[test]
    fn pcg_meets_tolerance_on_random_networks(
        n in 3usize..40,
        seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut rng = move || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((state >> 33) as f64) / f64::from(u32::MAX)
        };
        let mut t = TripletMatrix::new(n);
        // Random spanning chain keeps the network connected.
        for i in 0..n - 1 {
            t.add_conductance(i, i + 1, 0.1 + rng());
        }
        // Extra random edges.
        for _ in 0..n {
            let a = (rng() * n as f64) as usize % n;
            let b = (rng() * n as f64) as usize % n;
            if a != b {
                t.add_conductance(a, b, rng());
            }
        }
        t.add_ground(0, 1.0 + rng());
        let a = t.to_csr();
        let b_vec: Vec<f64> = (0..n).map(|_| rng() * 10.0).collect();
        let sol = pcg(&a, &b_vec, 1e-10, 20_000).unwrap();
        // Verify the residual independently.
        let mut ax = vec![0.0; n];
        a.mul_vec(&sol.x, &mut ax);
        let res: f64 = ax.iter().zip(&b_vec).map(|(l, r)| (l - r) * (l - r)).sum::<f64>().sqrt();
        let bn: f64 = b_vec.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(res <= 1e-9 * bn.max(1.0), "residual {res}");
    }

    /// Superposition: the temperature *rise* of the sum of two power maps
    /// equals the sum of the rises (the network is linear).
    #[test]
    fn thermal_superposition(
        w1 in 1.0..200.0f64,
        w2 in 1.0..200.0f64,
        x in 0.0..12.0f64,
        y in 0.0..12.0f64,
    ) {
        let chip = ChipSpec::scc_256();
        let rules = PackageRules::default();
        let model = PackageModel::new(
            &chip,
            &ChipletLayout::SingleChip,
            &rules,
            &StackSpec::baseline_2d(),
            tiny_config(),
        )
        .unwrap();
        let amb = 45.0;
        let r1 = Rect::from_corner(0.0, 0.0, 18.0, 18.0);
        let r2 = Rect::from_corner(x, y, 4.0, 4.0);
        let probe = Rect::from_corner(8.0, 8.0, 2.0, 2.0);
        let t1 = model.solve(&[(r1, w1)]).unwrap().rect_avg(&probe).value() - amb;
        let t2 = model.solve(&[(r2, w2)]).unwrap().rect_avg(&probe).value() - amb;
        let t12 = model
            .solve(&[(r1, w1), (r2, w2)])
            .unwrap()
            .rect_avg(&probe)
            .value()
            - amb;
        prop_assert!(
            (t12 - (t1 + t2)).abs() < 1e-4 * (t1 + t2).abs().max(1.0),
            "superposition violated: {t12} vs {t1} + {t2}"
        );
    }

    /// Energy balance closes for arbitrary source sets.
    #[test]
    fn energy_balance_random_sources(
        xs in prop::collection::vec((0.0..14.0f64, 0.0..14.0f64, 0.5..4.0f64, 1.0..50.0f64), 1..5),
    ) {
        let chip = ChipSpec::scc_256();
        let rules = PackageRules::default();
        let model = PackageModel::new(
            &chip,
            &ChipletLayout::SingleChip,
            &rules,
            &StackSpec::baseline_2d(),
            tiny_config(),
        )
        .unwrap();
        let sources: Vec<(Rect, f64)> = xs
            .iter()
            .map(|&(x, y, s, w)| (Rect::from_corner(x, y, s, s), w))
            .collect();
        let sol = model.solve(&sources).unwrap();
        prop_assert!(sol.energy_balance_error() < 1e-6, "{}", sol.energy_balance_error());
    }

    /// The one PCG solve of the leakage-coupled operator lands on the
    /// exact (Cholesky) solution of the same system over random
    /// contractive feedbacks and source shapes.
    #[test]
    fn coupled_solve_matches_direct_oracle(
        base_w in 80.0..220.0f64,
        feedback in 0.004..0.014f64,
        hot_x in 0.0..12.0f64,
        hot_w in 0.0..40.0f64,
    ) {
        let model = PackageModel::new(
            &ChipSpec::scc_256(),
            &ChipletLayout::SingleChip,
            &PackageRules::default(),
            &StackSpec::baseline_2d(),
            ThermalConfig {
                rel_tol: 1e-11,
                ..tiny_config()
            },
        )
        .unwrap();
        let sources = [
            leaky(die(), base_w, feedback),
            leaky(Rect::from_corner(hot_x, 3.0, 6.0, 6.0), hot_w, 2.0 * feedback),
        ];
        let opts = CoupledOptions::default();
        let pcg = solve_coupled(&model, &sources, &opts).unwrap();
        let direct = solve_coupled_direct(&model, &sources, &opts).unwrap();
        let max_dt = pcg
            .raw_temps()
            .iter()
            .zip(direct.raw_temps())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        prop_assert!(max_dt <= 1e-6, "max |dT| = {max_dt:.3e}");
        prop_assert!(pcg.energy_balance_error() < 1e-6);
    }

    /// Past the critical feedback (`β·vᵀG⁻¹v = 1`) the coupled operator
    /// is indefinite: both the PCG solve and the direct oracle report
    /// runaway, never a field. Below it the steady state exists and stays
    /// at or above ambient everywhere.
    #[test]
    fn feedback_past_definiteness_is_runaway(u in 0.0..1.0f64) {
        // Half the cases in 0.2..0.95 of the critical slope, half in
        // 1.02..4.0.
        let factor = if u < 0.5 { 0.2 + 1.5 * u } else { 1.02 + 5.96 * (u - 0.5) };
        let model = PackageModel::new(
            &ChipSpec::scc_256(),
            &ChipletLayout::SingleChip,
            &PackageRules::default(),
            &StackSpec::baseline_2d(),
            tiny_config(),
        )
        .unwrap();
        let base = 100.0;
        let unit = model.solve(&[(die(), 1.0)]).unwrap();
        let critical = 1.0 / ((unit.rect_avg(&die()).value() - 45.0) * base);
        let sources = [leaky(die(), base, factor * critical)];
        let opts = CoupledOptions {
            runaway: Celsius(f64::INFINITY),
            ..CoupledOptions::default()
        };
        let pcg = solve_coupled(&model, &sources, &opts);
        let direct = solve_coupled_direct(&model, &sources, &opts);
        if factor > 1.0 {
            prop_assert!(matches!(pcg, Err(ThermalError::Runaway { .. })), "{pcg:?}");
            prop_assert!(matches!(direct, Err(ThermalError::Runaway { .. })), "{direct:?}");
        } else {
            let field = pcg.unwrap();
            let coolest = field.raw_temps().iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert!(coolest >= 45.0 - 1e-6, "coolest node {coolest}");
            prop_assert!(direct.is_ok());
        }
    }

    /// Peak temperature is monotone in total power for fixed shape.
    #[test]
    fn peak_monotone_in_power(w in 10.0..400.0f64, dw in 1.0..100.0f64) {
        let chip = ChipSpec::scc_256();
        let rules = PackageRules::default();
        let model = PackageModel::new(
            &chip,
            &ChipletLayout::SingleChip,
            &rules,
            &StackSpec::baseline_2d(),
            tiny_config(),
        )
        .unwrap();
        let die = Rect::from_corner(0.0, 0.0, 18.0, 18.0);
        let p1 = model.solve(&[(die, w)]).unwrap().peak();
        let p2 = model.solve(&[(die, w + dw)]).unwrap().peak();
        prop_assert!(p2 > p1);
    }
}
