//! Transient thermal simulation (backward Euler over the RC network).
//!
//! The paper's evaluation is steady-state, but its related-work discussion
//! contrasts against *computational sprinting* — deliberately exceeding the
//! steady-state power budget for short bursts. Transient simulation makes
//! that comparison quantitative: a package with more thermal capacitance
//! and better spreading sustains a sprint longer before crossing the
//! threshold.
//!
//! Discretization: implicit (backward) Euler,
//! `(G + C/Δt)·T(t+Δt) = q + C/Δt·T(t) + G_amb·T_amb`. The iteration
//! matrix is SPD whenever the steady-state matrix is, so the same PCG
//! solver applies; each step warm-starts from the previous temperatures.

use crate::model::{PackageModel, ThermalError, ThermalSolution};
use crate::sparse::{pcg_with, Jacobi, SolveScratch};
use tac25d_floorplan::geometry::Rect;
use tac25d_floorplan::units::Celsius;

/// One recorded step of a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSample {
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Peak die temperature at this time.
    pub peak: Celsius,
}

/// The result of a transient simulation.
#[derive(Debug, Clone)]
pub struct TransientTrace {
    /// Peak-temperature samples, one per step (after the step).
    pub samples: Vec<TransientSample>,
    /// The full temperature field at the end of the run.
    pub final_solution: ThermalSolution,
}

impl TransientTrace {
    /// The first time the peak temperature reaches `threshold`, if it does
    /// (linear interpolation between steps).
    pub fn time_to_reach(&self, threshold: Celsius) -> Option<f64> {
        let mut prev: Option<&TransientSample> = None;
        for s in &self.samples {
            if s.peak >= threshold {
                return Some(match prev {
                    None => s.time_s,
                    Some(p) => {
                        let frac = (threshold.value() - p.peak.value())
                            / (s.peak.value() - p.peak.value()).max(1e-12);
                        p.time_s + frac * (s.time_s - p.time_s)
                    }
                });
            }
            prev = Some(s);
        }
        None
    }
}

impl PackageModel {
    /// Simulates the transient response to a (possibly time-varying) power
    /// map, starting from thermal equilibrium at ambient (or from
    /// `initial` if provided).
    ///
    /// `power_at(step_index, time_s, previous)` supplies the power sources
    /// for each step; `previous` is the temperature field at the start of
    /// the step (`None` on the first step when no initial state was given),
    /// which enables closed-loop controllers (thermal governors, DTM).
    /// `dt_s` is the step size and `steps` the step count.
    ///
    /// # Errors
    ///
    /// Propagates solver failures and invalid power maps, exactly like
    /// [`PackageModel::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not strictly positive or `steps` is zero.
    pub fn simulate_transient<F>(
        &self,
        initial: Option<&ThermalSolution>,
        mut power_at: F,
        dt_s: f64,
        steps: usize,
    ) -> Result<TransientTrace, ThermalError>
    where
        F: FnMut(usize, f64, Option<&ThermalSolution>) -> Vec<(Rect, f64)>,
    {
        assert!(dt_s > 0.0, "time step must be positive, got {dt_s}");
        assert!(steps > 0, "need at least one step");
        let net = self.network();
        let n_nodes = net.nodes;
        let t_amb = self.config().ambient.value();

        // Iteration matrix A = G + C/dt (diagonal augmentation).
        let a = net
            .matrix
            .with_added_diagonal(&net.cap.iter().map(|c| c / dt_s).collect::<Vec<_>>());
        // One Jacobi preconditioner and one scratch serve every step.
        let m = Jacobi::new(&a)?;
        let mut scratch = SolveScratch::new();

        let mut temps: Vec<f64> = match initial {
            Some(s) => {
                assert_eq!(s.raw_temps().len(), n_nodes, "initial state mismatch");
                s.raw_temps().to_vec()
            }
            None => vec![t_amb; n_nodes],
        };
        let mut samples = Vec::with_capacity(steps);
        let mut last: Option<ThermalSolution> =
            initial.map(|s| self.make_solution(s.raw_temps().to_vec(), 0.0, 0));
        for step in 0..steps {
            let time = (step + 1) as f64 * dt_s;
            let sources = power_at(step, step as f64 * dt_s, last.as_ref());
            let (mut b, total_power) = self.rhs_for(&sources)?;
            for i in 0..n_nodes {
                b[i] += net.cap[i] / dt_s * temps[i];
            }
            let sol = pcg_with(
                &a,
                &m,
                &b,
                Some(&temps),
                self.config().rel_tol,
                self.config().max_iter,
                &mut scratch,
            )?;
            temps = sol.x;
            let snapshot = self.make_solution(temps.clone(), total_power, sol.iterations);
            samples.push(TransientSample {
                time_s: time,
                peak: snapshot.peak(),
            });
            last = Some(snapshot);
        }
        Ok(TransientTrace {
            samples,
            final_solution: last.expect("steps > 0"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ThermalConfig;
    use tac25d_floorplan::chip::ChipSpec;
    use tac25d_floorplan::layers::StackSpec;
    use tac25d_floorplan::organization::{ChipletLayout, PackageRules};

    fn model() -> PackageModel {
        PackageModel::new(
            &ChipSpec::scc_256(),
            &ChipletLayout::SingleChip,
            &PackageRules::default(),
            &StackSpec::baseline_2d(),
            ThermalConfig {
                grid: 12,
                ..ThermalConfig::default()
            },
        )
        .unwrap()
    }

    fn die() -> Rect {
        Rect::from_corner(0.0, 0.0, 18.0, 18.0)
    }

    #[test]
    fn transient_approaches_steady_state() {
        let m = model();
        let steady = m.solve(&[(die(), 300.0)]).unwrap().peak().value();
        let trace = m
            .simulate_transient(None, |_, _, _| vec![(die(), 300.0)], 2.0, 400)
            .unwrap();
        let last = trace.samples.last().unwrap().peak.value();
        assert!(
            (last - steady).abs() < 0.5,
            "transient end {last} vs steady {steady}"
        );
    }

    #[test]
    fn step_response_field_converges_to_steady_state() {
        // Step response: not just the peak but the whole temperature field
        // must settle onto the steady-state solution, and the gap must
        // shrink monotonically at the thermal time scale.
        let m = model();
        let steady = m.solve(&[(die(), 250.0)]).unwrap();
        let trace = m
            .simulate_transient(None, |_, _, _| vec![(die(), 250.0)], 5.0, 300)
            .unwrap();
        let max_gap = trace
            .final_solution
            .raw_temps()
            .iter()
            .zip(steady.raw_temps())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_gap < 0.5, "field gap to steady state: {max_gap}");
        // The approach is monotone up to inner-solver noise: each sample's
        // distance to the steady peak is no larger than the previous one's.
        let target = steady.peak().value();
        for w in trace.samples.windows(2) {
            let d0 = (w[0].peak.value() - target).abs();
            let d1 = (w[1].peak.value() - target).abs();
            assert!(d1 <= d0 + 1e-5, "{d1} > {d0}");
        }
    }

    #[test]
    fn smaller_time_steps_stay_below_steady_state() {
        // Backward Euler under-shoots a heating step from below: with half
        // the step the trajectory is resolved finer but still bounded by
        // the steady-state peak.
        let m = model();
        let steady = m.solve(&[(die(), 250.0)]).unwrap().peak().value();
        let coarse = m
            .simulate_transient(None, |_, _, _| vec![(die(), 250.0)], 2.0, 20)
            .unwrap();
        let fine = m
            .simulate_transient(None, |_, _, _| vec![(die(), 250.0)], 1.0, 40)
            .unwrap();
        for s in coarse.samples.iter().chain(&fine.samples) {
            assert!(
                s.peak.value() <= steady + 1e-6,
                "{} > {steady}",
                s.peak.value()
            );
        }
        // Same physical time, finer resolution: the end states agree to
        // the discretization error.
        let end_gap = (coarse.samples.last().unwrap().peak.value()
            - fine.samples.last().unwrap().peak.value())
        .abs();
        assert!(end_gap < 1.0, "dt-refinement gap {end_gap}");
    }

    #[test]
    fn temperature_rises_monotonically_under_constant_power() {
        let m = model();
        let trace = m
            .simulate_transient(None, |_, _, _| vec![(die(), 200.0)], 0.5, 50)
            .unwrap();
        for w in trace.samples.windows(2) {
            assert!(w[1].peak >= w[0].peak, "{:?}", w);
        }
        // And starts near ambient.
        assert!(trace.samples[0].peak.value() < 60.0);
    }

    #[test]
    fn cooling_after_power_off() {
        let m = model();
        let hot = m.solve(&[(die(), 300.0)]).unwrap();
        let trace = m
            .simulate_transient(Some(&hot), |_, _, _| vec![], 1.0, 100)
            .unwrap();
        let last = trace.samples.last().unwrap().peak.value();
        assert!(last < hot.peak().value() - 10.0, "cooled to {last}");
        for w in trace.samples.windows(2) {
            assert!(w[1].peak <= w[0].peak);
        }
    }

    #[test]
    fn time_to_reach_interpolates() {
        let m = model();
        let trace = m
            .simulate_transient(None, |_, _, _| vec![(die(), 500.0)], 0.5, 200)
            .unwrap();
        let t85 = trace
            .time_to_reach(Celsius(85.0))
            .expect("500 W must cross 85°C");
        assert!(t85 > 0.0);
        // Hotter sprint crosses sooner.
        let trace2 = m
            .simulate_transient(None, |_, _, _| vec![(die(), 800.0)], 0.5, 200)
            .unwrap();
        let t85_hot = trace2.time_to_reach(Celsius(85.0)).unwrap();
        assert!(t85_hot < t85, "{t85_hot} vs {t85}");
    }

    #[test]
    fn never_reaching_threshold_returns_none() {
        let m = model();
        let trace = m
            .simulate_transient(None, |_, _, _| vec![(die(), 50.0)], 1.0, 20)
            .unwrap();
        assert_eq!(trace.time_to_reach(Celsius(150.0)), None);
    }

    #[test]
    fn time_varying_power_tracks_bursts() {
        let m = model();
        // 10 steps on, 10 steps off.
        let trace = m
            .simulate_transient(
                None,
                |step, _, _| {
                    if step < 10 {
                        vec![(die(), 400.0)]
                    } else {
                        vec![]
                    }
                },
                1.0,
                20,
            )
            .unwrap();
        let peak_on = trace.samples[9].peak.value();
        let peak_end = trace.samples[19].peak.value();
        assert!(
            peak_on > peak_end,
            "burst peak {peak_on} then cools to {peak_end}"
        );
    }
}
