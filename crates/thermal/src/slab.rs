//! Verification hooks: slab-stack assembly with cell-level source
//! injection and grid refinement.
//!
//! [`crate::model::PackageModel`] is the production API: it rasterizes a
//! chiplet organization onto the grid and injects power through rectangle
//! sources, which is exactly what makes it hard to verify — the inputs are
//! themselves discretized. This module exposes the underlying finite-volume
//! assembly (the crate-internal `network` module) for *slab* stacks: every
//! layer is laterally homogeneous, power is injected per cell, and the grid
//! resolution is a free parameter. That is the contract a
//! method-of-manufactured-solutions (MMS) harness needs:
//!
//! * **source injection** — arbitrary (signed) per-cell power fields on any
//!   heat-source layer, bypassing rectangle rasterization entirely;
//! * **grid refinement** — the same physical stack assembled at any `n`,
//!   so observed convergence orders can be measured against analytic
//!   references;
//! * **flux accounting** — boundary heat flow split by path (sink vs
//!   secondary), for energy-balance invariants.
//!
//! Temperatures are reported as *rises over ambient* (the network is
//! linear, so the ambient offset is irrelevant to verification).
//!
//! # Examples
//!
//! ```
//! use tac25d_floorplan::layers::LayerRole;
//! use tac25d_thermal::slab::{SlabLayer, SlabModel, SlabStack};
//!
//! let stack = SlabStack {
//!     n: 8,
//!     edge_m: 0.02,
//!     htc: 1000.0,
//!     htc_secondary: 0.0,
//!     layers: vec![
//!         SlabLayer::new(LayerRole::HeatSink, 0.005, 400.0),
//!         SlabLayer::source(LayerRole::Die, 0.0005, 120.0),
//!     ],
//! };
//! let model = SlabModel::assemble(&stack);
//! let sol = model.solve_uniform(50.0, 1e-12, 50_000).unwrap();
//! assert!(sol.energy_balance_error() < 1e-9);
//! ```

use crate::network::{assemble, GriddedLayer, Network, NetworkGeometry};
use crate::sparse::{pcg, SolveError};
use tac25d_floorplan::layers::LayerRole;

/// One laterally homogeneous layer of a verification slab stack.
#[derive(Debug, Clone)]
pub struct SlabLayer {
    /// Layer role (drives boundary handling: [`LayerRole::HeatSink`]
    /// convects with `htc`, [`LayerRole::Substrate`] with
    /// `htc_secondary`).
    pub role: LayerRole,
    /// Thickness in metres.
    pub thickness_m: f64,
    /// Thermal conductivity in W/(m·K), uniform over the layer.
    pub k: f64,
    /// Whether per-cell power can be injected into this layer.
    pub is_heat_source: bool,
}

impl SlabLayer {
    /// A passive layer.
    pub fn new(role: LayerRole, thickness_m: f64, k: f64) -> Self {
        SlabLayer {
            role,
            thickness_m,
            k,
            is_heat_source: false,
        }
    }

    /// A heat-source layer (power can be injected into its cells).
    pub fn source(role: LayerRole, thickness_m: f64, k: f64) -> Self {
        SlabLayer {
            is_heat_source: true,
            ..SlabLayer::new(role, thickness_m, k)
        }
    }
}

/// A slab stack: square footprint, no spreader/sink overhang (every column
/// sees the same 1D environment), layers listed top (sink side) to bottom.
#[derive(Debug, Clone)]
pub struct SlabStack {
    /// Grid cells per side — the refinement parameter.
    pub n: usize,
    /// Footprint edge in metres.
    pub edge_m: f64,
    /// Sink-surface heat-transfer coefficient, W/(m²·K).
    pub htc: f64,
    /// Secondary-path (substrate bottom) coefficient, W/(m²·K).
    pub htc_secondary: f64,
    /// Layers, top to bottom. At least one must be a heat source.
    pub layers: Vec<SlabLayer>,
}

impl SlabStack {
    /// The same physical stack at a different grid resolution — the
    /// grid-refinement hook of the MMS harness.
    pub fn refined(&self, n: usize) -> SlabStack {
        SlabStack { n, ..self.clone() }
    }

    /// Cell pitch in metres at this resolution.
    pub fn dx(&self) -> f64 {
        self.edge_m / self.n as f64
    }

    fn geometry(&self) -> NetworkGeometry {
        let n2 = self.n * self.n;
        NetworkGeometry {
            n: self.n,
            footprint_m: self.edge_m,
            spreader_m: self.edge_m,
            sink_m: self.edge_m,
            layers: self
                .layers
                .iter()
                .map(|l| GriddedLayer {
                    role: l.role,
                    thickness_m: l.thickness_m,
                    k: vec![l.k; n2],
                    is_heat_source: l.is_heat_source,
                })
                .collect(),
            htc: self.htc,
            htc_secondary: self.htc_secondary,
        }
    }
}

/// An assembled slab network ready to solve injected source fields.
#[derive(Debug, Clone)]
pub struct SlabModel {
    net: Network,
    roles: Vec<LayerRole>,
    n: usize,
    dx: f64,
}

impl SlabModel {
    /// Assembles the conductance network of a slab stack.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent stacks (no layers, no heat source,
    /// non-positive dimensions/conductivities) — same contract as the
    /// internal assembly.
    pub fn assemble(stack: &SlabStack) -> Self {
        let net = assemble(&stack.geometry());
        SlabModel {
            net,
            roles: stack.layers.iter().map(|l| l.role).collect(),
            n: stack.n,
            dx: stack.dx(),
        }
    }

    /// Grid cells per side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cell area in m².
    pub fn cell_area_m2(&self) -> f64 {
        self.dx * self.dx
    }

    /// Total node count of the assembled network.
    pub fn nodes(&self) -> usize {
        self.net.nodes
    }

    /// Number of heat-source layers accepting injected fields.
    pub fn source_layer_count(&self) -> usize {
        self.net.heat_bases.len()
    }

    /// Solves the steady state for per-cell power fields injected into the
    /// heat-source layers (top-down; trailing layers may be omitted). Each
    /// field is row-major with length `n²`, in watts per cell; signed
    /// values are allowed — manufactured solutions routinely need sinks as
    /// well as sources.
    ///
    /// # Errors
    ///
    /// Returns the PCG failure if the iterative solver does not reach
    /// `rel_tol` within `max_iter`.
    ///
    /// # Panics
    ///
    /// Panics if more fields than heat-source layers are supplied or a
    /// field has the wrong length.
    pub fn solve_fields(
        &self,
        fields: &[&[f64]],
        rel_tol: f64,
        max_iter: usize,
    ) -> Result<SlabSolution, SolveError> {
        let (b, power_in) = self.rhs(fields);
        let sol = pcg(&self.net.matrix, &b, rel_tol, max_iter)?;
        Ok(self.finish(sol.x, power_in, sol.iterations))
    }

    /// Assembles the right-hand side (watts per node) from per-cell source
    /// fields and returns it with the net injected power.
    fn rhs(&self, fields: &[&[f64]]) -> (Vec<f64>, f64) {
        assert!(
            fields.len() <= self.net.heat_bases.len(),
            "{} source fields supplied but the stack has {} heat-source layers",
            fields.len(),
            self.net.heat_bases.len()
        );
        let n2 = self.n * self.n;
        let mut b = vec![0.0; self.net.nodes];
        let mut power_in = 0.0;
        for (field, &base) in fields.iter().zip(&self.net.heat_bases) {
            assert_eq!(field.len(), n2, "source field length must be n²");
            for (c, &w) in field.iter().enumerate() {
                assert!(w.is_finite(), "source power must be finite");
                b[base + c] += w;
                power_in += w;
            }
        }
        (b, power_in)
    }

    /// Wraps a solved temperature field in a [`SlabSolution`], splitting
    /// the boundary flux by path: substrate-bottom convection is the
    /// secondary (board) path, everything else leaves through the sink
    /// surface.
    fn finish(&self, temps: Vec<f64>, power_in: f64, iterations: usize) -> SlabSolution {
        let n2 = self.n * self.n;
        let (mut heat_sink, mut heat_secondary) = (0.0, 0.0);
        for &(i, g) in &self.net.conv {
            let flux = g * temps[i];
            let role = self.roles.get(i / n2).copied();
            if role == Some(LayerRole::Substrate) {
                heat_secondary += flux;
            } else {
                heat_sink += flux;
            }
        }
        SlabSolution {
            temps,
            heat_bases: self.net.heat_bases.clone(),
            n: self.n,
            power_in_w: power_in,
            heat_out_sink_w: heat_sink,
            heat_out_secondary_w: heat_secondary,
            iterations,
        }
    }

    /// Convenience: uniform total power spread over the topmost source
    /// layer (the 1D resistance-chain configuration).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve_fields`].
    pub fn solve_uniform(
        &self,
        total_w: f64,
        rel_tol: f64,
        max_iter: usize,
    ) -> Result<SlabSolution, SolveError> {
        let n2 = self.n * self.n;
        let field = vec![total_w / n2 as f64; n2];
        self.solve_fields(&[&field], rel_tol, max_iter)
    }
}

/// A solved slab temperature field (rises over ambient, kelvin).
#[derive(Debug, Clone)]
pub struct SlabSolution {
    temps: Vec<f64>,
    heat_bases: Vec<usize>,
    n: usize,
    power_in_w: f64,
    heat_out_sink_w: f64,
    heat_out_secondary_w: f64,
    iterations: usize,
}

impl SlabSolution {
    /// Temperature rise of cell `(ix, iy)` on source layer `tier`
    /// (0 = topmost source layer).
    ///
    /// # Panics
    ///
    /// Panics if the tier or cell index is out of range.
    pub fn source_cell(&self, tier: usize, ix: usize, iy: usize) -> f64 {
        assert!(ix < self.n && iy < self.n, "cell out of range");
        self.temps[self.heat_bases[tier] + iy * self.n + ix]
    }

    /// The full temperature-rise field of source layer `tier`, row-major.
    ///
    /// # Panics
    ///
    /// Panics if the tier is out of range.
    pub fn source_field(&self, tier: usize) -> &[f64] {
        let base = self.heat_bases[tier];
        &self.temps[base..base + self.n * self.n]
    }

    /// All node temperature rises.
    pub fn raw_temps(&self) -> &[f64] {
        &self.temps
    }

    /// Net injected power (W).
    pub fn power_in_w(&self) -> f64 {
        self.power_in_w
    }

    /// Heat leaving through every convective boundary (sink + secondary
    /// path), W.
    pub fn heat_out_w(&self) -> f64 {
        self.heat_out_sink_w + self.heat_out_secondary_w
    }

    /// Heat leaving through the sink surface, W.
    pub fn heat_out_sink_w(&self) -> f64 {
        self.heat_out_sink_w
    }

    /// Heat leaving through the secondary (board) path at the substrate
    /// bottom, W.
    pub fn heat_out_secondary_w(&self) -> f64 {
        self.heat_out_secondary_w
    }

    /// Relative energy-balance residual |out − in| / |in|.
    pub fn energy_balance_error(&self) -> f64 {
        if self.power_in_w.abs() > 0.0 {
            (self.heat_out_w() - self.power_in_w).abs() / self.power_in_w.abs()
        } else {
            self.heat_out_w().abs()
        }
    }

    /// PCG iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_layer(n: usize) -> SlabStack {
        SlabStack {
            n,
            edge_m: 0.02,
            htc: 1000.0,
            htc_secondary: 0.0,
            layers: vec![
                SlabLayer::new(LayerRole::HeatSink, 0.005, 400.0),
                SlabLayer::source(LayerRole::Die, 0.0005, 120.0),
            ],
        }
    }

    #[test]
    fn uniform_solve_matches_1d_chain() {
        let stack = two_layer(8);
        let model = SlabModel::assemble(&stack);
        let sol = model.solve_uniform(6.4, 1e-12, 50_000).unwrap();
        let a = model.cell_area_m2();
        let p_cell = 6.4 / 64.0;
        let r = 1.0 / (1000.0 * a) + 0.005 / (2.0 * 400.0 * a) + 0.0005 / (2.0 * 120.0 * a);
        let expect = p_cell * r;
        for iy in 0..8 {
            for ix in 0..8 {
                let t = sol.source_cell(0, ix, iy);
                assert!((t - expect).abs() / expect < 1e-9, "{t} vs {expect}");
            }
        }
        assert!(sol.energy_balance_error() < 1e-9);
    }

    #[test]
    fn refinement_preserves_uniform_solution() {
        // The 1D chain is resolution-independent: refining the grid must
        // not move the uniform-power temperature.
        let coarse = SlabModel::assemble(&two_layer(8))
            .solve_uniform(10.0, 1e-12, 50_000)
            .unwrap()
            .source_cell(0, 0, 0);
        let fine = SlabModel::assemble(&two_layer(8).refined(24))
            .solve_uniform(10.0, 1e-12, 50_000)
            .unwrap()
            .source_cell(0, 0, 0);
        assert!((coarse - fine).abs() < 1e-8, "{coarse} vs {fine}");
    }

    #[test]
    fn signed_fields_are_accepted() {
        let model = SlabModel::assemble(&two_layer(4));
        let mut field = vec![0.0; 16];
        field[0] = 1.0;
        field[15] = -1.0;
        let sol = model.solve_fields(&[&field], 1e-12, 50_000).unwrap();
        assert!(sol.source_cell(0, 0, 0) > 0.0);
        assert!(sol.source_cell(0, 3, 3) < 0.0);
        assert!(sol.power_in_w().abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "source field length")]
    fn wrong_field_length_rejected() {
        let model = SlabModel::assemble(&two_layer(4));
        let field = vec![0.0; 15];
        let _ = model.solve_fields(&[&field], 1e-10, 1000);
    }
}
