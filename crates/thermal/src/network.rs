//! Assembly of the steady-state thermal conductance network.
//!
//! The package is discretized HotSpot-style:
//!
//! * every stack layer (heat sink, spreader, TIM, die, microbump,
//!   interposer, C4, substrate) is a regular `n × n` grid of cells over the
//!   package footprint (the interposer for 2.5D systems, the chip for the
//!   baseline);
//! * the spreader region *beyond* the footprint is lumped into four
//!   trapezoidal periphery nodes (W/E/S/N), and the heat-sink overhang into
//!   four inner (over the spreader) plus four outer periphery nodes;
//! * every heat-sink node (grid cells and periphery) convects to ambient
//!   with conductance `h·A`; the substrate bottom optionally convects
//!   through a weak secondary path (board).
//!
//! Cell-to-cell conductances use the standard finite-volume forms: lateral
//! `G = t·w / (d₁/(2k₁) + d₂/(2k₂))`, vertical
//! `G = A / (t₁/(2k₁) + t₂/(2k₂))`. The network is a symmetric
//! positive-definite Laplacian plus positive boundary terms, solved with
//! PCG ([`crate::sparse`]).
//!
//! Assembly is split into a symbolic [`Scaffold`] (node layout, the
//! periphery links and grounds in emission order, and the layered
//! operator's [`Shape`]) and a numeric fill of the grid bands, summed in
//! that one emission order. This module is the only one that knows the
//! periphery layout (W/E/S/N bands); the operator sees only links.

use crate::layered::{Axis, LayeredMatrix, Preconditioner, Shape};
use std::sync::Arc;
use tac25d_floorplan::layers::LayerRole;

/// One gridded layer ready for assembly: thickness plus per-cell
/// conductivity (row-major, same ordering as [`tac25d_floorplan::raster::Grid`]).
#[derive(Debug, Clone)]
pub(crate) struct GriddedLayer {
    pub role: LayerRole,
    pub thickness_m: f64,
    /// Per-cell conductivity in W/(m·K); length n².
    pub k: Vec<f64>,
    /// Whether this layer dissipates power (die tiers).
    pub is_heat_source: bool,
}

/// Geometric and boundary inputs of the assembly.
#[derive(Debug, Clone)]
pub(crate) struct NetworkGeometry {
    /// Grid cells per side.
    pub n: usize,
    /// Package footprint edge in metres.
    pub footprint_m: f64,
    /// Spreader edge in metres (≥ footprint).
    pub spreader_m: f64,
    /// Heat-sink edge in metres (≥ spreader).
    pub sink_m: f64,
    /// Layers, top (sink) to bottom (substrate).
    pub layers: Vec<GriddedLayer>,
    /// Heat-transfer coefficient of the sink surface, W/(m²·K).
    pub htc: f64,
    /// Secondary-path heat-transfer coefficient at the substrate bottom,
    /// W/(m²·K) (0 disables the secondary path).
    pub htc_secondary: f64,
}

/// The assembled network: matrix plus bookkeeping needed to build the RHS
/// and post-process solutions.
#[derive(Debug, Clone)]
pub(crate) struct Network {
    pub matrix: LayeredMatrix,
    /// Preconditioner factored once at assembly and reused by every solve
    /// of this matrix (factor once, solve many). Always IC(0) on the
    /// M-matrices assembly produces (the model tests assert the property);
    /// Jacobi only if the factorization ever broke down (see
    /// [`Preconditioner::ic0_or_jacobi`]).
    pub precond: Preconditioner,
    /// `(node, conductance-to-ambient)` for every boundary node.
    pub conv: Vec<(usize, f64)>,
    /// Total node count.
    pub nodes: usize,
    /// First node id of the topmost die (heat-source) layer.
    pub die_base: usize,
    /// First node ids of every heat-source layer, top-down (3D stacks
    /// have several tiers).
    pub heat_bases: Vec<usize>,
}

const SIDES: usize = 4; // W, E, S, N

impl NetworkGeometry {
    /// Index of a grid node.
    #[inline]
    fn node(&self, layer: usize, ix: usize, iy: usize) -> usize {
        layer * self.n * self.n + iy * self.n + ix
    }

    fn layer_index(&self, role: LayerRole) -> Option<usize> {
        self.layers.iter().position(|l| l.role == role)
    }
}

/// The finite-volume conductance of each grid link, `g(axis, layer,
/// cell)`: lateral `t·w / (d/(2k₁) + d/(2k₂))`, vertical
/// `A / (t₁/(2k₁) + t₂/(2k₂))`.
fn link_conductances(geom: &NetworkGeometry) -> impl Fn(Axis, usize, usize) -> f64 + '_ {
    let n = geom.n;
    let dx = geom.footprint_m / n as f64;
    let dy = dx;
    let cell_area = dx * dy;
    move |axis, li, c| {
        let layer = &geom.layers[li];
        match axis {
            Axis::X => {
                let ka = layer.k[c];
                let kb = layer.k[c + 1];
                layer.thickness_m * dy / (dx / (2.0 * ka) + dx / (2.0 * kb))
            }
            Axis::Y => {
                let ka = layer.k[c];
                let kb = layer.k[c + n];
                layer.thickness_m * dx / (dy / (2.0 * ka) + dy / (2.0 * kb))
            }
            Axis::Z => {
                let below = &geom.layers[li + 1];
                let ka = layer.k[c];
                let kb = below.k[c];
                cell_area / (layer.thickness_m / (2.0 * ka) + below.thickness_m / (2.0 * kb))
            }
        }
    }
}

/// The symbolic half of assembly: node layout, the operator [`Shape`]
/// (periphery links and grounds in emission order), boundary
/// conductances and node bookkeeping.
#[derive(Debug)]
struct Scaffold {
    nodes: usize,
    shape: Arc<Shape>,
    conv: Vec<(usize, f64)>,
    die_base: usize,
    heat_bases: Vec<usize>,
    /// The periphery links in emission order, kept for the emission-order
    /// oracle.
    #[cfg(test)]
    links: Vec<(usize, usize, f64)>,
}

/// Periphery link and convection collector used by [`Scaffold::build`];
/// the order they are pushed here is the order their terms are summed.
#[derive(Default)]
struct Emit {
    links: Vec<(usize, usize, f64)>,
    conv: Vec<(usize, f64)>,
}

impl Emit {
    fn fixed(&mut self, i: usize, j: usize, g: f64) {
        self.links.push((i, j, g));
    }

    fn convection(&mut self, node: usize, g: f64) {
        self.conv.push((node, g));
    }
}

impl Scaffold {
    /// Builds the symbolic scaffold for a geometry, validating it exactly
    /// as [`assemble`] documents.
    fn build(geom: &NetworkGeometry) -> Scaffold {
        let n = geom.n;
        assert!(n >= 2, "grid must be at least 2x2, got {n}");
        assert!(!geom.layers.is_empty(), "stack must contain layers");
        assert!(geom.footprint_m > 0.0, "footprint must be positive");
        assert!(
            geom.spreader_m >= geom.footprint_m - 1e-12,
            "spreader ({}) smaller than footprint ({})",
            geom.spreader_m,
            geom.footprint_m
        );
        assert!(
            geom.sink_m >= geom.spreader_m - 1e-12,
            "sink ({}) smaller than spreader ({})",
            geom.sink_m,
            geom.spreader_m
        );
        let n2 = n * n;
        for l in &geom.layers {
            assert_eq!(
                l.k.len(),
                n2,
                "layer {:?} conductivity grid mismatch",
                l.role
            );
            assert!(
                l.thickness_m > 0.0,
                "layer {:?} thickness must be positive",
                l.role
            );
            assert!(
                l.k.iter().all(|&k| k > 0.0 && k.is_finite()),
                "layer {:?} has non-positive conductivity",
                l.role
            );
        }

        let dx = geom.footprint_m / n as f64;
        let cell_area = dx * dx;
        let nl = geom.layers.len();

        let sink_layer = geom.layer_index(LayerRole::HeatSink);
        let spreader_layer = geom.layer_index(LayerRole::Spreader);
        let heat_layers: Vec<usize> = geom
            .layers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.is_heat_source.then_some(i))
            .collect();
        let die_layer = *heat_layers
            .first()
            .expect("stack must contain a heat-source layer");
        let substrate_layer = geom.layer_index(LayerRole::Substrate);

        let eps = 1e-12;
        let has_sp_periph = spreader_layer.is_some() && geom.spreader_m > geom.footprint_m + eps;
        let has_sink_outer = sink_layer.is_some() && geom.sink_m > geom.spreader_m + eps;

        // Extra (lumped) node layout after the grid nodes.
        let mut next = nl * n2;
        let sp_periph_base = has_sp_periph.then(|| {
            let b = next;
            next += SIDES;
            b
        });
        // The sink inner periphery mirrors the spreader periphery footprint.
        let sink_inner_base = (has_sp_periph && sink_layer.is_some()).then(|| {
            let b = next;
            next += SIDES;
            b
        });
        let sink_outer_base = has_sink_outer.then(|| {
            let b = next;
            next += SIDES;
            b
        });
        let nodes = next;

        let mut e = Emit::default();

        // Intra-layer lateral and inter-layer vertical conduction are the
        // operator's grid bands, filled from the conductivity fields.

        // --- Convection from the sink grid cells.
        if let Some(sl) = sink_layer {
            for iy in 0..n {
                for ix in 0..n {
                    e.convection(geom.node(sl, ix, iy), geom.htc * cell_area);
                }
            }
        }

        // --- Secondary path from the substrate bottom.
        if geom.htc_secondary > 0.0 {
            if let Some(sub) = substrate_layer {
                for iy in 0..n {
                    for ix in 0..n {
                        e.convection(geom.node(sub, ix, iy), geom.htc_secondary * cell_area);
                    }
                }
            }
        }

        // --- Spreader periphery nodes.
        if let Some(spb) = sp_periph_base {
            let sl = spreader_layer.expect("periphery requires a spreader layer");
            let t_sp = geom.layers[sl].thickness_m;
            let k_sp = geom.layers[sl].k[0]; // spreader is homogeneous copper
            let overhang = (geom.spreader_m - geom.footprint_m) / 2.0;
            let d = overhang / 2.0 + dx / 2.0;
            emit_periphery_boundary(&mut e, geom, sl, spb, t_sp, k_sp, d);

            // Vertical coupling to the sink inner periphery above.
            if let (Some(sib), Some(skl)) = (sink_inner_base, sink_layer) {
                let t_sk = geom.layers[skl].thickness_m;
                let k_sk = geom.layers[skl].k[0];
                let area_side = (geom.spreader_m * geom.spreader_m
                    - geom.footprint_m * geom.footprint_m)
                    / SIDES as f64;
                let g = area_side / (t_sp / (2.0 * k_sp) + t_sk / (2.0 * k_sk));
                for s in 0..SIDES {
                    e.fixed(spb + s, sib + s, g);
                }
            }
        }

        // --- Sink inner periphery: lateral to sink grid boundary +
        //     convection.
        if let Some(sib) = sink_inner_base {
            let skl = sink_layer.expect("sink periphery requires a sink layer");
            let t_sk = geom.layers[skl].thickness_m;
            let k_sk = geom.layers[skl].k[0];
            let overhang = (geom.spreader_m - geom.footprint_m) / 2.0;
            let d = overhang / 2.0 + dx / 2.0;
            emit_periphery_boundary(&mut e, geom, skl, sib, t_sk, k_sk, d);
            let area_side = (geom.spreader_m * geom.spreader_m
                - geom.footprint_m * geom.footprint_m)
                / SIDES as f64;
            for s in 0..SIDES {
                e.convection(sib + s, geom.htc * area_side);
            }

            // Lateral to the outer periphery.
            if let Some(sob) = sink_outer_base {
                let d2 = overhang / 2.0 + (geom.sink_m - geom.spreader_m) / 4.0;
                // Interface length per side ≈ spreader edge.
                let g = k_sk * t_sk * geom.spreader_m / d2;
                for s in 0..SIDES {
                    e.fixed(sib + s, sob + s, g);
                }
            }
        }

        // --- Sink outer periphery: convection (and, if there is no inner
        //     periphery because spreader == footprint, couple directly to
        //     the sink grid boundary).
        if let Some(sob) = sink_outer_base {
            let skl = sink_layer.expect("sink periphery requires a sink layer");
            let t_sk = geom.layers[skl].thickness_m;
            let k_sk = geom.layers[skl].k[0];
            let area_side =
                (geom.sink_m * geom.sink_m - geom.spreader_m * geom.spreader_m) / SIDES as f64;
            for s in 0..SIDES {
                e.convection(sob + s, geom.htc * area_side);
            }
            if sink_inner_base.is_none() {
                let d = (geom.sink_m - geom.spreader_m) / 4.0 + dx / 2.0;
                emit_periphery_boundary(&mut e, geom, skl, sob, t_sk, k_sk, d);
            }
        }

        Scaffold {
            nodes,
            shape: Arc::new(Shape::new(n, nl, nodes - nl * n2, &e.links, &e.conv)),
            #[cfg(test)]
            links: e.links,
            conv: e.conv,
            die_base: die_layer * n2,
            heat_bases: heat_layers.iter().map(|&l| l * n2).collect(),
        }
    }
}

/// Records the four periphery nodes' couplings to a layer's grid boundary
/// cells: lateral conductances `k·t·w/d` per boundary cell (homogeneous
/// copper).
fn emit_periphery_boundary(
    e: &mut Emit,
    geom: &NetworkGeometry,
    layer: usize,
    periph_base: usize,
    t: f64,
    k: f64,
    d: f64,
) {
    let n = geom.n;
    let dx = geom.footprint_m / n as f64;
    let g = k * t * dx / d;
    for iy in 0..n {
        e.fixed(geom.node(layer, 0, iy), periph_base, g); // W
        e.fixed(geom.node(layer, n - 1, iy), periph_base + 1, g); // E
    }
    for ix in 0..n {
        e.fixed(geom.node(layer, ix, 0), periph_base + 2, g); // S
        e.fixed(geom.node(layer, ix, n - 1), periph_base + 3, g); // N
    }
}

/// Assembles the conductance matrix and boundary list.
///
/// # Panics
///
/// Panics if the geometry is inconsistent (no layers, conductivity vector
/// length mismatch, spreader smaller than footprint, sink smaller than
/// spreader, or a non-positive conductivity/dimension).
pub(crate) fn assemble(geom: &NetworkGeometry) -> Network {
    let scaffold = Scaffold::build(geom);
    let matrix = LayeredMatrix::assemble(Arc::clone(&scaffold.shape), link_conductances(geom));
    // Assembly guarantees a positive diagonal (every cell has at least one
    // conductance), so a preconditioner always exists.
    let precond =
        Preconditioner::ic0_or_jacobi(&matrix).expect("conductance network has positive diagonal");
    Network {
        conv: scaffold.conv,
        nodes: scaffold.nodes,
        die_base: scaffold.die_base,
        heat_bases: scaffold.heat_bases,
        matrix,
        precond,
    }
}

/// The CSR matrix the retired scaffold assembled for `geom` (see
/// [`crate::layered::emission_order_csr`]): the oracle the layered fill
/// is checked against bit for bit.
#[cfg(test)]
pub(crate) fn emission_order_csr(geom: &NetworkGeometry) -> crate::sparse::CsrMatrix {
    let scaffold = Scaffold::build(geom);
    crate::layered::emission_order_csr(
        geom.n,
        geom.layers.len(),
        scaffold.nodes - geom.layers.len() * geom.n * geom.n,
        link_conductances(geom),
        &scaffold.links,
        &scaffold.conv,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::pcg;

    /// A two-layer toy stack with no periphery: each column is an
    /// independent 1D path, so the die temperature has a closed form.
    fn toy_geom(n: usize, htc: f64) -> NetworkGeometry {
        let n2 = n * n;
        NetworkGeometry {
            n,
            footprint_m: 0.02,
            spreader_m: 0.02,
            sink_m: 0.02,
            layers: vec![
                GriddedLayer {
                    role: LayerRole::HeatSink,
                    thickness_m: 0.005,
                    k: vec![400.0; n2],
                    is_heat_source: false,
                },
                GriddedLayer {
                    role: LayerRole::Die,
                    thickness_m: 0.0005,
                    k: vec![120.0; n2],
                    is_heat_source: true,
                },
            ],
            htc,
            htc_secondary: 0.0,
        }
    }

    #[test]
    fn uniform_power_matches_1d_analytic() {
        let n = 8;
        let htc = 1000.0;
        let geom = toy_geom(n, htc);
        let net = assemble(&geom);
        let dx = geom.footprint_m / n as f64;
        let cell_area = dx * dx;
        let p_cell = 0.1; // W per die cell
        let mut b = vec![0.0; net.nodes];
        for c in 0..n * n {
            b[net.die_base + c] += p_cell;
        }
        // Ambient at 0 for simplicity (linear system).
        let sol = pcg(&net.matrix, &b, 1e-12, 50_000).unwrap();
        // 1D: T_die = p/(h·A) + p·(t_sink/2 + t_die/2)/(k·A) per half-layers.
        let r_conv = 1.0 / (htc * cell_area);
        let r_cond = 0.005 / (2.0 * 400.0 * cell_area) + 0.0005 / (2.0 * 120.0 * cell_area);
        let expect = p_cell * (r_conv + r_cond);
        for c in 0..n * n {
            let t = sol.x[net.die_base + c];
            assert!(
                (t - expect).abs() / expect < 1e-9,
                "cell {c}: {t} vs {expect}"
            );
        }
    }

    #[test]
    fn energy_balance_closes() {
        let n = 8;
        let geom = toy_geom(n, 800.0);
        let net = assemble(&geom);
        let mut b = vec![0.0; net.nodes];
        b[net.die_base + 3] = 2.5; // single hot cell
        let sol = pcg(&net.matrix, &b, 1e-13, 50_000).unwrap();
        let out: f64 = net.conv.iter().map(|&(i, g)| g * sol.x[i]).sum();
        assert!((out - 2.5).abs() < 1e-9, "heat out {out} vs in 2.5");
    }

    #[test]
    fn periphery_nodes_created_when_spreader_overhangs() {
        let n = 4;
        let mut geom = toy_geom(n, 500.0);
        geom.layers.insert(
            1,
            GriddedLayer {
                role: LayerRole::Spreader,
                thickness_m: 0.001,
                k: vec![390.0; n * n],
                is_heat_source: false,
            },
        );
        geom.spreader_m = 0.04;
        geom.sink_m = 0.08;
        let net = assemble(&geom);
        // 3 layers * 16 + 4 spreader periph + 4 inner + 4 outer.
        assert_eq!(net.nodes, 3 * 16 + 12);
        // Periphery convection raises total boundary conductance above the
        // gridded-center-only value.
        let total_g: f64 = net.conv.iter().map(|&(_, g)| g).sum();
        assert!(total_g > 500.0 * 0.02 * 0.02);
        // Whole sink area convects: h * sink_edge².
        assert!((total_g - 500.0 * 0.08 * 0.08).abs() < 1e-9);
    }

    #[test]
    fn bigger_sink_lowers_peak_temperature() {
        let n = 8;
        let solve_peak = |sink_m: f64, spreader_m: f64| {
            let mut geom = toy_geom(n, 500.0);
            geom.layers.insert(
                1,
                GriddedLayer {
                    role: LayerRole::Spreader,
                    thickness_m: 0.001,
                    k: vec![390.0; n * n],
                    is_heat_source: false,
                },
            );
            geom.spreader_m = spreader_m;
            geom.sink_m = sink_m;
            let net = assemble(&geom);
            let mut b = vec![0.0; net.nodes];
            for c in 0..n * n {
                b[net.die_base + c] = 0.5;
            }
            let sol = pcg(&net.matrix, &b, 1e-11, 100_000).unwrap();
            (net.die_base..net.die_base + n * n)
                .map(|i| sol.x[i])
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let small = solve_peak(0.02, 0.02);
        let large = solve_peak(0.08, 0.04);
        assert!(
            large < small,
            "larger sink should cool better: {large} vs {small}"
        );
    }

    #[test]
    fn secondary_path_reduces_temperature() {
        let n = 6;
        let build = |htc2: f64| {
            let mut geom = toy_geom(n, 400.0);
            geom.layers.push(GriddedLayer {
                role: LayerRole::Substrate,
                thickness_m: 0.0002,
                k: vec![0.3; n * n],
                is_heat_source: false,
            });
            geom.htc_secondary = htc2;
            geom
        };
        let peak = |geom: &NetworkGeometry| {
            let net = assemble(geom);
            let mut b = vec![0.0; net.nodes];
            for c in 0..n * n {
                b[net.die_base + c] = 0.4;
            }
            let sol = pcg(&net.matrix, &b, 1e-11, 100_000).unwrap();
            (net.die_base..net.die_base + n * n)
                .map(|i| sol.x[i])
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let without = peak(&build(0.0));
        let with = peak(&build(100.0));
        assert!(with < without, "{with} vs {without}");
    }

    #[test]
    #[should_panic(expected = "conductivity grid mismatch")]
    fn wrong_k_length_rejected() {
        let mut geom = toy_geom(4, 100.0);
        geom.layers[0].k.pop();
        let _ = assemble(&geom);
    }

    #[test]
    #[should_panic(expected = "smaller than footprint")]
    fn spreader_smaller_than_footprint_rejected() {
        let mut geom = toy_geom(4, 100.0);
        geom.spreader_m = 0.01;
        let _ = assemble(&geom);
    }
}
