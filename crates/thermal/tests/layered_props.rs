//! Bitwise oracle properties of the banded layered-grid operator: on
//! random layered grids — random positive conductances, periphery border
//! on or off — its fill, product, IC(0) factor, preconditioner
//! application and whole PCG solves must equal, bit
//! for bit, the CSR path it replaced: every term summed into its slot in
//! emission order, the general up-looking CSR IC(0), and the same CG loop
//! over CSR.

use std::sync::Arc;

use proptest::prelude::*;
use tac25d_thermal::layered::{emission_order_csr, Axis, LayeredIc0, LayeredMatrix, Shape};
use tac25d_thermal::sparse::{pcg_with, CsrMatrix, Ic0, LinearOperator, Precondition};

fn splitmix(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / f64::from(u32::MAX)
    }
}

/// A random layered grid: per-node link conductances along each axis, the
/// border links and the grounds, each list in emission order.
struct Grid {
    n: usize,
    layers: usize,
    periphery: usize,
    g: [Vec<f64>; 3],
    links: Vec<(usize, usize, f64)>,
    grounds: Vec<(usize, f64)>,
}

impl Grid {
    fn random(n: usize, layers: usize, with_border: bool, rng: &mut impl FnMut() -> f64) -> Grid {
        let n2 = n * n;
        let ng = layers * n2;
        // Conductances spanning three decades, as the package's do.
        let draw = |rng: &mut dyn FnMut() -> f64| 10f64.powf(rng() * 3.0 - 1.5);
        let g = [0, 1, 2].map(|_| (0..ng).map(|_| draw(rng)).collect::<Vec<_>>());
        let mut links = Vec::new();
        let mut grounds: Vec<(usize, f64)> = (0..n2).map(|c| (c, 0.02 + rng())).collect();
        let mut periphery = 0;
        if with_border {
            // Four side nodes per band on up to two layers, chained
            // outwards, plus a few stray couplings that land inside lines.
            let bands = 1 + (rng() * 2.0) as usize % 2;
            for band in 0..bands {
                let layer = (rng() * layers as f64) as usize % layers;
                let base = ng + 4 * band;
                let node = |x: usize, y: usize| layer * n2 + y * n + x;
                let gb = draw(rng);
                for y in 0..n {
                    links.push((node(0, y), base, gb));
                    links.push((base + 1, node(n - 1, y), gb));
                }
                for x in 0..n {
                    links.push((node(x, 0), base + 2, gb));
                    links.push((node(x, n - 1), base + 3, gb));
                }
                if band > 0 {
                    for s in 0..4 {
                        links.push((base - 4 + s, base + s, draw(rng)));
                    }
                }
            }
            periphery = 4 * bands;
            for _ in 0..(rng() * 4.0) as usize {
                let cell = (rng() * ng as f64) as usize % ng;
                let p = ng + (rng() * periphery as f64) as usize % periphery;
                links.push((cell, p, draw(rng)));
            }
            for q in 0..periphery {
                if rng() < 0.5 {
                    grounds.push((ng + q, draw(rng)));
                }
            }
        }
        Grid {
            n,
            layers,
            periphery,
            g,
            links,
            grounds,
        }
    }

    fn conductance(&self, axis: Axis, layer: usize, cell: usize) -> f64 {
        let i = layer * self.n * self.n + cell;
        match axis {
            Axis::X => self.g[0][i],
            Axis::Y => self.g[1][i],
            Axis::Z => self.g[2][i],
        }
    }

    fn banded(&self) -> LayeredMatrix {
        let shape = Shape::new(
            self.n,
            self.layers,
            self.periphery,
            &self.links,
            &self.grounds,
        );
        LayeredMatrix::assemble(Arc::new(shape), |a, l, c| self.conductance(a, l, c))
    }

    /// This grid with every grid row's diagonal scaled by `1 − w`, built
    /// from conductances alone: the grid links are negated (positive
    /// off-diagonals) and each grid node is grounded so that its diagonal
    /// comes back to `1 − w` times the original (where that needs no
    /// negative ground). The layered grid is bipartite, so without a
    /// border the result is the original with a weakened diagonal up to a
    /// ±1 diagonal similarity, which IC(0) factors with the same shifts.
    fn weakened(&self, w: f64) -> Grid {
        let ng = self.layers * self.n * self.n;
        let d = self.banded().diagonal();
        let (mut border, mut ground) = (vec![0.0; ng], vec![0.0; ng]);
        for &(i, j, g) in &self.links {
            for k in [i, j] {
                if k < ng {
                    border[k] += g;
                }
            }
        }
        for &(i, g) in &self.grounds {
            if i < ng {
                ground[i] += g;
            }
        }
        // New diagonal: −grid + border + ground' = (1 − w)·d.
        let mut grounds: Vec<(usize, f64)> = (0..ng)
            .map(|i| (i, ((2.0 - w) * d[i] - ground[i] - 2.0 * border[i]).max(0.0)))
            .collect();
        grounds.extend(self.grounds.iter().filter(|&&(i, _)| i >= ng));
        Grid {
            n: self.n,
            layers: self.layers,
            periphery: self.periphery,
            g: self.g.clone().map(|v| v.iter().map(|g| -g).collect()),
            links: self.links.clone(),
            grounds,
        }
    }

    /// The retired scaffold's fill, term by term in emission order.
    fn emission_order_csr(&self) -> CsrMatrix {
        emission_order_csr(
            self.n,
            self.layers,
            self.periphery,
            |a, l, c| self.conductance(a, l, c),
            &self.links,
            &self.grounds,
        )
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A probe with negative entries and exact zeros.
fn probe(nodes: usize, rng: &mut impl FnMut() -> f64) -> Vec<f64> {
    (0..nodes)
        .map(|_| {
            if rng() < 0.15 {
                0.0
            } else {
                rng() * 20.0 - 8.0
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fill, product, fused dot, factor, application and PCG solves match
    /// the CSR path bit for bit.
    #[test]
    fn banded_path_matches_csr_bitwise(
        n in 2usize..13,
        layers in 1usize..10,
        with_border in prop::sample::select(vec![false, true]),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = splitmix(seed);
        let grid = Grid::random(n, layers, with_border, &mut rng);
        let a = grid.banded();
        let csr = grid.emission_order_csr();
        let nodes = a.dim();
        let view = a.to_csr();
        prop_assert_eq!(view.nnz(), csr.nnz());
        prop_assert_eq!(bits(view.values()), bits(csr.values()), "fill");
        prop_assert_eq!(bits(&a.diagonal()), bits(&csr.diagonal()));

        let x = probe(nodes, &mut rng);
        let (mut y_band, mut y_csr) = (vec![0.0; nodes], vec![0.0; nodes]);
        let d_band = a.mul_vec_dot(&x, &mut y_band);
        let d_csr = LinearOperator::mul_vec_dot(&csr, &x, &mut y_csr);
        prop_assert_eq!(bits(&y_band), bits(&y_csr), "product");
        prop_assert_eq!(d_band.to_bits(), d_csr.to_bits(), "fused dot");

        let f = LayeredIc0::factor(&a).expect("M-matrix factors");
        let oracle = Ic0::factor(&csr).expect("M-matrix factors");
        prop_assert_eq!(f.shift(), 0.0);
        prop_assert_eq!(oracle.shift(), 0.0);
        f.apply(&x, &mut y_band);
        oracle.apply(&x, &mut y_csr);
        prop_assert_eq!(bits(&y_band), bits(&y_csr), "IC(0) apply");

        let b = probe(nodes, &mut rng);
        let ours = pcg_with(&a, &f, &b, None, 1e-10, 5_000);
        let theirs = pcg_with(&csr, &oracle, &b, None, 1e-10, 5_000);
        match (ours, theirs) {
            (Ok(p), Ok(q)) => {
                prop_assert_eq!(p.iterations, q.iterations);
                prop_assert_eq!(p.residual.to_bits(), q.residual.to_bits());
                prop_assert_eq!(bits(&p.x), bits(&q.x), "solution");
            }
            (p, q) => prop_assert_eq!(format!("{p:?}"), format!("{q:?}")),
        }
    }

    /// Weakened diagonals drive the factorization into its shift retries
    /// (or past them): the banded and CSR factors take the same path and
    /// still agree bit for bit.
    #[test]
    fn shift_retries_match_csr_bitwise(
        n in 2usize..9,
        layers in 1usize..5,
        with_border in prop::sample::select(vec![false, true]),
        weaken in 0.05..0.6f64,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = splitmix(seed);
        let grid = Grid::random(n, layers, with_border, &mut rng).weakened(weaken);
        let a = grid.banded();
        let csr = grid.emission_order_csr();
        prop_assert_eq!(bits(a.to_csr().values()), bits(csr.values()));
        match (LayeredIc0::factor(&a), Ic0::factor(&csr)) {
            (Some(f), Some(oracle)) => {
                prop_assert_eq!(f.shift().to_bits(), oracle.shift().to_bits());
                let x = probe(a.dim(), &mut rng);
                let (mut z_band, mut z_csr) = (vec![0.0; x.len()], vec![0.0; x.len()]);
                f.apply(&x, &mut z_band);
                oracle.apply(&x, &mut z_csr);
                prop_assert_eq!(bits(&z_band), bits(&z_csr));
            }
            (None, None) => {}
            (f, o) => prop_assert!(false, "banded {} vs CSR {}", f.is_some(), o.is_some()),
        }
    }
}
