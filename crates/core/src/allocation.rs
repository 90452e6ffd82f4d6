//! The Mintemp workload-allocation policy.
//!
//! The paper uses the Mintemp policy of Zhang et al. (DATE'14) \[20\]:
//! threads are assigned "starting from outer rows or columns and then moving
//! to inner rows or columns of the whole system in a chessboard manner",
//! which minimizes operating temperature by pushing active cores toward the
//! chip periphery and interleaving them.
//!
//! We realize that as a total priority order over the logical core grid:
//!
//! 1. primary key — the ring index (distance from the grid boundary),
//!    outermost first;
//! 2. secondary key — chessboard parity (`(row + col) % 2`), even cells of
//!    a ring before odd cells, so a half-filled ring forms a checkerboard;
//! 3. tertiary key — row-major position, for determinism.

use tac25d_floorplan::chip::{ChipSpec, CoreId};

/// Alternative workload-allocation policies, for ablation against Mintemp
/// (the paper adopts Mintemp from \[20\]; the `allocation_ablation`
/// experiment quantifies how much that choice matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocationPolicy {
    /// The paper's policy: outer rings first, chessboard interleaved.
    Mintemp,
    /// Naive clustered fill in row-major core order (worst case: a solid
    /// hot block in one corner).
    Clustered,
    /// Inner rings first — the thermal anti-pattern.
    InnerFirst,
    /// Chessboard interleaving over the whole chip without ring ordering.
    Checkerboard,
}

/// Returns the `p` active cores chosen by `policy`.
///
/// # Panics
///
/// Panics if `p` is zero or exceeds the chip's core count.
pub fn active_cores(chip: &ChipSpec, p: u16, policy: AllocationPolicy) -> Vec<CoreId> {
    assert!(
        p > 0 && p <= chip.core_count(),
        "active core count {p} out of 1..={}",
        chip.core_count()
    );
    let n = chip.cores_per_row();
    let mut order: Vec<CoreId> = chip.cores().collect();
    match policy {
        AllocationPolicy::Mintemp => return mintemp_active_cores(chip, p),
        AllocationPolicy::Clustered => {}
        AllocationPolicy::InnerFirst => {
            order.sort_by_key(|&c| {
                let (row, col) = chip.core_position(c);
                let ring = row.min(col).min(n - 1 - row).min(n - 1 - col);
                (std::cmp::Reverse(ring), (row + col) % 2, row, col)
            });
        }
        AllocationPolicy::Checkerboard => {
            order.sort_by_key(|&c| {
                let (row, col) = chip.core_position(c);
                ((row + col) % 2, row, col)
            });
        }
    }
    order.truncate(p as usize);
    order.sort_unstable();
    order
}

/// Returns the `p` active cores chosen by the Mintemp policy.
///
/// # Panics
///
/// Panics if `p` is zero or exceeds the chip's core count.
pub fn mintemp_active_cores(chip: &ChipSpec, p: u16) -> Vec<CoreId> {
    assert!(
        p > 0 && p <= chip.core_count(),
        "active core count {p} out of 1..={}",
        chip.core_count()
    );
    let mut order = mintemp_order(chip);
    order.truncate(p as usize);
    order.sort_unstable();
    order
}

/// The full Mintemp priority order (all cores, highest priority first).
pub fn mintemp_order(chip: &ChipSpec) -> Vec<CoreId> {
    let n = chip.cores_per_row();
    let mut cores: Vec<CoreId> = chip.cores().collect();
    cores.sort_by_key(|&c| {
        let (row, col) = chip.core_position(c);
        let ring = row.min(col).min(n - 1 - row).min(n - 1 - col);
        let parity = (row + col) % 2;
        (ring, parity, row, col)
    });
    cores
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ChipSpec {
        ChipSpec::scc_256()
    }

    #[test]
    fn full_allocation_is_all_cores() {
        let active = mintemp_active_cores(&chip(), 256);
        assert_eq!(active.len(), 256);
        let ids: Vec<u16> = active.iter().map(|c| c.0).collect();
        assert_eq!(ids, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn small_allocations_sit_on_the_outer_ring() {
        let chip = chip();
        // The outer ring has 60 cores; 32 active cores must all be on it.
        let active = mintemp_active_cores(&chip, 32);
        for &c in &active {
            let (row, col) = chip.core_position(c);
            let ring = row.min(col).min(15 - row).min(15 - col);
            assert_eq!(ring, 0, "core at ({row},{col}) not on outer ring");
        }
    }

    #[test]
    fn partial_ring_fill_is_chessboard() {
        let chip = chip();
        let active = mintemp_active_cores(&chip, 30);
        // 30 < 60 (ring size) and < 32 (even-parity cells of the ring + ...):
        // every selected core has even (row+col) parity.
        for &c in &active {
            let (row, col) = chip.core_position(c);
            assert_eq!(
                (row + col) % 2,
                0,
                "core at ({row},{col}) breaks chessboard"
            );
        }
    }

    #[test]
    fn allocation_grows_monotonically() {
        // The first p cores of a (p+k)-core allocation are the p-core set.
        let chip = chip();
        let order = mintemp_order(&chip);
        for p in [32u16, 64, 128, 192] {
            let small: std::collections::BTreeSet<_> =
                mintemp_active_cores(&chip, p).into_iter().collect();
            let prefix: std::collections::BTreeSet<_> =
                order.iter().copied().take(p as usize).collect();
            assert_eq!(small, prefix);
        }
    }

    #[test]
    fn outer_rings_fill_before_inner() {
        let chip = chip();
        // 128 actives: rings 0 (60) + 1 (52) = 112 fully used, 16 in ring 2.
        let active = mintemp_active_cores(&chip, 128);
        let mut per_ring = [0u16; 8];
        for &c in &active {
            let (row, col) = chip.core_position(c);
            let ring = row.min(col).min(15 - row).min(15 - col);
            per_ring[ring as usize] += 1;
        }
        assert_eq!(per_ring[0], 60);
        assert_eq!(per_ring[1], 52);
        assert_eq!(per_ring[2], 16);
        assert_eq!(per_ring[3..].iter().sum::<u16>(), 0);
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            mintemp_active_cores(&chip(), 100),
            mintemp_active_cores(&chip(), 100)
        );
    }

    #[test]
    #[should_panic(expected = "out of 1..=")]
    fn zero_cores_rejected() {
        let _ = mintemp_active_cores(&chip(), 0);
    }

    #[test]
    fn policy_mintemp_matches_direct_function() {
        let chip = chip();
        for p in [32u16, 100, 256] {
            assert_eq!(
                active_cores(&chip, p, AllocationPolicy::Mintemp),
                mintemp_active_cores(&chip, p)
            );
        }
    }

    #[test]
    fn clustered_fills_row_major() {
        let chip = chip();
        let a = active_cores(&chip, 48, AllocationPolicy::Clustered);
        let ids: Vec<u16> = a.iter().map(|c| c.0).collect();
        assert_eq!(ids, (0..48).collect::<Vec<_>>());
    }

    #[test]
    fn inner_first_picks_the_center() {
        let chip = chip();
        let a = active_cores(&chip, 4, AllocationPolicy::InnerFirst);
        for &c in &a {
            let (row, col) = chip.core_position(c);
            assert!(
                (6..=9).contains(&row) && (6..=9).contains(&col),
                "({row},{col})"
            );
        }
    }

    #[test]
    fn checkerboard_has_uniform_parity() {
        let chip = chip();
        let a = active_cores(&chip, 128, AllocationPolicy::Checkerboard);
        for &c in &a {
            let (row, col) = chip.core_position(c);
            assert_eq!((row + col) % 2, 0);
        }
    }

    #[test]
    fn all_policies_return_sorted_unique_sets() {
        let chip = chip();
        for policy in [
            AllocationPolicy::Mintemp,
            AllocationPolicy::Clustered,
            AllocationPolicy::InnerFirst,
            AllocationPolicy::Checkerboard,
        ] {
            let a = active_cores(&chip, 96, policy);
            assert_eq!(a.len(), 96);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "{policy:?}");
        }
    }
}
