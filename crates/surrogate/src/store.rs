//! The process-wide kernel store.
//!
//! A [`KernelSet`] is a pure function of the package family (chip, rules,
//! 2.5D stack, thermal configuration) and its (interposer edge, chiplet
//! count) key — it never depends on the benchmark or on any solver
//! history. So every [`ThermalSurrogate`](crate::ThermalSurrogate) built
//! for an equal family shares one [`KernelTable`], and a set built for one
//! evaluator serves every later one.
//!
//! Each key holds its own [`OnceLock`], so concurrent misses on one key
//! build it once while the other callers wait; a builder that panics
//! leaves the cell empty and the next caller retries. The store lives for
//! the process and never evicts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::layers::StackSpec;
use tac25d_floorplan::organization::PackageRules;
use tac25d_thermal::model::ThermalConfig;

use crate::KernelSet;

/// Everything a kernel set depends on besides its (edge, r) key.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Family {
    pub chip: ChipSpec,
    pub rules: PackageRules,
    pub stack: StackSpec,
    pub thermal: ThermalConfig,
}

/// One build-once cell; `None` marks a key whose construction failed or
/// whose chiplets do not fit the edge.
type Cell = Arc<OnceLock<Option<Arc<KernelSet>>>>;

/// The kernel sets of one package family, keyed by (half-mm interposer
/// edge, chiplet count).
#[derive(Debug)]
pub(crate) struct KernelTable {
    pub family: Family,
    cells: Mutex<HashMap<(i64, u16), Cell>>,
}

impl KernelTable {
    /// The table shared by every surrogate of `family`. Families are
    /// compared with `PartialEq` (their fields hold floats, so there is no
    /// `Hash`); a process sees a handful, so a linear scan suffices.
    pub fn shared(family: Family) -> Arc<KernelTable> {
        static STORE: Mutex<Vec<Arc<KernelTable>>> = Mutex::new(Vec::new());
        let mut tables = STORE.lock().expect("lock poisoned");
        if let Some(table) = tables.iter().find(|t| t.family == family) {
            return Arc::clone(table);
        }
        let table = Arc::new(KernelTable {
            family,
            cells: Mutex::new(HashMap::new()),
        });
        tables.push(Arc::clone(&table));
        table
    }

    /// The set stored under `key`, running `build` first if no caller has
    /// finished building it yet. The table lock is held only to find the
    /// key's cell, never across a build.
    pub fn get_or_build(
        &self,
        key: (i64, u16),
        build: impl FnOnce() -> Option<Arc<KernelSet>>,
    ) -> Option<Arc<KernelSet>> {
        let cell = Arc::clone(
            self.cells
                .lock()
                .expect("lock poisoned")
                .entry(key)
                .or_default(),
        );
        cell.get_or_init(build).clone()
    }
}
