//! `ecl-check`: data-race sanitizer and kernel launch-config linter
//! for `ecl-gpusim`.
//!
//! Two of the paper's three derived optimizations are
//! launch-configuration defects — ECL-MST launches grids sized by a
//! stale worklist capacity (§6.3) and ECL-SCC's oversized blocks
//! charge barrier slots to idle lanes (§6.2) — and the ECL kernels
//! lean on benign-race idioms (monotonic updates, pointer jumping,
//! idempotent resets) that a general-purpose tool cannot tell from
//! real races. This crate puts both checks in the framework layer:
//!
//! - the **race detector** rebuilds shadow memory per kernel-launch
//!   epoch from the simulator's access hooks and reports write/write
//!   and read/write conflicts between distinct agents on non-atomic
//!   accesses ([`shadow`]); counted atomics (`cas`, `fetch_min`,
//!   `fetch_max`) are exempt by construction. [`CheckedSlice`] names
//!   regions and carries the benign allowlist attribute ([`region`]).
//! - the **launch linter** audits every `LaunchConfig` with four
//!   rules ([`Rule`]): `over-launch`, `block-sync-waste`,
//!   `occupancy`, `divergent-sync`.
//!
//! A [`CheckSession`] attaches the checker to one `Device`; kernels
//! need no changes beyond naming their launches
//! (`launch_flat_named`) and optionally declaring regions on the
//! device. Findings fold by (rule, kernel, region) into a [`Report`]
//! and are mirrored as `EventKind::CheckFinding` trace events so they
//! appear in the `ecl-trace` timelines.
//!
//! ```
//! use ecl_check::{run_checked, CheckedSlice, Rule};
//! use ecl_gpusim::{atomics::atomic_u32_array, launch_flat_named, Device, LaunchConfig};
//!
//! let device = Device::test_small();
//! let ((), report) = run_checked(&device, || {
//!     let cells = atomic_u32_array(4, |_| 0);
//!     let cells = CheckedSlice::new(&device, "demo.cells", &cells);
//!     launch_flat_named(&device, "demo.k", LaunchConfig::new(2, 8), |t| {
//!         cells[t.global % 4].store(1, t.hooks); // 4 writers per cell: a W/W race
//!     });
//! });
//! assert!(report.has(Rule::WriteWriteRace));
//! ```

pub mod checker;
pub mod fixtures;
pub mod lint;
pub mod region;
pub mod report;
pub mod shadow;

pub use checker::{run_checked, CheckConfig, CheckSession};
pub use lint::{lint_schedule, lint_schedules};
pub use region::{register_benign_region, register_region, CheckedSlice, RegionHandle};
pub use report::{Finding, Report, Rule};
