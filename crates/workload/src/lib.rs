//! Workload generation: the populations, behaviours, and schedules that
//! drive the simulated Dropbox deployment at the four vantage points.
//!
//! * [`vantage`] — per-vantage-point configuration: population sizes,
//!   access technologies, RTT bands to the storage and control
//!   data-centers, loss rates, and capability flags (Table 2 / Sec. 3.2),
//! * [`population`] — households, devices and users: behaviour groups
//!   (Sec. 5.1), devices per household (Fig. 12), namespaces per device
//!   (Fig. 13), and the special actors (the Home 2 misbehaving uploader),
//! * [`activity`] — session schedules (diurnal and weekly patterns,
//!   Figs. 14–16) and file-event processes per behaviour group,
//! * [`providers`] — background services at flow fidelity: iCloud,
//!   SkyDrive, Google Drive (with its launch-day step), the smaller
//!   providers, YouTube, and residual traffic (Figs. 2–3),
//! * [`driver`] — the end-to-end simulation: plays every device's sessions
//!   through the `dropbox` protocol engine and the `tcpmodel` network onto
//!   a `tstat` monitor, producing one `dropbox_analysis`-ready dataset
//!   of flow records per vantage point,
//! * [`audit`] / [`oracle`] — the chaos-soak ground truth: the driver
//!   journals every commit, delivery, excuse, flush, and reconnect into a
//!   [`SyncAudit`] ledger, and the read-only convergence oracle checks
//!   the sync invariants of DESIGN.md §9 over it after quiescence,
//! * [`shard`] — the parallel decomposition: each of the five captures
//!   cut into contiguous *household ranges* with independent per-household
//!   seed streams, executed on `simcore::par` so `--jobs N` runs are
//!   byte-identical to serial runs at every job and sub-shard count.
//!
//! [`simulate_vantage`] is a household sweep: every household is played
//! from its own seed stream (`simcore::par::household_stream`) against
//! household-local state, so any contiguous range of the sweep can run on
//! its own worker, fold its records into a [`SpanFold`], and the folds
//! merge back byte-identically in household order. Parallelism happens
//! between household ranges, via [`shard::simulate_shards_into`];
//! `DESIGN.md` §7 pins the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod audit;
pub mod driver;
pub mod oracle;
pub mod population;
pub mod providers;
pub mod shard;
pub mod vantage;

pub use audit::SyncAudit;
pub use driver::{
    simulate_vantage, simulate_vantage_audited, FaultStats, SimOutput, SpanFold, VantageStats,
};
pub use oracle::Violation;
pub use shard::{simulate_shards, simulate_shards_into, CaptureShard, HouseholdShard, ShardPlan};
pub use simcore::faults::{FaultPlan, FlowFaults, OutageKnobs};
pub use vantage::{VantageConfig, VantageKind};
