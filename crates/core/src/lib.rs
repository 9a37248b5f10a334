//! The paper's analysis methodology — the primary contribution being
//! reproduced.
//!
//! Everything in this crate consumes only [`nettrace::FlowRecord`]s (the
//! monitor's per-flow export); nothing here touches generator state, so the
//! same functions would run unchanged on real Tstat logs:
//!
//! * [`classify`] — service classification from TLS/DNS names (Sec. 3.1),
//!   cloud-provider attribution (Sec. 3.3), Dropbox server-role breakdown
//!   (Fig. 4), and the `f(u)` store/retrieve tagger (Appendix A.2),
//! * [`chunks`] — PSH-based chunk-count estimation and its payload
//!   validation (Appendix A.3, Figs. 8 and 21),
//! * [`throughput`] — flow duration rules (Appendix A.4), throughput
//!   computation, and the TCP slow-start bound θ of Fig. 9,
//! * [`groups`] — household aggregation and the occasional / upload-only /
//!   download-only / heavy user taxonomy (Sec. 5.1, Table 5),
//! * [`sessions`] — device sessions from notification flows: start-ups,
//!   active devices, durations, namespaces (Secs. 5.2–5.5),
//! * [`users`] — account inference by namespace-list comparison
//!   (Sec. 2.3.1), scored against ground truth by the harness,
//! * [`dataset`] — the vantage-point dataset wrapper and summary tables,
//! * [`stream`] — the single-pass analysis substrate: the mergeable
//!   [`stream::Accumulate`] trait every analysis implements, so each
//!   household range of a capture folds on its own worker and the states
//!   merge in household order (mirroring the paper's on-line Tstat
//!   processing).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunks;
pub mod classify;
pub mod dataset;
pub mod groups;
pub mod sessions;
pub mod stream;
pub mod throughput;
pub mod users;

pub use classify::{DropboxRole, Provider, StorageTag};
pub use dataset::Dataset;
pub use stream::Accumulate;
