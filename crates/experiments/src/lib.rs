//! Experiment harness: regenerates every table and figure of the paper.
//!
//! * [`run`] — simulates the four vantage points (and the Campus 1
//!   Jun/Jul re-capture with Dropbox 1.4.0) as shards of
//!   `workload::ShardPlan::paper` on `simcore::par`'s deterministic
//!   fork-join executor; `--jobs N` changes wall-clock time only, never
//!   a single output byte,
//! * [`summary`] — the single-pass streaming summary: each household
//!   range folds its records into a [`summary::VantageFold`] on the worker
//!   that simulates it, the folds merge in household order, and
//!   tables/figures render from the resulting [`summary::CaptureSummary`]
//!   without a capture ever being held in memory,
//! * [`report`] — plain-text/CSV report plumbing,
//! * [`tables`] — Tables 1–5,
//! * [`figures`] — Figures 1–21,
//! * [`validation`] — ground-truth scoring of the analysis methods
//!   (classification accuracy, chunk-estimation error, user inference),
//!   the check the original authors could only perform inside a testbed,
//! * [`recommendations`] — the Sec. 4.5 countermeasure ablation
//!   (bundling / delayed acks / closer data-centers), all three
//!   implemented and measured,
//! * [`ablations`] — parameter sweeps for the design choices DESIGN.md
//!   calls out (server initcwnd, loss rate, batch limit, outage knobs),
//! * [`chaos`] — the chaos-soak harness (`repro --chaos N`): many seeded
//!   control-plane fault scenarios, each audited by the driver and
//!   checked against the sync-convergence oracle (DESIGN.md §9),
//! * [`providers`] — the provider matrix (`repro --provider-matrix`):
//!   competing [`dropbox::spec`] protocol specifications driven through
//!   the same Home 1 workload, plus the bundling-vs-RTT sweep
//!   (DESIGN.md §10).
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! repro all --scale 0.1 --seed 7 --jobs 4 --out results/
//! repro fig9 table5
//! ```

pub mod ablations;
pub mod chaos;
pub mod chart;
pub mod figures;
pub mod providers;
pub mod recommendations;
pub mod report;
pub mod run;
pub mod summary;
pub mod tables;
pub mod validation;

pub use report::Report;
pub use run::{run_capture, run_summary, Capture};
pub use summary::CaptureSummary;

/// A report rendered from a capture summary.
pub type SummaryReport = fn(&CaptureSummary) -> Report;

/// Every report `repro` renders from a [`CaptureSummary`], by id, in
/// output order.
pub const SUMMARY_REPORTS: [(&str, SummaryReport); 24] = [
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5_report),
    ("fig2", figures::fig2),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    ("fig16", figures::fig16),
    ("fig17", figures::fig17),
    ("fig18", figures::fig18),
    ("fig20", figures::fig20),
    ("fig21", figures::fig21),
    ("validation", validation::report),
];
