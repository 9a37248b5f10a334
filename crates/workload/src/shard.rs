//! Shard decomposition of the reproduction's capture set.
//!
//! The paper's dataset is a union of independent **captures**: four
//! vantage points monitored over the 42-day Mar–May window, plus the
//! Campus 1 Jun/Jul re-capture with Dropbox 1.4.0 (Table 4). Each capture
//! is a pure function of `(vantage point, day window, client version,
//! seed, fault plan)` — separate deployments, separate probes, separate
//! seed streams.
//!
//! With only five captures (and one dominating the cost), capture-level
//! sharding caps the useful worker count at ~2×. The unit of parallel
//! work is therefore one level finer: a contiguous **household range** of
//! one capture ([`HouseholdShard`]). This cut is sound because the driver
//! simulates each household from its own seed stream
//! ([`simcore::par::household_stream`] — a pure function of capture seed,
//! capture id and household index) against household-local state only, so
//! any contiguous partition of a capture's population replays identical
//! per-household bytes and a merge in household order
//! ([`SpanFold::merge`]) reproduces the serial sweep exactly.
//!
//! [`ShardPlan::paper`] enumerates the five captures and cuts each into
//! [`ShardPlan::sub_shards`] household ranges; [`simulate_shards_into`]
//! runs the ranges on [`simcore::par`]'s deterministic fork-join executor,
//! each folding its records into its own [`SpanFold`], and merges the
//! folds into captures in canonical order. The result is
//! **byte-identical at every `--jobs` value and every sub-shard count** —
//! `crates/workload/tests/parallel_identity.rs` pins this, and the
//! `fault_identity` digests pin each capture's stream against committed
//! artifacts.
//!
//! Finer *day-window* cuts (splitting one household's days across
//! workers) remain deliberately unoffered: within a household, commits
//! propagate to arbitrarily later sessions (the login synchronisation
//! burst) and the sync engine's state spans the whole window, so a
//! day cut would either change bytes or re-simulate everything it cut
//! away. `DESIGN.md` §7 documents the boundary as part of the
//! determinism contract.

use crate::driver::{simulate_span_impl, simulate_vantage, SimOutput, SpanFold, VantageStats};
use crate::vantage::{VantageConfig, VantageKind};
use dropbox::client::ClientVersion;
use dropbox::spec::{self, ProviderSpec};
use simcore::faults::FaultPlan;
use simcore::par;
use simcore::{Rng, ShardId};
use std::ops::Range;
use tcpmodel::AccessLink;

/// One independently simulable capture: a vantage point observed over one
/// simulated day window with one client generation.
#[derive(Clone, Debug)]
pub struct CaptureShard {
    /// Stable identity (derived from the vantage-point name — the label
    /// [`simulate_vantage`] has always forked its root stream from).
    pub id: ShardId,
    /// Human-readable shard name, e.g. `campus1/days0-42/v1.2.52`.
    pub label: String,
    /// Which vantage point.
    pub kind: VantageKind,
    /// Client generation active during the window.
    pub version: ClientVersion,
    /// Length of the simulated day window.
    pub days: u32,
    /// Mixed into the master seed to separate same-vantage windows
    /// (`0x14` tags the Jun/Jul re-capture; `0` the Mar–May window —
    /// the historical derivation, pinned by the committed `results/`).
    pub seed_tag: u64,
    /// Position of this capture's output in the merged capture list.
    pub merge_slot: usize,
    /// Provider protocol the capture's synced devices speak (Dropbox for
    /// the paper's captures; swapped by the provider-matrix runs).
    pub protocol: &'static ProviderSpec,
    /// Forced access-link profile (`None` = per-vantage access mix).
    pub link: Option<&'static AccessLink>,
}

impl CaptureShard {
    /// The capture-level seed: the master seed with the window tag mixed
    /// in. The four Mar–May shards use the master seed unchanged, so
    /// every historical `simulate_vantage(config, version, seed, plan)`
    /// call is a capture of a plan — bytes pinned by `fault_identity`.
    pub fn capture_seed(&self, master_seed: u64) -> u64 {
        master_seed ^ self.seed_tag
    }

    /// The capture's independent SplitMix64-derived seed stream — exactly
    /// the root stream [`simulate_vantage`] derives internally for this
    /// capture.
    pub fn stream(&self, master_seed: u64) -> Rng {
        par::shard_stream(self.capture_seed(master_seed), self.id)
    }

    /// Vantage configuration for this shard at a population scale.
    pub fn config(&self, scale: f64) -> VantageConfig {
        let mut config = VantageConfig::paper(self.kind, scale);
        config.days = self.days;
        config.protocol = self.protocol;
        config.link = self.link;
        config
    }

    /// Deterministic relative cost estimate of simulating the household
    /// range `households` of this capture at `scale`.
    ///
    /// Derived from the shard's size rather than measured: cost is linear
    /// in the day window, and a client household (sync planes, rendered
    /// device flows) costs roughly two orders of magnitude more than a
    /// client-less address (web/background rendering only) — the
    /// `clients × 100 + addresses` blend reproduces the measured
    /// capture-cost ordering (Campus 2 > Home 1 > Home 2 > Campus 1 >
    /// re-capture; see `BENCH_parallel.json`). Only scheduling reads
    /// this — output never depends on it.
    pub fn range_weight(&self, scale: f64, households: &Range<usize>) -> u64 {
        let config = self.config(scale);
        let len = households.len() as u64;
        let clients = (households.len() as f64 * config.dropbox_penetration).ceil() as u64;
        (clients * 100 + len).max(1) * u64::from(self.days.max(1))
    }

    /// Cost estimate for the whole capture.
    pub fn weight(&self, scale: f64) -> u64 {
        self.range_weight(scale, &(0..self.config(scale).addresses))
    }

    /// Simulate this whole capture. Pure: the output is a function of
    /// `(self, scale, master_seed, faults)` only.
    pub fn simulate(&self, scale: f64, master_seed: u64, faults: &FaultPlan) -> SimOutput {
        simulate_vantage(
            &self.config(scale),
            self.version,
            self.capture_seed(master_seed),
            faults,
        )
    }
}

/// One unit of parallel work: a contiguous household range of one
/// capture's population.
///
/// Its identity — `(capture, households)` — is stable: it names *what is
/// simulated*, never which worker runs it or how many ranges the capture
/// was cut into, so every seed derivation reachable from a shard is a
/// pure function of stable identity (simlint's `shard-seed` rule).
#[derive(Clone, Debug)]
pub struct HouseholdShard {
    /// Index into [`ShardPlan::shards`] of the owning capture.
    pub capture: usize,
    /// Household range `[start, end)` of that capture's population.
    pub households: Range<usize>,
    /// Deterministic relative cost estimate (scheduling only; see
    /// [`CaptureShard::range_weight`]).
    pub weight: u64,
}

/// An ordered set of capture shards plus the sub-capture cut. The
/// household-shard order produced by [`ShardPlan::household_shards`] is
/// the *schedule* (descending cost, so greedy workers approximate LPT);
/// merged outputs follow each capture's
/// [`merge_slot`](CaptureShard::merge_slot) and each range's household
/// order instead, so scheduling can never reorder results.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Captures in canonical declaration order.
    pub shards: Vec<CaptureShard>,
    /// How many household ranges to cut each capture into (clamped to at
    /// least 1 and at most the capture's population). Changes wall-clock
    /// granularity only — never bytes.
    pub sub_shards: usize,
}

/// Seed tag of the Campus 1 Jun/Jul re-capture (kept verbatim from the
/// original serial driver so the committed artifact corpus, generated
/// before sharding existed, stays byte-valid).
pub const RECAPTURE_SEED_TAG: u64 = 0x14;

/// Default number of household ranges per capture: enough slack for the
/// LPT schedule to keep 16 workers busy on the heavy captures without
/// paying per-range span overhead on the small ones.
pub const DEFAULT_SUB_SHARDS: usize = 16;

impl ShardPlan {
    /// The paper's five captures: Campus 1/Campus 2/Home 1/Home 2 over
    /// the 42-day Mar–May window (v1.2.52) and the Campus 1 14-day
    /// Jun/Jul re-capture (v1.4.0).
    pub fn paper() -> ShardPlan {
        let capture = |kind: VantageKind,
                       version: ClientVersion,
                       days: u32,
                       seed_tag: u64,
                       merge_slot: usize| {
            let window = if seed_tag == RECAPTURE_SEED_TAG {
                "jun-jul/v1.4.0"
            } else {
                "mar-may/v1.2.52"
            };
            CaptureShard {
                id: ShardId::from_label(kind.name()),
                label: format!(
                    "{}/days0-{days}/{window}",
                    kind.name().to_lowercase().replace(' ', "")
                ),
                kind,
                version,
                days,
                seed_tag,
                merge_slot,
                protocol: &spec::DROPBOX,
                link: None,
            }
        };
        use ClientVersion::{V1_2_52, V1_4_0};
        use VantageKind::{Campus1, Campus2, Home1, Home2};
        ShardPlan {
            shards: vec![
                capture(Campus2, V1_2_52, 42, 0, 1),
                capture(Home1, V1_2_52, 42, 0, 2),
                capture(Home2, V1_2_52, 42, 0, 3),
                capture(Campus1, V1_2_52, 42, 0, 0),
                capture(Campus1, V1_4_0, 14, RECAPTURE_SEED_TAG, 4),
            ],
            sub_shards: DEFAULT_SUB_SHARDS,
        }
    }

    /// A copy of the plan with every window truncated to at most `days`
    /// days — the identity tests use this to exercise the full shard
    /// machinery at test-sized populations.
    pub fn truncated(&self, days: u32) -> ShardPlan {
        let mut plan = self.clone();
        for shard in &mut plan.shards {
            shard.days = shard.days.min(days);
        }
        plan
    }

    /// A copy of the plan cut into `k` household ranges per capture.
    pub fn with_sub_shards(&self, k: usize) -> ShardPlan {
        let mut plan = self.clone();
        plan.sub_shards = k;
        plan
    }

    /// A copy of the plan with every capture's devices speaking the given
    /// provider protocol (the provider-matrix runs).
    pub fn with_protocol(&self, protocol: &'static ProviderSpec) -> ShardPlan {
        let mut plan = self.clone();
        for shard in &mut plan.shards {
            shard.protocol = protocol;
        }
        plan
    }

    /// A copy of the plan with every household forced onto the given
    /// access-link profile (the `--access wifi|lte` runs).
    pub fn with_link(&self, link: &'static AccessLink) -> ShardPlan {
        let mut plan = self.clone();
        for shard in &mut plan.shards {
            shard.link = Some(link);
        }
        plan
    }

    /// Cut every capture's population into contiguous household ranges
    /// and return them in schedule order (descending weight; ties broken
    /// by stable capture identity, then range start, so the schedule is
    /// itself deterministic).
    ///
    /// For each capture the ranges partition `0..addresses` exactly:
    /// range `r` of `k` is `[r·A/k, (r+1)·A/k)`, so concatenating the
    /// ranges in household order re-yields the serial sweep.
    pub fn household_shards(&self, scale: f64) -> Vec<HouseholdShard> {
        let k = self.sub_shards.max(1);
        let mut out: Vec<HouseholdShard> = Vec::new();
        for (ci, shard) in self.shards.iter().enumerate() {
            let addresses = shard.config(scale).addresses;
            let k_eff = k.min(addresses).max(1);
            for r in 0..k_eff {
                let households = r * addresses / k_eff..(r + 1) * addresses / k_eff;
                let weight = shard.range_weight(scale, &households);
                out.push(HouseholdShard {
                    capture: ci,
                    households,
                    weight,
                });
            }
        }
        out.sort_by(|a, b| {
            b.weight
                .cmp(&a.weight)
                .then_with(|| {
                    self.shards[a.capture]
                        .merge_slot
                        .cmp(&self.shards[b.capture].merge_slot)
                })
                .then_with(|| a.households.start.cmp(&b.households.start))
        });
        out
    }
}

/// Simulate every household shard of `plan` on up to `jobs` workers, fold
/// each range's records into its own `new_fold(capture)`, and return one
/// merged fold per capture with its counters, in merge order (Campus 1,
/// Campus 2, Home 1, Home 2, re-capture for [`ShardPlan::paper`]).
///
/// A worker folds the records of the range it simulates as the monitor
/// finalises them, so no range's record vector is ever materialised
/// unless the fold keeps it ([`SimOutput`] does). The range folds merge in
/// household order: `jobs == 1` runs strictly serially on the calling
/// thread; any other value — and any [`ShardPlan::sub_shards`] count —
/// changes wall-clock time only, never the merged folds.
pub fn simulate_shards_into<F: SpanFold>(
    plan: &ShardPlan,
    scale: f64,
    master_seed: u64,
    faults: &FaultPlan,
    jobs: usize,
    new_fold: impl Fn(&CaptureShard) -> F + Sync,
) -> Vec<(F, VantageStats)> {
    let work = plan.household_shards(scale);
    let spans = par::fork_join(jobs, &work, |_, hs| {
        let shard = &plan.shards[hs.capture];
        let mut fold = new_fold(shard);
        let stats = simulate_span_impl(
            &shard.config(scale),
            shard.version,
            shard.capture_seed(master_seed),
            faults,
            hs.households.clone(),
            &mut |rec, truth| fold.accept(rec, truth),
            None,
        );
        (fold, stats)
    });

    // The deterministic merge, step 1: bucket completed spans by owning
    // capture, keyed by range start (schedule order -> household order).
    let mut per_capture: Vec<Vec<(usize, (F, VantageStats))>> =
        (0..plan.shards.len()).map(|_| Vec::new()).collect();
    for (hs, span) in work.iter().zip(spans) {
        per_capture[hs.capture].push((hs.households.start, span));
    }

    // Step 2: merge each capture's spans in household order, then place
    // captures by merge slot (canonical capture order).
    let mut slots: Vec<Option<(F, VantageStats)>> = (0..plan.shards.len()).map(|_| None).collect();
    for (ci, shard) in plan.shards.iter().enumerate() {
        let mut spans = std::mem::take(&mut per_capture[ci]);
        spans.sort_by_key(|(start, _)| *start);
        let mut spans = spans.into_iter().map(|(_, span)| span);
        let (mut fold, mut stats) = spans.next().expect("every capture has a household range");
        for (later, later_stats) in spans {
            fold.merge(later);
            stats.merge(later_stats);
        }
        assert!(
            slots[shard.merge_slot].is_none(),
            "merge slot {} assigned twice",
            shard.merge_slot
        );
        slots[shard.merge_slot] = Some((fold, stats));
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(slot, out)| out.unwrap_or_else(|| panic!("merge slot {slot} unassigned")))
        .collect()
}

/// [`simulate_shards_into`] with the materialising fold: every capture's
/// records and ground truth, in merge order.
pub fn simulate_shards(
    plan: &ShardPlan,
    scale: f64,
    master_seed: u64,
    faults: &FaultPlan,
    jobs: usize,
) -> Vec<SimOutput> {
    simulate_shards_into(plan, scale, master_seed, faults, jobs, |shard| {
        SimOutput::new(&shard.config(scale))
    })
    .into_iter()
    .map(|(out, stats)| out.with_stats(stats))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_covers_the_five_captures() {
        let plan = ShardPlan::paper();
        assert_eq!(plan.shards.len(), 5);
        assert_eq!(plan.sub_shards, DEFAULT_SUB_SHARDS);
        // Merge slots are a permutation of 0..5.
        let mut slots: Vec<usize> = plan.shards.iter().map(|s| s.merge_slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
        // Derived capture weights reproduce the measured cost ordering
        // (Campus 2 > Home 1 > Home 2 > Campus 1 > re-capture).
        let weights: Vec<u64> = plan.shards.iter().map(|s| s.weight(1.0)).collect();
        let mut sorted = weights.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(
            weights, sorted,
            "captures must be cost-ordered: {weights:?}"
        );
        // Four 42-day Mar–May windows + one 14-day re-capture.
        assert_eq!(
            plan.shards.iter().filter(|s| s.days == 42).count(),
            4,
            "{plan:?}"
        );
        let recapture = plan
            .shards
            .iter()
            .find(|s| s.seed_tag == RECAPTURE_SEED_TAG)
            .expect("re-capture shard present");
        assert_eq!(recapture.days, 14);
        assert_eq!(recapture.kind, VantageKind::Campus1);
        assert_eq!(recapture.version, ClientVersion::V1_4_0);
        assert_eq!(recapture.merge_slot, 4);
    }

    #[test]
    fn household_shards_partition_every_population() {
        let plan = ShardPlan::paper();
        for scale in [0.01, 0.1, 1.0] {
            let work = plan.household_shards(scale);
            let expected: usize = plan
                .shards
                .iter()
                .map(|s| s.config(scale).addresses.min(plan.sub_shards))
                .sum();
            assert_eq!(work.len(), expected);
            for (ci, shard) in plan.shards.iter().enumerate() {
                let addresses = shard.config(scale).addresses;
                let mut ranges: Vec<Range<usize>> = work
                    .iter()
                    .filter(|hs| hs.capture == ci)
                    .map(|hs| hs.households.clone())
                    .collect();
                ranges.sort_by_key(|r| r.start);
                // Contiguous, disjoint, and covering 0..addresses.
                assert_eq!(ranges.first().unwrap().start, 0, "{}", shard.label);
                assert_eq!(ranges.last().unwrap().end, addresses, "{}", shard.label);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "{}", shard.label);
                }
            }
        }
    }

    #[test]
    fn household_shards_clamp_to_tiny_populations() {
        // More requested sub-shards than households: one range per
        // household, never an empty range.
        let plan = ShardPlan::paper().with_sub_shards(64);
        let work = plan.household_shards(0.001); // 8-address minimum
        assert!(work.iter().all(|hs| !hs.households.is_empty()));
        for (ci, shard) in plan.shards.iter().enumerate() {
            let addresses = shard.config(0.001).addresses;
            let count = work.iter().filter(|hs| hs.capture == ci).count();
            assert_eq!(count, addresses.min(64), "{}", shard.label);
        }
    }

    #[test]
    fn schedule_is_weight_ordered_and_deterministic() {
        let plan = ShardPlan::paper();
        let work = plan.household_shards(0.1);
        for w in work.windows(2) {
            assert!(w[0].weight >= w[1].weight, "schedule must be LPT-ordered");
        }
        // Weights derive from range size × days, so the heaviest unit of
        // work belongs to the heaviest capture (Campus 2, merge slot 1).
        assert_eq!(plan.shards[work[0].capture].merge_slot, 1);
        // Deterministic: same inputs, same schedule.
        let again = plan.household_shards(0.1);
        let key = |hs: &HouseholdShard| (hs.capture, hs.households.clone());
        assert!(work.iter().map(key).eq(again.iter().map(key)));
    }

    #[test]
    fn shard_stream_matches_the_driver_root_derivation() {
        // The shard's advertised seed stream must be exactly the root
        // stream simulate_vantage derives, or the contract docs lie.
        let plan = ShardPlan::paper();
        for shard in &plan.shards {
            let mut advertised = shard.stream(2012);
            let mut driver = Rng::new(shard.capture_seed(2012)).fork_named(shard.kind.name());
            for _ in 0..16 {
                assert_eq!(advertised.next_u64(), driver.next_u64(), "{}", shard.label);
            }
        }
    }

    #[test]
    fn truncation_preserves_identity_and_caps_days() {
        let plan = ShardPlan::paper().truncated(5);
        assert!(plan.shards.iter().all(|s| s.days == 5));
        assert_eq!(plan.shards.len(), 5);
        assert_eq!(plan.sub_shards, DEFAULT_SUB_SHARDS);
    }

    #[test]
    fn shard_outputs_match_direct_simulation() {
        // The shard wrapper is plumbing, not semantics: its output must
        // equal a direct simulate_vantage call with the historical
        // arguments.
        let plan = ShardPlan::paper().truncated(3);
        let shard = &plan.shards[0]; // Campus 2, the heavy one
        let via_shard = shard.simulate(0.012, 7, &FaultPlan::none());
        let mut config = VantageConfig::paper(shard.kind, 0.012);
        config.days = 3;
        let direct = simulate_vantage(&config, shard.version, 7, &FaultPlan::none());
        assert_eq!(via_shard.dataset.flows.len(), direct.dataset.flows.len());
        let bytes =
            |o: &SimOutput| -> u64 { o.dataset.flows.iter().map(|f| f.total_bytes()).sum() };
        assert_eq!(bytes(&via_shard), bytes(&direct));
    }

    #[test]
    fn sub_sharded_run_matches_whole_capture_simulation() {
        // The household-range cut is plumbing, not semantics: cutting a
        // capture into ranges and merging must reproduce the uncut run.
        let plan = ShardPlan::paper().truncated(2);
        let whole = simulate_shards(&plan.with_sub_shards(1), 0.012, 3, &FaultPlan::none(), 1);
        for k in [4, 16] {
            let cut = simulate_shards(&plan.with_sub_shards(k), 0.012, 3, &FaultPlan::none(), 1);
            assert_eq!(cut.len(), whole.len());
            for (a, b) in cut.iter().zip(&whole) {
                assert_eq!(a.dataset.flows.len(), b.dataset.flows.len(), "k={k}");
                assert_eq!(a.lan_synced, b.lan_synced, "k={k}");
                assert_eq!(a.truth_users, b.truth_users, "k={k}");
                let bytes = |o: &SimOutput| -> u64 {
                    o.dataset.flows.iter().map(|f| f.total_bytes()).sum()
                };
                assert_eq!(bytes(a), bytes(b), "k={k}");
            }
        }
    }

    #[test]
    fn merge_order_is_canonical_regardless_of_schedule_order() {
        let plan = ShardPlan::paper().truncated(2);
        let outs = simulate_shards(&plan, 0.012, 3, &FaultPlan::none(), 2);
        assert_eq!(outs.len(), 5);
        let names: Vec<&str> = outs.iter().map(|o| o.dataset.name.as_str()).collect();
        assert_eq!(
            names,
            ["Campus 1", "Campus 2", "Home 1", "Home 2", "Campus 1"],
            "merge must follow canonical capture order, not schedule order"
        );
        assert_eq!(outs[4].dataset.days, 2);
    }
}
