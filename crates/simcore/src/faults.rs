//! Deterministic fault injection: the seeded plan describing how a run's
//! network and servers misbehave.
//!
//! Real vantage-point traces are full of imperfect transfers — last-mile
//! loss, latency spikes, connections cut mid-flow by gateways, and storage
//! front-ends that briefly refuse service. A [`FaultPlan`] captures those
//! knobs as a *pure value* derived from a single seed via [`crate::dist`]
//! samplers, so a faulty simulation stays a deterministic function of
//! `(config, seed, plan)`: the same plan produces bit-identical faults on
//! every run. The plan is the only fault switch: consumers have one code
//! path, and every fault decision on it is inert under [`FaultPlan::none`]
//! (no window is open, no probability is positive, and
//! [`FaultPlan::link_faults`] returns before drawing), so a fault-free run
//! consumes no fault randomness.
//!
//! The plan is consumed at three levels:
//!
//! * per-flow link faults ([`FaultPlan::link_faults`]) — extra segment
//!   loss and latency spikes that `tcpmodel` applies on top of the path's
//!   base loss, plus mid-flow resets that truncate the transfer,
//! * server availability windows ([`FaultPlan::server_available`]) — the
//!   5xx/outage periods the sync client must back off from and retry,
//! * control-plane events ([`FaultPlan::notify_available`],
//!   [`FaultPlan::meta_available`], [`FaultPlan::degraded_at`]) — the
//!   notification-server outages, metadata unavailability windows, and
//!   partial-degradation (elevated 5xx) periods that drive the client's
//!   degraded-mode state machine: poll fallback, offline queueing, and
//!   the reconnect storm at outage end.
//!
//! Control-plane windows are drawn from their own *non-advancing* named
//! forks of the plan seed (`faultplan-notify`, `faultplan-meta`,
//! `faultplan-degraded`), so adding them leaves the storage-outage draw
//! sequence of [`FaultPlan::lossy`] untouched and household sharding
//! byte-identical.

use crate::dist;
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Faults affecting one TCP connection, derived from a [`FaultPlan`].
///
/// `None`-valued members leave the corresponding behaviour untouched; a
/// fully default `FlowFaults` is equivalent to no fault profile at all.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlowFaults {
    /// Segment loss added to the path's base loss rate, both directions.
    pub extra_loss: f64,
    /// Latency spike added to the round-trip time for the whole flow
    /// (modelling a congested or re-routed period).
    pub latency_spike: Option<SimDuration>,
    /// Cut the connection (client RST) once this many application payload
    /// bytes, summed over both directions, have been put on the wire.
    pub reset_after_bytes: Option<u64>,
}

impl FlowFaults {
    /// Combine two optional fault profiles: losses add, the larger spike
    /// wins, and the earlier reset point wins.
    pub fn merged(a: Option<FlowFaults>, b: Option<FlowFaults>) -> Option<FlowFaults> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(FlowFaults {
                extra_loss: a.extra_loss + b.extra_loss,
                latency_spike: match (a.latency_spike, b.latency_spike) {
                    (None, s) | (s, None) => s,
                    (Some(x), Some(y)) => Some(x.max(y)),
                },
                reset_after_bytes: match (a.reset_after_bytes, b.reset_after_bytes) {
                    (None, r) | (r, None) => r,
                    (Some(x), Some(y)) => Some(x.min(y)),
                },
            }),
        }
    }
}

/// Tunable outage statistics: how often outages start and how long they
/// last. The defaults reproduce the historical hard-coded values of
/// [`FaultPlan::lossy`] (mean 2 days between starts, median 3 minutes,
/// capped at an hour), so `lossy(seed, h)` remains byte-identical to all
/// earlier releases. `repro --outage-gap-days` / `--outage-secs` plumb
/// these from the CLI.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutageKnobs {
    /// Mean days between outage starts (exponential gaps).
    pub gap_days: f64,
    /// Median outage duration in seconds (log-normal, σ = 0.7).
    pub median_secs: f64,
    /// Hard cap on a single outage's duration in seconds.
    pub max_secs: f64,
}

impl Default for OutageKnobs {
    fn default() -> Self {
        OutageKnobs {
            gap_days: 2.0,
            median_secs: 180.0,
            max_secs: 3_600.0,
        }
    }
}

/// Draw `[start, end)` outage windows over `horizon_days` from `rng`:
/// exponential gaps between starts, log-normal durations, both shaped by
/// `knobs`. Windows are returned in start order and may overlap only if
/// a duration outruns the next gap (consumers treat the union).
fn draw_windows(rng: &mut Rng, horizon_days: u32, knobs: &OutageKnobs) -> Vec<(SimTime, SimTime)> {
    let mut windows = Vec::new();
    let horizon = f64::from(horizon_days);
    let rate = 1.0 / knobs.gap_days.max(1e-6);
    let mut t_days = 0.0;
    loop {
        t_days += dist::exponential(rng, rate);
        if t_days >= horizon {
            break;
        }
        let start = SimTime::from_micros((t_days * 86_400.0 * 1e6) as u64);
        let secs = dist::lognormal_median(rng, knobs.median_secs.max(1.0), 0.7).min(knobs.max_secs);
        windows.push((start, start + SimDuration::from_secs_f64(secs)));
    }
    windows
}

/// Whether `at` falls inside any `[start, end)` window of `windows`.
fn in_windows(windows: &[(SimTime, SimTime)], at: SimTime) -> bool {
    windows.iter().any(|&(lo, hi)| lo <= at && at < hi)
}

/// End of the window covering `at`, if any. When overlapping windows
/// chain together the latest covering end wins, so callers stepping to
/// the returned time always land outside the covering window set.
fn window_end(windows: &[(SimTime, SimTime)], at: SimTime) -> Option<SimTime> {
    windows
        .iter()
        .filter(|&&(lo, hi)| lo <= at && at < hi)
        .map(|&(_, hi)| hi)
        .max()
}

/// A seeded description of everything that goes wrong during a run.
///
/// All knobs are probabilities or magnitudes; the *decisions* (which flow
/// is degraded, when an outage starts) are drawn from forks of the plan
/// seed or from the caller's deterministic RNG streams, never from OS
/// entropy.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that a flow rides a degraded link window.
    pub link_degraded_p: f64,
    /// Extra segment loss applied to degraded flows (both directions).
    pub link_extra_loss: f64,
    /// Probability that a flow experiences a latency spike.
    pub latency_spike_p: f64,
    /// Median latency-spike magnitude in milliseconds (log-normal,
    /// σ = 0.5).
    pub latency_spike_ms: f64,
    /// Probability that a storage transfer is reset mid-flow.
    pub reset_p: f64,
    /// Probability that a device's notification connection churns through
    /// aborted fragments during a session.
    pub notify_churn_p: f64,
    /// Server unavailability windows (storage/meta front-ends answer 5xx
    /// or refuse connections), as `[start, end)` intervals in time order.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Notification-server outage windows: long-poll connections drop and
    /// reconnects are refused, so clients fall back to periodic polling
    /// until the window closes (then reconnect with capped backoff).
    pub notify_outages: Vec<(SimTime, SimTime)>,
    /// Extra delay, in milliseconds, on notification pushes during
    /// [`FaultPlan::degraded_at`] windows (degraded notification plane:
    /// pushes arrive late instead of not at all).
    pub notify_delay_ms: f64,
    /// Metadata-server unavailability windows: commits are refused, so
    /// clients queue local changes offline (bounded queue, superseded
    /// edits coalesced) and flush after the window closes.
    pub meta_outages: Vec<(SimTime, SimTime)>,
    /// Partial-degradation windows: the control plane answers, but with
    /// elevated 5xx rates ([`FaultPlan::degraded_5xx_p`]) and delayed
    /// pushes ([`FaultPlan::notify_delay_ms`]).
    pub degraded: Vec<(SimTime, SimTime)>,
    /// Probability that a control-plane exchange inside a degraded window
    /// draws a 5xx and must be retried once.
    pub degraded_5xx_p: f64,
}

impl FaultPlan {
    /// The empty plan: no faults, no randomness consumed anywhere. Its
    /// window lists are empty, so every availability query answers "up";
    /// its probabilities are zero, so no guarded draw happens; and
    /// [`FaultPlan::link_faults`] returns before drawing. Consumers need no
    /// separate fault-free path.
    pub fn none() -> Self {
        FaultPlan {
            link_degraded_p: 0.0,
            link_extra_loss: 0.0,
            latency_spike_p: 0.0,
            latency_spike_ms: 0.0,
            reset_p: 0.0,
            notify_churn_p: 0.0,
            outages: Vec::new(),
            notify_outages: Vec::new(),
            notify_delay_ms: 0.0,
            meta_outages: Vec::new(),
            degraded: Vec::new(),
            degraded_5xx_p: 0.0,
        }
    }

    /// A realistically lossy plan for a capture of `horizon_days` days:
    /// ~30 % of flows see 3 % extra loss, ~15 % a latency spike (median
    /// 80 ms), ~12 % of storage transfers are cut mid-flow, a quarter of
    /// sessions churn their notification connection, and server outages
    /// (median ≈ 3 min, roughly one every two days) are drawn from
    /// [`dist`] samplers seeded by `seed`.
    pub fn lossy(seed: u64, horizon_days: u32) -> Self {
        FaultPlan::lossy_tuned(seed, horizon_days, &OutageKnobs::default())
    }

    /// [`FaultPlan::lossy`] with the storage-outage statistics under the
    /// caller's control. With `OutageKnobs::default()` this is draw-for-
    /// draw identical to the historical `lossy`, so existing seeds keep
    /// producing the same plans.
    pub fn lossy_tuned(seed: u64, horizon_days: u32, knobs: &OutageKnobs) -> Self {
        let mut rng = Rng::new(seed).fork_named("faultplan");
        let outages = draw_windows(&mut rng, horizon_days, knobs);
        FaultPlan {
            link_degraded_p: 0.30,
            link_extra_loss: 0.03,
            latency_spike_p: 0.15,
            latency_spike_ms: 80.0,
            reset_p: 0.12,
            notify_churn_p: 0.25,
            outages,
            ..FaultPlan::none()
        }
    }

    /// A full chaos plan: everything [`FaultPlan::lossy_tuned`] injects,
    /// plus control-plane events — notification-server outages (somewhat
    /// more frequent than storage outages), metadata unavailability
    /// windows (rarer, longer), and partial-degradation windows with
    /// elevated 5xx rates and delayed pushes. Each control-plane window
    /// set is drawn from its own non-advancing fork of `seed`, so the
    /// storage-outage sequence matches `lossy_tuned(seed, ..)` exactly.
    pub fn chaos(seed: u64, horizon_days: u32, knobs: &OutageKnobs) -> Self {
        let mut plan = FaultPlan::lossy_tuned(seed, horizon_days, knobs);
        let mut notify_rng = Rng::new(seed).fork_named("faultplan-notify");
        plan.notify_outages = draw_windows(
            &mut notify_rng,
            horizon_days,
            &OutageKnobs {
                gap_days: knobs.gap_days * 0.5,
                median_secs: knobs.median_secs * 1.5,
                max_secs: knobs.max_secs,
            },
        );
        let mut meta_rng = Rng::new(seed).fork_named("faultplan-meta");
        plan.meta_outages = draw_windows(
            &mut meta_rng,
            horizon_days,
            &OutageKnobs {
                gap_days: knobs.gap_days * 1.5,
                median_secs: knobs.median_secs * 2.0,
                max_secs: knobs.max_secs,
            },
        );
        let mut degraded_rng = Rng::new(seed).fork_named("faultplan-degraded");
        plan.degraded = draw_windows(
            &mut degraded_rng,
            horizon_days,
            &OutageKnobs {
                gap_days: knobs.gap_days * 0.75,
                median_secs: knobs.median_secs * 4.0,
                max_secs: knobs.max_secs * 2.0,
            },
        );
        plan.notify_delay_ms = 1_500.0;
        plan.degraded_5xx_p = 0.25;
        plan
    }

    /// Whether the plan injects anything at all. [`FaultPlan::link_faults`]
    /// draws nothing for a plan that does not.
    pub fn is_active(&self) -> bool {
        self.link_degraded_p > 0.0
            || self.link_extra_loss > 0.0
            || self.latency_spike_p > 0.0
            || self.reset_p > 0.0
            || self.notify_churn_p > 0.0
            || !self.outages.is_empty()
            || self.has_control_plane()
    }

    /// Whether any control-plane events (notification outages, metadata
    /// outages, degraded windows) are planned. A plan without them answers
    /// every control-plane query with "up", so the degraded-mode state
    /// machine never runs and draws nothing.
    pub fn has_control_plane(&self) -> bool {
        !self.notify_outages.is_empty()
            || !self.meta_outages.is_empty()
            || !self.degraded.is_empty()
    }

    /// Whether the servers accept transactions at `at` (outside every
    /// outage window).
    pub fn server_available(&self, at: SimTime) -> bool {
        !in_windows(&self.outages, at)
    }

    /// Whether the notification plane accepts long-poll connections at
    /// `at`. When false, connected clients lose their push channel and
    /// fall back to periodic polling.
    pub fn notify_available(&self, at: SimTime) -> bool {
        !in_windows(&self.notify_outages, at)
    }

    /// End of the notification outage covering `at`, if one does.
    pub fn notify_outage_end(&self, at: SimTime) -> Option<SimTime> {
        window_end(&self.notify_outages, at)
    }

    /// First notification outage starting strictly after `at` (by window
    /// start), if any.
    pub fn next_notify_outage_after(&self, at: SimTime) -> Option<(SimTime, SimTime)> {
        self.notify_outages
            .iter()
            .filter(|&&(lo, _)| lo > at)
            .min_by_key(|&&(lo, _)| lo)
            .copied()
    }

    /// Whether the metadata plane commits transactions at `at`. When
    /// false, clients queue local changes offline and flush after the
    /// window closes.
    pub fn meta_available(&self, at: SimTime) -> bool {
        !in_windows(&self.meta_outages, at)
    }

    /// End of the metadata outage covering `at`, if one does.
    pub fn meta_outage_end(&self, at: SimTime) -> Option<SimTime> {
        window_end(&self.meta_outages, at)
    }

    /// Whether the control plane is in a partial-degradation window at
    /// `at` (elevated 5xx rates, delayed pushes).
    pub fn degraded_at(&self, at: SimTime) -> bool {
        in_windows(&self.degraded, at)
    }

    /// The instant after which the plan schedules no further events: the
    /// latest end across every outage/degradation window ([`SimTime::EPOCH`]
    /// when none are planned). The convergence oracle only judges a run
    /// after this point, once retry queues have had a chance to drain.
    pub fn quiescent_after(&self) -> SimTime {
        self.outages
            .iter()
            .chain(&self.notify_outages)
            .chain(&self.meta_outages)
            .chain(&self.degraded)
            .map(|&(_, hi)| hi)
            .max()
            .unwrap_or(SimTime::EPOCH)
    }

    /// Draw the link-level faults of one flow from `rng` (a stream
    /// dedicated to fault decisions). Returns `None` both when the plan is
    /// inactive — in which case **no randomness is consumed** — and when
    /// the dice leave this particular flow clean.
    pub fn link_faults(&self, rng: &mut Rng) -> Option<FlowFaults> {
        if !self.is_active() {
            return None;
        }
        let extra_loss = if self.link_degraded_p > 0.0 && rng.chance(self.link_degraded_p) {
            self.link_extra_loss
        } else {
            0.0
        };
        let latency_spike = if self.latency_spike_p > 0.0 && rng.chance(self.latency_spike_p) {
            let ms = dist::lognormal_median(rng, self.latency_spike_ms.max(1.0), 0.5);
            Some(SimDuration::from_secs_f64(ms / 1_000.0))
        } else {
            None
        };
        if extra_loss == 0.0 && latency_spike.is_none() {
            None
        } else {
            Some(FlowFaults {
                extra_loss,
                latency_spike,
                reset_after_bytes: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_consumes_no_randomness() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert!(plan.server_available(SimTime::from_secs(1)));
        let mut rng = Rng::new(7);
        let before = rng.clone().next_u64();
        assert_eq!(plan.link_faults(&mut rng), None);
        assert_eq!(rng.next_u64(), before, "inactive plan must not draw");
    }

    #[test]
    fn lossy_is_deterministic_per_seed() {
        let a = FaultPlan::lossy(42, 42);
        let b = FaultPlan::lossy(42, 42);
        assert_eq!(a, b);
        let c = FaultPlan::lossy(43, 42);
        assert_ne!(a.outages, c.outages);
        assert!(a.is_active());
    }

    #[test]
    fn outages_cover_server_availability() {
        let plan = FaultPlan::lossy(1, 42);
        assert!(!plan.outages.is_empty());
        let (lo, hi) = plan.outages[0];
        assert!(lo < hi);
        let mid = lo + SimDuration::from_micros(hi.saturating_since(lo).micros() / 2);
        assert!(!plan.server_available(mid));
        assert!(plan.server_available(hi));
    }

    #[test]
    fn outage_windows_are_bounded_by_horizon() {
        let plan = FaultPlan::lossy(5, 10);
        for &(lo, _) in &plan.outages {
            assert!(lo.micros() < 10 * 86_400 * 1_000_000);
        }
    }

    #[test]
    fn link_faults_sometimes_fire_for_lossy_plan() {
        let plan = FaultPlan::lossy(3, 42);
        let mut rng = Rng::new(9);
        let mut degraded = 0;
        let mut spiked = 0;
        for _ in 0..500 {
            if let Some(f) = plan.link_faults(&mut rng) {
                if f.extra_loss > 0.0 {
                    degraded += 1;
                }
                if f.latency_spike.is_some() {
                    spiked += 1;
                }
                assert_eq!(f.reset_after_bytes, None);
            }
        }
        assert!(degraded > 50, "degraded {degraded}");
        assert!(spiked > 20, "spiked {spiked}");
    }

    #[test]
    fn merged_combines_conservatively() {
        let a = FlowFaults {
            extra_loss: 0.01,
            latency_spike: Some(SimDuration::from_millis(50)),
            reset_after_bytes: Some(10_000),
        };
        let b = FlowFaults {
            extra_loss: 0.02,
            latency_spike: Some(SimDuration::from_millis(20)),
            reset_after_bytes: Some(5_000),
        };
        let m = FlowFaults::merged(Some(a), Some(b)).unwrap();
        assert!((m.extra_loss - 0.03).abs() < 1e-12);
        assert_eq!(m.latency_spike, Some(SimDuration::from_millis(50)));
        assert_eq!(m.reset_after_bytes, Some(5_000));
        assert_eq!(FlowFaults::merged(None, Some(a)), Some(a));
        assert_eq!(FlowFaults::merged(None, None), None);
    }

    #[test]
    fn lossy_tuned_with_defaults_matches_lossy() {
        assert_eq!(
            FaultPlan::lossy(42, 42),
            FaultPlan::lossy_tuned(42, 42, &OutageKnobs::default())
        );
    }

    #[test]
    fn lossy_tuned_knobs_change_outage_statistics() {
        let sparse = FaultPlan::lossy_tuned(
            7,
            42,
            &OutageKnobs {
                gap_days: 8.0,
                ..OutageKnobs::default()
            },
        );
        let dense = FaultPlan::lossy_tuned(
            7,
            42,
            &OutageKnobs {
                gap_days: 0.25,
                ..OutageKnobs::default()
            },
        );
        assert!(
            dense.outages.len() > sparse.outages.len(),
            "dense {} vs sparse {}",
            dense.outages.len(),
            sparse.outages.len()
        );
    }

    #[test]
    fn chaos_preserves_the_storage_outage_stream() {
        let knobs = OutageKnobs::default();
        let lossy = FaultPlan::lossy_tuned(11, 42, &knobs);
        let chaos = FaultPlan::chaos(11, 42, &knobs);
        assert_eq!(
            lossy.outages, chaos.outages,
            "control-plane draws must come from separate forks"
        );
        assert!(chaos.has_control_plane());
        assert!(!chaos.notify_outages.is_empty());
        assert!(!chaos.meta_outages.is_empty());
        assert!(!chaos.degraded.is_empty());
        assert!(chaos.degraded_5xx_p > 0.0);
        // Deterministic per seed.
        assert_eq!(chaos, FaultPlan::chaos(11, 42, &knobs));
        assert_ne!(
            chaos.notify_outages,
            FaultPlan::chaos(12, 42, &knobs).notify_outages
        );
    }

    #[test]
    fn control_plane_availability_queries_track_windows() {
        let plan = FaultPlan::chaos(3, 42, &OutageKnobs::default());
        let (lo, hi) = plan.notify_outages[0];
        let mid = lo + SimDuration::from_micros(hi.saturating_since(lo).micros() / 2);
        assert!(!plan.notify_available(mid));
        assert!(plan.notify_outage_end(mid).is_some());
        assert!(plan.notify_outage_end(mid).unwrap() >= hi);
        assert!(plan.notify_available(plan.notify_outage_end(mid).unwrap()));
        let (mlo, mhi) = plan.meta_outages[0];
        let mmid = mlo + SimDuration::from_micros(mhi.saturating_since(mlo).micros() / 2);
        assert!(!plan.meta_available(mmid));
        assert!(plan.meta_available(plan.meta_outage_end(mmid).unwrap()));
        let (dlo, dhi) = plan.degraded[0];
        let dmid = dlo + SimDuration::from_micros(dhi.saturating_since(dlo).micros() / 2);
        assert!(plan.degraded_at(dmid));
        // next_notify_outage_after steps strictly forward.
        let next = plan.next_notify_outage_after(lo).expect("more outages");
        assert!(next.0 > lo);
    }

    #[test]
    fn quiescence_bounds_every_window() {
        let none = FaultPlan::none();
        assert_eq!(none.quiescent_after(), SimTime::EPOCH);
        assert!(!none.has_control_plane());
        let plan = FaultPlan::chaos(5, 21, &OutageKnobs::default());
        let q = plan.quiescent_after();
        for &(_, hi) in plan
            .outages
            .iter()
            .chain(&plan.notify_outages)
            .chain(&plan.meta_outages)
            .chain(&plan.degraded)
        {
            assert!(hi <= q);
        }
        assert!(plan.notify_available(q));
        assert!(plan.meta_available(q));
        assert!(plan.server_available(q));
        assert!(!plan.degraded_at(q));
    }
}
