//! Single-pass streaming analysis: the accumulator trait.
//!
//! The paper's probes ran Tstat on-line — per-flow records were folded
//! into the analyses as flows closed, never holding a capture in RAM.
//! This module is that architecture for the reproduction: every analysis
//! in this crate is an [`Accumulate`] implementation (`observe` one
//! record at a time, `finish` into the legacy result type), so the whole
//! analysis happens in **one pass** over the capture.
//!
//! Household ranges of one capture are simulated on separate workers, so
//! each range folds into its own accumulator state and the states
//! [`merge`](Accumulate::merge) in household order. A merge means stream
//! concatenation: folding a stream in contiguous pieces and merging the
//! pieces in order yields exactly the state of one fold over the whole
//! stream.
//!
//! Determinism: accumulators observe records in capture order (the
//! monitor's finalisation order — see `nettrace::sink`), and every
//! `finish` folds its state in a deterministic (keyed or arrival) order,
//! so a streamed, merged pass is byte-identical to the legacy whole-`Vec`
//! computation it replaced. `crates/core/tests/stream_props.rs` pins this
//! equivalence on randomized flow sets cut at random points.
//!
//! Memory: aggregate accumulators (totals, per-day/per-role maps) hold
//! state bounded by the analysis dimensions (days, roles, addresses),
//! independent of flow count. Distribution accumulators keep one sample
//! per matching flow because the byte-identity contract demands exact
//! ECDF point sets; [`Accumulate::state_bytes`] reports the live state so
//! the streaming bench (`BENCH_stream.json`) can track both kinds.

use nettrace::FlowRecord;

/// An incremental, mergeable analysis: folds a record stream into a
/// result.
///
/// Implementations must be insensitive to anything but the sequence of
/// observed records — two passes over the same stream yield identical
/// outputs — and `a.merge(b)` must equal one fold over `a`'s stream
/// followed by `b`'s.
pub trait Accumulate {
    /// The finished analysis result (the legacy return type).
    type Output;

    /// Fold one record into the state.
    fn observe(&mut self, flow: &FlowRecord);

    /// Append the state of a fold over the records that follow this
    /// one's in the stream. Sample vectors append, counters add, sets and
    /// maps take the union.
    fn merge(&mut self, later: Self)
    where
        Self: Sized;

    /// Consume the state into the result.
    fn finish(self) -> Self::Output;

    /// Estimated live state size in bytes (for the streaming bench).
    /// The default covers fixed-size accumulators; container-holding
    /// implementations should override with a capacity-based estimate.
    fn state_bytes(&self) -> usize
    where
        Self: Sized,
    {
        std::mem::size_of::<Self>()
    }
}

/// An accumulator that is only registered where a consumer exists: `None`
/// observes nothing and finishes to `None`.
impl<A: Accumulate> Accumulate for Option<A> {
    type Output = Option<A::Output>;

    fn observe(&mut self, flow: &FlowRecord) {
        if let Some(a) = self {
            a.observe(flow);
        }
    }

    fn merge(&mut self, later: Self) {
        match (self.as_mut(), later) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("merging an enabled accumulator with a disabled one"),
        }
    }

    fn finish(self) -> Self::Output {
        self.map(A::finish)
    }

    fn state_bytes(&self) -> usize {
        self.as_ref().map_or(0, A::state_bytes)
    }
}

/// Run a single accumulator over an in-memory record sequence — the
/// shim every legacy whole-`Vec` entry point reduces to.
pub fn run_one<'f, A: Accumulate>(
    flows: impl IntoIterator<Item = &'f FlowRecord>,
    mut acc: A,
) -> A::Output {
    for f in flows {
        acc.observe(f);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::flow::{DirStats, FlowClose};
    use nettrace::{Endpoint, FlowKey, Ipv4};
    use simcore::SimTime;

    /// A toy accumulator: counts records and sums total bytes.
    #[derive(Default)]
    struct Totals {
        records: u64,
        bytes: u64,
    }

    impl Accumulate for Totals {
        type Output = (u64, u64);

        fn observe(&mut self, flow: &FlowRecord) {
            self.records += 1;
            self.bytes += flow.total_bytes();
        }

        fn merge(&mut self, later: Self) {
            self.records += later.records;
            self.bytes += later.bytes;
        }

        fn finish(self) -> (u64, u64) {
            (self.records, self.bytes)
        }
    }

    fn record(up: u64, down: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                Endpoint::new(Ipv4::new(10, 0, 0, 1), 40_000),
                Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
            ),
            first_syn: SimTime::from_secs(1),
            last_packet: SimTime::from_secs(2),
            up: DirStats {
                bytes: up,
                ..DirStats::default()
            },
            down: DirStats {
                bytes: down,
                ..DirStats::default()
            },
            min_rtt_ms: None,
            rtt_samples: 0,
            tls_sni: None,
            tls_certificate_cn: None,
            http_host: None,
            server_fqdn: None,
            notify: None,
            close: FlowClose::Fin,
            aborted: false,
        }
    }

    #[test]
    fn merged_pieces_match_one_fold() {
        let flows = vec![record(10, 20), record(1, 2), record(0, 7)];
        let mut head = Totals::default();
        head.observe(&flows[0]);
        let mut tail = Totals::default();
        for f in &flows[1..] {
            tail.observe(f);
        }
        head.merge(tail);
        assert_eq!(head.finish(), run_one(&flows, Totals::default()));
    }

    #[test]
    fn optional_accumulators_observe_only_when_enabled() {
        let flows = vec![record(10, 20), record(1, 2)];
        assert_eq!(run_one(&flows, Some(Totals::default())), Some((2, 33)));
        assert_eq!(run_one(&flows, None::<Totals>), None);
    }

    #[test]
    fn run_one_matches_manual_fold() {
        let flows = vec![record(10, 20), record(1, 2), record(0, 7)];
        let streamed = run_one(&flows, Totals::default());
        let mut manual = Totals::default();
        for f in &flows {
            manual.observe(f);
        }
        assert_eq!(streamed, manual.finish());
    }
}
