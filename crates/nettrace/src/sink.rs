//! The two streaming seams of the pipeline.
//!
//! A [`PacketSink`] consumes packets as they cross the probe, in
//! probe-timestamp order: `tcpmodel` emits a connection into one, and
//! `tstat::FlowObserver` is one, so a flow is measured without its
//! packets ever being collected. Packets cross in [`PacketRun`]s: a burst
//! of plain segments or a train of delayed ACKs is one run, every other
//! packet a run of one. A sink that does not fold runs whole receives
//! them packet by packet; the `Vec<Packet>` sink does, and keeps the trace
//! for pcap export, examples and tests.
//!
//! A [`FlowSink`] consumes completed [`FlowRecord`]s one at a time, in
//! the order the monitor finalises them: `tstat::Monitor` drains finished
//! flows into a sink, so a capture can be serialised, re-read and
//! analysed without materialising the full record vector.
//!
//! Determinism contract: a sink observes its items in a single canonical
//! order (probe order for packets, the monitor's finalisation order for
//! records). Producers never reorder or drop items on the way into a
//! sink, and a run expands to exactly the packets it stands for, so
//! feeding the same capture through any sink is byte-reproducible.

use crate::flow::FlowRecord;
use crate::packet::{Packet, PacketRun};

/// A consumer of the packets crossing the probe.
pub trait PacketSink {
    /// Accept the next packet; timestamps never decrease between calls.
    fn accept(&mut self, pkt: Packet);

    /// Accept the next run of packets, by default packet by packet. An
    /// override must fold the run exactly as those calls would.
    fn accept_run(&mut self, run: PacketRun) {
        for k in 0..run.count() - 1 {
            self.accept(run.packet(k));
        }
        self.accept(run.into_last());
    }
}

/// The materialising sink: keep the trace.
impl PacketSink for Vec<Packet> {
    fn accept(&mut self, pkt: Packet) {
        self.push(pkt);
    }
}

/// A consumer of completed flow records.
pub trait FlowSink {
    /// Accept one completed record. Called exactly once per record, in
    /// capture order.
    fn accept(&mut self, flow: FlowRecord);
}

/// The materialising sink: collect records into a vector (the legacy
/// behaviour every pre-streaming call path reduces to).
impl FlowSink for Vec<FlowRecord> {
    fn accept(&mut self, flow: FlowRecord) {
        self.push(flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Endpoint, FlowKey, Ipv4};
    use crate::flow::{DirStats, FlowClose};
    use simcore::SimTime;

    fn record(port: u16) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                Endpoint::new(Ipv4::new(10, 0, 0, 1), port),
                Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
            ),
            first_syn: SimTime::from_secs(1),
            last_packet: SimTime::from_secs(2),
            up: DirStats::default(),
            down: DirStats::default(),
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
    fn vec_sink_receives_a_run_packet_by_packet() {
        use crate::packet::{PacketRun, Spacing, TcpFlags};
        use simcore::SimDuration;
        let template = Packet {
            ts: SimTime::EPOCH,
            src: Endpoint::new(Ipv4::new(10, 0, 0, 1), 4_000),
            dst: Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
            seq: 1,
            ack_no: 1,
            flags: TcpFlags::ACK,
            payload_len: 0,
            marker: None,
        };
        let run = PacketRun::new(
            template,
            4,
            0,
            SimTime::from_secs(3),
            2,
            Spacing::Every(SimDuration::from_micros(50)),
        );
        let mut v: Vec<Packet> = Vec::new();
        v.accept_run(run.clone());
        let ts: Vec<u64> = v.iter().map(|p| p.ts.micros()).collect();
        assert_eq!(ts, [3_000_100, 3_000_150, 3_000_200, 3_000_250]);
        assert!(v.iter().zip(0..).all(|(p, k)| *p == run.packet(k)));
    }

    #[test]
    fn vec_sink_preserves_order() {
        let mut v: Vec<FlowRecord> = Vec::new();
        for p in [1u16, 2, 3] {
            v.accept(record(p));
        }
        let ports: Vec<u16> = v.iter().map(|f| f.key.client.port).collect();
        assert_eq!(ports, [1, 2, 3]);
    }
}
