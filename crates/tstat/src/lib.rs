//! A Tstat-like passive monitor.
//!
//! [`Monitor`] reconstructs per-TCP-flow metrics from the packet stream
//! crossing the vantage point, exactly as the paper's instrumented Tstat
//! does (Sec. 3.1):
//!
//! * byte/packet/PSH counters per direction and payload timestamps,
//! * retransmission detection from sequence numbers,
//! * **external RTT** estimation (probe ↔ server): samples are taken from
//!   client-sent SYN/data segments and the server's covering ACKs, with a
//!   Karn-style rule that suspends sampling while a retransmission is
//!   outstanding,
//! * TLS server-name extraction from ClientHello/Certificate records,
//! * FQDN labelling of server addresses from observed DNS answers
//!   ("DNS to the Rescue", \[2\]) — available only at vantage points whose
//!   DNS traffic passes the probe (not Campus 2),
//! * notification-payload inspection: device `host_int` and namespace
//!   lists are cleartext (Sec. 2.3.1).
//!
//! [`FlowObserver`] is the same per-packet reconstruction for one
//! connection, with no flow table: a [`PacketSink`] the TCP model streams
//! a simulated flow into, packet by packet in probe order.
//!
//! The monitor never reads opaque payload bytes: everything comes from
//! headers, sizes, timing, and the cleartext/handshake fields a real DPI
//! probe could parse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nettrace::flow::{DirStats, FlowClose, NotifyMeta};
use nettrace::{AppMarker, FlowKey, FlowRecord, Ipv4, Packet, PacketSink};
use simcore::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Maximum outstanding (unacknowledged) client segments tracked for RTT
/// sampling per flow.
const RTT_WINDOW: usize = 64;

/// Per-flow reconstruction state.
struct FlowState {
    key: FlowKey,
    first_syn: SimTime,
    last_packet: SimTime,
    up: DirStats,
    down: DirStats,
    max_seq_end_up: u32,
    max_seq_end_down: u32,
    seen_up_data: bool,
    seen_down_data: bool,
    /// Client segments awaiting a covering server ACK: (seq_end, probe
    /// ts), in ascending `seq_end` (only new data is queued).
    outstanding: VecDeque<(u32, SimTime)>,
    karn_suspended: bool,
    min_rtt: Option<f64>,
    rtt_samples: u32,
    tls_sni: Option<String>,
    tls_cn: Option<String>,
    http_host: Option<String>,
    notify: Option<NotifyMeta>,
    fin_up: bool,
    fin_down: bool,
    rst: bool,
    // PSH state of the most recent payload segment in either direction.
    // Application writes always end with PSH, so an RST arriving while
    // this is false means a write was cut mid-transfer.
    last_data_psh: bool,
}

impl FlowState {
    fn new(key: FlowKey, ts: SimTime) -> Self {
        FlowState {
            key,
            first_syn: ts,
            last_packet: ts,
            up: DirStats::default(),
            down: DirStats::default(),
            max_seq_end_up: 0,
            max_seq_end_down: 0,
            seen_up_data: false,
            seen_down_data: false,
            outstanding: VecDeque::new(),
            karn_suspended: false,
            min_rtt: None,
            rtt_samples: 0,
            tls_sni: None,
            tls_cn: None,
            http_host: None,
            notify: None,
            fin_up: false,
            fin_down: false,
            rst: false,
            last_data_psh: true,
        }
    }

    /// Fold one packet of this connection; `from_client` orients it.
    fn observe(&mut self, pkt: &Packet, from_client: bool) {
        self.last_packet = self.last_packet.max(pkt.ts);

        // --- RTT sampling (probe ↔ server semi-connection) -------------
        if from_client {
            if pkt.flags.syn() || pkt.payload_len > 0 {
                let seq_end = pkt
                    .seq
                    .wrapping_add(pkt.payload_len.max(if pkt.flags.syn() { 1 } else { 0 }));
                // Retransmission? (seen this sequence range before)
                let is_rtx = pkt.payload_len > 0
                    && self.seen_up_data
                    && seq_le(seq_end, self.max_seq_end_up);
                if is_rtx {
                    // Karn: stop sampling until acks pass the rtx point.
                    self.karn_suspended = true;
                    self.outstanding.clear();
                } else if self.outstanding.len() < RTT_WINDOW && !self.karn_suspended {
                    self.outstanding.push_back((seq_end, pkt.ts));
                }
            }
        } else if pkt.flags.ack() {
            // Server ACK: sample every outstanding segment it covers.
            while let Some((_, t_data)) = pop_acked(&mut self.outstanding, pkt.ack_no) {
                let sample_ms = (pkt.ts - t_data).as_secs_f64() * 1_000.0;
                self.min_rtt = Some(match self.min_rtt {
                    Some(m) => m.min(sample_ms),
                    None => sample_ms,
                });
                self.rtt_samples += 1;
            }
            if self.karn_suspended && self.outstanding.is_empty() {
                self.karn_suspended = false;
            }
        }

        // --- Per-direction counters -------------------------------------
        let (dir, max_seq_end, seen_data) = if from_client {
            (
                &mut self.up,
                &mut self.max_seq_end_up,
                &mut self.seen_up_data,
            )
        } else {
            (
                &mut self.down,
                &mut self.max_seq_end_down,
                &mut self.seen_down_data,
            )
        };
        dir.packets += 1;
        if pkt.payload_len > 0 {
            let seq_end = pkt.seq.wrapping_add(pkt.payload_len);
            if *seen_data && seq_le(seq_end, *max_seq_end) {
                dir.retransmissions += 1;
                dir.rtx_bytes += pkt.payload_len as u64;
            } else {
                dir.bytes += pkt.payload_len as u64;
                *max_seq_end = seq_end;
                *seen_data = true;
            }
            if pkt.flags.psh() {
                dir.psh_segments += 1;
            }
            if dir.first_payload.is_none() {
                dir.first_payload = Some(pkt.ts);
            }
            dir.last_payload = Some(pkt.ts);
            self.last_data_psh = pkt.flags.psh();
        }

        // --- DPI-visible content ----------------------------------------
        if let Some(marker) = &pkt.marker {
            match marker {
                AppMarker::TlsClientHello { sni } => {
                    self.tls_sni.get_or_insert_with(|| sni.clone());
                }
                AppMarker::TlsCertificate { common_name } => {
                    self.tls_cn.get_or_insert_with(|| common_name.clone());
                }
                AppMarker::HttpRequest { host, .. } => {
                    self.http_host.get_or_insert_with(|| host.clone());
                }
                AppMarker::HttpResponse { .. } => {}
                AppMarker::NotifyRequest {
                    host,
                    host_int,
                    namespaces,
                } => {
                    self.http_host.get_or_insert_with(|| host.clone());
                    self.notify = Some(NotifyMeta {
                        host_int: *host_int,
                        namespaces: namespaces.clone(),
                    });
                }
            }
        }

        // --- Close tracking ----------------------------------------------
        if pkt.flags.rst() {
            self.rst = true;
        }
        if pkt.flags.fin() {
            if from_client {
                self.fin_up = true;
            } else {
                self.fin_down = true;
            }
        }
    }

    fn finalize(self, server_fqdn: Option<String>) -> FlowRecord {
        let close = if self.rst {
            FlowClose::Rst
        } else if self.fin_up || self.fin_down {
            FlowClose::Fin
        } else {
            FlowClose::Timeout
        };
        // Cut mid-transfer: reset while the last data segment lacked PSH.
        // Idle NAT resets after complete (PSH-terminated) writes, and
        // resets on data-free flows, are not aborts.
        let aborted = self.rst && (self.seen_up_data || self.seen_down_data) && !self.last_data_psh;
        FlowRecord {
            key: self.key,
            first_syn: self.first_syn,
            last_packet: self.last_packet,
            up: self.up,
            down: self.down,
            min_rtt_ms: self.min_rtt,
            rtt_samples: self.rtt_samples,
            tls_sni: self.tls_sni,
            tls_certificate_cn: self.tls_cn,
            http_host: self.http_host,
            server_fqdn,
            notify: self.notify,
            close,
            aborted,
        }
    }
}

/// Wrapping sequence-space comparison: is `a <= b`?
#[inline]
fn seq_le(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) < 0x8000_0000
}

/// Pop the next outstanding segment a cumulative ACK of `ack_no` covers.
/// Segments are queued in ascending `seq_end`, so the covered ones are a
/// prefix of the queue and popping until `None` takes exactly them.
fn pop_acked(outstanding: &mut VecDeque<(u32, SimTime)>, ack_no: u32) -> Option<(u32, SimTime)> {
    match outstanding.front() {
        Some(&(seq_end, _)) if seq_le(seq_end, ack_no) => outstanding.pop_front(),
        _ => None,
    }
}

/// The passive monitor of one vantage point.
pub struct Monitor {
    flows: BTreeMap<FlowKey, FlowState>,
    dns_view: BTreeMap<Ipv4, String>,
    expose_dns: bool,
    done: Vec<FlowRecord>,
}

impl Monitor {
    /// Create a monitor. `expose_dns` states whether the vantage point's
    /// DNS traffic passes the probe (false in Campus 2, Sec. 3.2).
    pub fn new(expose_dns: bool) -> Self {
        Monitor {
            flows: BTreeMap::new(),
            dns_view: BTreeMap::new(),
            expose_dns,
            done: Vec::new(),
        }
    }

    /// Record a DNS answer seen on the wire (name → address). Ignored when
    /// the vantage point does not expose DNS.
    pub fn observe_dns(&mut self, name: &str, ip: Ipv4) {
        if self.expose_dns {
            self.dns_view.insert(ip, name.to_owned());
        }
    }

    /// Number of flows currently being tracked.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Feed one packet.
    pub fn observe(&mut self, pkt: &Packet) {
        // Determine orientation: a pure SYN identifies the client side.
        let syn = pkt.flags.syn() && !pkt.flags.ack();
        let (key, from_client) = if syn {
            (FlowKey::new(pkt.src, pkt.dst), true)
        } else if let Some(key) = self.orient(pkt) {
            key
        } else {
            // Mid-flow packet for an unknown connection (trimmed capture):
            // assume the lower port is the server, as Tstat's heuristics do.
            if pkt.src.port > pkt.dst.port {
                ((FlowKey::new(pkt.src, pkt.dst)), true)
            } else {
                ((FlowKey::new(pkt.dst, pkt.src)), false)
            }
        };

        // A fresh SYN for a key already tracked (port reuse) finalizes the
        // previous incarnation.
        if syn {
            if let Some(old) = self.flows.remove(&key) {
                self.complete(old);
            }
        }

        let state = self
            .flows
            .entry(key)
            .or_insert_with(|| FlowState::new(key, pkt.ts));
        state.observe(pkt, from_client);
        // A reset is the last packet of a connection: finalize eagerly.
        // Orderly FIN closes are finalized lazily (at flush or on port
        // reuse) because the final ACK still belongs to the flow.
        if state.rst {
            let state = self.flows.remove(&key).expect("state exists");
            self.complete(state);
        }
    }

    /// Orient a non-SYN packet onto a tracked flow.
    fn orient(&self, pkt: &Packet) -> Option<(FlowKey, bool)> {
        let as_client = FlowKey::new(pkt.src, pkt.dst);
        if self.flows.contains_key(&as_client) {
            return Some((as_client, true));
        }
        let as_server = FlowKey::new(pkt.dst, pkt.src);
        if self.flows.contains_key(&as_server) {
            return Some((as_server, false));
        }
        None
    }

    /// Finalize a flow, labelled from the current DNS view, into the
    /// completed list.
    fn complete(&mut self, state: FlowState) {
        let fqdn = self.dns_view.get(&state.key.server.ip).cloned();
        self.done.push(state.finalize(fqdn));
    }

    /// Take the flows completed so far.
    pub fn drain_completed(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.done)
    }

    /// Stream the flows completed so far into a sink, in finalisation
    /// order, without materialising a vector.
    pub fn drain_into(&mut self, sink: &mut dyn nettrace::FlowSink) {
        for rec in self.done.drain(..) {
            sink.accept(rec);
        }
    }

    /// End of capture, streaming form: finalize all remaining flows and
    /// emit everything not yet drained into `sink` (same order as
    /// [`Monitor::flush`]).
    pub fn flush_into(&mut self, sink: &mut dyn nettrace::FlowSink) {
        for (_, state) in std::mem::take(&mut self.flows) {
            self.complete(state);
        }
        self.drain_into(sink);
    }

    /// Evict flows idle since before `now - idle`: real Tstat flushes
    /// long-silent connections so state does not grow over a 42-day
    /// capture. Evicted flows are finalized as their observed close state.
    pub fn evict_idle(&mut self, now: simcore::SimTime, idle: simcore::SimDuration) {
        let keys: Vec<FlowKey> = self
            .flows
            .iter()
            .filter(|(_, st)| now.saturating_since(st.last_packet) > idle)
            .map(|(&k, _)| k)
            .collect();
        for key in keys {
            let state = self.flows.remove(&key).expect("listed");
            self.complete(state);
        }
    }

    /// End of capture: finalize all remaining flows and return everything
    /// not yet drained.
    pub fn flush(&mut self) -> Vec<FlowRecord> {
        let mut records = Vec::new();
        self.flush_into(&mut records);
        records
    }

    /// Convenience: the record of the single connection whose packets are
    /// `packets` — a [`FlowObserver`] over the slice, labelled from the
    /// monitor's current DNS view. `None` when no SYN opens a connection.
    /// The monitor's own flow table is not touched.
    pub fn process_flow(&mut self, packets: &[Packet]) -> Option<FlowRecord> {
        let mut flow = FlowObserver::new(None);
        for p in packets {
            flow.observe(p);
        }
        let mut rec = flow.finish()?;
        rec.server_fqdn = self.dns_view.get(&rec.key.server.ip).cloned();
        Some(rec)
    }
}

/// The monitor of a single connection, with no flow table.
///
/// The first pure SYN opens the connection and orients it, as [`Monitor`]
/// orients a SYN; later packets of its 4-tuple update it through the same
/// per-packet routine, until its RST. Tstat opens flows only on a SYN and
/// a reset ends one, so packets before the SYN, after the RST, or of
/// another 4-tuple are ignored.
pub struct FlowObserver {
    flow: Option<FlowState>,
    server_fqdn: Option<String>,
}

impl FlowObserver {
    /// Observe one connection; its record carries `server_fqdn`, the DNS
    /// name the probe saw resolve to the server (`None` where the vantage
    /// point's DNS traffic does not pass the probe).
    pub fn new(server_fqdn: Option<String>) -> Self {
        FlowObserver {
            flow: None,
            server_fqdn,
        }
    }

    fn observe(&mut self, pkt: &Packet) {
        match &mut self.flow {
            None if pkt.flags.syn() && !pkt.flags.ack() => {
                let mut state = FlowState::new(FlowKey::new(pkt.src, pkt.dst), pkt.ts);
                state.observe(pkt, true);
                self.flow = Some(state);
            }
            Some(state) if !state.rst => {
                let key = state.key;
                let from_client = (pkt.src, pkt.dst) == (key.client, key.server);
                if from_client || (pkt.src, pkt.dst) == (key.server, key.client) {
                    state.observe(pkt, from_client);
                }
            }
            _ => {}
        }
    }

    /// The connection's record, or `None` when no SYN opened one.
    pub fn finish(self) -> Option<FlowRecord> {
        let server_fqdn = self.server_fqdn;
        self.flow.map(|state| state.finalize(server_fqdn))
    }
}

impl PacketSink for FlowObserver {
    fn accept(&mut self, pkt: Packet) {
        self.observe(&pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::{Endpoint, TcpFlags};
    use simcore::{Rng, SimDuration};
    use tcpmodel::tls;
    use tcpmodel::{simulate, CloseMode, Dialogue, Direction, Message, PathParams, TcpParams};

    fn key() -> FlowKey {
        FlowKey::new(
            Endpoint::new(Ipv4::new(10, 0, 0, 5), 42_000),
            Endpoint::new(Ipv4::new(107, 22, 1, 2), 443),
        )
    }

    fn path(outer_ms: u64) -> PathParams {
        PathParams {
            inner_rtt: SimDuration::from_millis(12),
            outer_rtt: SimDuration::from_millis(outer_ms),
            jitter: 0.02,
            loss_up: 0.0,
            loss_down: 0.0,
            up_rate: None,
            down_rate: None,
        }
    }

    fn play(dialogue: Dialogue, p: PathParams, seed: u64) -> FlowRecord {
        let mut out = Vec::new();
        let mut rng = Rng::new(seed);
        simulate(
            SimTime::from_secs(5),
            key(),
            &dialogue,
            &p,
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out,
        );
        let mut mon = Monitor::new(true);
        mon.observe_dns("dl-client9.dropbox.com", key().server.ip);
        mon.process_flow(&out).expect("flow record")
    }

    fn store_like_dialogue(chunks: usize, chunk_bytes: u32) -> Dialogue {
        let mut messages = tls::handshake(
            "dl-client9.dropbox.com",
            "*.dropbox.com",
            SimDuration::from_millis(50),
        );
        for _ in 0..chunks {
            messages.push(Message::simple(
                Direction::Up,
                SimDuration::from_millis(30),
                634 + chunk_bytes,
            ));
            messages.push(Message::simple(
                Direction::Down,
                SimDuration::from_millis(60),
                309,
            ));
        }
        Dialogue::new(messages)
    }

    #[test]
    fn byte_counters_match_dialogue() {
        let d = store_like_dialogue(3, 10_000);
        let rec = play(d.clone(), path(90), 1);
        assert_eq!(rec.up.bytes, d.bytes_up());
        // Down includes the 37-byte close alert.
        assert_eq!(rec.down.bytes, d.bytes_down() + 37);
    }

    #[test]
    fn external_rtt_measured_not_total() {
        let rec = play(store_like_dialogue(5, 5_000), path(90), 2);
        let rtt = rec.min_rtt_ms.expect("rtt measured");
        // Probe↔server RTT is 90 ms; client access adds 12 ms that must
        // NOT appear in the estimate.
        assert!((rtt - 90.0).abs() < 3.0, "rtt = {rtt}");
        assert!(rec.rtt_samples >= 10);
    }

    #[test]
    fn psh_counting_matches_appendix_a() {
        // Store flow with c chunks closed by the server: the server sends
        // 2 handshake PSH + c OK PSH + 1 alert PSH => c = s - 3 (A.3).
        let c = 7;
        let rec = play(store_like_dialogue(c, 2_000), path(90), 3);
        assert_eq!(rec.down.psh_segments as usize, c + 3);
        // Client side: 2 handshake PSH + c data-chunk PSH.
        assert_eq!(rec.up.psh_segments as usize, c + 2);
    }

    #[test]
    fn tls_names_extracted() {
        let rec = play(store_like_dialogue(1, 500), path(90), 4);
        assert_eq!(rec.tls_sni.as_deref(), Some("dl-client9.dropbox.com"));
        assert_eq!(rec.tls_certificate_cn.as_deref(), Some("*.dropbox.com"));
        assert_eq!(rec.server_fqdn.as_deref(), Some("dl-client9.dropbox.com"));
        assert_eq!(rec.server_name(), Some("dl-client9.dropbox.com"));
    }

    #[test]
    fn dns_hidden_when_not_exposed() {
        let mut out = Vec::new();
        let mut rng = Rng::new(5);
        simulate(
            SimTime::from_secs(5),
            key(),
            &store_like_dialogue(1, 500),
            &path(90),
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out,
        );
        let mut mon = Monitor::new(false);
        mon.observe_dns("dl-client9.dropbox.com", key().server.ip);
        let rec = mon.process_flow(&out).unwrap();
        assert!(rec.server_fqdn.is_none());
        // TLS still identifies the service.
        assert_eq!(rec.tls_sni.as_deref(), Some("dl-client9.dropbox.com"));
    }

    #[test]
    fn retransmissions_counted_once_bytes_not_double_counted() {
        let mut p = path(90);
        p.loss_up = 0.03;
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            400_000,
        )])
        .with_close(CloseMode::ClientFin {
            delay: SimDuration::from_millis(50),
        });
        let mut out = Vec::new();
        let mut rng = Rng::new(6);
        let sum = simulate(
            SimTime::from_secs(5),
            key(),
            &d,
            &p,
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out,
        );
        let mut mon = Monitor::new(true);
        let rec = mon.process_flow(&out).unwrap();
        assert!(sum.rtx_up > 0);
        assert_eq!(rec.up.retransmissions, sum.rtx_up);
        assert_eq!(rec.up.bytes, 400_000, "unique bytes only");
        assert_eq!(rec.up.rtx_bytes, sum.rtx_bytes_up);
        assert!(!rec.aborted);
    }

    #[test]
    fn mid_flow_reset_flagged_as_aborted() {
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            400_000,
        )]);
        let faults = simcore::faults::FlowFaults {
            reset_after_bytes: Some(60_000),
            ..Default::default()
        };
        let mut out = Vec::new();
        let mut rng = Rng::new(12);
        let sum = tcpmodel::simulate_faulty(
            SimTime::from_secs(5),
            key(),
            &d,
            &path(90),
            &TcpParams::era_2012_v1(),
            Some(&faults),
            &mut rng,
            &mut out,
        );
        assert!(sum.aborted);
        let mut mon = Monitor::new(true);
        let rec = mon.process_flow(&out).unwrap();
        assert_eq!(rec.close, FlowClose::Rst);
        assert!(rec.aborted, "truncated write must be wire-detectable");
        assert!(rec.up.bytes < 400_000);
    }

    #[test]
    fn idle_timeout_rst_is_not_flagged_as_aborted() {
        // The normal server-idle-timeout close ends with a client RST, but
        // every application write completed (PSH-terminated): not an abort.
        let rec = play(store_like_dialogue(2, 1_000), path(90), 13);
        assert_eq!(rec.close, FlowClose::Rst);
        assert!(!rec.aborted);
    }

    #[test]
    fn close_classification() {
        // Server idle timeout ends with a client RST.
        let rec = play(store_like_dialogue(1, 100), path(90), 7);
        assert_eq!(rec.close, FlowClose::Rst);
        // Client FIN close.
        let d = Dialogue::new(vec![Message::simple(Direction::Up, SimDuration::ZERO, 100)])
            .with_close(CloseMode::ClientFin {
                delay: SimDuration::from_millis(10),
            });
        let rec = play(d, path(90), 8);
        assert_eq!(rec.close, FlowClose::Fin);
        // Left open: timeout at flush.
        let d = Dialogue::new(vec![Message::simple(Direction::Up, SimDuration::ZERO, 100)])
            .with_close(CloseMode::LeftOpen);
        let rec = play(d, path(90), 9);
        assert_eq!(rec.close, FlowClose::Timeout);
    }

    #[test]
    fn notify_metadata_extracted() {
        let mut messages = vec![Message {
            dir: Direction::Up,
            delay: SimDuration::from_millis(10),
            writes: vec![tcpmodel::Write::marked(
                350,
                AppMarker::NotifyRequest {
                    host: "notify5.dropbox.com".into(),
                    host_int: 777,
                    namespaces: vec![1, 2, 3],
                },
            )],
        }];
        messages.push(Message::simple(
            Direction::Down,
            SimDuration::from_secs(60),
            160,
        ));
        // A later request advertises one more namespace.
        messages.push(Message {
            dir: Direction::Up,
            delay: SimDuration::from_millis(5),
            writes: vec![tcpmodel::Write::marked(
                368,
                AppMarker::NotifyRequest {
                    host: "notify5.dropbox.com".into(),
                    host_int: 777,
                    namespaces: vec![1, 2, 3, 4],
                },
            )],
        });
        let d = Dialogue::new(messages).with_close(CloseMode::ClientFin {
            delay: SimDuration::from_millis(10),
        });
        let rec = play(d, path(150), 10);
        assert_eq!(rec.http_host.as_deref(), Some("notify5.dropbox.com"));
        let notify = rec.notify.expect("notify meta");
        assert_eq!(notify.host_int, 777);
        assert_eq!(notify.namespaces, vec![1, 2, 3, 4], "last list wins");
    }

    #[test]
    fn rst_ends_the_flow_before_a_late_server_ack() {
        // A notification fragment aborted 5 ms after its request is
        // delivered: the client's RST crosses the probe before the
        // server's ACK of the request, which is outer/2 = 75 ms away.
        let d = Dialogue::new(vec![Message {
            dir: Direction::Up,
            delay: SimDuration::from_millis(10),
            writes: vec![tcpmodel::Write::marked(
                350,
                AppMarker::NotifyRequest {
                    host: "notify5.dropbox.com".into(),
                    host_int: 777,
                    namespaces: vec![1, 2],
                },
            )],
        }])
        .with_close(CloseMode::ClientRst {
            delay: SimDuration::from_millis(5),
        });
        let mut out = Vec::new();
        simulate(
            SimTime::from_secs(5),
            key(),
            &d,
            &path(150),
            &TcpParams::era_2012_v1(),
            &mut Rng::new(14),
            &mut out,
        );
        let rst = out.iter().position(|p| p.flags.rst()).expect("client RST");
        assert!(rst + 1 < out.len(), "a server ACK follows the RST");
        let mut mon = Monitor::new(true);
        let rec = mon.process_flow(&out).expect("flow record");
        assert_eq!(rec.close, FlowClose::Rst);
        assert_eq!(rec.first_syn, out[0].ts);
        assert_eq!(rec.last_packet, out[rst].ts);
        assert_eq!(rec.notify.expect("notify meta").host_int, 777);
        assert!(mon.drain_completed().is_empty(), "no record left behind");
    }

    #[test]
    fn ack_drain_takes_exactly_the_covered_segments() {
        let mut rng = Rng::new(21);
        for _ in 0..2_000 {
            // Ascending seq_end, as new client data queues; half the lists
            // start just below 2^32 and wrap.
            let mut seq = if rng.chance(0.5) {
                u32::MAX - rng.range_u64(0, 150_000) as u32
            } else {
                rng.next_u64() as u32
            };
            let first = seq.wrapping_add(1);
            let queued: Vec<(u32, SimTime)> = (0..rng.range_u64(0, RTT_WINDOW as u64))
                .map(|i| {
                    seq = seq.wrapping_add(1 + rng.range_u64(0, 3_000) as u32);
                    (seq, SimTime::from_micros(i))
                })
                .collect();
            // A cumulative ACK behind, inside or past the queue.
            let ack = first
                .wrapping_sub(5_000)
                .wrapping_add(rng.range_u64(0, 200_000) as u32);
            let (covered, rest): (Vec<_>, Vec<_>) = queued
                .iter()
                .partition(|&&(seq_end, _)| seq_le(seq_end, ack));
            let mut outstanding: VecDeque<_> = queued.iter().copied().collect();
            let drained: Vec<_> = std::iter::from_fn(|| pop_acked(&mut outstanding, ack)).collect();
            assert_eq!(drained, covered, "ack {ack} over {queued:?}");
            assert_eq!(Vec::from(outstanding), rest, "ack {ack} over {queued:?}");
        }
    }

    #[test]
    fn multiple_interleaved_flows_tracked() {
        // Two connections from different client ports, packets interleaved.
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        let mut rng = Rng::new(11);
        let k2 = FlowKey::new(Endpoint::new(Ipv4::new(10, 0, 0, 5), 42_001), key().server);
        simulate(
            SimTime::from_secs(5),
            key(),
            &store_like_dialogue(2, 1_000),
            &path(90),
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out1,
        );
        simulate(
            SimTime::from_secs(5),
            k2,
            &store_like_dialogue(3, 1_000),
            &path(90),
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out2,
        );
        let mut all: Vec<Packet> = out1.into_iter().chain(out2).collect();
        all.sort_by_key(|p| p.ts);
        let mut mon = Monitor::new(true);
        for p in &all {
            mon.observe(p);
        }
        let recs = mon.flush();
        assert_eq!(recs.len(), 2);
        let mut psh: Vec<u64> = recs.iter().map(|r| r.down.psh_segments).collect();
        psh.sort_unstable();
        assert_eq!(psh, vec![2 + 3, 3 + 3]); // c+3 each
    }

    #[test]
    fn syn_reuse_splits_flows() {
        let mut mon = Monitor::new(false);
        let mk = |ts: u64, flags: TcpFlags, payload: u32| Packet {
            ts: SimTime::from_secs(ts),
            src: key().client,
            dst: key().server,
            seq: 1,
            ack_no: 0,
            flags,
            payload_len: payload,
            marker: None,
        };
        mon.observe(&mk(1, TcpFlags::SYN, 0));
        mon.observe(&mk(2, TcpFlags::PSH.union(TcpFlags::ACK), 100));
        // New SYN on the same 4-tuple.
        mon.observe(&mk(100, TcpFlags::SYN, 0));
        let completed = mon.drain_completed();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].up.bytes, 100);
        assert_eq!(mon.active_flows(), 1);
    }

    #[test]
    fn flush_into_sink_matches_flush_order() {
        // The streaming emission path must yield the same records in the
        // same order as the materialising flush.
        let build = |seed: u64| -> (Monitor, Vec<Packet>) {
            let mut out1 = Vec::new();
            let mut out2 = Vec::new();
            let mut rng = Rng::new(seed);
            let k2 = FlowKey::new(Endpoint::new(Ipv4::new(10, 0, 0, 5), 42_001), key().server);
            simulate(
                SimTime::from_secs(5),
                key(),
                &store_like_dialogue(2, 1_000),
                &path(90),
                &TcpParams::era_2012_v1(),
                &mut rng,
                &mut out1,
            );
            simulate(
                SimTime::from_secs(6),
                k2,
                &store_like_dialogue(1, 500),
                &path(90),
                &TcpParams::era_2012_v1(),
                &mut rng,
                &mut out2,
            );
            let mut all: Vec<Packet> = out1.into_iter().chain(out2).collect();
            all.sort_by_key(|p| p.ts);
            (Monitor::new(true), all)
        };
        let (mut a, pkts) = build(11);
        let (mut b, _) = build(11);
        for p in &pkts {
            a.observe(p);
            b.observe(p);
        }
        let legacy = a.flush();
        let mut streamed: Vec<FlowRecord> = Vec::new();
        b.flush_into(&mut streamed);
        assert_eq!(legacy.len(), streamed.len());
        for (l, s) in legacy.iter().zip(&streamed) {
            assert_eq!(l.key, s.key);
            assert_eq!(l.up.bytes, s.up.bytes);
            assert_eq!(l.down.bytes, s.down.bytes);
        }
    }
}
