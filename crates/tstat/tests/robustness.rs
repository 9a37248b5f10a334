//! Robustness: the monitor must accept arbitrary packet streams without
//! panicking, conserve counters, and tolerate reordering; a flow streamed
//! into a `FlowObserver` must give the record the flow table gives.

use nettrace::{AppMarker, Endpoint, FlowKey, Ipv4, Packet, TcpFlags};
use simcore::faults::FlowFaults;
use simcore::proptest::{any_bool, any_u16, any_u32, any_u64, any_u8, vec_of};
use simcore::{prop_assert, prop_assert_eq, prop_assume, proptest};
use simcore::{Rng, SimDuration, SimTime};
use tcpmodel::{
    simulate, simulate_faulty, tls, AccessLink, CloseMode, Dialogue, Direction, Message,
    PathParams, TcpParams, Write,
};
use tstat::{FlowObserver, Monitor};

fn arbitrary_packet(seed: (u64, u16, u16, u8, u32, u32, u32)) -> Packet {
    let (ts, sport, dport, flags, seq, ack, len) = seed;
    Packet {
        ts: SimTime::from_micros(ts % 1_000_000_000),
        src: Endpoint::new(Ipv4::new(10, 0, 0, (sport % 7) as u8), 1 + sport % 1000),
        dst: Endpoint::new(Ipv4::new(107, 22, 0, (dport % 5) as u8), 1 + dport % 1000),
        seq,
        ack_no: ack,
        flags: TcpFlags(flags),
        payload_len: len % 100_000,
        marker: None,
    }
}

proptest! {
    #![cases(64)]

    /// Garbage in, no panic out — and every record keeps its invariants.
    #[test]
    fn monitor_never_panics_on_garbage(
        seeds in vec_of(
            (any_u64(), any_u16(), any_u16(), any_u8(), any_u32(), any_u32(), any_u32()),
            0..200
        )
    ) {
        let mut mon = Monitor::new(true);
        for s in &seeds {
            mon.observe(&arbitrary_packet(*s));
        }
        let records = mon.flush();
        for r in &records {
            prop_assert!(r.last_packet >= r.first_syn);
            prop_assert!(r.up.psh_segments <= r.up.packets);
            prop_assert!(r.down.psh_segments <= r.down.packets);
        }
    }

    /// Mild reordering of a real connection's packets must not change the
    /// unique byte totals or PSH counts.
    #[test]
    fn reordering_preserves_byte_and_psh_counters(
        swap_at in vec_of(0usize..400, 0..24),
        size in 10_000u32..200_000,
    ) {
        let d = Dialogue::new(vec![
            Message::simple(Direction::Up, SimDuration::ZERO, size),
            Message::simple(Direction::Down, SimDuration::from_millis(20), size / 2),
        ])
        .with_close(CloseMode::ClientFin { delay: SimDuration::from_millis(10) });
        let path = PathParams {
            inner_rtt: SimDuration::from_millis(10),
            outer_rtt: SimDuration::from_millis(90),
            jitter: 0.0,
            loss_up: 0.0,
            loss_down: 0.0,
            up_rate: None,
            down_rate: None,
        };
        let key = FlowKey::new(
            Endpoint::new(Ipv4::new(10, 0, 0, 9), 45_000),
            Endpoint::new(Ipv4::new(107, 22, 0, 9), 443),
        );
        let mut packets = Vec::new();
        simulate(SimTime::from_secs(1), key, &d, &path, &TcpParams::era_2012_v1(),
                 &mut Rng::new(1), &mut packets);

        let mut mon = Monitor::new(false);
        let base = mon.process_flow(&packets).unwrap();

        // Swap adjacent same-direction packets at the given positions.
        let mut shuffled = packets.clone();
        for &i in &swap_at {
            if i + 1 < shuffled.len() && shuffled[i].src == shuffled[i + 1].src {
                shuffled.swap(i, i + 1);
            }
        }
        let mut mon = Monitor::new(false);
        let rec = mon.process_flow(&shuffled).unwrap();
        // Unique-byte accounting may reclassify a swapped segment as a
        // retransmission; bytes + rtx·MSS together must be stable.
        prop_assert_eq!(rec.up.bytes + 1430 * rec.up.retransmissions,
                        base.up.bytes + 1430 * base.up.retransmissions);
        prop_assert_eq!(rec.up.psh_segments, base.up.psh_segments);
        prop_assert_eq!(rec.down.psh_segments, base.down.psh_segments);
    }

    /// `simulate_faulty` streamed into a `FlowObserver` gives, field by
    /// field, the record `Monitor::observe` builds from the same flow's
    /// packet vector, over lossy, rate-capped access links and random
    /// fault profiles — for every flow with no packet after its RST (the
    /// observer ends a flow at its RST; the table would open a new one).
    #[test]
    fn flow_observer_matches_monitor_over_the_packet_vector(
        messages in vec_of((1u32..150_000, any_bool(), any_bool()), 1..6),
        link in 0usize..3,
        close in 0u8..4,
        extra_loss_m in 0u64..60,
        spike_ms in 0u64..250,
        reset_after in 1u64..900_000,
        faults_on in (any_bool(), any_bool(), any_bool()),
        seed in 0u64..1_000_000,
    ) {
        let name = "dl-client3.dropbox.com";
        let mut m = tls::handshake(name, "*.dropbox.com", SimDuration::from_millis(40));
        for &(size, up, notify) in &messages {
            let write = if notify {
                Write::marked(size, AppMarker::NotifyRequest {
                    host: "notify3.dropbox.com".into(),
                    host_int: u64::from(size),
                    namespaces: vec![1, u64::from(size)],
                })
            } else {
                Write::plain(size)
            };
            m.push(Message {
                dir: if up { Direction::Up } else { Direction::Down },
                delay: SimDuration::from_millis(20),
                writes: vec![write],
            });
        }
        let close = match close {
            0 => CloseMode::ServerIdleTimeout { idle: SimDuration::from_secs(60), alert_size: 37 },
            1 => CloseMode::ClientFin { delay: SimDuration::from_millis(30) },
            2 => CloseMode::ClientRst { delay: SimDuration::from_millis(30) },
            _ => CloseMode::LeftOpen,
        };
        let d = Dialogue::new(m).with_close(close);
        let path = AccessLink::by_name(["wired", "wifi", "lte"][link])
            .expect("known access profile")
            .path(SimDuration::from_millis(90), &mut Rng::new(seed));
        let faults = FlowFaults {
            extra_loss: if faults_on.0 { extra_loss_m as f64 / 1000.0 } else { 0.0 },
            latency_spike: faults_on.1.then(|| SimDuration::from_millis(spike_ms)),
            reset_after_bytes: faults_on.2.then_some(reset_after),
        };
        let key = FlowKey::new(
            Endpoint::new(Ipv4::new(10, 0, 0, 7), 43_000),
            Endpoint::new(Ipv4::new(107, 22, 0, 7), 443),
        );
        let run = |out: &mut dyn nettrace::PacketSink| {
            simulate_faulty(SimTime::from_secs(2), key, &d, &path, &TcpParams::era_2012_v1(),
                Some(&faults), &mut Rng::new(seed), out)
        };

        let mut packets: Vec<Packet> = Vec::new();
        run(&mut packets);
        let rst = packets.iter().position(|p| p.flags.rst());
        prop_assume!(!matches!(rst, Some(i) if i + 1 < packets.len()));
        let mut mon = Monitor::new(true);
        mon.observe_dns(name, key.server.ip);
        for p in &packets {
            mon.observe(p);
        }
        let mut table = mon.flush();
        prop_assert_eq!(table.len(), 1);
        let m = table.pop().expect("one record");

        let mut flow = FlowObserver::new(Some(name.to_string()));
        run(&mut flow);
        let s = flow.finish().expect("the SYN opens the flow");
        prop_assert_eq!(m.key, s.key);
        prop_assert_eq!(m.first_syn, s.first_syn);
        prop_assert_eq!(m.last_packet, s.last_packet);
        prop_assert_eq!(m.up, s.up);
        prop_assert_eq!(m.down, s.down);
        prop_assert_eq!(m.min_rtt_ms, s.min_rtt_ms);
        prop_assert_eq!(m.rtt_samples, s.rtt_samples);
        prop_assert_eq!(&m.tls_sni, &s.tls_sni);
        prop_assert_eq!(&m.tls_certificate_cn, &s.tls_certificate_cn);
        prop_assert_eq!(&m.http_host, &s.http_host);
        prop_assert_eq!(&m.server_fqdn, &s.server_fqdn);
        prop_assert_eq!(&m.notify, &s.notify);
        prop_assert_eq!(m.close, s.close);
        prop_assert_eq!(m.aborted, s.aborted);
    }
}

#[test]
fn idle_eviction_flushes_stale_flows() {
    let mut mon = Monitor::new(false);
    let mk = |ts: u64, port: u16| Packet {
        ts: SimTime::from_secs(ts),
        src: Endpoint::new(Ipv4::new(10, 0, 0, 1), port),
        dst: Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
        seq: 0,
        ack_no: 0,
        flags: TcpFlags::SYN,
        payload_len: 0,
        marker: None,
    };
    mon.observe(&mk(100, 1000));
    mon.observe(&mk(4_000, 1001));
    assert_eq!(mon.active_flows(), 2);
    // Evict flows idle for > 1 h at t = 4100 s: only the first qualifies.
    mon.evict_idle(SimTime::from_secs(4_100), SimDuration::from_hours(1));
    assert_eq!(mon.active_flows(), 1);
    let done = mon.drain_completed();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].first_syn, SimTime::from_secs(100));
}
