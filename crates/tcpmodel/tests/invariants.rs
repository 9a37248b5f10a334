//! Property-based invariants of the TCP model.

use nettrace::{Endpoint, FlowKey, Ipv4, Packet, TcpFlags};
use simcore::faults::FlowFaults;
use simcore::proptest::{any_bool, vec_of};
use simcore::{prop_assert, prop_assert_eq, proptest};
use simcore::{Rng, SimDuration, SimTime};
use tcpmodel::{
    simulate, simulate_faulty, AccessLink, CloseMode, Dialogue, Direction, Message, PathParams,
    TcpParams, Write,
};

fn key() -> FlowKey {
    FlowKey::new(
        Endpoint::new(Ipv4::new(10, 0, 0, 1), 40_000),
        Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
    )
}

fn run(dialogue: &Dialogue, path: &PathParams, seed: u64) -> (Vec<Packet>, tcpmodel::ConnSummary) {
    let mut out = Vec::new();
    let s = simulate(
        SimTime::from_secs(2),
        key(),
        dialogue,
        path,
        &TcpParams::era_2012_v1(),
        &mut Rng::new(seed),
        &mut out,
    );
    (out, s)
}

proptest! {
    #![cases(48)]

    /// Unique payload bytes crossing the probe in each direction equal the
    /// dialogue's byte totals, for any loss rate in either direction.
    #[test]
    fn payload_conservation_under_bidirectional_loss(
        up_size in 1u32..300_000,
        down_size in 1u32..300_000,
        loss_up_m in 0u64..30,
        loss_down_m in 0u64..30,
        seed in 0u64..500,
    ) {
        let d = Dialogue::new(vec![
            Message::simple(Direction::Up, SimDuration::ZERO, up_size),
            Message::simple(Direction::Down, SimDuration::from_millis(10), down_size),
        ])
        .with_close(CloseMode::LeftOpen);
        let path = PathParams {
            inner_rtt: SimDuration::from_millis(12),
            outer_rtt: SimDuration::from_millis(88),
            jitter: 0.05,
            loss_up: loss_up_m as f64 / 1000.0,
            loss_down: loss_down_m as f64 / 1000.0,
            up_rate: None,
            down_rate: None,
        };
        let (pkts, s) = run(&d, &path, seed);
        // Unique sequence coverage per direction (dedup retransmissions).
        let unique = |from_client: bool| -> u64 {
            let mut segs: Vec<(u32, u32)> = pkts
                .iter()
                .filter(|p| (p.src == key().client) == from_client && p.payload_len > 0)
                .map(|p| (p.seq, p.payload_len))
                .collect();
            segs.sort_unstable();
            segs.dedup();
            segs.iter().map(|&(_, l)| l as u64).sum()
        };
        prop_assert_eq!(unique(true), up_size as u64);
        prop_assert_eq!(unique(false), down_size as u64);
        // Summary totals include retransmitted bytes.
        prop_assert!(s.bytes_up >= up_size as u64);
        prop_assert!(s.bytes_down >= down_size as u64);
    }

    /// Packets are emitted in non-decreasing probe time, and deliveries are
    /// monotone in message order, over every access-link profile, fault
    /// profile and close mode.
    #[test]
    fn chronology_and_delivery_monotonicity(
        sizes in vec_of(1u32..60_000, 1..8),
        link in 0usize..3,
        close in 0u8..4,
        extra_loss_m in 0u64..80,
        spike_ms in 0u64..300,
        reset_after in 1u64..300_000,
        faults_on in (any_bool(), any_bool(), any_bool()),
        seed in 0u64..200,
    ) {
        let messages: Vec<Message> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| Message::simple(
                if i % 2 == 0 { Direction::Up } else { Direction::Down },
                SimDuration::from_millis(5),
                s,
            ))
            .collect();
        let close = match close {
            0 => CloseMode::ServerIdleTimeout { idle: SimDuration::from_secs(60), alert_size: 37 },
            1 => CloseMode::ClientFin { delay: SimDuration::from_millis(5) },
            2 => CloseMode::ClientRst { delay: SimDuration::from_millis(5) },
            _ => CloseMode::LeftOpen,
        };
        let d = Dialogue::new(messages).with_close(close);
        let path = AccessLink::by_name(["wired", "wifi", "lte"][link])
            .expect("known access profile")
            .path(SimDuration::from_millis(90), &mut Rng::new(seed));
        let faults = FlowFaults {
            extra_loss: if faults_on.0 { extra_loss_m as f64 / 1000.0 } else { 0.0 },
            latency_spike: faults_on.1.then(|| SimDuration::from_millis(spike_ms)),
            reset_after_bytes: faults_on.2.then_some(reset_after),
        };
        let mut pkts: Vec<Packet> = Vec::new();
        let s = simulate_faulty(SimTime::from_secs(2), key(), &d, &path,
            &TcpParams::era_2012_v1(), Some(&faults), &mut Rng::new(seed), &mut pkts);
        for w in pkts.windows(2) {
            prop_assert!(w[0].ts <= w[1].ts);
        }
        for w in s.deliveries.windows(2) {
            prop_assert!(w[0] <= w[1], "deliveries out of order");
        }
        prop_assert_eq!(Some(s.last_packet), pkts.last().map(|p| p.ts));
        if let Some(&delivered) = s.deliveries.last() {
            prop_assert!(s.last_packet >= delivered);
        }
    }

    /// An uplink rate cap can only slow a transfer down, never speed it up.
    #[test]
    fn rate_cap_is_monotone(
        size in 100_000u32..800_000,
        rate_kbps in 64u64..2_000,
    ) {
        let d = Dialogue::new(vec![Message::simple(Direction::Up, SimDuration::ZERO, size)])
            .with_close(CloseMode::LeftOpen);
        let free = PathParams {
            inner_rtt: SimDuration::from_millis(20),
            outer_rtt: SimDuration::from_millis(80),
            jitter: 0.0,
            loss_up: 0.0,
            loss_down: 0.0,
            up_rate: None,
            down_rate: None,
        };
        let capped = PathParams {
            up_rate: Some(rate_kbps * 125), // kbit/s -> B/s
            ..free.clone()
        };
        let (_, s_free) = run(&d, &free, 1);
        let (_, s_capped) = run(&d, &capped, 1);
        let t_free = s_free.deliveries[0] - s_free.established;
        let t_capped = s_capped.deliveries[0] - s_capped.established;
        prop_assert!(t_capped >= t_free, "{t_capped} < {t_free}");
        // And the capped transfer cannot beat the configured line rate by
        // more than a small factor (window granularity).
        let implied = size as f64 / t_capped.as_secs_f64();
        prop_assert!(implied <= 1.5 * (rate_kbps * 125) as f64 + 200_000.0,
            "implied {implied} B/s exceeds cap {}", rate_kbps * 125);
    }

    /// PSH count per direction equals the number of writes, regardless of
    /// message sizes and segmentation — the Appendix A.3 precondition.
    #[test]
    fn psh_equals_write_count(
        writes in vec_of((1u32..20_000, any_bool()), 1..10),
        seed in 0u64..100,
    ) {
        let up_writes: Vec<Write> = writes
            .iter()
            .filter(|&&(_, up)| up)
            .map(|&(s, _)| Write::plain(s))
            .collect();
        let down_writes: Vec<Write> = writes
            .iter()
            .filter(|&&(_, up)| !up)
            .map(|&(s, _)| Write::plain(s))
            .collect();
        let mut messages = Vec::new();
        if !up_writes.is_empty() {
            messages.push(Message { dir: Direction::Up, delay: SimDuration::ZERO, writes: up_writes.clone() });
        }
        if !down_writes.is_empty() {
            messages.push(Message { dir: Direction::Down, delay: SimDuration::from_millis(5), writes: down_writes.clone() });
        }
        let d = Dialogue::new(messages).with_close(CloseMode::LeftOpen);
        let path = PathParams {
            inner_rtt: SimDuration::from_millis(10),
            outer_rtt: SimDuration::from_millis(90),
            jitter: 0.0,
            loss_up: 0.0,
            loss_down: 0.0,
            up_rate: None,
            down_rate: None,
        };
        let (pkts, _) = run(&d, &path, seed);
        let psh = |from_client: bool| pkts
            .iter()
            .filter(|p| (p.src == key().client) == from_client
                && p.payload_len > 0
                && p.flags.contains(TcpFlags::PSH))
            .count();
        prop_assert_eq!(psh(true), up_writes.len());
        prop_assert_eq!(psh(false), down_writes.len());
    }

    /// Close modes emit exactly the packets Fig. 19 shows.
    #[test]
    fn close_mode_packet_shapes(mode in 0u8..3, size in 1u32..50_000) {
        let close = match mode {
            0 => CloseMode::ServerIdleTimeout { idle: SimDuration::from_secs(60), alert_size: 37 },
            1 => CloseMode::ClientFin { delay: SimDuration::from_millis(50) },
            _ => CloseMode::ClientRst { delay: SimDuration::from_millis(50) },
        };
        let d = Dialogue::new(vec![Message::simple(Direction::Up, SimDuration::ZERO, size)])
            .with_close(close);
        let path = PathParams {
            inner_rtt: SimDuration::from_millis(10),
            outer_rtt: SimDuration::from_millis(90),
            jitter: 0.0,
            loss_up: 0.0,
            loss_down: 0.0,
            up_rate: None,
            down_rate: None,
        };
        let (pkts, _) = run(&d, &path, 3);
        let server_fin = pkts.iter().filter(|p| p.flags.fin() && p.src == key().server).count();
        let client_fin = pkts.iter().filter(|p| p.flags.fin() && p.src == key().client).count();
        let rst = pkts.iter().filter(|p| p.flags.rst()).count();
        match mode {
            0 => {
                prop_assert_eq!(server_fin, 1);
                prop_assert_eq!(rst, 1);
                prop_assert_eq!(client_fin, 0);
            }
            1 => {
                prop_assert_eq!(client_fin, 1);
                prop_assert_eq!(server_fin, 1);
                prop_assert_eq!(rst, 0);
            }
            _ => {
                prop_assert_eq!(rst, 1);
                prop_assert_eq!(server_fin + client_fin, 0);
            }
        }
    }
}
