//! The packet stream `simulate_faulty` hands a `Vec<Packet>` sink, pinned
//! by an FNV-1a digest over every field of every packet, over a seeded
//! sample of dialogues, paths, fault profiles, TCP eras and close modes.
//!
//! How the emitter buffers and hands packets over may change; which
//! packets reach a `Vec` sink, and in what order, may not. Any change to
//! a packet's timestamp, header, size, marker or position moves the
//! digest, and so does any change to the connection summary. A deliberate
//! model change re-pins it and says why.

use nettrace::{AppMarker, Endpoint, FlowKey, Ipv4, Packet};
use simcore::faults::FlowFaults;
use simcore::json::ToJson;
use simcore::{Rng, SimDuration, SimTime};
use tcpmodel::{
    simulate_faulty, tls, AccessLink, CloseMode, ConnSummary, Dialogue, Direction, Message,
    PathParams, TcpParams, Write,
};

const DIALOGUES: usize = 4;
const PATHS: usize = 5;
const FAULTS: usize = 4;
const CLOSES: usize = 4;
const CASES: u64 = 160;

/// FNV-1a, byte by byte.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn endpoint(&mut self, e: Endpoint) {
        self.word(u64::from(e.ip.0));
        self.word(u64::from(e.port));
    }

    fn packet(&mut self, p: &Packet) {
        self.word(p.ts.micros());
        self.endpoint(p.src);
        self.endpoint(p.dst);
        self.word(u64::from(p.seq));
        self.word(u64::from(p.ack_no));
        self.word(u64::from(p.flags.0));
        self.word(u64::from(p.payload_len));
        match &p.marker {
            Some(m) => self.bytes(m.to_json().dump().as_bytes()),
            None => self.word(u64::MAX),
        }
    }

    fn summary(&mut self, s: &ConnSummary) {
        self.word(s.established.micros());
        self.word(s.last_packet.micros());
        self.word(s.deliveries.len() as u64);
        for d in &s.deliveries {
            self.word(d.micros());
        }
        for v in [
            s.bytes_up,
            s.bytes_down,
            s.rtx_up,
            s.rtx_down,
            s.rtx_bytes_up,
            s.rtx_bytes_down,
            u64::from(s.aborted),
        ] {
            self.word(v);
        }
    }
}

/// One point of the grid.
#[derive(Clone, Copy, Debug)]
struct Case {
    dialogue: usize,
    path: usize,
    fault: usize,
    v14: bool,
    close: usize,
    seed: u64,
}

fn close_mode(i: usize) -> CloseMode {
    match i {
        0 => CloseMode::ServerIdleTimeout {
            idle: SimDuration::from_secs(60),
            alert_size: tls::ALERT_BYTES,
        },
        1 => CloseMode::ClientFin {
            delay: SimDuration::from_millis(30),
        },
        2 => CloseMode::ClientRst {
            delay: SimDuration::from_millis(30),
        },
        _ => CloseMode::LeftOpen,
    }
}

/// The dialogue of a case. The 2 ms inner-RTT path always carries a 2 MB
/// upload, so windows reach the receiver window and a 45-ACK train
/// (2.2 ms) outlasts the 2 ms gap before the next burst.
fn dialogue(case: Case) -> Dialogue {
    let mut m = tls::handshake(
        "dl-client7.dropbox.com",
        "*.dropbox.com",
        SimDuration::from_millis(40),
    );
    let up = |size| Message::simple(Direction::Up, SimDuration::from_millis(20), size);
    let down = |size| Message::simple(Direction::Down, SimDuration::from_millis(30), size);
    match (case.path, case.dialogue) {
        (4, _) => m.push(up(2_000_000)),
        // Store: 10 chunks of 100 kB, each acknowledged by the server.
        (_, 0) => {
            for _ in 0..10 {
                m.push(up(634 + 100_000));
                m.push(down(309));
            }
        }
        // Retrieve: 3 chunks of 1.5 MB.
        (_, 1) => {
            for _ in 0..3 {
                m.push(up(409));
                m.push(down(1_500_000));
            }
        }
        // One message of several writes with DPI-visible markers in both
        // directions.
        (_, 2) => {
            m.push(Message {
                dir: Direction::Up,
                delay: SimDuration::from_millis(10),
                writes: vec![
                    Write::marked(
                        350,
                        AppMarker::NotifyRequest {
                            host: "notify7.dropbox.com".into(),
                            host_int: 7_007,
                            namespaces: vec![1, 2, 3],
                        },
                    ),
                    Write::plain(20_000),
                    Write::marked(
                        5_000,
                        AppMarker::HttpRequest {
                            host: "dl-web.dropbox.com".into(),
                            path: "/get/a".into(),
                        },
                    ),
                    Write::plain(3_000),
                ],
            });
            m.push(Message {
                dir: Direction::Down,
                delay: SimDuration::from_millis(15),
                writes: vec![
                    Write::marked(
                        4_000,
                        AppMarker::TlsCertificate {
                            common_name: "*.dropbox.com".into(),
                        },
                    ),
                    Write::plain(30_000),
                    Write::marked(200, AppMarker::HttpResponse { status: 200 }),
                ],
            });
        }
        // A short control exchange.
        _ => {
            m.push(up(600));
            m.push(down(1_200));
        }
    }
    Dialogue::new(m).with_close(close_mode(case.close))
}

/// The path of a case: the three access links, an ADSL-like rate cap from
/// the home vantage points' ranges, and a fast 2 ms inner RTT.
fn path(case: Case, rng: &mut Rng) -> PathParams {
    let outer = SimDuration::from_millis(rng.range_u64(80, 110));
    match case.path {
        p @ 0..=2 => AccessLink::by_name(["wired", "wifi", "lte"][p])
            .expect("known access profile")
            .path(outer, rng),
        3 => PathParams {
            inner_rtt: SimDuration::from_millis(rng.range_u64(25, 60)),
            outer_rtt: outer,
            jitter: 0.06,
            loss_up: 0.001,
            loss_down: 0.001,
            up_rate: Some(rng.range_u64(40_000, 130_000)),
            down_rate: Some(rng.range_u64(250_000, 2_500_000)),
        },
        _ => PathParams {
            inner_rtt: SimDuration::from_millis(2),
            outer_rtt: SimDuration::from_millis(90),
            jitter: 0.0,
            loss_up: 0.0,
            loss_down: 0.0,
            up_rate: None,
            down_rate: None,
        },
    }
}

fn faults(case: Case, rng: &mut Rng) -> Option<FlowFaults> {
    match case.fault {
        0 => None,
        1 => Some(FlowFaults {
            extra_loss: 0.03,
            ..FlowFaults::default()
        }),
        2 => Some(FlowFaults {
            latency_spike: Some(SimDuration::from_millis(rng.range_u64(50, 250))),
            ..FlowFaults::default()
        }),
        _ => Some(FlowFaults {
            reset_after_bytes: Some(rng.range_u64(20_000, 2_500_000)),
            ..FlowFaults::default()
        }),
    }
}

fn cases() -> Vec<Case> {
    let mut rng = Rng::new(0x5eed_d16e);
    (0..CASES)
        .map(|seed| Case {
            dialogue: rng.below_usize(DIALOGUES),
            path: rng.below_usize(PATHS),
            fault: rng.below_usize(FAULTS),
            v14: rng.chance(0.5),
            close: rng.below_usize(CLOSES),
            seed,
        })
        .collect()
}

/// The stream of one case and its summary.
fn simulate_case(case: Case) -> (Vec<Packet>, ConnSummary) {
    let mut draw = Rng::new(case.seed).fork_named("grid");
    let path = path(case, &mut draw);
    let faults = faults(case, &mut draw);
    let tcp = if case.v14 {
        TcpParams::era_2012_v14()
    } else {
        TcpParams::era_2012_v1()
    };
    let key = FlowKey::new(
        Endpoint::new(Ipv4::new(10, 0, 0, 3), 41_000 + case.seed as u16),
        Endpoint::new(Ipv4::new(107, 22, 0, 3), 443),
    );
    let mut out = Vec::new();
    let summary = simulate_faulty(
        SimTime::from_secs(3),
        key,
        &dialogue(case),
        &path,
        &tcp,
        faults.as_ref(),
        &mut Rng::new(case.seed),
        &mut out,
    );
    (out, summary)
}

#[test]
fn vec_sink_stream_matches_the_pinned_digest() {
    let cases = cases();
    // The sample reaches every value of every axis.
    for (axis, n, pick) in [
        (
            "dialogue",
            DIALOGUES,
            (|c: &Case| c.dialogue) as fn(&Case) -> usize,
        ),
        ("path", PATHS, |c| c.path),
        ("fault", FAULTS, |c| c.fault),
        ("close", CLOSES, |c| c.close),
        ("era", 2, |c| usize::from(c.v14)),
    ] {
        for v in 0..n {
            assert!(
                cases.iter().any(|c| pick(c) == v),
                "{axis} {v} never sampled"
            );
        }
    }

    let mut h = Fnv(0xcbf29ce484222325);
    let mut packets = 0usize;
    for &case in &cases {
        let (out, summary) = simulate_case(case);
        h.word(out.len() as u64);
        for p in &out {
            h.packet(p);
        }
        h.summary(&summary);
        packets += out.len();
    }
    assert_eq!(packets, 242_083);
    assert_eq!(h.0, 0x515b_93da_9f42_ed21);
}
