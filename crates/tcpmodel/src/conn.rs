//! The per-connection TCP simulator.
//!
//! [`simulate`] plays a [`Dialogue`] over a modelled path and hands every
//! packet that crosses the vantage-point probe to a [`PacketSink`], in
//! probe order. The transfer engine is round-based: each RTT the
//! sender emits up to a congestion window of segments, the receiver
//! acknowledges (delayed ACKs), and the window evolves by slow start /
//! congestion avoidance, with fast-retransmit and RTO recovery on loss.
//! This is the granularity at which the paper's effects live — slow-start
//! latency for small flows (Fig. 9's θ bound), sequential-acknowledgment
//! stalls for many-chunk flows (Fig. 10), and retransmission counts.

use crate::dialogue::{CloseMode, Dialogue, Direction, Write};
use crate::params::{PathParams, TcpParams};
use nettrace::{AppMarker, FlowKey, Packet, PacketRun, PacketSink, Spacing, TcpFlags};
use simcore::faults::FlowFaults;
use simcore::{Rng, SimDuration, SimTime};

/// Result of simulating one connection.
#[derive(Clone, Debug)]
pub struct ConnSummary {
    /// When the three-way handshake completed at the client.
    pub established: SimTime,
    /// Probe timestamp of the last packet of the connection.
    pub last_packet: SimTime,
    /// Delivery time (arrival of the last byte at the receiver) of each
    /// message, in dialogue order. When a fault profile cuts the flow
    /// mid-transfer ([`ConnSummary::aborted`]) only the messages that
    /// completed before the reset have entries.
    pub deliveries: Vec<SimTime>,
    /// Application payload bytes sent by the client (including TLS framing).
    pub bytes_up: u64,
    /// Application payload bytes sent by the server.
    pub bytes_down: u64,
    /// Retransmitted segments, client direction.
    pub rtx_up: u64,
    /// Retransmitted segments, server direction.
    pub rtx_down: u64,
    /// Retransmitted payload bytes, client direction.
    pub rtx_bytes_up: u64,
    /// Retransmitted payload bytes, server direction.
    pub rtx_bytes_down: u64,
    /// Whether a fault profile cut the connection before the dialogue
    /// finished (the client emitted an RST instead of the normal close).
    pub aborted: bool,
}

/// Per-direction sender state.
struct Sender {
    next_seq: u32,
    cwnd: f64,
    ssthresh: f64,
    initcwnd: f64,
    last_activity: SimTime,
    bytes_sent: u64,
    rtx_segments: u64,
    rtx_bytes: u64,
}

impl Sender {
    fn new(initcwnd: u32, now: SimTime) -> Self {
        Sender {
            next_seq: 1, // SYN consumed sequence 0
            cwnd: initcwnd as f64,
            ssthresh: f64::INFINITY,
            initcwnd: initcwnd as f64,
            last_activity: now,
            bytes_sent: 0,
            rtx_segments: 0,
            rtx_bytes: 0,
        }
    }

    /// Slow-start restart after idle.
    fn maybe_idle_restart(&mut self, now: SimTime, idle_after: SimDuration) {
        if now.saturating_since(self.last_activity) > idle_after {
            self.cwnd = self.initcwnd;
            self.ssthresh = f64::INFINITY;
        }
    }

    fn on_ack_progress(&mut self, acked_segments: u32) {
        for _ in 0..acked_segments {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0; // slow start: doubles per RTT
            } else {
                self.cwnd += 1.0 / self.cwnd; // congestion avoidance
            }
        }
    }

    fn on_loss(&mut self, fast: bool) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = if fast { self.ssthresh } else { 1.0 };
    }
}

/// A message's writes cut into MSS-sized segments, front to back: each
/// segment is `(len, psh, marker)`, PSH on the last segment of a write and
/// the write's marker on its first.
struct Segments<'d> {
    /// Writes not fully cut yet; the first is the one being cut.
    writes: &'d [Write],
    /// Bytes of `writes[0]` already cut.
    cut: u32,
    mss: u32,
}

impl<'d> Segments<'d> {
    fn new(writes: &'d [Write], mss: u32) -> Self {
        let mut s = Segments {
            writes,
            cut: 0,
            mss,
        };
        s.skip_spent();
        s
    }

    /// Drop the fully cut write (and any zero-size ones after it).
    fn skip_spent(&mut self) {
        while let Some(w) = self.writes.first() {
            debug_assert!(w.size > 0, "zero-size write");
            if self.cut < w.size {
                break;
            }
            self.writes = &self.writes[1..];
            self.cut = 0;
        }
    }

    fn is_done(&self) -> bool {
        self.writes.is_empty()
    }

    /// Cut up to `max` plain segments at once: full MSS, no marker and no
    /// PSH, so never a write's first marked segment or its last one.
    /// Returns how many were cut.
    fn take_plain(&mut self, max: u32) -> u32 {
        let Some(w) = self.writes.first() else {
            return 0;
        };
        let rest = w.size - self.cut;
        if rest <= self.mss || (self.cut == 0 && w.marker.is_some()) {
            return 0;
        }
        let plain = ((rest - 1) / self.mss).min(max);
        self.cut += plain * self.mss;
        plain
    }
}

impl<'d> Iterator for Segments<'d> {
    type Item = (u32, bool, Option<&'d AppMarker>);

    fn next(&mut self) -> Option<Self::Item> {
        let w = self.writes.first()?;
        let len = (w.size - self.cut).min(self.mss);
        let marker = if self.cut == 0 {
            w.marker.as_ref()
        } else {
            None
        };
        self.cut += len;
        let psh = self.cut == w.size;
        self.skip_spent();
        Some((len, psh, marker))
    }
}

/// A piece of a round's burst, sent as one run: `count` segments of `len`
/// bytes from `seq` on. Only plain segments come more than one at a time.
struct Piece<'d> {
    seq: u32,
    len: u32,
    count: u32,
    psh: bool,
    marker: Option<&'d AppMarker>,
    is_rtx: bool,
}

/// Where a run sits in its train: packets `index..index + count`, spaced
/// by `spacing`, each `seq_step` bytes further in sequence space.
#[derive(Clone, Copy)]
struct Train {
    spacing: Spacing,
    index: u32,
    count: u32,
    seq_step: u32,
}

impl Train {
    /// A single packet.
    const ONE: Train = Train {
        spacing: Spacing::Every(SimDuration::ZERO),
        index: 0,
        count: 1,
        seq_step: 0,
    };
}

/// Emits probe-timestamped packets into a sink, in probe order, a run at
/// a time.
///
/// Runs are made in send order, which is not probe order: an ACK train
/// sent in one round can cross the probe after data sent in the next.
/// They wait in `pending`, whose packets, run after run, are in stable
/// timestamp order: each new packet goes after every pending packet with
/// an equal or earlier timestamp. A run that starts no earlier than the
/// last pending packet is appended whole; one that starts earlier is
/// merged in, splitting runs where the two cross. [`Wire::release`] hands
/// the sink every packet that no later send can precede, so the sink sees
/// exactly the stable timestamp order of the whole connection.
struct Wire<'a, S: PacketSink + ?Sized> {
    key: FlowKey,
    /// One-way delay from the client to the probe.
    inner_half: SimDuration,
    /// One-way delay from the server to the probe.
    outer_half: SimDuration,
    sink: &'a mut S,
    /// Runs not yet handed to the sink, in stable timestamp order.
    pending: Vec<PacketRun>,
    /// The last watermark released: no packet may reach the probe before it.
    released: SimTime,
    last_ts: SimTime,
}

impl<S: PacketSink + ?Sized> Wire<'_, S> {
    /// Emit the packets of `train` sent in `dir`, its packet 0 at `send`;
    /// the `k`-th carries sequence number `seq + k · seq_step`. A single
    /// packet is a run of one ([`Train::ONE`]).
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        dir: Direction,
        send: SimTime,
        train: Train,
        seq: u32,
        ack_no: u32,
        flags: TcpFlags,
        payload: u32,
        marker: Option<AppMarker>,
    ) {
        let (src, dst, to_probe) = match dir {
            Direction::Up => (self.key.client, self.key.server, self.inner_half),
            Direction::Down => (self.key.server, self.key.client, self.outer_half),
        };
        let template = Packet {
            ts: send,
            src,
            dst,
            seq,
            ack_no,
            flags,
            payload_len: payload,
            marker,
        };
        let run = PacketRun::new(
            template,
            train.count,
            train.seq_step,
            send + to_probe,
            train.index,
            train.spacing,
        );
        let start = run.first().ts;
        debug_assert!(
            start >= self.released,
            "packet at {start:?} emitted behind the released watermark {:?}",
            self.released
        );
        self.last_ts = self.last_ts.max(run.last_ts());
        match self.pending.last() {
            Some(last) if last.last_ts() > start => self.merge(run),
            _ => self.pending.push(run),
        }
    }

    /// Merge `run` into the pending runs it interleaves with: each of its
    /// packets goes after every pending packet with an equal or earlier
    /// timestamp, and runs split where the two cross.
    fn merge(&mut self, run: PacketRun) {
        let start = run.first().ts;
        let from = self.pending.partition_point(|r| r.last_ts() <= start);
        let mut older = self.pending.split_off(from).into_iter();
        let (mut old, mut new) = (older.next(), Some(run));
        loop {
            match (old.take(), new.take()) {
                (Some(o), Some(n)) => {
                    let (o_start, n_start) = (o.first().ts, n.first().ts);
                    if o_start <= n_start {
                        old = self
                            .queue_while(o, |t| t <= n_start)
                            .or_else(|| older.next());
                        new = Some(n);
                    } else {
                        new = self.queue_while(n, |t| t < o_start);
                        old = Some(o);
                    }
                }
                (Some(o), None) => {
                    self.pending.push(o);
                    self.pending.extend(older);
                    return;
                }
                (None, Some(n)) => {
                    self.pending.push(n);
                    return;
                }
                (None, None) => return,
            }
        }
    }

    /// Queue the leading packets of `run` whose timestamps satisfy `pred`
    /// (its first one does) and return the rest, if any.
    fn queue_while(
        &mut self,
        mut run: PacketRun,
        pred: impl Fn(SimTime) -> bool,
    ) -> Option<PacketRun> {
        let k = run.count_while(pred);
        debug_assert!(k > 0, "merge queued no packet");
        let rest = (k < run.count()).then(|| run.split_off(k));
        self.pending.push(run);
        rest
    }

    /// Every send from now on happens at or after `now`, so it reaches the
    /// probe no earlier than `now` plus the shorter one-way delay: hand the
    /// sink every pending packet up to that watermark, splitting the run
    /// that straddles it. A later packet with exactly the watermark's
    /// timestamp sorts after the released ones anyway, because it was
    /// emitted after them.
    fn release(&mut self, now: SimTime) {
        let watermark = now + self.inner_half.min(self.outer_half);
        let ready = self.pending.partition_point(|r| r.last_ts() <= watermark);
        for run in self.pending.drain(..ready) {
            self.sink.accept_run(run);
        }
        if let Some(run) = self.pending.first_mut() {
            if run.first().ts <= watermark {
                let rest = run.split_off(run.count_while(|t| t <= watermark));
                self.sink.accept_run(std::mem::replace(run, rest));
            }
        }
        self.released = watermark;
    }

    /// Hand the sink what is left; returns the last probe timestamp.
    fn finish(self) -> SimTime {
        for run in self.pending {
            self.sink.accept_run(run);
        }
        self.last_ts
    }
}

/// Simulate one connection, handing every packet that crosses the probe
/// to `out` in probe-timestamp order (packets with equal timestamps in
/// the order the model produced them).
#[allow(clippy::too_many_arguments)]
pub fn simulate<S: PacketSink + ?Sized>(
    start: SimTime,
    key: FlowKey,
    dialogue: &Dialogue,
    path: &PathParams,
    tcp: &TcpParams,
    rng: &mut Rng,
    out: &mut S,
) -> ConnSummary {
    simulate_faulty(start, key, dialogue, path, tcp, None, rng, out)
}

/// [`simulate`] with an optional fault profile layered on top of the
/// path: extra segment loss raises retransmissions and shrinks the
/// congestion window, a latency spike stretches every round trip, and
/// `reset_after_bytes` cuts the connection (client RST) once that much
/// payload — both directions combined — has been put on the wire.
///
/// `faults: None` (and an all-default profile) takes exactly the code
/// paths of the plain simulator: same packets, same RNG draws,
/// byte-for-byte identical output.
#[allow(clippy::too_many_arguments)]
pub fn simulate_faulty<S: PacketSink + ?Sized>(
    start: SimTime,
    key: FlowKey,
    dialogue: &Dialogue,
    path: &PathParams,
    tcp: &TcpParams,
    faults: Option<&FlowFaults>,
    rng: &mut Rng,
    out: &mut S,
) -> ConnSummary {
    let spike = faults
        .and_then(|f| f.latency_spike)
        .unwrap_or(SimDuration::ZERO);
    let extra_loss = faults.map(|f| f.extra_loss).unwrap_or(0.0);
    let reset_after = faults.and_then(|f| f.reset_after_bytes);

    let mut wire = Wire {
        key,
        inner_half: path.inner_rtt / 2,
        outer_half: path.outer_rtt / 2,
        sink: out,
        pending: Vec::new(),
        released: start,
        last_ts: start,
    };
    let total_rtt = path.total_rtt() + spike;

    // --- Three-way handshake -------------------------------------------
    // SYN / SYN-ACK / ACK. Handshake loss is not modelled (negligible for
    // every analysis in the paper).
    wire.emit(
        Direction::Up,
        start,
        Train::ONE,
        0,
        0,
        TcpFlags::SYN,
        0,
        None,
    );
    let synack_time = start + total_rtt / 2;
    wire.emit(
        Direction::Down,
        synack_time,
        Train::ONE,
        0,
        1,
        TcpFlags::SYN.union(TcpFlags::ACK),
        0,
        None,
    );
    let established = start + total_rtt;
    wire.emit(
        Direction::Up,
        established,
        Train::ONE,
        1,
        1,
        TcpFlags::ACK,
        0,
        None,
    );

    let mut up = Sender::new(tcp.client_initcwnd, established);
    let mut down = Sender::new(tcp.server_initcwnd, established);
    // Cumulative bytes received per direction (for ACK numbers).
    let mut recvd_up: u32 = 1;
    let mut recvd_down: u32 = 1;

    let mut deliveries = Vec::with_capacity(dialogue.messages.len());
    // Time at which the next message may be triggered.
    let mut ready = established;
    // Payload bytes on the wire in both directions, for the reset trigger.
    let mut total_payload_sent: u64 = 0;
    let mut aborted = false;
    let mut abort_at = established;

    // Round buffers, reused across rounds and messages. A queued or lost
    // segment is (seq, len, psh).
    let mut burst: Vec<Piece> = Vec::new();
    let mut lost: Vec<(u32, u32, bool)> = Vec::new();
    let mut rtx_queue: Vec<(u32, u32, bool)> = Vec::new();

    'msgs: for msg in &dialogue.messages {
        let trigger = ready + msg.delay;
        let mut clock = trigger;
        // The peer only sends ACKs during this message, so its sequence
        // number is fixed for the duration; capture it before borrowing.
        let peer_next_seq = match msg.dir {
            Direction::Up => down.next_seq,
            Direction::Down => up.next_seq,
        };
        let sender = match msg.dir {
            Direction::Up => &mut up,
            Direction::Down => &mut down,
        };
        sender.maybe_idle_restart(trigger, tcp.idle_restart);

        let mut segments = Segments::new(&msg.writes, tcp.mss);
        let rate = match msg.dir {
            Direction::Up => path.up_rate,
            Direction::Down => path.down_rate,
        };

        // Round-based transfer with a retransmission queue.
        let mut last_arrival = clock;
        while !segments.is_done() || !rtx_queue.is_empty() {
            // Every send of this round, later rounds, later messages and
            // the close happens at or after `clock`.
            wire.release(clock);
            let rtt_round = total_rtt.mul_f64(1.0 + path.jitter * rng.f64());
            let window = (sender.cwnd as u32).clamp(1, tcp.rwnd_segments) as usize;

            // Compose this round's burst: retransmissions first, then new
            // segments, plain ones in a row as one piece.
            let resent = rtx_queue.len().min(window);
            burst.extend(rtx_queue.drain(..resent).map(|(seq, len, psh)| Piece {
                seq,
                len,
                count: 1,
                psh,
                marker: None,
                is_rtx: true,
            }));
            let mut n = resent;
            while n < window {
                let plain = segments.take_plain((window - n) as u32);
                let piece = if plain > 0 {
                    Piece {
                        seq: sender.next_seq,
                        len: tcp.mss,
                        count: plain,
                        psh: false,
                        marker: None,
                        is_rtx: false,
                    }
                } else if let Some((len, psh, marker)) = segments.next() {
                    Piece {
                        seq: sender.next_seq,
                        len,
                        count: 1,
                        psh,
                        marker,
                        is_rtx: false,
                    }
                } else {
                    break;
                };
                sender.next_seq = sender.next_seq.wrapping_add(piece.len * piece.count);
                n += piece.count as usize;
                burst.push(piece);
            }

            let burst_bytes: u64 = burst
                .iter()
                .map(|p| u64::from(p.len) * u64::from(p.count))
                .sum();
            // Serialisation time under an access-rate cap.
            let serialize = rate
                .map(|r| SimDuration::from_secs_f64(burst_bytes as f64 / r as f64))
                .unwrap_or(SimDuration::ZERO);

            let base_loss = match msg.dir {
                Direction::Up => path.loss_up,
                Direction::Down => path.loss_down,
            };
            let loss_p = if extra_loss > 0.0 {
                (base_loss + extra_loss).min(0.9)
            } else {
                base_loss
            };

            let peer_ack_base = match msg.dir {
                Direction::Up => recvd_down, // server acks carry its own recv count
                Direction::Down => recvd_up,
            };

            // Each piece crosses the probe as one run of the burst's train;
            // loss is drawn per segment, in burst order.
            let spacing = Spacing::Spread {
                span: serialize,
                of: n as u32,
            };
            let mut index = 0;
            let mut delivered = 0usize;
            let mut last_delivered = None;
            for piece in burst.drain(..) {
                let mut flags = TcpFlags::ACK;
                if piece.psh {
                    flags = flags.union(TcpFlags::PSH);
                }
                let train = Train {
                    spacing,
                    index,
                    count: piece.count,
                    seq_step: piece.len,
                };
                wire.emit(
                    msg.dir,
                    clock,
                    train,
                    piece.seq,
                    peer_ack_base,
                    flags,
                    piece.len,
                    piece.marker.cloned(),
                );
                if piece.is_rtx {
                    sender.rtx_segments += 1;
                    sender.rtx_bytes += piece.len as u64;
                }
                for k in 0..piece.count {
                    let dropped = loss_p > 0.0 && rng.chance(loss_p);
                    if dropped && !piece.is_rtx {
                        let seq = piece.seq.wrapping_add(k * piece.len);
                        lost.push((seq, piece.len, piece.psh));
                    } else {
                        delivered += 1;
                        last_delivered = Some(index + k);
                    }
                }
                index += piece.count;
            }
            sender.bytes_sent += burst_bytes;
            total_payload_sent += burst_bytes;
            // The last segment delivered arrives last: offsets never
            // decrease along the burst.
            if let Some(i) = last_delivered {
                let arrival = clock + spacing.offset(i) + rtt_round / 2;
                last_arrival = last_arrival.max(arrival);
            }

            // Receiver ACKs: cumulative up to the first hole; one delayed
            // ACK per two delivered segments (at least one).
            let delivered_bytes: u32 = match lost.first() {
                None => burst_bytes as u32,
                // Bytes before the first hole.
                Some(&(hole, _, _)) => hole.wrapping_sub(match msg.dir {
                    Direction::Up => recvd_up,
                    Direction::Down => recvd_down,
                }),
            };
            let new_recvd = match msg.dir {
                Direction::Up => {
                    recvd_up = recvd_up.wrapping_add(delivered_bytes);
                    recvd_up
                }
                Direction::Down => {
                    recvd_down = recvd_down.wrapping_add(delivered_bytes);
                    recvd_down
                }
            };
            if delivered > 0 {
                // Dup-ACKs all carry the same cumulative number when a
                // hole exists; the 50 µs spacing is cosmetic.
                let train = Train {
                    spacing: Spacing::Every(SimDuration::from_micros(50)),
                    count: delivered.div_ceil(2) as u32,
                    ..Train::ONE
                };
                wire.emit(
                    msg.dir.flip(),
                    clock + serialize + rtt_round / 2,
                    train,
                    peer_next_seq,
                    new_recvd,
                    TcpFlags::ACK,
                    0,
                    None,
                );
            }

            // Window evolution and next-round clock.
            if lost.is_empty() {
                sender.on_ack_progress(delivered as u32);
                clock = clock + serialize + rtt_round;
                // When everything has been sent we do not need to wait for
                // the final ACK round to trigger the peer's reply: the peer
                // reacts to the *arrival* of the data. `clock` advances for
                // the sender only.
            } else {
                let fast = delivered >= 3;
                sender.on_loss(fast);
                rtx_queue.splice(0..0, lost.drain(..));
                let recovery = if fast {
                    rtt_round
                } else {
                    tcp.min_rto.max(rtt_round * 2)
                };
                clock = clock + serialize + recovery;
            }

            // Mid-flow reset: once enough payload is on the wire the
            // connection dies at the end of this round; the rest of the
            // dialogue (including its close) never happens.
            if let Some(threshold) = reset_after {
                if total_payload_sent >= threshold {
                    aborted = true;
                    abort_at = clock;
                    break 'msgs;
                }
            }
        }
        sender.last_activity = clock;
        // Delivery: when the last byte reached the receiver.
        deliveries.push(last_arrival);
        ready = last_arrival;
    }

    // --- Close ----------------------------------------------------------
    let close = if aborted {
        // The fault profile cut the flow: the client tears down with a
        // bare RST and nothing else is exchanged.
        wire.emit(
            Direction::Up,
            abort_at,
            Train::ONE,
            up.next_seq,
            recvd_down,
            TcpFlags::RST,
            0,
            None,
        );
        CloseMode::LeftOpen // no close packets after the reset
    } else {
        dialogue.close
    };
    match close {
        CloseMode::ServerIdleTimeout { idle, alert_size } => {
            let t = ready + idle;
            // Alert (PSH) + FIN in one segment, then client RST.
            wire.emit(
                Direction::Down,
                t,
                Train::ONE,
                down.next_seq,
                recvd_up,
                TcpFlags::PSH.union(TcpFlags::ACK).union(TcpFlags::FIN),
                alert_size,
                None,
            );
            down.bytes_sent += alert_size as u64;
            let rst_t = t + total_rtt / 2;
            wire.emit(
                Direction::Up,
                rst_t,
                Train::ONE,
                up.next_seq,
                recvd_down,
                TcpFlags::RST,
                0,
                None,
            );
        }
        CloseMode::ClientFin { delay } => {
            let t = ready + delay;
            wire.emit(
                Direction::Up,
                t,
                Train::ONE,
                up.next_seq,
                recvd_down,
                TcpFlags::FIN.union(TcpFlags::ACK),
                0,
                None,
            );
            let t2 = t + total_rtt / 2;
            wire.emit(
                Direction::Down,
                t2,
                Train::ONE,
                down.next_seq,
                recvd_up.wrapping_add(1),
                TcpFlags::FIN.union(TcpFlags::ACK),
                0,
                None,
            );
            wire.emit(
                Direction::Up,
                t + total_rtt,
                Train::ONE,
                up.next_seq.wrapping_add(1),
                recvd_down.wrapping_add(1),
                TcpFlags::ACK,
                0,
                None,
            );
        }
        CloseMode::ClientRst { delay } => {
            let t = ready + delay;
            wire.emit(
                Direction::Up,
                t,
                Train::ONE,
                up.next_seq,
                recvd_down,
                TcpFlags::RST,
                0,
                None,
            );
        }
        CloseMode::LeftOpen => {}
    }

    ConnSummary {
        established,
        last_packet: wire.finish(),
        deliveries,
        bytes_up: up.bytes_sent,
        bytes_down: down.bytes_sent,
        rtx_up: up.rtx_segments,
        rtx_down: down.rtx_segments,
        rtx_bytes_up: up.rtx_bytes,
        rtx_bytes_down: down.rtx_bytes,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialogue::{Message, Write};
    use nettrace::{Endpoint, Ipv4};

    fn key() -> FlowKey {
        FlowKey::new(
            Endpoint::new(Ipv4::new(10, 0, 0, 1), 40_000),
            Endpoint::new(Ipv4::new(199, 47, 216, 10), 443),
        )
    }

    fn path_100ms() -> PathParams {
        PathParams {
            inner_rtt: SimDuration::from_millis(10),
            outer_rtt: SimDuration::from_millis(90),
            jitter: 0.0,
            loss_up: 0.0,
            loss_down: 0.0,
            up_rate: None,
            down_rate: None,
        }
    }

    fn run(dialogue: Dialogue, path: PathParams) -> (Vec<Packet>, ConnSummary) {
        let mut out = Vec::new();
        let mut rng = Rng::new(1);
        let s = simulate(
            SimTime::from_secs(10),
            key(),
            &dialogue,
            &path,
            &TcpParams::era_2012_v1(),
            &mut rng,
            &mut out,
        );
        (out, s)
    }

    #[test]
    fn handshake_rtt_visible_at_probe() {
        let d = Dialogue::new(vec![Message::simple(Direction::Up, SimDuration::ZERO, 100)])
            .with_close(CloseMode::LeftOpen);
        let (pkts, _) = run(d, path_100ms());
        let syn = pkts
            .iter()
            .find(|p| p.flags.syn() && !p.flags.ack())
            .unwrap();
        let synack = pkts
            .iter()
            .find(|p| p.flags.syn() && p.flags.ack())
            .unwrap();
        // Probe-to-server RTT = outer_rtt = 90 ms.
        assert_eq!((synack.ts - syn.ts).millis(), 90);
    }

    #[test]
    fn packets_are_chronological() {
        let d = Dialogue::new(vec![
            Message::simple(Direction::Up, SimDuration::ZERO, 50_000),
            Message::simple(Direction::Down, SimDuration::from_millis(10), 200_000),
        ]);
        let (pkts, _) = run(d, path_100ms());
        for w in pkts.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
    }

    #[test]
    fn psh_on_write_boundaries() {
        let d = Dialogue::new(vec![Message {
            dir: Direction::Up,
            delay: SimDuration::ZERO,
            writes: vec![Write::plain(3_000), Write::plain(500)],
        }])
        .with_close(CloseMode::LeftOpen);
        let (pkts, _) = run(d, path_100ms());
        let psh: Vec<&Packet> = pkts
            .iter()
            .filter(|p| p.flags.psh() && p.payload_len > 0)
            .collect();
        // Two writes -> exactly two PSH segments.
        assert_eq!(psh.len(), 2);
        // The first write spans 3 segments (mss 1430), PSH on the last.
        assert_eq!(psh[0].payload_len, 3_000 - 2 * 1430);
        assert_eq!(psh[1].payload_len, 500);
    }

    #[test]
    fn slow_start_doubles_rounds() {
        // 100 kB with initcwnd 3, mss 1430: segments = 70.
        // Rounds: 3+6+12+24+48 -> 5 rounds in slow start.
        let size = 100_000u32;
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            size,
        )])
        .with_close(CloseMode::LeftOpen);
        let (_, s) = run(d, path_100ms());
        let established = s.established;
        let transfer = s.deliveries[0] - established;
        // Expect ~4*RTT (rounds after the first) + 0.5 RTT final propagation,
        // allow the inner/outer split tolerance.
        let rtts = transfer.as_secs_f64() / 0.1;
        assert!(rtts > 4.0 && rtts < 5.5, "rtts = {rtts}");
    }

    #[test]
    fn sequential_messages_wait_for_delivery() {
        // Request/response: the response trigger includes the request's
        // one-way delivery plus the server reaction delay.
        let d = Dialogue::new(vec![
            Message::simple(Direction::Up, SimDuration::ZERO, 400),
            Message::simple(Direction::Down, SimDuration::from_millis(20), 400),
        ])
        .with_close(CloseMode::LeftOpen);
        let (_, s) = run(d, path_100ms());
        let gap = (s.deliveries[1] - s.deliveries[0]).as_secs_f64();
        // one-way back (50ms) + 20ms reaction = ~70ms.
        assert!((gap - 0.07).abs() < 0.02, "gap = {gap}");
    }

    #[test]
    fn loss_produces_retransmissions() {
        let mut path = path_100ms();
        path.loss_up = 0.05;
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            500_000,
        )])
        .with_close(CloseMode::LeftOpen);
        let (pkts, s) = run(d, path);
        assert!(s.rtx_up > 0, "expected retransmissions");
        // Retransmitted seqs appear at least twice.
        let mut seqs: Vec<u32> = pkts
            .iter()
            .filter(|p| p.payload_len > 0 && p.src == key().client)
            .map(|p| p.seq)
            .collect();
        seqs.sort_unstable();
        let dups = seqs.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(dups as u64 >= s.rtx_up);
        // All bytes still delivered exactly once at the app level.
        assert_eq!(s.bytes_up, 500_000 + s.rtx_up * 1430);
    }

    #[test]
    fn no_loss_no_retransmissions() {
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            1_000_000,
        )])
        .with_close(CloseMode::LeftOpen);
        let (_, s) = run(d, path_100ms());
        assert_eq!(s.rtx_up, 0);
        assert_eq!(s.bytes_up, 1_000_000);
    }

    #[test]
    fn rate_cap_limits_throughput() {
        let mut path = path_100ms();
        path.up_rate = Some(64_000); // 512 kbit/s ADSL-ish uplink
        let size = 512_000u32;
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            size,
        )])
        .with_close(CloseMode::LeftOpen);
        let (_, s) = run(d, path);
        let secs = (s.deliveries[0] - s.established).as_secs_f64();
        let rate = size as f64 / secs;
        assert!(rate < 70_000.0, "rate = {rate} B/s exceeds cap");
        assert!(rate > 40_000.0, "rate = {rate} B/s far below cap");
    }

    #[test]
    fn server_idle_timeout_emits_alert_fin_and_rst() {
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            1_000,
        )]);
        let (pkts, _) = run(d, path_100ms());
        let fin = pkts
            .iter()
            .find(|p| p.flags.fin() && p.src == key().server)
            .expect("server FIN");
        assert!(fin.flags.psh() && fin.payload_len == 37);
        let rst = pkts.iter().find(|p| p.flags.rst()).expect("client RST");
        assert!(rst.ts > fin.ts);
        // Idle gap ≈ 60 s after the data delivery.
        let last_data = pkts
            .iter()
            .filter(|p| p.payload_len > 0 && p.src == key().client)
            .map(|p| p.ts)
            .max()
            .unwrap();
        let gap = (fin.ts - last_data).as_secs_f64();
        assert!((gap - 60.0).abs() < 1.0, "gap = {gap}");
    }

    #[test]
    fn client_fin_close() {
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            1_000,
        )])
        .with_close(CloseMode::ClientFin {
            delay: SimDuration::from_millis(100),
        });
        let (pkts, _) = run(d, path_100ms());
        let client_fin = pkts.iter().any(|p| p.flags.fin() && p.src == key().client);
        let server_fin = pkts.iter().any(|p| p.flags.fin() && p.src == key().server);
        assert!(client_fin && server_fin);
        assert!(!pkts.iter().any(|p| p.flags.rst()));
    }

    #[test]
    fn idle_restart_resets_window() {
        // Two large uploads separated by a long idle gap: the second one
        // must restart slow start, giving a similar per-message duration.
        let size = 200_000u32;
        let d = Dialogue::new(vec![
            Message::simple(Direction::Up, SimDuration::ZERO, size),
            Message::simple(Direction::Up, SimDuration::from_secs(30), size),
        ])
        .with_close(CloseMode::LeftOpen);
        let (_, s) = run(d, path_100ms());
        let t1 = (s.deliveries[0] - s.established).as_secs_f64();
        let t2 = (s.deliveries[1] - (s.deliveries[0] + SimDuration::from_secs(30))).as_secs_f64();
        assert!(
            (t1 - t2).abs() / t1 < 0.35,
            "t1 = {t1}, t2 = {t2}: second transfer should restart slow start"
        );
    }

    fn run_faulty(
        dialogue: Dialogue,
        path: PathParams,
        faults: Option<&FlowFaults>,
    ) -> (Vec<Packet>, ConnSummary) {
        let mut out = Vec::new();
        let mut rng = Rng::new(1);
        let s = simulate_faulty(
            SimTime::from_secs(10),
            key(),
            &dialogue,
            &path,
            &TcpParams::era_2012_v1(),
            faults,
            &mut rng,
            &mut out,
        );
        (out, s)
    }

    #[test]
    fn faults_none_is_byte_identical_to_plain_simulate() {
        let dialogue = || {
            Dialogue::new(vec![
                Message::simple(Direction::Up, SimDuration::ZERO, 300_000),
                Message::simple(Direction::Down, SimDuration::from_millis(8), 40_000),
            ])
        };
        let mut path = path_100ms();
        path.loss_up = 0.02;
        path.jitter = 0.1;
        let (plain, sp) = run(dialogue(), path.clone());
        let (faulty, sf) = run_faulty(dialogue(), path, None);
        assert_eq!(plain, faulty);
        assert_eq!(sp.deliveries, sf.deliveries);
        assert_eq!(sp.bytes_up, sf.bytes_up);
        assert_eq!(sp.rtx_up, sf.rtx_up);
        assert!(!sf.aborted);

        // An all-default profile is equally inert.
        let (defaulted, _) = run_faulty(dialogue_for_default(), path_100ms(), None);
        let (defaulted2, _) = run_faulty(
            dialogue_for_default(),
            path_100ms(),
            Some(&FlowFaults::default()),
        );
        assert_eq!(defaulted, defaulted2);
    }

    fn dialogue_for_default() -> Dialogue {
        Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            9_999,
        )])
        .with_close(CloseMode::LeftOpen)
    }

    #[test]
    fn extra_loss_raises_retransmissions_and_counts_bytes() {
        let d = || {
            Dialogue::new(vec![Message::simple(
                Direction::Up,
                SimDuration::ZERO,
                500_000,
            )])
            .with_close(CloseMode::LeftOpen)
        };
        let (_, clean) = run_faulty(d(), path_100ms(), None);
        let faults = FlowFaults {
            extra_loss: 0.05,
            ..FlowFaults::default()
        };
        let (_, lossy) = run_faulty(d(), path_100ms(), Some(&faults));
        assert_eq!(clean.rtx_up, 0);
        assert!(lossy.rtx_up > 0, "extra loss must force retransmissions");
        assert_eq!(lossy.rtx_bytes_up, lossy.rtx_up * 1430);
        assert_eq!(lossy.bytes_up, 500_000 + lossy.rtx_bytes_up);
        // Goodput suffers: the lossy transfer takes longer.
        assert!(lossy.deliveries[0] > clean.deliveries[0]);
    }

    #[test]
    fn latency_spike_stretches_round_trips() {
        let d = || {
            Dialogue::new(vec![Message::simple(Direction::Up, SimDuration::ZERO, 100)])
                .with_close(CloseMode::LeftOpen)
        };
        let faults = FlowFaults {
            latency_spike: Some(SimDuration::from_millis(100)),
            ..FlowFaults::default()
        };
        let (pkts, _) = run_faulty(d(), path_100ms(), Some(&faults));
        let syn = pkts
            .iter()
            .find(|p| p.flags.syn() && !p.flags.ack())
            .unwrap();
        let synack = pkts
            .iter()
            .find(|p| p.flags.syn() && p.flags.ack())
            .unwrap();
        // Base probe-to-server gap is outer_rtt (90 ms); the spike adds
        // half of itself on each one-way leg past the probe.
        assert_eq!((synack.ts - syn.ts).millis(), 90 + 50);
    }

    #[test]
    fn reset_truncates_flow_with_client_rst() {
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            500_000,
        )]);
        let faults = FlowFaults {
            reset_after_bytes: Some(50_000),
            ..FlowFaults::default()
        };
        let (pkts, s) = run_faulty(d, path_100ms(), Some(&faults));
        assert!(s.aborted);
        assert!(s.deliveries.is_empty(), "truncated message never delivers");
        assert!(s.bytes_up >= 50_000, "reset fires only past the threshold");
        assert!(s.bytes_up < 300_000, "most of the transfer must be cut");
        let last = pkts.last().unwrap();
        assert!(last.flags.rst() && last.src == key().client);
        // No FIN, no server idle-timeout alert: the dialogue close never runs.
        assert!(!pkts.iter().any(|p| p.flags.fin()));
    }

    #[test]
    fn reset_between_messages_keeps_completed_deliveries() {
        let d = Dialogue::new(vec![
            Message::simple(Direction::Up, SimDuration::ZERO, 10_000),
            Message::simple(Direction::Down, SimDuration::from_millis(5), 400_000),
        ])
        .with_close(CloseMode::ClientFin {
            delay: SimDuration::from_millis(10),
        });
        let faults = FlowFaults {
            reset_after_bytes: Some(60_000),
            ..FlowFaults::default()
        };
        let (pkts, s) = run_faulty(d, path_100ms(), Some(&faults));
        assert!(s.aborted);
        assert_eq!(s.deliveries.len(), 1, "first message completed");
        assert_eq!(s.bytes_up, 10_000);
        assert!(s.bytes_down < 400_000);
        assert!(pkts.iter().any(|p| p.flags.rst()));
    }

    /// Random runs with frequent equal timestamps, emitted round by round
    /// and released behind each round's clock: the sink receives exactly
    /// the packets, in exactly the order, of inserting each packet after
    /// every pending one with an equal or earlier timestamp.
    #[test]
    fn wire_hands_the_sink_the_stable_timestamp_order() {
        let mut rng = Rng::new(17);
        for _ in 0..500 {
            let mut sink: Vec<Packet> = Vec::new();
            let mut wire = Wire {
                key: key(),
                inner_half: SimDuration::ZERO,
                outer_half: SimDuration::ZERO,
                sink: &mut sink,
                pending: Vec::new(),
                released: SimTime::EPOCH,
                last_ts: SimTime::EPOCH,
            };
            let mut reference: Vec<Packet> = Vec::new();
            let mut pending: Vec<Packet> = Vec::new();
            let mut seq = 0;
            for round in 0..8 {
                let now = SimTime::from_millis(10 * round);
                wire.release(now);
                let ready = pending.partition_point(|p| p.ts <= now);
                reference.extend(pending.drain(..ready));
                for _ in 0..rng.range_u64(1, 4) {
                    let send = now + SimDuration::from_millis(rng.range_u64(0, 25));
                    let spacing = if rng.chance(0.5) {
                        Spacing::Every(SimDuration::from_millis(rng.range_u64(0, 3)))
                    } else {
                        Spacing::Spread {
                            span: SimDuration::from_micros(1_000 * rng.range_u64(0, 12) + 1),
                            of: 12,
                        }
                    };
                    let train = Train {
                        spacing,
                        index: rng.range_u64(0, 6) as u32,
                        count: rng.range_u64(1, 6) as u32,
                        seq_step: 1,
                    };
                    let dir = if rng.chance(0.5) {
                        Direction::Up
                    } else {
                        Direction::Down
                    };
                    wire.emit(dir, send, train, seq, 0, TcpFlags::ACK, 0, None);
                    let (src, dst) = match dir {
                        Direction::Up => (key().client, key().server),
                        Direction::Down => (key().server, key().client),
                    };
                    for k in 0..train.count {
                        let pkt = Packet {
                            ts: send + spacing.offset(train.index + k),
                            src,
                            dst,
                            seq: seq + k,
                            ack_no: 0,
                            flags: TcpFlags::ACK,
                            payload_len: 0,
                            marker: None,
                        };
                        let at = pending.partition_point(|p| p.ts <= pkt.ts);
                        pending.insert(at, pkt);
                    }
                    seq += train.count;
                }
            }
            wire.finish();
            reference.append(&mut pending);
            assert_eq!(sink, reference);
        }
    }

    #[test]
    fn ack_train_straddling_the_next_burst_is_interleaved() {
        // Without jitter or a rate cap a round's ACKs reach the probe the
        // inner RTT (2 ms) before the next burst, and a train of 45 ACKs
        // (a 90-segment window) spans 44 × 50 µs = 2.2 ms.
        let path = PathParams {
            inner_rtt: SimDuration::from_millis(2),
            outer_rtt: SimDuration::from_millis(90),
            ..path_100ms()
        };
        let d = Dialogue::new(vec![Message::simple(
            Direction::Up,
            SimDuration::ZERO,
            2_000_000,
        )])
        .with_close(CloseMode::ClientFin {
            delay: SimDuration::from_millis(10),
        });
        let (pkts, _) = run(d.clone(), path.clone());
        // Some server ACK repeats the cumulative number of an earlier one
        // with client data in between: its train straddles the burst.
        let mut train: Option<(u32, bool)> = None; // (ack number, data since)
        let mut straddled = 0;
        for p in &pkts {
            if p.src == key().server && p.payload_len == 0 && !p.flags.fin() {
                match train {
                    Some((ack, true)) if ack == p.ack_no => straddled += 1,
                    Some((ack, _)) if ack == p.ack_no => {}
                    _ => train = Some((p.ack_no, false)),
                }
            } else if p.src == key().client && p.payload_len > 0 {
                if let Some((_, data)) = &mut train {
                    *data = true;
                }
            }
        }
        assert!(straddled > 0, "no ACK train crosses the next burst");
        assert!(pkts.windows(2).all(|w| w[0].ts <= w[1].ts));

        // The run fold gives the record of the per-packet fold.
        let mut flow = tstat::FlowObserver::new(None);
        simulate(
            SimTime::from_secs(10),
            key(),
            &d,
            &path,
            &TcpParams::era_2012_v1(),
            &mut Rng::new(1),
            &mut flow,
        );
        let by_run = flow.finish().expect("flow record");
        let by_packet = tstat::Monitor::new(false)
            .process_flow(&pkts)
            .expect("flow record");
        assert_eq!(format!("{by_run:?}"), format!("{by_packet:?}"));
        assert_eq!(by_run.up.packets + by_run.down.packets, pkts.len() as u64);
    }

    #[test]
    fn delivered_bytes_match_dialogue() {
        let d = Dialogue::new(vec![
            Message::simple(Direction::Up, SimDuration::ZERO, 12_345),
            Message::simple(Direction::Down, SimDuration::from_millis(5), 67_890),
        ])
        .with_close(CloseMode::ClientFin {
            delay: SimDuration::from_millis(10),
        });
        let (pkts, s) = run(d, path_100ms());
        assert_eq!(s.bytes_up, 12_345);
        assert_eq!(s.bytes_down, 67_890);
        let up_payload: u64 = pkts
            .iter()
            .filter(|p| p.src == key().client)
            .map(|p| p.payload_len as u64)
            .sum();
        assert_eq!(up_payload, 12_345);
    }
}
