//! Packets as observed at the vantage point.

use crate::endpoint::Endpoint;
use simcore::json::{FromJson, Json, JsonError, ToJson};
use simcore::{SimDuration, SimTime};
use std::fmt;

/// TCP header flags (the subset the monitor cares about).
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags(pub u8);

impl ToJson for TcpFlags {
    fn to_json(&self) -> Json {
        Json::U64(self.0 as u64)
    }
}

impl FromJson for TcpFlags {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u8::from_json(v).map(TcpFlags)
    }
}

impl TcpFlags {
    /// FIN flag bit.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag bit.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag bit.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag bit.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag bit.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Union of two flag sets.
    pub const fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// True when all bits of `other` are present.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Convenience predicates.
    pub const fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }
    /// True when the ACK bit is set.
    pub const fn ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }
    /// True when the PSH bit is set.
    pub const fn psh(self) -> bool {
        self.contains(TcpFlags::PSH)
    }
    /// True when the FIN bit is set.
    pub const fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }
    /// True when the RST bit is set.
    pub const fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.syn() {
            parts.push("SYN");
        }
        if self.fin() {
            parts.push("FIN");
        }
        if self.rst() {
            parts.push("RST");
        }
        if self.psh() {
            parts.push("PSH");
        }
        if self.ack() {
            parts.push("ACK");
        }
        if parts.is_empty() {
            write!(f, "∅")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// DPI-visible application content of a packet.
///
/// This models exactly what the paper's instrumented Tstat could read from
/// a real packet: TLS handshake fields (cleartext by design), cleartext
/// HTTP (notification protocol and some direct-link downloads), and the
/// notification payload (device id + namespace list, Sec. 2.3.1). Encrypted
/// application data carries `None`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AppMarker {
    /// TLS ClientHello; SNI extension carries the requested server name.
    TlsClientHello {
        /// Server name from the SNI extension.
        sni: String,
    },
    /// TLS ServerHello + Certificate; the certificate common name is
    /// readable (`*.dropbox.com` for all Dropbox services).
    TlsCertificate {
        /// Certificate common name.
        common_name: String,
    },
    /// Cleartext HTTP request line + Host header.
    HttpRequest {
        /// Value of the Host header.
        host: String,
        /// Request path.
        path: String,
    },
    /// Cleartext HTTP response status line.
    HttpResponse {
        /// HTTP status code.
        status: u16,
    },
    /// Dropbox notification long-poll request payload. The protocol is
    /// plain HTTP: the Host header, the device id (`host_int`) and the
    /// current namespace list are all readable on the wire.
    NotifyRequest {
        /// HTTP Host header (`notifyX.dropbox.com`).
        host: String,
        /// Unique device identifier.
        host_int: u64,
        /// Namespace (shared-folder) identifiers registered on the device.
        namespaces: Vec<u64>,
    },
}

// Externally-tagged representation, `{"VariantName": {fields...}}` — the
// same wire format the serde derive this replaces produced.
impl ToJson for AppMarker {
    fn to_json(&self) -> Json {
        let (tag, body) = match self {
            AppMarker::TlsClientHello { sni } => {
                ("TlsClientHello", Json::obj([("sni", sni.to_json())]))
            }
            AppMarker::TlsCertificate { common_name } => (
                "TlsCertificate",
                Json::obj([("common_name", common_name.to_json())]),
            ),
            AppMarker::HttpRequest { host, path } => (
                "HttpRequest",
                Json::obj([("host", host.to_json()), ("path", path.to_json())]),
            ),
            AppMarker::HttpResponse { status } => {
                ("HttpResponse", Json::obj([("status", status.to_json())]))
            }
            AppMarker::NotifyRequest {
                host,
                host_int,
                namespaces,
            } => (
                "NotifyRequest",
                Json::obj([
                    ("host", host.to_json()),
                    ("host_int", host_int.to_json()),
                    ("namespaces", namespaces.to_json()),
                ]),
            ),
        };
        Json::obj([(tag, body)])
    }
}

impl FromJson for AppMarker {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let (tag, body) = match v {
            Json::Obj(fields) if fields.len() == 1 => (&fields[0].0, &fields[0].1),
            other => {
                return Err(JsonError::new(format!(
                    "expected single-key variant object, found {}",
                    other.kind()
                )))
            }
        };
        match tag.as_str() {
            "TlsClientHello" => Ok(AppMarker::TlsClientHello {
                sni: body.field("sni")?,
            }),
            "TlsCertificate" => Ok(AppMarker::TlsCertificate {
                common_name: body.field("common_name")?,
            }),
            "HttpRequest" => Ok(AppMarker::HttpRequest {
                host: body.field("host")?,
                path: body.field("path")?,
            }),
            "HttpResponse" => Ok(AppMarker::HttpResponse {
                status: body.field("status")?,
            }),
            "NotifyRequest" => Ok(AppMarker::NotifyRequest {
                host: body.field("host")?,
                host_int: body.field("host_int")?,
                namespaces: body.field("namespaces")?,
            }),
            other => Err(JsonError::new(format!(
                "unknown AppMarker variant `{other}`"
            ))),
        }
    }
}

/// One TCP segment crossing the monitored link.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet {
    /// Capture timestamp at the probe.
    pub ts: SimTime,
    /// Sender endpoint.
    pub src: Endpoint,
    /// Receiver endpoint.
    pub dst: Endpoint,
    /// TCP sequence number (byte offset of the first payload byte).
    pub seq: u32,
    /// TCP acknowledgment number.
    pub ack_no: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// TCP payload bytes carried by this segment.
    pub payload_len: u32,
    /// DPI-visible content, when the payload is parseable on the wire.
    pub marker: Option<AppMarker>,
}

impl Packet {
    /// Total on-wire length: Ethernet (14) + IPv4 (20) + TCP (20) + payload.
    pub fn wire_len(&self) -> u32 {
        54 + self.payload_len
    }

    /// True when this segment carries payload.
    pub fn has_payload(&self) -> bool {
        self.payload_len > 0
    }
}

/// How the probe timestamps of a train of packets are spaced, as offsets
/// from the timestamp of the train's packet 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spacing {
    /// A burst of `of` segments spread over a serialisation time `span`:
    /// packet `i` at `span · (i / of)`, rounded to the microsecond.
    Spread {
        /// Serialisation time of the whole burst.
        span: SimDuration,
        /// Segments in the whole burst.
        of: u32,
    },
    /// Packet `i` at `step · i` (a train of delayed ACKs).
    Every(SimDuration),
}

impl Spacing {
    /// Offset of the train's packet `i` from its packet 0; never
    /// decreases in `i`. The one place the spacing rule is evaluated.
    #[inline]
    pub fn offset(self, i: u32) -> SimDuration {
        match self {
            Spacing::Spread { span, of } if of > 1 && !span.is_zero() => {
                span.mul_f64(i as f64 / of as f64)
            }
            Spacing::Spread { .. } => SimDuration::ZERO,
            Spacing::Every(step) => step * u64::from(i),
        }
    }
}

/// `count` packets of one direction that differ only in sequence number
/// and probe timestamp: the `k`-th is the first packet with sequence
/// number `seq + k · seq_step`, at the timestamp of packet `index + k` of
/// the train the run was cut from.
///
/// A run's timestamps never decrease, so it can be split at any
/// timestamp by binary search. Every consumer reads a timestamp through
/// [`PacketRun::ts`], which evaluates [`Spacing::offset`].
#[derive(Clone, Debug, PartialEq)]
pub struct PacketRun {
    first: Packet,
    count: u32,
    seq_step: u32,
    /// Index in the train of the run's first packet.
    index: u32,
    spacing: Spacing,
}

impl PacketRun {
    /// Packets `index..index + count` of the train whose packet 0 crosses
    /// the probe at `origin`, with `spacing`, shaped like `template` (its
    /// timestamp is ignored).
    #[inline]
    pub fn new(
        template: Packet,
        count: u32,
        seq_step: u32,
        origin: SimTime,
        index: u32,
        spacing: Spacing,
    ) -> Self {
        assert!(count > 0, "empty packet run");
        PacketRun {
            first: Packet {
                ts: origin + spacing.offset(index),
                ..template
            },
            count,
            seq_step,
            index,
            spacing,
        }
    }

    /// The run's first packet.
    #[inline]
    pub fn first(&self) -> &Packet {
        &self.first
    }

    /// Number of packets, at least one.
    #[inline]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Sequence-number advance from one packet to the next.
    #[inline]
    pub fn seq_step(&self) -> u32 {
        self.seq_step
    }

    /// Probe timestamp of the `k`-th packet: the first packet's, moved
    /// from train index `index` to `index + k`.
    #[inline]
    pub fn ts(&self, k: u32) -> SimTime {
        if k == 0 {
            return self.first.ts;
        }
        let origin = self.first.ts - self.spacing.offset(self.index);
        origin + self.spacing.offset(self.index + k)
    }

    /// Probe timestamp of the last packet, the run's latest.
    #[inline]
    pub fn last_ts(&self) -> SimTime {
        self.ts(self.count - 1)
    }

    /// Sequence number of the `k`-th packet.
    #[inline]
    pub fn seq(&self, k: u32) -> u32 {
        self.first.seq.wrapping_add(self.seq_step.wrapping_mul(k))
    }

    /// The `k`-th packet.
    pub fn packet(&self, k: u32) -> Packet {
        Packet {
            ts: self.ts(k),
            seq: self.seq(k),
            ..self.first.clone()
        }
    }

    /// The last packet, made from the run's own first one.
    pub fn into_last(self) -> Packet {
        let (ts, seq) = (self.last_ts(), self.seq(self.count - 1));
        Packet {
            ts,
            seq,
            ..self.first
        }
    }

    /// How many leading packets have a timestamp for which `pred` holds;
    /// `pred` must hold for a prefix of the (non-decreasing) timestamps.
    pub fn count_while(&self, pred: impl Fn(SimTime) -> bool) -> u32 {
        let (mut lo, mut hi) = (0, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.ts(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Keep packets `0..k` and return packets `k..` as a run of their own;
    /// `0 < k < count`.
    pub fn split_off(&mut self, k: u32) -> PacketRun {
        assert!(0 < k && k < self.count, "split at {k} of {}", self.count);
        let rest = PacketRun {
            first: Packet {
                ts: self.ts(k),
                seq: self.seq(k),
                ..self.first.clone()
            },
            count: self.count - k,
            index: self.index + k,
            ..*self
        };
        self.count = k;
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Endpoint, Ipv4};

    fn pkt(flags: TcpFlags, len: u32) -> Packet {
        Packet {
            ts: SimTime::EPOCH,
            src: Endpoint::new(Ipv4::new(10, 0, 0, 1), 1234),
            dst: Endpoint::new(Ipv4::new(10, 0, 0, 2), 443),
            seq: 0,
            ack_no: 0,
            flags,
            payload_len: len,
            marker: None,
        }
    }

    #[test]
    fn flag_predicates() {
        let f = TcpFlags::SYN.union(TcpFlags::ACK);
        assert!(f.syn() && f.ack());
        assert!(!f.psh() && !f.fin() && !f.rst());
        assert_eq!(format!("{f:?}"), "SYN|ACK");
    }

    #[test]
    fn wire_len_includes_headers() {
        assert_eq!(pkt(TcpFlags::ACK, 0).wire_len(), 54);
        assert_eq!(pkt(TcpFlags::ACK, 1460).wire_len(), 1514);
    }

    fn expand(run: &PacketRun) -> Vec<Packet> {
        (0..run.count()).map(|k| run.packet(k)).collect()
    }

    fn runs() -> Vec<PacketRun> {
        let spacings = [
            Spacing::Spread {
                span: SimDuration::from_micros(7_777),
                of: 45,
            },
            Spacing::Spread {
                span: SimDuration::ZERO,
                of: 45,
            },
            Spacing::Every(SimDuration::from_micros(50)),
        ];
        spacings
            .iter()
            .map(|&spacing| {
                PacketRun::new(
                    Packet {
                        seq: u32::MAX - 3_000,
                        ..pkt(TcpFlags::ACK, 1430)
                    },
                    30,
                    1430,
                    SimTime::from_secs(9),
                    6,
                    spacing,
                )
            })
            .collect()
    }

    #[test]
    fn run_packets_follow_the_spacing_rule() {
        for run in runs() {
            let packets = expand(&run);
            assert_eq!(&packets[0], run.first());
            for (k, p) in packets.iter().enumerate() {
                let i = 6 + k as u64;
                let offset = match run.spacing {
                    Spacing::Spread { span, of } if !span.is_zero() => {
                        span.mul_f64(i as f64 / f64::from(of))
                    }
                    Spacing::Spread { .. } => SimDuration::ZERO,
                    Spacing::Every(step) => SimDuration::from_micros(step.micros() * i),
                };
                assert_eq!(p.ts, SimTime::from_secs(9) + offset);
                assert_eq!(p.seq, (u32::MAX - 3_000).wrapping_add(1430 * k as u32));
                assert_eq!(p.payload_len, 1430);
            }
            assert!(packets.windows(2).all(|w| w[0].ts <= w[1].ts));
            assert_eq!(run.last_ts(), packets.last().unwrap().ts);
            assert_eq!(&run.clone().into_last(), packets.last().unwrap());
        }
        let one = PacketRun::new(
            pkt(TcpFlags::SYN, 0),
            1,
            0,
            SimTime::EPOCH,
            3,
            Spacing::Every(SimDuration::ZERO),
        );
        assert_eq!(expand(&one), vec![pkt(TcpFlags::SYN, 0)]);
    }

    #[test]
    fn split_runs_expand_to_the_whole() {
        for run in runs() {
            let whole = expand(&run);
            for k in 1..run.count() {
                let mut head = run.clone();
                let tail = head.split_off(k);
                assert_eq!((head.count(), tail.count()), (k, run.count() - k));
                assert_eq!(head.last_ts(), whole[k as usize - 1].ts);
                assert_eq!(tail.last_ts(), run.last_ts());
                let mut parts = expand(&head);
                parts.extend(expand(&tail));
                assert_eq!(parts, whole, "split at {k}");
            }
            for p in &whole {
                let at = |t: SimTime| t <= p.ts;
                let linear = whole.iter().take_while(|q| at(q.ts)).count();
                assert_eq!(run.count_while(at) as usize, linear);
            }
        }
    }

    #[test]
    fn payload_predicate() {
        assert!(!pkt(TcpFlags::SYN, 0).has_payload());
        assert!(pkt(TcpFlags::PSH.union(TcpFlags::ACK), 100).has_payload());
    }
}
