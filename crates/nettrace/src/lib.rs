//! Packet and flow trace types shared between the traffic generators and
//! the passive monitor.
//!
//! The boundary between "the network" and "the measurement system" in this
//! reproduction is the [`packet::Packet`]: the TCP model emits packets as
//! they cross the vantage point, and the `tstat` crate consumes them without
//! access to any generator state — exactly like a probe on a live link. What
//! a DPI probe could legitimately read from the wire (TLS handshake server
//! names, cleartext HTTP, the cleartext notification payloads) is carried by
//! [`packet::AppMarker`]; everything else about a packet is sizes, flags,
//! sequence numbers, and timing.
//!
//! The crate also provides:
//!
//! * [`endpoint`] — IPv4 endpoints and flow keys,
//! * [`pcap`] — a libpcap file writer that serialises packet streams into
//!   standard `.pcap` files (synthesising Ethernet/IP/TCP headers), and
//! * [`flow`] — the Tstat-style per-flow record ([`flow::FlowRecord`]) that
//!   the monitor exports and the analysis layer consumes,
//! * [`sink`] — the streaming seams: [`sink::PacketSink`], which packets
//!   cross in probe order (TCP model → monitor), a run of segments at a
//!   time, without a per-flow packet vector, and [`sink::FlowSink`], which completed records flow
//!   through (monitor → analysis/serialisation) without whole-capture
//!   materialisation, and
//! * [`flowlog`] — its JSON-lines serialisation with anonymisation,
//!   mirroring the anonymised flow logs the paper published; the
//!   streaming [`flowlog::JsonlWriter`]/[`flowlog::JsonlReader`] forms
//!   plug directly into sinks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod flow;
pub mod flowlog;
pub mod packet;
pub mod pcap;
pub mod sink;

pub use endpoint::{Endpoint, FlowKey, Ipv4};
pub use flow::FlowRecord;
pub use packet::{AppMarker, Packet, PacketRun, Spacing, TcpFlags};
pub use sink::{FlowSink, PacketSink};
