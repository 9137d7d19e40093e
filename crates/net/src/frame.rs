//! Whole-frame construction and parsing for the container overlay network.
//!
//! An overlay frame on the wire is:
//!
//! ```text
//! outer Ethernet / outer IPv4 / outer UDP (dst 4789) / VXLAN /
//!     inner Ethernet / inner IPv4 / TCP-or-UDP / payload
//! ```
//!
//! A native frame omits everything up to and including the VXLAN header.

use std::num::NonZeroU64;

use crate::checksum;
use crate::ethernet::{EtherType, EthernetHeader, MacAddr};
use crate::flow::{FlowKey, Proto};
use crate::ipv4::{Ipv4Header, PROTO_TCP, PROTO_UDP};
use crate::tcp::{flags, TcpHeader};
use crate::geneve::{GeneveHeader, GENEVE_PORT};
use crate::udp::UdpHeader;
use crate::vxlan::{VxlanHeader, VXLAN_PORT};
use crate::ParseError;

/// Everything needed to build one overlay frame.
#[derive(Clone, Debug)]
pub struct OverlayFrameSpec {
    pub outer_src_mac: MacAddr,
    pub outer_dst_mac: MacAddr,
    pub outer_src_ip: [u8; 4],
    pub outer_dst_ip: [u8; 4],
    /// Outer UDP source port (VXLAN entropy port, derived from inner hash).
    pub outer_src_port: u16,
    pub vni: u32,
    pub inner_src_mac: MacAddr,
    pub inner_dst_mac: MacAddr,
    pub inner_src_ip: [u8; 4],
    pub inner_dst_ip: [u8; 4],
    pub inner_src_port: u16,
    pub inner_dst_port: u16,
    pub proto: Proto,
    /// TCP sequence number (ignored for UDP).
    pub tcp_seq: u32,
    pub payload: Vec<u8>,
}

impl OverlayFrameSpec {
    /// A ready-made TCP spec for tests and examples: container `a` on host
    /// 10.0.0.1 talking to container `b` on host 10.0.0.2, VNI 42.
    pub fn example_tcp(a: u64, seq: u32, payload: Vec<u8>) -> Self {
        Self {
            outer_src_mac: MacAddr::local(1000 + a),
            outer_dst_mac: MacAddr::local(2000),
            outer_src_ip: [10, 0, 0, 1],
            outer_dst_ip: [10, 0, 0, 2],
            outer_src_port: 49152 + a as u16,
            vni: 42,
            inner_src_mac: MacAddr::local(a),
            inner_dst_mac: MacAddr::local(99),
            inner_src_ip: [172, 17, 0, 2],
            inner_dst_ip: [172, 17, 0, 3],
            inner_src_port: 40000 + a as u16,
            inner_dst_port: 5201,
            proto: Proto::Tcp,
            tcp_seq: seq,
            payload,
        }
    }

    /// A ready-made UDP spec (same topology as [`Self::example_tcp`]).
    pub fn example_udp(a: u64, payload: Vec<u8>) -> Self {
        let mut s = Self::example_tcp(a, 0, payload);
        s.proto = Proto::Udp;
        s
    }
}

/// Total overlay header overhead in bytes (all headers, both layers).
pub const OVERLAY_HEADER_BYTES: usize = EthernetHeader::LEN
    + Ipv4Header::LEN
    + UdpHeader::LEN
    + VxlanHeader::LEN
    + EthernetHeader::LEN
    + Ipv4Header::LEN
    + TcpHeader::LEN;

/// Where the outer IPv4 header starts in a frame this crate builds.
const OUTER_IP_AT: usize = EthernetHeader::LEN;

/// Where the outer UDP header starts: behind an outer IPv4 header without
/// options.
const OUTER_UDP_AT: usize = OUTER_IP_AT + Ipv4Header::LEN;

/// Where the tunnel header starts, and with it what the outer UDP
/// checksum covers besides its own header.
const TUNNEL_AT: usize = OUTER_UDP_AT + UdpHeader::LEN;

/// Builds a complete VXLAN-encapsulated overlay frame.
pub fn build_overlay_frame(spec: &OverlayFrameSpec) -> Vec<u8> {
    let mut frame = Vec::new();
    build_overlay_frame_into(spec, &mut frame);
    frame
}

/// Builds a VXLAN overlay frame into `out` (cleared first), so a caller
/// streaming frames into a buffer pool can reuse one scratch vector
/// instead of allocating per frame.
pub fn build_overlay_frame_into(spec: &OverlayFrameSpec, out: &mut Vec<u8>) {
    encapsulate_into(spec, VXLAN_PORT, VxlanHeader::new(spec.vni).to_bytes(), out);
}

/// Builds a Geneve-encapsulated overlay frame (RFC 8926) with the same
/// inner packet — MFLOW's stateless-path mechanisms are tunnel-agnostic.
pub fn build_geneve_frame(spec: &OverlayFrameSpec) -> Vec<u8> {
    let mut frame = Vec::new();
    build_geneve_frame_into(spec, &mut frame);
    frame
}

/// Geneve counterpart of [`build_overlay_frame_into`]: a header with no
/// options, as long as VXLAN's.
pub fn build_geneve_frame_into(spec: &OverlayFrameSpec, out: &mut Vec<u8>) {
    let tunnel_header = GeneveHeader::new(spec.vni).base_bytes();
    encapsulate_into(spec, GENEVE_PORT, tunnel_header, out);
}

/// Builds the overlay frame into `out` in one pass: the headers in wire
/// order, the outer IPv4 and UDP headers' place held; one lane sum of the
/// payload, which seals the inner transport checksum; one copy of the
/// payload; and then the outer headers, now that their length is known,
/// the UDP checksum sealed from the header prefix behind it plus the
/// *same* payload lanes. The send-side mirror of [`OverlayLanes::verify`]:
/// the prefix is whole headers of even length, so the payload starts on a
/// word boundary and the lane sums add.
fn encapsulate_into(
    spec: &OverlayFrameSpec,
    dst_port: u16,
    tunnel_header: [u8; VxlanHeader::LEN],
    out: &mut Vec<u8>,
) {
    let payload = spec.payload.as_slice();
    let payload_lanes = checksum::lane_sum(payload);
    out.clear();
    out.reserve(OVERLAY_HEADER_BYTES + payload.len());
    out.extend_from_slice(
        &EthernetHeader {
            dst: spec.outer_dst_mac,
            src: spec.outer_src_mac,
            ethertype: EtherType::Ipv4,
        }
        .to_bytes(),
    );
    out.extend_from_slice(&[0; Ipv4Header::LEN + UdpHeader::LEN]); // written last
    out.extend_from_slice(&tunnel_header);
    push_inner_headers(spec, payload_lanes, out);
    let prefix_lanes = checksum::lane_sum(&out[TUNNEL_AT..]);
    out.extend_from_slice(payload);

    let udp_len = out.len() - OUTER_UDP_AT;
    let (src, dst) = (spec.outer_src_ip, spec.outer_dst_ip);
    let ip = Ipv4Header::simple(src, dst, PROTO_UDP, udp_len);
    out[OUTER_IP_AT..OUTER_UDP_AT].copy_from_slice(&ip.to_bytes());
    let udp = UdpHeader {
        src_port: spec.outer_src_port,
        dst_port,
        length: udp_len as u16,
        checksum: 0,
    };
    let udp = udp.sealed(src, dst, prefix_lanes + payload_lanes);
    out[OUTER_UDP_AT..TUNNEL_AT].copy_from_slice(&udp.to_bytes());
}

/// Appends the inner Ethernet, IPv4 and transport headers to `out`, the
/// transport checksum sealed with `payload_lanes`, the
/// [`checksum::lane_sum`] of `spec.payload`.
fn push_inner_headers(spec: &OverlayFrameSpec, payload_lanes: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(
        &EthernetHeader {
            dst: spec.inner_dst_mac,
            src: spec.inner_src_mac,
            ethertype: EtherType::Ipv4,
        }
        .to_bytes(),
    );
    let (src, dst, len) = (spec.inner_src_ip, spec.inner_dst_ip, spec.payload.len());
    match spec.proto {
        Proto::Tcp => {
            let ip = Ipv4Header::simple(src, dst, PROTO_TCP, TcpHeader::LEN + len);
            out.extend_from_slice(&ip.to_bytes());
            let tcp = TcpHeader {
                src_port: spec.inner_src_port,
                dst_port: spec.inner_dst_port,
                seq: spec.tcp_seq,
                ack: 0,
                flags: flags::ACK,
                window: 0xFFFF,
                checksum: 0,
            };
            out.extend_from_slice(&tcp.sealed(src, dst, len, payload_lanes).to_bytes());
        }
        Proto::Udp => {
            let ip = Ipv4Header::simple(src, dst, PROTO_UDP, UdpHeader::LEN + len);
            out.extend_from_slice(&ip.to_bytes());
            let udp = UdpHeader {
                src_port: spec.inner_src_port,
                dst_port: spec.inner_dst_port,
                length: (UdpHeader::LEN + len) as u16,
                checksum: 0,
            };
            out.extend_from_slice(&udp.sealed(src, dst, payload_lanes).to_bytes());
        }
    }
}

/// Builds a native (non-encapsulated) frame with the inner addressing:
/// the inner headers of [`build_overlay_frame`] and the payload.
pub fn build_native_frame(spec: &OverlayFrameSpec) -> Vec<u8> {
    let mut frame = Vec::with_capacity(OVERLAY_HEADER_BYTES + spec.payload.len());
    push_inner_headers(spec, checksum::lane_sum(&spec.payload), &mut frame);
    frame.extend_from_slice(&spec.payload);
    frame
}

/// The result of parsing an overlay frame down to the application payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedOverlay {
    pub outer_flow: FlowKey,
    /// Outer Ethernet addressing (the host NICs).
    pub outer_src_mac: MacAddr,
    pub outer_dst_mac: MacAddr,
    pub vni: u32,
    pub inner_flow: FlowKey,
    /// Inner Ethernet addressing (the veth endpoints; the virtual bridge
    /// forwards on `inner_dst_mac`).
    pub inner_src_mac: MacAddr,
    pub inner_dst_mac: MacAddr,
    /// TCP sequence number (zero for UDP).
    pub tcp_seq: u32,
    pub payload: Vec<u8>,
}

/// The borrowed view [`parse_overlay_frame_ref`] returns: identical header
/// fields to [`ParsedOverlay`], but the payload is a slice into the frame
/// buffer — the zero-copy shape the runtime's per-packet work runs on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedOverlayRef<'a> {
    pub outer_flow: FlowKey,
    /// Outer Ethernet addressing (the host NICs).
    pub outer_src_mac: MacAddr,
    pub outer_dst_mac: MacAddr,
    pub vni: u32,
    pub inner_flow: FlowKey,
    /// Inner Ethernet addressing (the veth endpoints; the virtual bridge
    /// forwards on `inner_dst_mac`).
    pub inner_src_mac: MacAddr,
    pub inner_dst_mac: MacAddr,
    /// TCP sequence number (zero for UDP).
    pub tcp_seq: u32,
    /// The decapsulated application payload, borrowed from the frame.
    pub payload: &'a [u8],
}

impl ParsedOverlayRef<'_> {
    /// Copies the view into an owned [`ParsedOverlay`].
    pub fn to_parsed(&self) -> ParsedOverlay {
        ParsedOverlay {
            outer_flow: self.outer_flow,
            outer_src_mac: self.outer_src_mac,
            outer_dst_mac: self.outer_dst_mac,
            vni: self.vni,
            inner_flow: self.inner_flow,
            inner_src_mac: self.inner_src_mac,
            inner_dst_mac: self.inner_dst_mac,
            tcp_seq: self.tcp_seq,
            payload: self.payload.to_vec(),
        }
    }
}

/// Parses and fully verifies an overlay frame, allocating an owned copy of
/// the payload. Re-expressed over [`parse_overlay_frame_ref`]; callers on
/// a hot path should use the borrowed view directly.
pub fn parse_overlay_frame(frame: &[u8]) -> Result<ParsedOverlay, ParseError> {
    parse_overlay_frame_ref(frame).map(|r| r.to_parsed())
}

/// Parses and fully verifies an overlay frame without copying or
/// allocating: outer IP checksum, outer UDP checksum, tunnel header (VXLAN
/// or Geneve, selected by the outer UDP destination port), inner IP
/// checksum, inner transport checksum. The returned payload borrows from
/// `frame`.
///
/// Two halves run back to back, which a pipeline can also run apart: the
/// header walk ([`walk_overlay_frame`]), then both transport checksums
/// settled from one sum of the payload ([`OverlayLanes::verify`]). Both
/// checksums still cover exactly the bytes the wire format says they
/// cover.
///
/// Errors keep the precedence of verifying layer by layer, outside in: a
/// bad outer UDP checksum is reported before anything wrong inside it.
///
/// This is the byte-level ground truth the simulator's decapsulation stage
/// models the cost of.
#[inline]
pub fn parse_overlay_frame_ref(frame: &[u8]) -> Result<ParsedOverlayRef<'_>, ParseError> {
    let (view, lanes) = walk_overlay_frame(frame)?;
    lanes.verify(checksum::lane_sum(view.payload))?;
    Ok(view)
}

/// What a walked frame's two transport checksums still need besides the
/// payload: each one's lane total ([`checksum::lane_sum`]) of everything
/// else it covers, unfolded.
///
/// A total holds a pseudo-header, whose protocol word makes it positive;
/// `None` means the checksum is not checked: an outer or inner UDP
/// checksum field of 0 ("not computed by the sender").
#[derive(Clone, Copy, Debug)]
pub struct OverlayLanes {
    /// Outer UDP: pseudo-header, UDP header, the headers between it and
    /// the payload, and any trailer.
    outer: Option<NonZeroU64>,
    /// Inner TCP or UDP: pseudo-header and transport header.
    inner: Option<NonZeroU64>,
    /// The inner transport, which names a bad inner checksum.
    inner_proto: Proto,
}

impl OverlayLanes {
    /// Settles both checksums of the walked frame from `payload_lanes`,
    /// the [`checksum::lane_sum`] of its payload: the outer one first,
    /// then the inner one.
    #[inline(always)]
    pub fn verify(&self, payload_lanes: u64) -> Result<(), ParseError> {
        let holds = |total: Option<NonZeroU64>| {
            total.is_none_or(|t| checksum::fold_lanes(t.get() + payload_lanes) == 0xFFFF)
        };
        if !holds(self.outer) {
            return Err(ParseError::BadChecksum("outer udp"));
        }
        if !holds(self.inner) {
            return Err(ParseError::BadChecksum(match self.inner_proto {
                Proto::Tcp => "inner tcp",
                Proto::Udp => "inner udp",
            }));
        }
        Ok(())
    }
}

/// The first half of [`parse_overlay_frame_ref`]: walks the headers down
/// to the payload, summing each header as its parser consumes it, and
/// returns the view together with the lanes its two checksums need
/// besides the payload's. Every check but those two is made here, the
/// outer IP and inner IP header checksums included; a frame that passes
/// them all has its payload located but not read.
///
/// The two totals, every Σ a [`checksum::lane_sum`]:
///
/// ```text
/// outer UDP = pseudo + UDP header + Σ prefix (+ Σ trailer)
/// inner L4  = pseudo + L4 header
/// ```
///
/// An error found here keeps the parse's precedence: the outer checksum
/// gets a pass of its own over the whole datagram, and speaks first.
#[inline(always)]
pub fn walk_overlay_frame(
    frame: &[u8],
) -> Result<(ParsedOverlayRef<'_>, OverlayLanes), ParseError> {
    let (outer_eth, rest) = EthernetHeader::parse(frame)?;
    if outer_eth.ethertype != EtherType::Ipv4 {
        return Err(ParseError::Malformed("outer ethertype"));
    }
    let (outer_ip, rest) = Ipv4Header::parse(rest)?;
    if outer_ip.protocol != PROTO_UDP {
        return Err(ParseError::Malformed("outer protocol"));
    }
    let (outer_udp, rest) = UdpHeader::parse(rest)?;
    let Some(udp_payload) = rest.get(..outer_udp.length as usize - UdpHeader::LEN) else {
        return Err(ParseError::Truncated);
    };
    let (outer_src, outer_dst) = (outer_ip.src, outer_ip.dst);
    let inner_error = |e| outer_speaks_first(outer_udp, outer_src, outer_dst, udp_payload, e);

    // The outer UDP payload is header prefix ++ payload ++ trailer, where
    // the prefix is whole headers of even length (tunnel 8 + 4n, Ethernet
    // 14, IPv4 4·IHL, TCP 20 or UDP 8), so each header and the payload
    // start on a word boundary and their lane sums add.
    let (vni, tunnel_lanes, inner) = match outer_udp.dst_port {
        VXLAN_PORT => {
            let (vxlan, inner) = VxlanHeader::parse(udp_payload).map_err(inner_error)?;
            (vxlan.vni, header_lanes(udp_payload, inner), inner)
        }
        GENEVE_PORT => {
            let (vni, inner) = GeneveHeader::parse_vni(udp_payload).map_err(inner_error)?;
            (vni, header_lanes(udp_payload, inner), inner)
        }
        _ => return Err(inner_error(ParseError::Malformed("tunnel port"))),
    };
    let (inner_eth, inner_l3) = EthernetHeader::parse(inner).map_err(inner_error)?;
    if inner_eth.ethertype != EtherType::Ipv4 {
        return Err(inner_error(ParseError::Malformed("inner ethertype")));
    }
    let (inner_ip, inner_l4) = Ipv4Header::parse(inner_l3).map_err(inner_error)?;
    // The transport header, and how much of what follows it is payload.
    let (l4, l4_lanes, after_l4, payload_len) = match inner_ip.protocol {
        PROTO_TCP => {
            let (tcp, rest) = TcpHeader::parse(inner_l4).map_err(inner_error)?;
            (InnerL4::Tcp(tcp), header_lanes(inner_l4, rest), rest, rest.len())
        }
        PROTO_UDP => {
            let (udp, rest) = UdpHeader::parse(inner_l4).map_err(inner_error)?;
            let payload_len = udp.length as usize - UdpHeader::LEN;
            (InnerL4::Udp(udp), header_lanes(inner_l4, rest), rest, payload_len)
        }
        _ => return Err(inner_error(ParseError::Malformed("inner protocol"))),
    };
    let Some((payload, trailer)) = after_l4.split_at_checked(payload_len) else {
        return Err(inner_error(ParseError::Truncated));
    };

    // The inner IPv4 header adds nothing to the outer total: verified,
    // its lanes are ≡ 0 (they fold to 0xFFFF), and a sum that holds a
    // pseudo-header is positive with or without them.
    let mut outer_lanes = outer_udp.header_lanes(outer_src, outer_dst)
        + tunnel_lanes
        + header_lanes(inner, inner_l3)
        + l4_lanes;
    if !trailer.is_empty() {
        outer_lanes += trailer_lanes(trailer, payload_len % 2 == 1);
    }
    let (src, dst) = (inner_ip.src, inner_ip.dst);
    let (inner_flow, tcp_seq, inner_lanes) = match l4 {
        InnerL4::Tcp(tcp) => (
            FlowKey::tcp(src, tcp.src_port, dst, tcp.dst_port),
            tcp.seq,
            NonZeroU64::new(tcp.header_lanes(src, dst, payload_len)),
        ),
        InnerL4::Udp(udp) => (
            FlowKey::udp(src, udp.src_port, dst, udp.dst_port),
            0,
            udp_lanes(udp.checksum, udp.header_lanes(src, dst)),
        ),
    };
    let view = ParsedOverlayRef {
        outer_flow: FlowKey::udp(outer_src, outer_udp.src_port, outer_dst, outer_udp.dst_port),
        outer_src_mac: outer_eth.src,
        outer_dst_mac: outer_eth.dst,
        vni,
        inner_flow,
        inner_src_mac: inner_eth.src,
        inner_dst_mac: inner_eth.dst,
        tcp_seq,
        payload,
    };
    let lanes = OverlayLanes {
        outer: udp_lanes(outer_udp.checksum, outer_lanes),
        inner: inner_lanes,
        inner_proto: inner_flow.proto,
    };
    Ok((view, lanes))
}

/// Lane sum of the header a parser took off the front of `buf`, leaving
/// `rest`. Inlined next to the parser, a fixed-size header's sum is its
/// few loads and adds.
#[inline(always)]
fn header_lanes(buf: &[u8], rest: &[u8]) -> u64 {
    checksum::lane_sum(&buf[..buf.len() - rest.len()])
}

/// The inner transport header, parsed and not yet verified.
enum InnerL4 {
    Tcp(TcpHeader),
    Udp(UdpHeader),
}

/// A UDP checksum's lane total, or `None` if its field is 0 ("not
/// computed by the sender").
#[inline(always)]
fn udp_lanes(checksum: u16, total: u64) -> Option<NonZeroU64> {
    NonZeroU64::new(total).filter(|_| checksum != 0)
}

/// An error found on the way down to the transport payload: there is no
/// payload sum to share yet, so the outer checksum gets a pass of its
/// own, and still speaks first.
#[cold]
#[inline(never)]
fn outer_speaks_first(
    outer_udp: UdpHeader,
    src: [u8; 4],
    dst: [u8; 4],
    udp_payload: &[u8],
    e: ParseError,
) -> ParseError {
    if outer_udp.verify(src, dst, udp_payload) {
        e
    } else {
        ParseError::BadChecksum("outer udp")
    }
}

/// The lanes of whatever follows an inner UDP datagram shorter than its
/// packet — nothing, for TCP and for every frame this crate builds. A run
/// of bytes that starts at an odd offset contributes its sum byte-swapped
/// (RFC 1071 §2(B)).
#[cold]
fn trailer_lanes(trailer: &[u8], at_odd_offset: bool) -> u64 {
    let sum = checksum::fold(checksum::lane_sum(trailer)) as u16;
    if at_odd_offset {
        sum.swap_bytes() as u64
    } else {
        sum as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_overlay_roundtrip() {
        let spec = OverlayFrameSpec::example_tcp(3, 777, b"payload bytes".to_vec());
        let frame = build_overlay_frame(&spec);
        let parsed = parse_overlay_frame(&frame).unwrap();
        assert_eq!(parsed.vni, 42);
        assert_eq!(parsed.tcp_seq, 777);
        assert_eq!(parsed.payload, b"payload bytes");
        assert_eq!(parsed.inner_flow, FlowKey::from(&spec));
        assert_eq!(parsed.outer_flow.dst_port, VXLAN_PORT);
    }

    #[test]
    fn geneve_overlay_roundtrip() {
        let spec = OverlayFrameSpec::example_tcp(4, 99, b"geneve inner".to_vec());
        let frame = build_geneve_frame(&spec);
        let parsed = parse_overlay_frame(&frame).unwrap();
        assert_eq!(parsed.vni, 42);
        assert_eq!(parsed.tcp_seq, 99);
        assert_eq!(parsed.payload, b"geneve inner");
        assert_eq!(parsed.outer_flow.dst_port, crate::geneve::GENEVE_PORT);
        // Same inner packet, different tunnel: both formats coexist.
        let vxlan = build_overlay_frame(&spec);
        assert_eq!(parse_overlay_frame(&vxlan).unwrap().payload, parsed.payload);
    }

    #[test]
    fn udp_overlay_roundtrip() {
        let spec = OverlayFrameSpec::example_udp(5, vec![9u8; 1400]);
        let frame = build_overlay_frame(&spec);
        let parsed = parse_overlay_frame(&frame).unwrap();
        assert_eq!(parsed.payload.len(), 1400);
        assert_eq!(parsed.inner_flow.proto, Proto::Udp);
    }

    #[test]
    fn corrupting_any_byte_is_detected_or_changes_output() {
        let spec = OverlayFrameSpec::example_tcp(1, 1, b"integrity".to_vec());
        let frame = build_overlay_frame(&spec);
        let reference = parse_overlay_frame(&frame).unwrap();
        // Flipping a payload byte must fail a checksum.
        let mut bad = frame.clone();
        let n = bad.len();
        bad[n - 3] ^= 0xFF;
        match parse_overlay_frame(&bad) {
            Err(_) => {}
            Ok(p) => assert_ne!(p, reference, "corruption silently accepted"),
        }
    }

    #[test]
    fn ref_parser_agrees_with_owned_and_borrows_from_the_frame() {
        for build in [build_overlay_frame, build_geneve_frame] {
            let spec = OverlayFrameSpec::example_tcp(2, 55, b"zero copy".to_vec());
            let frame = build(&spec);
            let r = parse_overlay_frame_ref(&frame).unwrap();
            assert_eq!(r.to_parsed(), parse_overlay_frame(&frame).unwrap());
            // The payload is a true slice into the frame allocation.
            let base = frame.as_ptr() as usize;
            let p = r.payload.as_ptr() as usize;
            assert!(p >= base && p + r.payload.len() <= base + frame.len());
        }
    }

    #[test]
    fn build_into_reuses_the_scratch_vec() {
        let mut scratch = Vec::new();
        let a = OverlayFrameSpec::example_tcp(1, 1, vec![1; 32]);
        build_overlay_frame_into(&a, &mut scratch);
        assert_eq!(scratch, build_overlay_frame(&a));
        let b = OverlayFrameSpec::example_udp(9, vec![2; 1000]);
        build_geneve_frame_into(&b, &mut scratch);
        assert_eq!(scratch, build_geneve_frame(&b));
    }

    #[test]
    fn native_frame_is_smaller_by_overlay_overhead() {
        let spec = OverlayFrameSpec::example_tcp(1, 0, vec![0u8; 100]);
        let overlay = build_overlay_frame(&spec);
        let native = build_native_frame(&spec);
        let overhead = overlay.len() - native.len();
        // outer eth + outer ip + outer udp + vxlan = 14 + 20 + 8 + 8 = 50
        assert_eq!(overhead, 50);
    }

    #[test]
    fn truncated_frame_rejected() {
        let spec = OverlayFrameSpec::example_udp(1, vec![1u8; 64]);
        let frame = build_overlay_frame(&spec);
        for cut in [10, 30, 50, 70] {
            assert!(parse_overlay_frame(&frame[..cut]).is_err());
        }
    }

    #[test]
    fn wrong_vxlan_port_rejected() {
        let spec = OverlayFrameSpec::example_udp(1, vec![1u8; 8]);
        let mut frame = build_overlay_frame(&spec);
        // Outer UDP dst port lives right after eth(14)+ip(20)+src_port(2).
        frame[36] = 0x12;
        frame[37] = 0x34;
        assert!(parse_overlay_frame(&frame).is_err());
    }
}
