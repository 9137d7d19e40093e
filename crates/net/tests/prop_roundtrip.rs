//! Property-based tests: every generated frame must parse back to exactly
//! the fields and payload it was built from, and corruption must never be
//! silently accepted as the original.

use mflow_net::checksum;
use mflow_net::ethernet::EtherType;
use mflow_net::flow::{FlowKey, Proto};
use mflow_net::frame::{
    build_geneve_frame, build_overlay_frame, parse_overlay_frame, parse_overlay_frame_ref,
    walk_overlay_frame, OverlayFrameSpec, ParsedOverlayRef,
};
use mflow_net::geneve::{GeneveHeader, GENEVE_PORT};
use mflow_net::ipv4::{fragment_payload, FragmentReassembler, PROTO_TCP, PROTO_UDP};
use mflow_net::toeplitz::rss_hash_v4;
use mflow_net::vxlan::VXLAN_PORT;
use mflow_net::{
    EthernetHeader, Ipv4Header, MacAddr, ParseError, TcpHeader, UdpHeader, VxlanHeader,
};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = OverlayFrameSpec> {
    (
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        1u16..u16::MAX,
        1u16..u16::MAX,
        any::<u32>(),
        0u32..(1 << 24),
        prop::collection::vec(any::<u8>(), 0..1500),
        any::<bool>(),
    )
        .prop_map(
            |(src_ip, dst_ip, sport, dport, seq, vni, payload, is_tcp)| OverlayFrameSpec {
                outer_src_mac: MacAddr::local(1),
                outer_dst_mac: MacAddr::local(2),
                outer_src_ip: [10, 0, 0, 1],
                outer_dst_ip: [10, 0, 0, 2],
                outer_src_port: 49152,
                vni,
                inner_src_mac: MacAddr::local(3),
                inner_dst_mac: MacAddr::local(4),
                inner_src_ip: src_ip,
                inner_dst_ip: dst_ip,
                inner_src_port: sport,
                inner_dst_port: dport,
                proto: if is_tcp { Proto::Tcp } else { Proto::Udp },
                tcp_seq: seq,
                payload,
            },
        )
}

/// The two-pass parse `parse_overlay_frame_ref` replaced, kept as the
/// reference: verify the outer UDP checksum over its whole payload, then
/// walk inward and verify the inner transport checksum over the payload
/// again. Defines both the accepted set and which error speaks first.
fn two_pass_reference(frame: &[u8]) -> Result<ParsedOverlayRef<'_>, ParseError> {
    let (outer_eth, rest) = EthernetHeader::parse(frame)?;
    if outer_eth.ethertype != EtherType::Ipv4 {
        return Err(ParseError::Malformed("outer ethertype"));
    }
    let (outer_ip, rest) = Ipv4Header::parse(rest)?;
    if outer_ip.protocol != PROTO_UDP {
        return Err(ParseError::Malformed("outer protocol"));
    }
    let (outer_udp, rest) = UdpHeader::parse(rest)?;
    let udp_payload_len = outer_udp.length as usize - UdpHeader::LEN;
    if rest.len() < udp_payload_len {
        return Err(ParseError::Truncated);
    }
    let udp_payload = &rest[..udp_payload_len];
    if !outer_udp.verify(outer_ip.src, outer_ip.dst, udp_payload) {
        return Err(ParseError::BadChecksum("outer udp"));
    }
    let (vni, inner) = match outer_udp.dst_port {
        VXLAN_PORT => {
            let (vxlan, inner) = VxlanHeader::parse(udp_payload)?;
            (vxlan.vni, inner)
        }
        GENEVE_PORT => {
            let (geneve, inner) = GeneveHeader::parse(udp_payload)?;
            (geneve.vni, inner)
        }
        _ => return Err(ParseError::Malformed("tunnel port")),
    };
    let (inner_eth, rest) = EthernetHeader::parse(inner)?;
    if inner_eth.ethertype != EtherType::Ipv4 {
        return Err(ParseError::Malformed("inner ethertype"));
    }
    let (inner_ip, rest) = Ipv4Header::parse(rest)?;
    let (inner_flow, tcp_seq, payload) = match inner_ip.protocol {
        PROTO_TCP => {
            let (tcp, payload) = TcpHeader::parse(rest)?;
            if !tcp.verify(inner_ip.src, inner_ip.dst, payload) {
                return Err(ParseError::BadChecksum("inner tcp"));
            }
            (
                FlowKey::tcp(inner_ip.src, tcp.src_port, inner_ip.dst, tcp.dst_port),
                tcp.seq,
                payload,
            )
        }
        PROTO_UDP => {
            let (udp, payload) = UdpHeader::parse(rest)?;
            let plen = udp.length as usize - UdpHeader::LEN;
            if payload.len() < plen {
                return Err(ParseError::Truncated);
            }
            let payload = &payload[..plen];
            if !udp.verify(inner_ip.src, inner_ip.dst, payload) {
                return Err(ParseError::BadChecksum("inner udp"));
            }
            (
                FlowKey::udp(inner_ip.src, udp.src_port, inner_ip.dst, udp.dst_port),
                0,
                payload,
            )
        }
        _ => return Err(ParseError::Malformed("inner protocol")),
    };
    Ok(ParsedOverlayRef {
        outer_flow: FlowKey::udp(
            outer_ip.src,
            outer_udp.src_port,
            outer_ip.dst,
            outer_udp.dst_port,
        ),
        outer_src_mac: outer_eth.src,
        outer_dst_mac: outer_eth.dst,
        vni,
        inner_flow,
        inner_src_mac: inner_eth.src,
        inner_dst_mac: inner_eth.dst,
        tcp_seq,
        payload,
    })
}

/// The parse as its two public halves, composed by hand: the header walk,
/// then the payload's one sum settling both checksums.
fn walk_then_verify(frame: &[u8]) -> Result<ParsedOverlayRef<'_>, ParseError> {
    let (view, lanes) = walk_overlay_frame(frame)?;
    lanes.verify(checksum::lane_sum(view.payload))?;
    Ok(view)
}

// Offsets into a built frame (Ethernet 14, IPv4 20, UDP 8, tunnel 8).
const OUTER_IP: usize = 14;
const TUNNEL: usize = 42;
const INNER_IP: usize = TUNNEL + 8 + 14;

/// Where the outer UDP header starts, by the outer IHL.
fn outer_udp_offset(frame: &[u8]) -> usize {
    OUTER_IP + (frame[OUTER_IP] & 0x0F) as usize * 4
}

/// Splices `words` of IPv4 options into the header at `ip` (IHL 5 → 5 +
/// n), and re-seals that header's total length and checksum.
fn insert_ipv4_options(frame: &mut Vec<u8>, ip: usize, words: &[[u8; 4]]) {
    frame.splice(ip + 20..ip + 20, words.concat());
    let ihl = 20 + 4 * words.len();
    frame[ip] = 0x40 | (ihl / 4) as u8;
    let total_len = u16::from_be_bytes([frame[ip + 2], frame[ip + 3]]) + 4 * words.len() as u16;
    frame[ip + 2..ip + 4].copy_from_slice(&total_len.to_be_bytes());
    frame[ip + 10..ip + 12].copy_from_slice(&[0, 0]);
    let ck = checksum::checksum(&frame[ip..ip + ihl]);
    frame[ip + 10..ip + 12].copy_from_slice(&ck.to_be_bytes());
}

/// Splices option TLVs `(class, type, data words)` into a Geneve header
/// built without any; returns how many bytes the frame grew by.
fn insert_geneve_options(frame: &mut Vec<u8>, tlvs: &[(u16, u8, Vec<[u8; 4]>)]) -> usize {
    let mut bytes = Vec::new();
    for (class, option_type, data) in tlvs {
        bytes.extend_from_slice(&class.to_be_bytes());
        // The length is the low five bits; the three reserved ones above
        // it are whatever the type's are.
        bytes.extend_from_slice(&[*option_type, data.len() as u8 | (option_type & 0xE0)]);
        bytes.extend_from_slice(&data.concat());
    }
    frame[TUNNEL] = (bytes.len() / 4) as u8;
    frame.splice(TUNNEL + 8..TUNNEL + 8, bytes.iter().copied());
    bytes.len()
}

/// Re-seals the outer IPv4 and UDP lengths and checksums around whatever
/// the frame now holds behind them.
fn reseal_outer(frame: &mut [u8]) {
    let udp_at = outer_udp_offset(frame);
    let ip_len = (frame.len() - OUTER_IP) as u16;
    frame[OUTER_IP + 2..OUTER_IP + 4].copy_from_slice(&ip_len.to_be_bytes());
    frame[OUTER_IP + 10..OUTER_IP + 12].copy_from_slice(&[0, 0]);
    let ck = checksum::checksum(&frame[OUTER_IP..udp_at]);
    frame[OUTER_IP + 10..OUTER_IP + 12].copy_from_slice(&ck.to_be_bytes());
    let (ip, udp) = (
        Ipv4Header::parse(&frame[OUTER_IP..]).unwrap().0,
        UdpHeader::parse(&frame[udp_at..]).unwrap().0,
    );
    let sealed = UdpHeader::for_payload(
        udp.src_port,
        udp.dst_port,
        ip.src,
        ip.dst,
        &frame[udp_at + UdpHeader::LEN..],
    );
    let mut header = Vec::new();
    sealed.encode(&mut header);
    frame[udp_at..udp_at + UdpHeader::LEN].copy_from_slice(&header);
}

proptest! {
    #[test]
    fn single_sum_parse_agrees_with_the_two_pass_reference(
        spec in arb_spec(),
        geneve in any::<bool>(),
        zero_outer_checksum in any::<bool>(),
        trailer in prop::collection::vec(any::<u8>(), 0..4),
        // The variable-length tails, on half the cases: outer and inner
        // IPv4 options (IHL 6..=15) and Geneve option TLVs.
        variable_tails in any::<bool>(),
        outer_options in prop::collection::vec(any::<[u8; 4]>(), 1..=10),
        inner_options in prop::collection::vec(any::<[u8; 4]>(), 1..=10),
        geneve_options in prop::collection::vec(
            (any::<u16>(), any::<u8>(), prop::collection::vec(any::<[u8; 4]>(), 0..4)),
            0..=3,
        ),
        mask_seed in any::<u64>(),
    ) {
        let mut frame = if geneve { build_geneve_frame(&spec) } else { build_overlay_frame(&spec) };
        if variable_tails {
            // Inside out, so the offsets of a built frame still hold.
            let mut grown = 0;
            if geneve {
                grown = insert_geneve_options(&mut frame, &geneve_options);
            }
            insert_ipv4_options(&mut frame, INNER_IP + grown, &inner_options);
            insert_ipv4_options(&mut frame, OUTER_IP, &outer_options);
        }
        // A trailer is bytes past the inner packet, as link padding
        // would be.
        frame.extend_from_slice(&trailer);
        reseal_outer(&mut frame);
        if zero_outer_checksum {
            let udp_at = outer_udp_offset(&frame);
            frame[udp_at + 6..udp_at + 8].copy_from_slice(&[0, 0]);
        }
        // Intact: accepted by both with the same view. A trailer makes
        // an inner TCP segment longer than its checksum covers, which
        // both must reject the same way; inner UDP carries its own length
        // and just sheds it.
        let intact = parse_overlay_frame_ref(&frame);
        prop_assert_eq!(&intact, &two_pass_reference(&frame));
        prop_assert_eq!(intact.is_ok(), trailer.is_empty() || spec.proto == Proto::Udp);
        prop_assert_eq!(&walk_then_verify(&frame), &intact, "walk, then verify");
        // Every single-byte corruption: same view or same error.
        let mut x = mask_seed | 1;
        for pos in 0..frame.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mask = ((x >> 56) as u8).max(1);
            frame[pos] ^= mask;
            prop_assert_eq!(
                parse_overlay_frame_ref(&frame),
                two_pass_reference(&frame),
                "byte {} ^ {:#04x}", pos, mask
            );
            prop_assert_eq!(
                walk_then_verify(&frame),
                parse_overlay_frame_ref(&frame),
                "walk, then verify: byte {} ^ {:#04x}", pos, mask
            );
            frame[pos] ^= mask;
        }
    }

    #[test]
    fn overlay_frame_roundtrips(spec in arb_spec()) {
        let frame = build_overlay_frame(&spec);
        let parsed = parse_overlay_frame(&frame).unwrap();
        prop_assert_eq!(parsed.payload, spec.payload.clone());
        prop_assert_eq!(parsed.vni, spec.vni);
        prop_assert_eq!(parsed.inner_flow, FlowKey::from(&spec));
        if spec.proto == Proto::Tcp {
            prop_assert_eq!(parsed.tcp_seq, spec.tcp_seq);
        }
    }

    #[test]
    fn single_byte_corruption_never_passes_silently(
        spec in arb_spec(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frame = build_overlay_frame(&spec);
        let reference = parse_overlay_frame(&frame).unwrap();
        let pos = (pos_seed % frame.len() as u64) as usize;
        let mut bad = frame.clone();
        bad[pos] ^= 1 << bit;
        match parse_overlay_frame(&bad) {
            Err(_) => {}
            // Fields not covered by any checksum (e.g. MAC addresses) may
            // change without error, but the result must differ from the
            // original parse — corruption is never invisible.
            Ok(p) => prop_assert_ne!(p, reference),
        }
    }

    #[test]
    fn ipv4_header_roundtrips(
        src in any::<[u8;4]>(), dst in any::<[u8;4]>(),
        proto in any::<u8>(), ttl in 1u8..255,
        id in any::<u16>(), frag_off in 0u16..0x1FFF,
        more in any::<bool>(), len in 0u16..1480,
    ) {
        let h = Ipv4Header {
            src, dst, protocol: proto, ttl,
            total_len: Ipv4Header::LEN as u16 + len,
            identification: id,
            dont_fragment: false,
            more_fragments: more,
            fragment_offset: frag_off,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (parsed, _) = Ipv4Header::parse(&buf).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn fragmentation_reassembles_in_any_order(
        payload in prop::collection::vec(any::<u8>(), 1..20_000),
        order_seed in any::<u64>(),
    ) {
        let frags = fragment_payload(&payload, 1500);
        let n = frags.len();
        // Deterministic shuffle of offer order.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = order_seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut r = FragmentReassembler::new();
        let mut result = None;
        let mut offered = 0;
        for &i in &order {
            let (off, chunk) = frags[i];
            let more = i + 1 != n;
            offered += 1;
            if let Some(out) = r.offer(off, chunk, more) {
                prop_assert_eq!(offered, n, "completed before all fragments offered");
                result = Some(out);
            }
        }
        prop_assert_eq!(result.unwrap(), payload);
    }

    #[test]
    fn udp_checksum_detects_any_payload_flip(
        payload in prop::collection::vec(any::<u8>(), 1..512),
        pos_seed in any::<u64>(),
    ) {
        let h = UdpHeader::for_payload(1111, 2222, [1,2,3,4], [5,6,7,8], &payload);
        prop_assert!(h.verify([1,2,3,4], [5,6,7,8], &payload));
        let mut bad = payload.clone();
        let pos = (pos_seed % bad.len() as u64) as usize;
        bad[pos] ^= 0x5A;
        prop_assert!(!h.verify([1,2,3,4], [5,6,7,8], &bad));
    }

    #[test]
    fn tcp_checksum_detects_any_payload_flip(
        payload in prop::collection::vec(any::<u8>(), 1..512),
        pos_seed in any::<u64>(),
        seq in any::<u32>(),
    ) {
        let h = TcpHeader::for_payload(3, 4, seq, 0, 0x10, 1000, [9,9,9,9], [8,8,8,8], &payload);
        prop_assert!(h.verify([9,9,9,9], [8,8,8,8], &payload));
        let mut bad = payload.clone();
        let pos = (pos_seed % bad.len() as u64) as usize;
        bad[pos] ^= 0xA5;
        prop_assert!(!h.verify([9,9,9,9], [8,8,8,8], &bad));
    }

    #[test]
    fn ethernet_roundtrips(dst in any::<[u8;6]>(), src in any::<[u8;6]>(), et in any::<u16>()) {
        let h = EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: et.into(),
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (parsed, _) = EthernetHeader::parse(&buf).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn rss_hash_is_flow_stable_and_direction_sensitive(
        sip in any::<[u8;4]>(), dip in any::<[u8;4]>(),
        sp in any::<u16>(), dp in any::<u16>(),
    ) {
        let a = rss_hash_v4(sip, dip, sp, dp);
        let b = rss_hash_v4(sip, dip, sp, dp);
        prop_assert_eq!(a, b);
    }
}
