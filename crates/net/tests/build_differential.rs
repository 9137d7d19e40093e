//! Differential test of the one-pass frame builders against the staged
//! construction they replaced, kept here as the reference: the inner
//! frame built into a `Vec` of its own (its transport checksum summing
//! the payload), appended to the tunnel header in a second `Vec`, and
//! that wrapped in the outer headers, the outer UDP checksum summing the
//! whole tunnel payload again. The builders must emit the same bytes for
//! every spec; the golden frames below pin both to the wire.

use mflow_net::flow::Proto;
use mflow_net::frame::{
    build_geneve_frame, build_geneve_frame_into, build_native_frame, build_overlay_frame,
    build_overlay_frame_into, OverlayFrameSpec,
};
use mflow_net::geneve::{GeneveHeader, GENEVE_PORT};
use mflow_net::ipv4::{PROTO_TCP, PROTO_UDP};
use mflow_net::tcp::flags;
use mflow_net::vxlan::VXLAN_PORT;
use mflow_net::{
    EtherType, EthernetHeader, Ipv4Header, MacAddr, TcpHeader, UdpHeader, VxlanHeader,
};
use proptest::prelude::*;

/// The inner frame (Ethernet/IPv4/transport/payload), staged.
fn reference_inner(spec: &OverlayFrameSpec) -> Vec<u8> {
    let mut inner = Vec::new();
    EthernetHeader {
        dst: spec.inner_dst_mac,
        src: spec.inner_src_mac,
        ethertype: EtherType::Ipv4,
    }
    .encode(&mut inner);
    match spec.proto {
        Proto::Tcp => {
            let len = TcpHeader::LEN + spec.payload.len();
            Ipv4Header::simple(spec.inner_src_ip, spec.inner_dst_ip, PROTO_TCP, len)
                .encode(&mut inner);
            TcpHeader::for_payload(
                spec.inner_src_port,
                spec.inner_dst_port,
                spec.tcp_seq,
                0,
                flags::ACK,
                0xFFFF,
                spec.inner_src_ip,
                spec.inner_dst_ip,
                &spec.payload,
            )
            .encode(&mut inner);
        }
        Proto::Udp => {
            let len = UdpHeader::LEN + spec.payload.len();
            Ipv4Header::simple(spec.inner_src_ip, spec.inner_dst_ip, PROTO_UDP, len)
                .encode(&mut inner);
            UdpHeader::for_payload(
                spec.inner_src_port,
                spec.inner_dst_port,
                spec.inner_src_ip,
                spec.inner_dst_ip,
                &spec.payload,
            )
            .encode(&mut inner);
        }
    }
    inner.extend_from_slice(&spec.payload);
    inner
}

/// The inner frame behind `tunnel_header`, wrapped in outer
/// Ethernet/IPv4/UDP to `dst_port`, staged.
fn reference_encapsulated(
    spec: &OverlayFrameSpec,
    dst_port: u16,
    tunnel_header: Vec<u8>,
) -> Vec<u8> {
    let mut tunnel_payload = tunnel_header;
    tunnel_payload.extend_from_slice(&reference_inner(spec));
    let mut frame = Vec::new();
    EthernetHeader {
        dst: spec.outer_dst_mac,
        src: spec.outer_src_mac,
        ethertype: EtherType::Ipv4,
    }
    .encode(&mut frame);
    let udp_len = UdpHeader::LEN + tunnel_payload.len();
    Ipv4Header::simple(spec.outer_src_ip, spec.outer_dst_ip, PROTO_UDP, udp_len).encode(&mut frame);
    UdpHeader::for_payload(
        spec.outer_src_port,
        dst_port,
        spec.outer_src_ip,
        spec.outer_dst_ip,
        &tunnel_payload,
    )
    .encode(&mut frame);
    frame.extend_from_slice(&tunnel_payload);
    frame
}

fn reference_vxlan(spec: &OverlayFrameSpec) -> Vec<u8> {
    let mut header = Vec::new();
    VxlanHeader::new(spec.vni).encode(&mut header);
    reference_encapsulated(spec, VXLAN_PORT, header)
}

fn reference_geneve(spec: &OverlayFrameSpec) -> Vec<u8> {
    let mut header = Vec::new();
    GeneveHeader::new(spec.vni).encode(&mut header);
    reference_encapsulated(spec, GENEVE_PORT, header)
}

/// Every builder against its reference, the `_into` ones into a scratch
/// `Vec` that held a longer frame before.
fn assert_builders_match(spec: &OverlayFrameSpec) {
    let what = format!("{:?} payload {}", spec.proto, spec.payload.len());
    let mut scratch = vec![0xEE; 2048];
    assert_eq!(
        build_overlay_frame(spec),
        reference_vxlan(spec),
        "vxlan, {what}"
    );
    build_overlay_frame_into(spec, &mut scratch);
    assert_eq!(scratch, reference_vxlan(spec), "vxlan into, {what}");
    assert_eq!(
        build_geneve_frame(spec),
        reference_geneve(spec),
        "geneve, {what}"
    );
    build_geneve_frame_into(spec, &mut scratch);
    assert_eq!(scratch, reference_geneve(spec), "geneve into, {what}");
    assert_eq!(
        build_native_frame(spec),
        reference_inner(spec),
        "native, {what}"
    );
}

/// Payload bytes of every length from one xorshift stream.
fn payload_of(len: usize, state: &mut u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state as u8
        })
        .collect()
}

#[test]
fn every_payload_length_matches_the_staged_builder() {
    let mut state = 0x9E37_79B9_7F4A_7C15;
    for len in 0..=1600 {
        let payload = payload_of(len, &mut state);
        let tcp = OverlayFrameSpec::example_tcp(len as u64 % 7, len as u32 * 1448, payload);
        assert_builders_match(&tcp);
        assert_builders_match(&OverlayFrameSpec::example_udp(3, tcp.payload));
    }
}

/// Lengths as the benchmark builds them (64 and 1448) half the time,
/// anything up to 1600 otherwise.
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    (0u8..4, 0usize..=1600, any::<u64>()).prop_map(|(pick, len, seed)| {
        let len = match pick {
            0 => 64,
            1 => 1448,
            _ => len,
        };
        payload_of(len, &mut (seed | 1))
    })
}

fn arb_spec() -> impl Strategy<Value = OverlayFrameSpec> {
    let addresses = (
        any::<[u8; 6]>(),
        any::<[u8; 6]>(),
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        any::<[u8; 6]>(),
        any::<[u8; 6]>(),
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
    );
    let ports = (
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        0u32..(1 << 24),
    );
    (addresses, ports, any::<bool>(), arb_payload()).prop_map(
        |((omac_s, omac_d, oip_s, oip_d, imac_s, imac_d, iip_s, iip_d), ports, tcp, payload)| {
            let (outer_src_port, inner_src_port, inner_dst_port, tcp_seq, vni) = ports;
            OverlayFrameSpec {
                outer_src_mac: MacAddr(omac_s),
                outer_dst_mac: MacAddr(omac_d),
                outer_src_ip: oip_s,
                outer_dst_ip: oip_d,
                outer_src_port,
                vni,
                inner_src_mac: MacAddr(imac_s),
                inner_dst_mac: MacAddr(imac_d),
                inner_src_ip: iip_s,
                inner_dst_ip: iip_d,
                inner_src_port,
                inner_dst_port,
                proto: if tcp { Proto::Tcp } else { Proto::Udp },
                tcp_seq,
                payload,
            }
        },
    )
}

proptest! {
    #[test]
    fn builders_match_the_staged_builder(spec in arb_spec()) {
        assert_builders_match(&spec);
    }
}

/// Two frames as the staged builder wrote them, so a header encoder
/// that drifted on both sides at once shows too.
#[test]
fn golden_frames() {
    let tcp = OverlayFrameSpec::example_tcp(5, 0xC0FF_EE01, b"golden!".to_vec());
    let udp = OverlayFrameSpec::example_udp(6, b"pinned".to_vec());
    let hex = |frame: Vec<u8>| frame.iter().map(|b| format!("{b:02x}")).collect::<String>();
    assert_eq!(
        hex(build_overlay_frame(&tcp)),
        "0200000007d00200000003ed080045000061000000004011668a0a0000010a000002c00512b5004d3278\
         0800000000002a0002000000006302000000000508004500002f00000000400622a2ac110002ac110003\
         9c451451c0ffee01000000005010ffff9dcb0000676f6c64656e21"
    );
    assert_eq!(
        hex(build_geneve_frame(&udp)),
        "0200000007d00200000003ee08004500005400000000401166970a0000010a000002c00617c10040d029\
         0000655800002a0002000000006302000000000608004500002200000000401122a4ac110002ac110003\
         9c461451000eb2d670696e6e6564"
    );
}
