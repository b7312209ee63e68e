//! Wire-format tests: the CRC-32 values themselves, frame + payload round
//! trips under arbitrary sizes, and malformed frames (truncated prefix,
//! oversized length, bad version) that must come back as errors, never
//! panics.

use std::io::Cursor;

use dtrain_nn::ParamSet;
use dtrain_proc::codec::{
    read_frame, write_frame, CodecError, Dec, Enc, MAX_PAYLOAD, PROTO_VERSION,
};
use dtrain_proc::crc32;
use dtrain_proc::proto::Msg;
use dtrain_tensor::Tensor;
use proptest::prelude::*;

/// Reference IEEE CRC-32: one table lookup per byte. Both ends of a
/// connection share `crc32`, so a wrong but symmetric checksum would pass
/// every round trip; this oracle pins the values instead.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[test]
fn crc32_known_answer() {
    assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
    assert_eq!(crc32(&[]), 0);
    assert_eq!(crc32(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
    // Two full 16-byte blocks plus a 4-byte tail.
    assert_eq!(crc32(&[b"123456789".repeat(4).as_slice()]), 0x3E29_169C);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `crc32` agrees with the bytewise oracle for any length (including
    /// non-multiples of the 16-byte block) and any split of the input into
    /// 1-4 chunks: the running state must carry across chunk boundaries.
    #[test]
    fn crc32_matches_bytewise_reference(
        data in prop::collection::vec(0u8..=255, 0..4096),
        cuts in prop::collection::vec(0usize..=4096, 0..4),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let mut chunks = Vec::new();
        let mut start = 0;
        for c in cuts {
            chunks.push(&data[start..c]);
            start = c;
        }
        chunks.push(&data[start..]);
        prop_assert_eq!(crc32(&chunks), crc32_bytewise(&data));
    }

    /// Any (type, seq, payload) round-trips through a frame byte-exactly.
    #[test]
    fn frame_round_trips(
        ty in 0u8..=255,
        seq in 0u32..=u32::MAX,
        payload in prop::collection::vec(0u8..=255, 0..4096),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, ty, seq, &payload).expect("write");
        let (got_ty, got_seq, got_payload) = read_frame(&mut Cursor::new(&buf)).expect("read");
        prop_assert_eq!(got_ty, ty);
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got_payload, payload);
    }

    /// Flipping any single bit past the length prefix is caught by the
    /// CRC (never a panic, never a silent success). Bits inside the
    /// 6-byte prefix surface as BadVersion/Oversized/short-read instead;
    /// chaos injection therefore confines its flips to byte 6 onward.
    #[test]
    fn single_bit_corruption_is_always_detected(
        seq in 1u32..1000,
        payload in prop::collection::vec(0u8..=255, 0..512),
        bit_pick in 0usize..100_000,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, seq, &payload).expect("write");
        let bit = 6 * 8 + bit_pick % ((buf.len() - 6) * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        match read_frame(&mut Cursor::new(&buf)) {
            Err(CodecError::BadCrc { expected, found }) => prop_assert_ne!(expected, found),
            other => prop_assert!(false, "corrupt frame must fail CRC, got {:?}", other),
        }
    }

    /// Parameter sets of arbitrary shape round-trip bit-exactly (the
    /// cross-path logical-bytes pins depend on exact f32 transport).
    #[test]
    fn params_round_trip_bit_exact(
        a in prop::collection::vec(-1e6f32..1e6, 1..40),
        b in prop::collection::vec(-1.0f32..1.0, 1..25),
        rows in 1usize..6,
    ) {
        let cols = b.len();
        let mat: Vec<f32> = (0..rows * cols).map(|i| a[i % a.len()] * 0.5).collect();
        let p = ParamSet(vec![
            Tensor::from_vec(&[a.len()], a.clone()),
            Tensor::from_vec(&[rows, cols], mat),
            Tensor::from_vec(&[b.len()], b.clone()),
        ]);
        let mut e = Enc::new();
        e.params(&p);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = d.params().expect("decode");
        d.done().expect("fully consumed");
        prop_assert_eq!(back.0.len(), p.0.len());
        for (t0, t1) in p.0.iter().zip(back.0.iter()) {
            prop_assert_eq!(t0.shape(), t1.shape());
            for (x, y) in t0.data().iter().zip(t1.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Arbitrary f32 bit patterns — NaN payloads, -0.0, subnormals, ±inf —
    /// survive encode/decode with their bits unchanged.
    #[test]
    fn params_round_trip_any_bit_pattern(
        bits in prop::collection::vec(0u32..=u32::MAX, 1..300),
    ) {
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let p = ParamSet(vec![Tensor::from_vec(&[data.len()], data)]);
        let mut e = Enc::new();
        e.params(&p);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = d.params().expect("decode");
        d.done().expect("fully consumed");
        let got: Vec<u32> = back.0[0].data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, bits);
    }

    /// Truncating a valid frame anywhere must produce an error, not a
    /// panic or a bogus success.
    #[test]
    fn truncation_always_errors(
        payload in prop::collection::vec(0u8..=255, 0..256),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, 5, &payload).expect("write");
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        if cut < buf.len() {
            let res = read_frame(&mut Cursor::new(&buf[..cut]));
            prop_assert!(res.is_err(), "truncated at {cut}/{} must error", buf.len());
        }
    }
}

#[test]
fn truncated_length_prefix_errors() {
    // Version + type + only 2 of the 4 length bytes.
    let buf = [PROTO_VERSION, 3, 0x10, 0x00];
    match read_frame(&mut Cursor::new(&buf[..])) {
        Err(CodecError::Io(_)) => {}
        other => panic!("expected Io error for truncated prefix, got {other:?}"),
    }
}

#[test]
fn oversized_length_errors_without_allocating() {
    let mut buf = vec![PROTO_VERSION, 3];
    buf.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    // No payload follows — if the cap weren't checked first this would
    // try to allocate and read 64 MiB + 1.
    match read_frame(&mut Cursor::new(&buf)) {
        Err(CodecError::Oversized(n)) => assert_eq!(n, MAX_PAYLOAD + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn bad_version_byte_errors() {
    let mut buf = vec![PROTO_VERSION ^ 0xFF, 3];
    buf.extend_from_slice(&4u32.to_le_bytes());
    buf.extend_from_slice(&[1, 2, 3, 4]);
    match read_frame(&mut Cursor::new(&buf)) {
        Err(CodecError::BadVersion(v)) => assert_eq!(v, PROTO_VERSION ^ 0xFF),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn unknown_message_type_errors() {
    match Msg::decode(0xEE, &[]) {
        Err(CodecError::BadType(0xEE)) => {}
        other => panic!("expected BadType, got {other:?}"),
    }
}

#[test]
fn malformed_payloads_error_not_panic() {
    // Tensor count claims more tensors than bytes remain.
    let mut e = Enc::new();
    e.u32(1000);
    let bytes = e.into_bytes();
    assert!(Dec::new(&bytes).params().is_err());

    // Dim product overflows / exceeds payload.
    let mut e = Enc::new();
    e.u32(1).u8(2).u32(u32::MAX).u32(u32::MAX);
    let bytes = e.into_bytes();
    assert!(Dec::new(&bytes).params().is_err());

    // Dims claim exactly one float more than the payload holds.
    let mut e = Enc::new();
    e.u32(1).u8(1).u32(5);
    for v in 0..4 {
        e.f32(v as f32);
    }
    let bytes = e.into_bytes();
    assert!(matches!(
        Dec::new(&bytes).params(),
        Err(CodecError::Malformed(_))
    ));

    // Trailing garbage after a valid message is rejected.
    let (ty, mut payload) = Msg::Heartbeat { round: 9 }.encode();
    payload.push(0xAB);
    assert!(Msg::decode(ty, &payload).is_err());

    // A structurally-valid frame whose payload is cut mid-tensor.
    let p = ParamSet(vec![Tensor::from_vec(&[8], vec![1.0; 8])]);
    let mut e = Enc::new();
    e.params(&p);
    let bytes = e.into_bytes();
    assert!(Dec::new(&bytes[..bytes.len() - 3]).params().is_err());
}

#[test]
fn every_message_variant_round_trips() {
    let p = || ParamSet(vec![Tensor::from_vec(&[2, 2], vec![0.5, -1.5, 3.25, 0.0])]);
    let msgs = vec![
        Msg::Hello { worker: 3 },
        Msg::HelloAck {
            start_round: 12,
            params: p(),
        },
        Msg::Heartbeat { round: 40 },
        Msg::HeartbeatAck { checkpoint: true },
        Msg::Membership { round: 5 },
        Msg::LiveSet {
            live: vec![0, 2, 3],
        },
        Msg::Snapshot,
        Msg::Params { params: p() },
        Msg::AspPushPull {
            grad: p(),
            lr: 0.01,
        },
        Msg::SspPush {
            grad: p(),
            lr: 0.02,
        },
        Msg::Ok,
        Msg::EasgdExchange {
            params: p(),
            alpha: 0.125,
        },
        Msg::BumpClock { clock: 77 },
        Msg::WaitMinClock { needed: 70 },
        Msg::MinClock { min: 71 },
        Msg::BspExchange {
            round: 4,
            lr: 0.05,
            grad: p(),
        },
        Msg::BspResult {
            leader: true,
            arrived: 3,
            expected: 4,
            params: p(),
        },
        Msg::GossipSend {
            target: 1,
            alpha: 0.25,
            params: p(),
        },
        Msg::GossipDrain,
        Msg::GossipItems {
            items: vec![(0.5, p()), (0.25, p())],
        },
        Msg::ExchangeRequest {
            target: 1,
            params: p(),
        },
        Msg::ExchangeAwait,
        Msg::Gone,
        Msg::ExchangePoll { block: true },
        Msg::ExchangeItem {
            token: 9,
            params: p(),
        },
        Msg::PeerDone,
        Msg::ExchangeRespond {
            token: 9,
            params: p(),
        },
        Msg::AnnounceDone,
        Msg::CollSend {
            target: 2,
            params: p(),
        },
        Msg::CollRecv,
        Msg::CollItem {
            sender: 1,
            params: p(),
        },
        Msg::BspPartial {
            round: 6,
            lr: 0.03,
            weight: 2,
            leaders: 3,
            partial: p(),
        },
        Msg::CkptSave {
            iteration: 30,
            params: p(),
        },
        Msg::CkptFetch,
        Msg::CkptState {
            iteration: 30,
            params: p(),
        },
        Msg::RunComplete {
            iterations: 64,
            logical_bytes: 12800,
            busy_ms: 417,
            params: p(),
        },
        Msg::Resume {
            worker: 2,
            last_seq: 41,
            attempt: 3,
        },
        Msg::ResumeAck,
    ];
    for msg in msgs {
        let (ty, payload) = msg.encode();
        let back = Msg::decode(ty, &payload).expect("decode");
        assert_eq!(
            format!("{back:?}"),
            format!("{msg:?}"),
            "variant must survive the wire"
        );
    }
}
