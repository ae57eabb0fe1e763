//! Randomized invariant tests over the INIC wire protocol: packetization
//! covers every byte exactly once, checksummed headers round-trip,
//! reassembly is order-independent and duplicate-tolerant, and the demux
//! never conflates streams. Driven by a seeded splitmix64 stream so every
//! failure reproduces from the fixed seeds.

use acc_net::PayloadView;
use acc_proto::{packet_count, packetize, InicPacket, StreamDemux, StreamRx, INIC_PAYLOAD};

/// Minimal splitmix64 stream for generating test cases.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        let n = self.below(max_len) as usize;
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Decode bytes as a frame payload of their own.
fn decode(bytes: &[u8]) -> Result<InicPacket, acc_proto::WireError> {
    InicPacket::decode(&PayloadView::from(bytes))
}

#[test]
fn header_roundtrip() {
    let mut g = Gen(0xD1);
    for _ in 0..128 {
        let p = InicPacket {
            src_rank: g.below(u64::from(u16::MAX) + 1) as u32,
            stream: g.below(u64::from(u16::MAX) + 1) as u32,
            offset: g.next_u64() as u32,
            fin: g.below(2) == 1,
            credit: false,
            nack: false,
            ack: false,
            busy: g.below(2) == 1,
            data: g.bytes(INIC_PAYLOAD as u64 + 1).into(),
        };
        assert_eq!(decode(&p.encode()).unwrap(), p);
    }
}

#[test]
fn corruption_never_decodes() {
    // For packets of every size up to the largest payload, changing any
    // one byte makes decode fail: the checksum covers the other header
    // fields and the data, the checksum field fails its own comparison,
    // and the length field fails the length check. Two masks per
    // position: one random bit, and a random non-zero byte.
    let mut g = Gen(0xD2);
    for round in 0..48 {
        let len = match round {
            0 => 0,
            1 => INIC_PAYLOAD as u64,
            _ => g.below(INIC_PAYLOAD as u64 + 1),
        };
        let p = InicPacket {
            src_rank: g.below(1 << 16) as u32,
            stream: g.below(1 << 16) as u32,
            offset: g.next_u64() as u32,
            fin: g.below(2) == 1,
            credit: false,
            nack: false,
            ack: false,
            busy: false,
            data: (0..len)
                .map(|_| g.next_u64() as u8)
                .collect::<Vec<u8>>()
                .into(),
        };
        let wire = p.encode();
        for i in 0..wire.len() {
            for mask in [1u8 << g.below(8), 1 + g.below(255) as u8] {
                let mut bent = wire.clone();
                bent[i] ^= mask;
                assert!(
                    decode(&bent).is_err(),
                    "{len}-byte packet: byte {i} ^ {mask:#x} went undetected"
                );
            }
        }
    }
}

#[test]
fn decode_never_panics_on_arbitrary_inputs() {
    // Property: `InicPacket::decode` is total — any byte string either
    // decodes or returns a `WireError`; no input may panic or read out
    // of bounds. Three adversarial shapes: pure noise, truncations of a
    // valid encode, and bit-flipped mutations of a valid encode.
    let mut g = Gen(0xD7);
    for _ in 0..256 {
        let noise = g.bytes(2200);
        let _ = decode(&noise);
    }
    for _ in 0..64 {
        let p = InicPacket {
            src_rank: g.below(1 << 16) as u32,
            stream: g.below(1 << 16) as u32,
            offset: g.next_u64() as u32,
            fin: g.below(2) == 1,
            credit: false,
            nack: false,
            ack: false,
            busy: false,
            data: g.bytes(INIC_PAYLOAD as u64 + 1).into(),
        };
        let bytes = p.encode();
        let cut = g.below(bytes.len() as u64 + 1) as usize;
        let _ = decode(&bytes[..cut]);
        let mut bent = bytes.clone();
        for _ in 0..1 + g.below(4) {
            let i = g.below(bent.len() as u64) as usize;
            bent[i] ^= 1u8 << g.below(8);
        }
        let _ = decode(&bent);
    }
}

#[test]
fn packetize_reassembles_in_any_order_with_duplicates() {
    let mut g = Gen(0xD3);
    for _ in 0..96 {
        let data = g.bytes(8000);
        let mut pkts = packetize(1, 2, &data);
        // Inject duplicates (simulated retransmissions), then shuffle.
        let n = pkts.len();
        for _ in 0..g.below(4) {
            let i = g.below(n as u64) as usize;
            let dup = pkts[i].clone();
            pkts.push(dup);
        }
        g.shuffle(&mut pkts);
        let mut rx = StreamRx::new_unknown();
        for p in &pkts {
            rx.accept(p);
        }
        assert!(rx.complete());
        assert_eq!(rx.into_bytes(), data);
    }
}

#[test]
fn packetize_structure_is_exact() {
    let mut g = Gen(0xD4);
    for _ in 0..128 {
        let data = {
            let mut d = g.bytes(8000);
            if d.is_empty() {
                d.push(0);
            }
            d
        };
        let pkts = packetize(0, 0, &data);
        // Exactly one fin, on the final packet.
        assert_eq!(pkts.iter().filter(|p| p.fin).count(), 1);
        assert!(pkts.last().unwrap().fin);
        // Offsets are contiguous.
        let mut expect = 0u32;
        for p in &pkts {
            assert_eq!(p.offset, expect);
            expect += p.data.len() as u32;
        }
        assert_eq!(expect as usize, data.len());
        // All but the last packet are full.
        for p in &pkts[..pkts.len() - 1] {
            assert_eq!(p.data.len(), INIC_PAYLOAD);
        }
        assert_eq!(packet_count(data.len()), pkts.len());
    }
}

#[test]
fn demux_separates_streams() {
    let mut g = Gen(0xD5);
    for _ in 0..64 {
        let a = {
            let mut d = g.bytes(3000);
            d.push(1);
            d
        };
        let b = {
            let mut d = g.bytes(3000);
            d.push(2);
            d
        };
        let pa = packetize(0, 9, &a);
        let pb = packetize(1, 9, &b);
        let mut demux = StreamDemux::new();
        demux.expect(0, 9, a.len());
        demux.expect_unknown(1, 9);
        let mut done = Vec::new();
        let mut ia = pa.iter();
        let mut ib = pb.iter();
        loop {
            let mut progressed = false;
            for it in [&mut ia, &mut ib] {
                if let Some(p) = it.next() {
                    if let Some(d) = demux.accept(p) {
                        done.push(d);
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(done.len(), 2);
        for (src, _stream, bytes) in done {
            assert_eq!(&bytes, if src == 0 { &a } else { &b });
        }
        assert_eq!(demux.open_streams(), 0);
    }
}

#[test]
fn missing_always_points_at_the_first_gap() {
    let mut g = Gen(0xD6);
    for _ in 0..96 {
        let len = 1 + g.below(8 * INIC_PAYLOAD as u64) as usize;
        let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let mut pkts = packetize(3, 1, &data);
        g.shuffle(&mut pkts);
        let mut rx = StreamRx::new(data.len());
        let mut seen = std::collections::HashSet::new();
        for p in &pkts {
            // While incomplete with a known total, `missing` must name
            // an offset whose packet has not been accepted yet.
            let m = rx.missing().expect("incomplete stream has a gap");
            assert!((m as usize) < data.len());
            assert!(!seen.contains(&m), "missing() named a received offset");
            rx.accept(p);
            seen.insert(p.offset);
        }
        assert!(rx.complete());
        assert_eq!(rx.missing(), None);
    }
}
