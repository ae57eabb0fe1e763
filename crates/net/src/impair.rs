//! Deterministic link impairment: the fault-injection hook every
//! [`EgressPort`](crate::port::EgressPort) consults before a frame goes
//! on the wire.
//!
//! An `Impairment` owns its own seeded RNG stream, so the faults a link
//! experiences depend only on the plan seed and that link's identity —
//! never on what any other link is doing or on component registration
//! order. Ports without an impairment attached pay nothing (a `None`
//! check per frame).

use acc_sim::{DataSize, SimDuration, SimRng, SimTime};

use crate::frame::Frame;

/// What happened to the frames a link impaired, readable after a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ImpairCounters {
    /// Frames silently discarded by random loss.
    pub lost: u64,
    /// Frames delivered with flipped payload bytes.
    pub corrupted: u64,
    /// Frames delivered late (reorder or jitter).
    pub delayed: u64,
    /// Frames discarded because the link was in an outage window.
    pub outage_drops: u64,
}

/// The fate of one frame, decided at serialization time.
pub enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Discard after serialization (the sender still paid line time).
    Drop,
    /// Deliver with corrupted payload bytes.
    Corrupt,
    /// Deliver with extra propagation delay (later frames may overtake).
    Delay(SimDuration),
}

/// The xor mask of each of [`Impairment::corrupt_payload`]'s up to three
/// flips. No non-empty subset xors to zero (0x55 ^ 0xAA = 0xFF,
/// 0x55 ^ 0x0F = 0x5A, 0xAA ^ 0x0F = 0xA5, all three = 0xF0), so flips
/// that land on the same byte never cancel: a corrupted frame always
/// differs from the one sent.
const FLIP_MASKS: [u8; 3] = [0x55, 0xAA, 0x0F];

/// Per-link fault model: probabilistic loss/corruption/reorder/jitter
/// plus absolute-time outage and buffer-squeeze windows.
#[derive(Debug, Clone)]
pub struct Impairment {
    rng: SimRng,
    loss_prob: f64,
    corrupt_prob: f64,
    reorder_prob: f64,
    reorder_delay: SimDuration,
    jitter_max: SimDuration,
    outages: Vec<(SimTime, SimTime)>,
    squeezes: Vec<(SimTime, SimTime, DataSize)>,
    counters: ImpairCounters,
}

impl Impairment {
    /// An impairment that does nothing until configured, drawing from
    /// `rng` (fork or derive it per link for independent streams).
    pub fn new(rng: SimRng) -> Impairment {
        Impairment {
            rng,
            loss_prob: 0.0,
            corrupt_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
            jitter_max: SimDuration::ZERO,
            outages: Vec::new(),
            squeezes: Vec::new(),
            counters: ImpairCounters::default(),
        }
    }

    /// Drop each frame independently with probability `p`.
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Impairment {
        self.loss_prob = (self.loss_prob + p).min(1.0);
        self
    }

    /// Corrupt each frame's payload independently with probability `p`.
    #[must_use]
    pub fn with_corruption(mut self, p: f64) -> Impairment {
        self.corrupt_prob = (self.corrupt_prob + p).min(1.0);
        self
    }

    /// Delay each frame by `delay` with probability `p`, letting later
    /// frames overtake it.
    #[must_use]
    pub fn with_reorder(mut self, p: f64, delay: SimDuration) -> Impairment {
        self.reorder_prob = (self.reorder_prob + p).min(1.0);
        self.reorder_delay = self.reorder_delay.max(delay);
        self
    }

    /// Add uniform random delay in `[0, max)` to every frame.
    #[must_use]
    pub fn with_jitter(mut self, max: SimDuration) -> Impairment {
        self.jitter_max = self.jitter_max.max(max);
        self
    }

    /// Drop every frame serialized in `[from, until)`.
    #[must_use]
    pub fn with_outage(mut self, from: SimTime, until: SimTime) -> Impairment {
        self.outages.push((from, until));
        self
    }

    /// Cap the port buffer at `capacity` during `[from, until)`.
    #[must_use]
    pub fn with_squeeze(mut self, from: SimTime, until: SimTime, capacity: DataSize) -> Impairment {
        self.squeezes.push((from, until, capacity));
        self
    }

    /// Whether any fault is configured (a fully-idle impairment still
    /// draws RNG words, so callers may prefer to drop it).
    pub fn is_active(&self) -> bool {
        self.loss_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.reorder_prob > 0.0
            || self.jitter_max > SimDuration::ZERO
            || !self.outages.is_empty()
            || !self.squeezes.is_empty()
    }

    /// Decide the fate of one frame serialized at `now`.
    ///
    /// All probabilistic draws happen in a fixed order on every call, so
    /// the random stream a link consumes depends only on how many frames
    /// it carried — not on which faults fired.
    pub fn judge(&mut self, now: SimTime) -> Verdict {
        if self.outages.iter().any(|&(a, b)| now >= a && now < b) {
            self.counters.outage_drops += 1;
            return Verdict::Drop;
        }
        let lose = self.loss_prob > 0.0 && self.rng.gen_bool(self.loss_prob);
        let corrupt = self.corrupt_prob > 0.0 && self.rng.gen_bool(self.corrupt_prob);
        let reorder = self.reorder_prob > 0.0 && self.rng.gen_bool(self.reorder_prob);
        let jitter = if self.jitter_max > SimDuration::ZERO {
            SimDuration::from_ps(self.rng.gen_range(self.jitter_max.as_ps().max(1)))
        } else {
            SimDuration::ZERO
        };
        if lose {
            self.counters.lost += 1;
            return Verdict::Drop;
        }
        if corrupt {
            self.counters.corrupted += 1;
            return Verdict::Corrupt;
        }
        let extra = jitter
            + if reorder {
                self.reorder_delay
            } else {
                SimDuration::ZERO
            };
        if extra > SimDuration::ZERO {
            self.counters.delayed += 1;
            return Verdict::Delay(extra);
        }
        Verdict::Deliver
    }

    /// Flip one to three payload bytes (never a no-op on a non-empty
    /// payload, so checksums must catch it).
    pub fn corrupt_payload(&mut self, payload: &mut [u8]) {
        self.draw_flips(payload.len(), |i, mask| payload[i] ^= mask);
    }

    /// [`corrupt_payload`](Self::corrupt_payload) over a frame's
    /// Ethernet payload, `header ++ payload`: the same RNG draws flip
    /// the same bytes as on the concatenated buffer. The header is the
    /// frame's own; the shared payload view is copied (copy-on-write)
    /// only when a flip lands in it, so a sender's retained copy of the
    /// data is never touched.
    pub fn corrupt(&mut self, frame: &mut Frame) {
        let Frame {
            header, payload, ..
        } = frame;
        let split = header.len();
        self.draw_flips(split + payload.len(), |i, mask| {
            match i.checked_sub(split) {
                None => header.as_mut_slice()[i] ^= mask,
                Some(j) => payload.make_mut()[j] ^= mask,
            }
        });
    }

    /// Draw one to three flips over `len` bytes and apply each as
    /// `flip(index, mask)`. Nothing is drawn for an empty buffer.
    fn draw_flips(&mut self, len: usize, mut flip: impl FnMut(usize, u8)) {
        if len == 0 {
            return;
        }
        let flips = 1 + self.rng.gen_range(3) as usize;
        for &mask in &FLIP_MASKS[..flips] {
            let i = self.rng.gen_range(len as u64) as usize;
            flip(i, mask);
        }
    }

    /// The buffer capacity cap active at `now`, if any squeeze window
    /// covers it (the tightest wins).
    pub fn capacity_override(&self, now: SimTime) -> Option<DataSize> {
        self.squeezes
            .iter()
            .filter(|&&(a, b, _)| now >= a && now < b)
            .map(|&(_, _, c)| c)
            .min()
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> ImpairCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{EtherType, FrameHeader, MacAddr, PayloadView};

    fn imp() -> Impairment {
        Impairment::new(SimRng::seed_from(7))
    }

    #[test]
    fn idle_impairment_always_delivers() {
        let mut i = imp();
        assert!(!i.is_active());
        for _ in 0..100 {
            assert!(matches!(i.judge(SimTime::ZERO), Verdict::Deliver));
        }
        let c = i.counters();
        assert_eq!(c.lost + c.corrupted + c.delayed + c.outage_drops, 0);
    }

    #[test]
    fn loss_rate_roughly_respected_and_deterministic() {
        let count = |seed: u64| {
            let mut i = Impairment::new(SimRng::seed_from(seed)).with_loss(0.25);
            (0..4000)
                .filter(|_| matches!(i.judge(SimTime::ZERO), Verdict::Drop))
                .count()
        };
        let a = count(42);
        assert_eq!(a, count(42), "same seed, same fate sequence");
        let frac = a as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.05, "loss fraction {frac}");
    }

    #[test]
    fn outage_window_drops_everything_inside() {
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let mut i = imp().with_outage(t(10), t(20));
        assert!(matches!(i.judge(t(5)), Verdict::Deliver));
        assert!(matches!(i.judge(t(10)), Verdict::Drop));
        assert!(matches!(i.judge(t(19)), Verdict::Drop));
        assert!(matches!(i.judge(t(20)), Verdict::Deliver));
        assert_eq!(i.counters().outage_drops, 2);
    }

    #[test]
    fn corruption_always_changes_payload() {
        // 1- and 2-byte payloads make repeated flips of one byte common
        // (certain, for one byte and two or three flips); none may cancel.
        let mut i = imp().with_corruption(1.0);
        for n in [1usize, 2, 100, 1024] {
            let draws = if n <= 2 { 10_000 } else { 100 };
            for draw in 0..draws {
                let orig = vec![0xA0u8; n];
                let mut p = orig.clone();
                assert!(matches!(i.judge(SimTime::ZERO), Verdict::Corrupt));
                i.corrupt_payload(&mut p);
                assert_ne!(p, orig, "payload of {n} bytes unchanged at draw {draw}");
            }
        }
    }

    fn test_frame(header: &[u8], payload: &PayloadView) -> Frame {
        Frame::try_with_header(
            MacAddr::for_node(0, 0),
            MacAddr::for_node(1, 0),
            EtherType::Other(0),
            FrameHeader::new(header),
            payload.clone(),
        )
        .expect("fits the MTU")
    }

    #[test]
    fn frame_corruption_flips_what_payload_corruption_flips() {
        // Same seed, same draws: corrupting `header ++ payload` as a
        // frame flips exactly the bytes corrupt_payload flips on the
        // concatenated buffer, for headers of every codec's size.
        for header_len in [0usize, 16, 40] {
            for data_len in [0usize, 1, 7, 1024, 1460] {
                let header: Vec<u8> = (0..header_len).map(|i| i as u8).collect();
                let data: Vec<u8> = (0..data_len).map(|i| (i * 7) as u8).collect();
                let mut framewise = imp().with_corruption(1.0);
                let mut flat = imp().with_corruption(1.0);
                for draw in 0..200 {
                    let mut f = test_frame(&header, &PayloadView::new(data.clone()));
                    framewise.corrupt(&mut f);
                    let mut whole = [&header[..], &data[..]].concat();
                    flat.corrupt_payload(&mut whole);
                    let got = [&f.header[..], &f.payload[..]].concat();
                    assert_eq!(
                        got, whole,
                        "header {header_len} + data {data_len}, draw {draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupting_a_frame_never_touches_other_views_of_its_data() {
        let data = PayloadView::new((0..1024).map(|i| i as u8).collect());
        let retained = data.subview(0, 1024);
        let mut i = imp().with_corruption(1.0);
        let mut body_copies = 0;
        for _ in 0..500 {
            let mut f = test_frame(&[0x11; 16], &data);
            i.corrupt(&mut f);
            if f.payload.as_slice() != data.as_slice() {
                body_copies += 1;
                assert_eq!(
                    f.payload.ref_count(),
                    1,
                    "a body flip detaches a private copy"
                );
            }
        }
        assert!(
            body_copies > 400,
            "most flips land in the body: {body_copies}"
        );
        assert_eq!(
            retained.as_slice(),
            &(0..1024).map(|i| i as u8).collect::<Vec<u8>>()[..]
        );
        assert_eq!(data, retained);
        assert_eq!(
            data.ref_count(),
            2,
            "frames dropped, only the two views remain"
        );
    }

    #[test]
    fn squeeze_caps_capacity_only_in_window() {
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let i = imp().with_squeeze(t(1), t(2), DataSize::from_kib(4));
        assert_eq!(i.capacity_override(t(0)), None);
        assert_eq!(i.capacity_override(t(1)), Some(DataSize::from_kib(4)));
        assert_eq!(i.capacity_override(t(2)), None);
    }
}
