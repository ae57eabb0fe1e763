//! FPGA devices and bitstream configuration.

use acc_sim::{DataSize, SimDuration};

use crate::ops::{OperatorKind, OperatorSpec};

/// A reconfigurable device with finite logic and memory resources.
#[derive(Clone, Copy, Debug)]
pub struct FpgaDevice {
    /// Part name for reports.
    pub part: &'static str,
    /// Configurable logic blocks available.
    pub clb_capacity: u32,
    /// SRAM/DRAM attached to the FPGA (the "INIC memory" of the
    /// datapath figures).
    pub memory: DataSize,
    /// Full-device configuration (bitstream load) time.
    pub config_time: SimDuration,
}

impl FpgaDevice {
    /// The prototype's Xilinx XC4085XLA: 3,136 CLBs, "limited memory
    /// attached to the FPGAs" (we give the ACEII's banked SRAM ~4 MiB),
    /// and a slow serial configuration port.
    pub fn xc4085xla() -> FpgaDevice {
        FpgaDevice {
            part: "XC4085XLA",
            clb_capacity: 3136,
            memory: DataSize::from_mib(4),
            config_time: SimDuration::from_millis(200),
        }
    }

    /// The "next generation" device the Section 4 analysis assumes: a
    /// Virtex-class part dense enough for the full bucket sorter (up to
    /// 1024 receive buckets for the largest evaluated partitions) and
    /// with enough attached memory for whole partitions.
    pub fn virtex_next_gen() -> FpgaDevice {
        FpgaDevice {
            part: "Virtex-NG",
            clb_capacity: 32768,
            memory: DataSize::from_mib(64),
            config_time: SimDuration::from_millis(60),
        }
    }
}

/// A set of operators to be loaded together.
#[derive(Clone, Debug, Default)]
pub struct Bitstream {
    operators: Vec<OperatorSpec>,
}

/// Why a bitstream cannot be configured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// Total CLB demand exceeds the device.
    InsufficientLogic {
        /// CLBs the bitstream needs.
        required: u32,
        /// CLBs the device has.
        available: u32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InsufficientLogic {
                required,
                available,
            } => write!(
                f,
                "bitstream needs {required} CLBs but device has {available}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Bitstream {
    /// Empty bitstream.
    pub fn new() -> Bitstream {
        Bitstream::default()
    }

    /// Add an operator (builder style).
    #[must_use]
    pub fn with(mut self, kind: OperatorKind) -> Bitstream {
        self.operators.push(kind.spec());
        self
    }

    /// Total CLB demand.
    pub fn clbs(&self) -> u32 {
        self.operators.iter().map(|o| o.clbs).sum()
    }

    /// The operators in this bitstream.
    pub fn operators(&self) -> &[OperatorSpec] {
        &self.operators
    }

    /// Whether an operator of this kind is present.
    pub fn has(&self, kind: OperatorKind) -> bool {
        self.operators.iter().any(|o| o.kind == kind)
    }

    /// The slowest operator rate — the datapath's streaming bound.
    pub fn min_rate(&self) -> Option<acc_sim::Bandwidth> {
        self.operators
            .iter()
            .map(|o| o.rate)
            .reduce(acc_sim::Bandwidth::min)
    }

    /// Check this bitstream fits `device`.
    pub fn check(&self, device: &FpgaDevice) -> Result<(), ConfigError> {
        let required = self.clbs();
        if required > device.clb_capacity {
            Err(ConfigError::InsufficientLogic {
                required,
                available: device.clb_capacity,
            })
        } else {
            Ok(())
        }
    }

    /// The paper's FFT datapath (Fig. 2(b)): transpose + interleave +
    /// protocol blocks. Fits both device generations.
    pub fn fft_transpose(m: usize) -> Bitstream {
        Bitstream::new()
            .with(OperatorKind::Fifo)
            .with(OperatorKind::LocalTranspose { m })
            .with(OperatorKind::Packetize)
            .with(OperatorKind::Depacketize)
            .with(OperatorKind::InterleaveBlocks { m })
            .with(OperatorKind::Fifo)
    }

    /// The ideal integer-sort datapath (Fig. 3(b)): bucket sort on both
    /// sides with `k` receive buckets.
    pub fn int_sort(p_buckets: usize, k_recv_buckets: usize) -> Bitstream {
        Bitstream::new()
            .with(OperatorKind::Fifo)
            .with(OperatorKind::BucketSort { k: p_buckets })
            .with(OperatorKind::Packetize)
            .with(OperatorKind::Depacketize)
            .with(OperatorKind::BucketSort { k: k_recv_buckets })
            .with(OperatorKind::Fifo)
    }

    /// The general collective datapath (acc-coll): protocol blocks, a
    /// `p`-way stream router to steer per-destination schedule rounds,
    /// and — only when the schedule folds data on arrival — the
    /// `ReduceSum` accumulator. Sized per invocation so wide fan-outs
    /// and reduction logic are charged against the CLB pool honestly.
    pub fn collective(p_ways: usize, with_reduce: bool) -> Bitstream {
        let bs = Bitstream::new()
            .with(OperatorKind::Fifo)
            .with(OperatorKind::Packetize)
            .with(OperatorKind::StreamRouter {
                ways: p_ways.max(1),
            })
            .with(OperatorKind::Depacketize);
        let bs = if with_reduce {
            bs.with(OperatorKind::ReduceSum)
        } else {
            bs
        };
        bs.with(OperatorKind::Fifo)
    }

    /// The protocol-processor-only datapath.
    pub fn protocol_only() -> Bitstream {
        Bitstream::new()
            .with(OperatorKind::Fifo)
            .with(OperatorKind::Passthrough)
            .with(OperatorKind::Packetize)
            .with(OperatorKind::Depacketize)
            .with(OperatorKind::Fifo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_cannot_hold_full_bucket_sort() {
        // The Section 6 limitation, enforced: 128 receive buckets do not
        // fit the 4085XLA, 16 do.
        let device = FpgaDevice::xc4085xla();
        assert!(Bitstream::int_sort(16, 128).check(&device).is_err());
        assert!(Bitstream::int_sort(16, 16).check(&device).is_ok());
    }

    #[test]
    fn next_gen_holds_full_bucket_sort() {
        let device = FpgaDevice::virtex_next_gen();
        assert!(Bitstream::int_sort(16, 128).check(&device).is_ok());
        assert!(Bitstream::int_sort(16, 256).check(&device).is_ok());
    }

    #[test]
    fn fft_datapath_fits_both_generations() {
        for device in [FpgaDevice::xc4085xla(), FpgaDevice::virtex_next_gen()] {
            for m in [16, 32, 64, 128, 256] {
                assert!(
                    Bitstream::fft_transpose(m).check(&device).is_ok(),
                    "m={m} on {}",
                    device.part
                );
            }
        }
    }

    #[test]
    fn collective_datapath_fits_the_sweep_but_not_wide_fanouts() {
        let proto = FpgaDevice::xc4085xla();
        for p in [1usize, 2, 4, 8, 16] {
            assert!(
                Bitstream::collective(p, true).check(&proto).is_ok(),
                "p={p} must fit the prototype"
            );
        }
        assert!(Bitstream::collective(128, false).check(&proto).is_err());
        assert!(Bitstream::collective(128, true)
            .check(&FpgaDevice::virtex_next_gen())
            .is_ok());
        // The reduce stage is only synthesized when asked for.
        assert!(Bitstream::collective(4, true).has(OperatorKind::ReduceSum));
        assert!(!Bitstream::collective(4, false).has(OperatorKind::ReduceSum));
    }

    #[test]
    fn config_error_reports_numbers() {
        let device = FpgaDevice::xc4085xla();
        let err = Bitstream::int_sort(16, 512).check(&device).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("3136"), "{msg}");
    }

    #[test]
    fn bitstream_introspection() {
        let bs = Bitstream::fft_transpose(64);
        assert!(bs.has(OperatorKind::LocalTranspose { m: 64 }));
        assert!(!bs.has(OperatorKind::BucketSort { k: 16 }));
        assert!(bs.clbs() > 0);
        let min = bs.min_rate().expect("non-empty");
        assert_eq!(min, acc_sim::Bandwidth::from_mib_per_sec(300));
    }
}
