//! CLB-budgeted offload planning: what must be configured onto the
//! card to run a schedule, and whether the device can afford it.
//!
//! sPIN's lesson, applied to the paper's INIC: offload capacity is a
//! *budget*, not a free lunch. Every offloaded collective is expressed
//! as a concrete [`Bitstream`] — protocol operators, a
//! per-destination [`OperatorKind::StreamRouter`](acc_fpga::OperatorKind::StreamRouter) sized to the cluster,
//! and a `ReduceSum` stage only if the schedule actually folds data on
//! the card — and charged against the device's CLB pool through the
//! same [`Bitstream::check`] the FFT and sort bitstreams pass. A
//! schedule that does not fit is rejected here, before any simulated
//! configuration traffic, with a structured [`OffloadError`].

use acc_fpga::{Bitstream, ConfigError, FpgaDevice, InicMode};

use crate::plan::{RecvOp, Schedule};

/// A validated card configuration for one collective invocation.
#[derive(Clone, Debug)]
pub struct OffloadPlan {
    /// The bitstream to configure (already CLB-checked against the
    /// target device).
    pub bitstream: Bitstream,
    /// Whether the schedule folds `Sum` rounds on the card.
    pub needs_reduce: bool,
}

/// Why a schedule cannot be offloaded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OffloadError {
    /// The bitstream's operators need more CLBs than the device has —
    /// the over-capacity rejection the cost model exists to enforce.
    InsufficientLogic {
        /// CLBs the schedule's operator pipeline requires.
        required: u32,
        /// CLBs the target device provides.
        available: u32,
    },
}

impl std::fmt::Display for OffloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OffloadError::InsufficientLogic {
                required,
                available,
            } => write!(
                f,
                "collective schedule needs {required} CLBs but the device has {available}"
            ),
        }
    }
}

impl std::error::Error for OffloadError {}

/// Does any round of the schedule fold data on arrival?
pub fn needs_reduce(schedule: &Schedule) -> bool {
    schedule
        .rounds
        .iter()
        .any(|r| r.recvs.iter().any(|recv| recv.op == RecvOp::Sum))
}

/// Plan the card configuration for running `schedule` on a `p`-node
/// cluster in the given INIC mode, charging it against `device`.
///
/// # Errors
/// [`OffloadError::InsufficientLogic`] when the operator pipeline
/// exceeds the device's CLB pool.
pub fn plan(
    schedule: &Schedule,
    p: usize,
    mode: InicMode,
    device: &FpgaDevice,
) -> Result<OffloadPlan, OffloadError> {
    let (bitstream, reduce) = match mode {
        // Protocol processing only: the host performs every data
        // manipulation, the card just strips the protocol tax.
        InicMode::ProtocolProcessor => (Bitstream::protocol_only(), false),
        InicMode::ComputeAccelerator | InicMode::Combined => {
            let reduce = needs_reduce(schedule);
            (Bitstream::collective(p, reduce), reduce)
        }
    };
    match bitstream.check(device) {
        Ok(()) => Ok(OffloadPlan {
            bitstream,
            needs_reduce: reduce,
        }),
        Err(ConfigError::InsufficientLogic {
            required,
            available,
        }) => Err(OffloadError::InsufficientLogic {
            required,
            available,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, Algorithm, CollectiveOp};
    use acc_fpga::OperatorKind;

    #[test]
    fn reduce_stage_tracks_the_schedule() {
        let sum = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, 4, 64);
        let copy = build(CollectiveOp::AllGather, Algorithm::Ring, 0, 4, 64);
        assert!(needs_reduce(&sum));
        assert!(!needs_reduce(&copy));
        let device = FpgaDevice::virtex_next_gen();
        let with = plan(&sum, 4, InicMode::Combined, &device).expect("fits");
        let without = plan(&copy, 4, InicMode::Combined, &device).expect("fits");
        assert!(with.needs_reduce && !without.needs_reduce);
        assert!(
            with.bitstream.clbs() > without.bitstream.clbs(),
            "the ReduceSum stage must cost CLBs"
        );
    }

    #[test]
    fn prototype_device_fits_the_full_sweep() {
        let device = FpgaDevice::xc4085xla();
        for p in [1usize, 2, 4, 8, 16] {
            let s = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, p, 64 * p);
            let plan = plan(&s, p, InicMode::Combined, &device)
                .unwrap_or_else(|e| panic!("p={p} should fit the prototype card: {e}"));
            assert!(plan.bitstream.has(OperatorKind::StreamRouter { ways: p }));
        }
    }

    #[test]
    fn over_capacity_schedules_are_rejected_structurally() {
        // A 128-way router alone outgrows the XC4085XLA's 3136 CLBs.
        let p = 128;
        let s = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, p, p);
        let err = plan(&s, p, InicMode::Combined, &FpgaDevice::xc4085xla())
            .expect_err("a 128-way collective cannot fit the prototype card");
        let OffloadError::InsufficientLogic {
            required,
            available,
        } = err;
        assert!(required > available, "{err}");
        // The same schedule fits the next-generation device.
        plan(&s, p, InicMode::Combined, &FpgaDevice::virtex_next_gen())
            .expect("the Virtex-class device absorbs the 128-way router");
    }

    #[test]
    fn protocol_only_mode_never_needs_the_router() {
        let s = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, 16, 64);
        let plan = plan(
            &s,
            16,
            InicMode::ProtocolProcessor,
            &FpgaDevice::xc4085xla(),
        )
        .expect("protocol-only always fits");
        assert!(!plan
            .bitstream
            .operators()
            .iter()
            .any(|o| matches!(o.kind, OperatorKind::StreamRouter { .. })));
        assert!(!plan.needs_reduce);
    }
}
