//! The cluster's event carrier: every crate's messages in one enum.
//!
//! [`Msg`] is the payload type of every cluster engine. Each variant
//! holds one crate's closed message enum by value, so an event sits
//! inline in the timing wheel's slots and scheduling it allocates
//! nothing; the switch, NIC and card reach their own messages through
//! their crates' carrier traits, the drivers `match` on `Msg` directly.
//! A variant larger than a frame arrival is boxed on purpose
//! (`FpgaMsg::Scatter`, once per transfer step), and a
//! `carrier_fits_a_frame_arrival` test keeps it that way.

use acc_fpga::{FpgaCarrier, FpgaMsg};
use acc_net::{NetCarrier, NetMsg};
use acc_proto::{ProtoCarrier, ProtoMsg};
use acc_sim::{Carrier, Carry};

use crate::drivers::{CardFailed, RecoveryReport, ResumeAt};

/// The scheduling context of a cluster component.
pub(crate) type Ctx<'a> = acc_sim::Ctx<'a, Msg>;

/// The events acc-core's own components exchange.
pub(crate) enum CoreMsg {
    /// Cluster → driver or Auditor at time zero: begin.
    Start,
    /// The Auditor's own periodic tick.
    AuditTick,
    /// Cluster → every driver: a rank's card died.
    CardFailed(CardFailed),
    /// Driver → coordinator: this rank's checkpoint for a round.
    Report(RecoveryReport),
    /// Coordinator → every driver: the round's resume point.
    Resume(ResumeAt),
    /// A driver's compute window closed, tagged with the failover epoch
    /// that armed it.
    ComputeDone(u64),
}

/// The carrier every cluster engine runs on.
pub(crate) enum Msg {
    Net(NetMsg),
    Proto(ProtoMsg),
    Fpga(FpgaMsg),
    Core(CoreMsg),
    /// An event a component parked for re-delivery to itself (a stalled
    /// host, a card in a reconfiguration hold).
    Deferred(Box<Msg>),
}

impl From<NetMsg> for Msg {
    fn from(msg: NetMsg) -> Msg {
        Msg::Net(msg)
    }
}

impl From<ProtoMsg> for Msg {
    fn from(msg: ProtoMsg) -> Msg {
        Msg::Proto(msg)
    }
}

impl From<FpgaMsg> for Msg {
    fn from(msg: FpgaMsg) -> Msg {
        Msg::Fpga(msg)
    }
}

impl From<CoreMsg> for Msg {
    fn from(msg: CoreMsg) -> Msg {
        Msg::Core(msg)
    }
}

impl<P: Into<Msg>> Carry<P> for Msg {
    #[inline]
    fn carry(payload: P) -> Msg {
        payload.into()
    }
}

impl Carrier for Msg {
    fn defer(self) -> Msg {
        Msg::Deferred(Box::new(self))
    }

    fn undefer(self) -> Result<Msg, Msg> {
        match self {
            Msg::Deferred(parked) => Ok(*parked),
            msg => Err(msg),
        }
    }
}

impl NetCarrier for Msg {
    #[inline]
    fn into_net(self) -> Result<NetMsg, Msg> {
        match self {
            Msg::Net(msg) => Ok(msg),
            msg => Err(msg),
        }
    }
}

impl ProtoCarrier for Msg {
    #[inline]
    fn into_proto(self) -> Result<ProtoMsg, Msg> {
        match self {
            Msg::Proto(msg) => Ok(msg),
            msg => Err(msg),
        }
    }
}

impl FpgaCarrier for Msg {
    #[inline]
    fn into_fpga(self) -> Result<FpgaMsg, Msg> {
        match self {
            Msg::Fpga(msg) => Ok(msg),
            msg => Err(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_net::FrameArrival;
    use std::mem::size_of;

    /// Every event occupies one `Msg` in the timing wheel's slots: a
    /// variant that outgrows a frame arrival (the per-hop event) by more
    /// than a word must be boxed on purpose, not grow every slot.
    #[test]
    fn carrier_fits_a_frame_arrival() {
        let limit = size_of::<FrameArrival>() + size_of::<usize>();
        assert!(
            size_of::<Msg>() <= limit,
            "Msg is {} B, over the {limit} B limit (FrameArrival is {} B)",
            size_of::<Msg>(),
            size_of::<FrameArrival>()
        );
    }
}
