//! The fabric's messages and its carrier trait.

use acc_sim::Carrier;

use crate::port::{FrameArrival, PortTxDone};
use crate::switch::{RouteUpdate, SwitchForward, SwitchKill};

/// Every event a port, switch or attached endpoint exchanges on the
/// fabric.
pub enum NetMsg {
    /// A frame's last bit reached its receiver.
    Arrival(FrameArrival),
    /// An egress port finished serializing; its owner starts the next
    /// frame.
    TxDone(PortTxDone),
    /// A switch's own forwarding-pipeline completion.
    Forward(SwitchForward),
    /// A switch's next-hop table changes at a routing epoch boundary.
    Routes(RouteUpdate),
    /// A switch dies.
    Kill(SwitchKill),
}

/// A carrier of [`NetMsg`]: what every fabric component is generic
/// over.
pub trait NetCarrier: Carrier + From<NetMsg> {
    /// The fabric message this event holds, or `Err(self)` for another
    /// crate's message.
    fn into_net(self) -> Result<NetMsg, Self>;
}

acc_sim::legacy_carrier!(NetCarrier::into_net for NetMsg {
    inline {
        Arrival(FrameArrival),
        TxDone(PortTxDone),
        Forward(SwitchForward),
        Routes(RouteUpdate),
        Kill(SwitchKill),
    }
    boxed {}
});
