//! The host models' messages and their carrier trait.

use acc_sim::Carrier;

use crate::bus::{BurstDone, BusDone, BusRequest};

/// Every event the host models exchange.
pub enum HostMsg {
    /// A requester asks a bus to move bytes.
    Request(BusRequest),
    /// A bus tells a requester its transfer crossed.
    Done(BusDone),
    /// A bus's own burst completion.
    Burst(BurstDone),
}

/// A carrier of [`HostMsg`]: what the host components are generic over.
pub trait HostCarrier: Carrier + From<HostMsg> {
    /// The host message this event holds, or `Err(self)` for another
    /// crate's message.
    fn into_host(self) -> Result<HostMsg, Self>;
}

acc_sim::legacy_carrier!(HostCarrier::into_host for HostMsg {
    inline {
        Request(BusRequest),
        Done(BusDone),
        Burst(BurstDone),
    }
    boxed {}
});
