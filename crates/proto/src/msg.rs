//! The TCP stack's messages and its carrier trait.

use acc_net::NetCarrier;

use crate::tcp::{NicEvent, TcpDelivered, TcpSend};

/// Every event between a TCP NIC, its application and itself.
pub enum ProtoMsg {
    /// An application hands the NIC a message to send.
    Send(TcpSend),
    /// The NIC hands its application in-order bytes.
    Delivered(TcpDelivered),
    /// The NIC's own timer, pacing and interrupt-service events.
    Nic(NicEvent),
}

/// A carrier of [`ProtoMsg`] and of the fabric's messages: what the TCP
/// NIC is generic over.
pub trait ProtoCarrier: NetCarrier + From<ProtoMsg> {
    /// The protocol message this event holds, or `Err(self)` for another
    /// crate's message.
    fn into_proto(self) -> Result<ProtoMsg, Self>;
}

acc_sim::legacy_carrier!(ProtoCarrier::into_proto for ProtoMsg {
    inline {
        Send(TcpSend),
        Delivered(TcpDelivered),
        Nic(NicEvent),
    }
    boxed {}
});
