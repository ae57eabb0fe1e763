//! The card's messages and its carrier trait.

use acc_net::NetCarrier;

use crate::card::{
    CardEvent, InicConfigure, InicConfigured, InicExpect, InicGatherComplete, InicKill,
    InicReconfigure, InicRecover, InicScatter, InicScatterDone,
};

/// Every event between an INIC card, its driver, the fault injector and
/// the card itself.
pub enum FpgaMsg {
    /// Driver → card: load a bitstream.
    Configure(InicConfigure),
    /// Card → driver: the bitstream loaded (or was rejected).
    Configured(InicConfigured),
    /// Driver → card: stream a partition out. Boxed: the one variant
    /// that would widen every carrier slot, sent once per transfer step.
    Scatter(Box<InicScatter>),
    /// Driver → card: announce a gather.
    Expect(InicExpect),
    /// Card → driver: a scatter left the card.
    ScatterDone(InicScatterDone),
    /// Card → driver: a gather is in host memory.
    GatherComplete(InicGatherComplete),
    /// Fault injection → card: the card dies.
    Kill(InicKill),
    /// Fault injection → card: a reconfiguration hold.
    Reconfigure(InicReconfigure),
    /// Driver → card: purge a dead peer.
    Recover(InicRecover),
    /// The card's own datapath, timer and DMA events.
    Card(CardEvent),
}

/// A carrier of [`FpgaMsg`] and of the fabric's messages: what the card
/// is generic over.
pub trait FpgaCarrier: NetCarrier + From<FpgaMsg> {
    /// The card message this event holds, or `Err(self)` for another
    /// crate's message.
    fn into_fpga(self) -> Result<FpgaMsg, Self>;
}

acc_sim::legacy_carrier!(FpgaCarrier::into_fpga for FpgaMsg {
    inline {
        Configure(InicConfigure),
        Configured(InicConfigured),
        Expect(InicExpect),
        ScatterDone(InicScatterDone),
        GatherComplete(InicGatherComplete),
        Kill(InicKill),
        Reconfigure(InicReconfigure),
        Recover(InicRecover),
        Card(CardEvent),
    }
    boxed { Scatter(InicScatter) }
});
