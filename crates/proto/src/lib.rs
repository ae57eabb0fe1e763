//! # acc-proto — protocol models
//!
//! The paper's Section 4.1 argument is that the Gigabit Ethernet
//! cluster's poor scaling "is a characteristic of the TCP/IP protocol and
//! the PC system architecture", not of the wire. This crate implements
//! both protocol families so that claim can be reproduced rather than
//! asserted:
//!
//! * [`tcp`] — a TCP-like reliable byte stream over the simulated
//!   Ethernet: slow start (with idle restart), congestion avoidance,
//!   RTO + fast retransmit, delayed ACKs, a 64 KiB window (no window
//!   scaling — 2001 defaults), 40-byte IP+TCP header overhead, and full
//!   coupling to the host model: interrupt moderation on receive, paced
//!   PCI/DMA crossing on transmit, per-segment CPU costs.
//! * [`inic_wire`] — the INIC's application-specific protocol "built
//!   directly on Ethernet": fixed 1024-byte packets, a 16-byte
//!   checksummed header, sender-known transfer sizes, duplicate-tolerant
//!   stream reassembly, and ACK/NACK control packets for loss recovery
//!   under fault injection.
//! * [`msg`] — [`ProtoMsg`], the TCP stack's events, and
//!   [`ProtoCarrier`], the carrier trait its NIC is generic over.
//!
//! Both codecs carry the same word-at-a-time checksum (`checksum.rs`),
//! and both hand payloads around as shared [`PayloadView`]s: a segment
//! or packet is a sub-view of the buffer it was cut from, so the bytes
//! are copied only into the frame on encode and out of it on
//! reassembly.
//!
//! [`PayloadView`]: acc_net::PayloadView

#![forbid(unsafe_code)]
#![deny(clippy::cast_possible_truncation)]

mod checksum;
pub mod inic_wire;
pub mod msg;
pub mod tcp;

pub use inic_wire::{
    packet_count, packetize, packetize_view, wire_payload_bytes, InicPacket, StreamDemux, StreamRx,
    WireError, INIC_HEADER, INIC_PAYLOAD,
};
pub use msg::{ProtoCarrier, ProtoMsg};
pub use tcp::{HostPathCosts, TcpDelivered, TcpHostNic, TcpParams, TcpSend};
