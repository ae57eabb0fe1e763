//! R8 fixture: an asymmetric two-part codec — `decode` reads header
//! bytes 6..8 that the header encoder never writes.
pub struct Seg {
    pub chan: u16,
    pub seq: u32,
}

impl Seg {
    pub fn try_encode(&self) -> Option<[u8; 8]> {
        let mut out = [0u8; 8];
        out[0..2].copy_from_slice(&self.chan.to_le_bytes());
        out[2..6].copy_from_slice(&self.seq.to_le_bytes());
        Some(out)
    }

    pub fn decode(header: &[u8], body: &[u8]) -> Option<(Seg, u16, usize)> {
        let chan = u16::from_le_bytes(header[0..2].try_into().ok()?);
        let seq = u32::from_le_bytes(header[2..6].try_into().ok()?);
        let flags = u16::from_le_bytes(header[6..8].try_into().ok()?);
        Some((Seg { chan, seq }, flags, body.len()))
    }
}
