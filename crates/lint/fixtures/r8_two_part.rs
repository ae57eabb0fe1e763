//! R8 fixture: a two-part codec — the encoder returns only the header,
//! and `decode` takes the header and the body after it. Every header
//! byte written is read back from the header parameter.
pub struct Seg {
    pub chan: u16,
    pub seq: u32,
}

impl Seg {
    pub fn encode(&self, data: &[u8]) -> [u8; 10] {
        let mut out = [0u8; 10];
        out[0..2].copy_from_slice(&self.chan.to_le_bytes());
        out[2..6].copy_from_slice(&self.seq.to_le_bytes());
        out[6..10].copy_from_slice(&sum(&out[0..6], data).to_le_bytes());
        out
    }

    pub fn decode(header: &[u8], body: &[u8]) -> Option<Seg> {
        let want = u32::from_le_bytes(header[6..10].try_into().ok()?);
        if sum(&header[0..6], body) != want {
            return None;
        }
        let chan = u16::from_le_bytes(header[0..2].try_into().ok()?);
        let seq = u32::from_le_bytes(header[2..6].try_into().ok()?);
        Some(Seg { chan, seq })
    }
}
