//! R7 fixture: appending payload bytes into a growing buffer is a deep
//! copy too.
pub struct Reassembly {
    buf: Vec<u8>,
}

impl Reassembly {
    pub fn append(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }
}
