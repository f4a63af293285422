//! Shared helpers for the compact little-endian wire encodings used by
//! [`RankReport`](crate::RankReport) and [`RankTrace`](crate::RankTrace):
//! length-prefixed strings and a bounds-checked read cursor producing
//! contextful errors instead of panics.

/// Append a `u16`-length-prefixed UTF-8 string.
pub(crate) fn encode_str(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    assert!(b.len() <= u16::MAX as usize, "wire key too long");
    out.extend_from_slice(&(b.len() as u16).to_le_bytes());
    out.extend_from_slice(b);
}

/// Bounds-checked reader over an encoded buffer.
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
    /// Label used in error messages ("rank report", "rank trace", …).
    pub(crate) what: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Cursor<'a> {
        Cursor { buf, pos: 0, what }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "{} truncated at byte {} (wanted {n} more)",
                self.what, self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn string(&mut self) -> Result<String, String> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| format!("{} key is not UTF-8", self.what))
    }

    /// How many of `n` records, each at least `min_bytes` long, the
    /// unread bytes could hold: the most a decoder may reserve for a
    /// count it read from the input.
    pub(crate) fn capacity(&self, n: usize, min_bytes: usize) -> usize {
        n.min((self.buf.len() - self.pos) / min_bytes)
    }

    /// Error unless the whole buffer was consumed.
    pub(crate) fn expect_end(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} has {} trailing byte(s)",
                self.what,
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}
