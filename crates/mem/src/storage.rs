//! Functional word-addressed backing store.

use crate::{Addr, Value};

/// A flat, word-addressed store of `i64` values.
///
/// Reads outside the configured capacity panic: an out-of-range address
/// is always a workload-construction bug and silently returning zero
/// would hide it.
///
/// # Examples
///
/// ```
/// use ts_mem::Storage;
///
/// let mut s = Storage::new(16);
/// s.write(3, -7);
/// assert_eq!(s.read(3), -7);
/// assert_eq!(s.read(4), 0); // untouched words read as zero
/// ```
#[derive(Debug, Clone)]
pub struct Storage {
    words: Vec<Value>,
}

/// Read-modify-write modes supported by the memory system's update units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteMode {
    /// Plain store.
    Overwrite,
    /// `mem[a] = min(mem[a], v)` — used by relaxation kernels (SSSP).
    Min,
    /// `mem[a] = mem[a] + v` (wrapping) — used by histogram/update kernels.
    Add,
}

impl Storage {
    /// Creates a zero-initialized store of `words` words.
    pub fn new(words: usize) -> Self {
        Storage {
            words: vec![0; words],
        }
    }

    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn read(&self, addr: Addr) -> Value {
        self.words[self.check(addr)]
    }

    /// Writes one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Value) {
        let i = self.check(addr);
        self.words[i] = value;
    }

    /// Applies a read-modify-write.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn update(&mut self, addr: Addr, value: Value, mode: WriteMode) {
        let i = self.check(addr);
        self.words[i] = match mode {
            WriteMode::Overwrite => value,
            WriteMode::Min => self.words[i].min(value),
            WriteMode::Add => self.words[i].wrapping_add(value),
        };
    }

    /// Copies a slice into memory starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit.
    pub fn load(&mut self, base: Addr, data: &[Value]) {
        let start = self.check_span(base, data.len());
        self.words[start..start + data.len()].copy_from_slice(data);
    }

    /// Reads `len` consecutive words starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit.
    pub fn read_range(&self, base: Addr, len: usize) -> &[Value] {
        let start = self.check_span(base, len);
        &self.words[start..start + len]
    }

    #[inline]
    fn check(&self, addr: Addr) -> usize {
        let i = addr as usize;
        assert!(
            i < self.words.len(),
            "address {addr} out of range (capacity {})",
            self.words.len()
        );
        i
    }

    fn check_span(&self, base: Addr, len: usize) -> usize {
        let start = base as usize;
        assert!(
            start
                .checked_add(len)
                .is_some_and(|end| end <= self.words.len()),
            "range {base}+{len} out of range (capacity {})",
            self.words.len()
        );
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut s = Storage::new(8);
        s.write(0, 1);
        s.write(7, -1);
        assert_eq!(s.read(0), 1);
        assert_eq!(s.read(7), -1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        Storage::new(4).read(4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_load_panics() {
        Storage::new(4).load(2, &[1, 2, 3]);
    }

    #[test]
    fn update_modes() {
        let mut s = Storage::new(4);
        s.write(0, 10);
        s.update(0, 3, WriteMode::Min);
        assert_eq!(s.read(0), 3);
        s.update(0, 100, WriteMode::Min);
        assert_eq!(s.read(0), 3);
        s.update(0, 5, WriteMode::Add);
        assert_eq!(s.read(0), 8);
        s.update(0, 2, WriteMode::Overwrite);
        assert_eq!(s.read(0), 2);
    }

    #[test]
    fn load_and_read_range() {
        let mut s = Storage::new(10);
        s.load(4, &[5, 6, 7]);
        assert_eq!(s.read_range(4, 3), &[5, 6, 7]);
        assert_eq!(s.read(3), 0);
    }
}
