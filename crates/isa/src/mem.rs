//! Word-addressed data memory.
//!
//! The architecture (Fig. 1) provides separate instruction and data
//! memories. Instruction memory is simply a `Vec<Word>` owned by the
//! front end; [`DataMemory`] here is the data side, shared between the
//! reference interpreter and the cycle simulator so that both observe
//! identical memory semantics.
//!
//! Cells are 64-bit raw values: integer accesses store register bits,
//! FP accesses store `f64` bit patterns. Addresses are *word* addresses
//! (one address = one 64-bit cell) and are reduced modulo the memory size,
//! which keeps execution total and deterministic even for randomly
//! generated programs — a property the simulator's differential tests
//! rely on.

use serde::{Deserialize, Serialize};

/// Data memory: a fixed-size array of 64-bit cells with wrap-around
/// addressing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataMemory {
    cells: Vec<u64>,
}

impl DataMemory {
    /// Create a zero-filled memory of `words` cells. `words` must be > 0.
    pub fn new(words: usize) -> DataMemory {
        assert!(words > 0, "data memory must have at least one word");
        DataMemory {
            cells: vec![0; words],
        }
    }

    /// Number of 64-bit cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True iff the memory has zero cells (never; kept for API symmetry).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Effective cell index for a (possibly negative / huge) address.
    #[inline]
    pub fn wrap(&self, addr: i64) -> usize {
        (addr.rem_euclid(self.cells.len() as i64)) as usize
    }

    /// Load the raw 64-bit cell at `addr` (word address, wrapped).
    #[inline]
    pub fn load(&self, addr: i64) -> u64 {
        self.cells[self.wrap(addr)]
    }

    /// Store a raw 64-bit value at `addr` (word address, wrapped).
    #[inline]
    pub fn store(&mut self, addr: i64, value: u64) {
        let i = self.wrap(addr);
        self.cells[i] = value;
    }

    /// Load as a signed integer.
    #[inline]
    pub fn load_int(&self, addr: i64) -> i64 {
        self.load(addr) as i64
    }

    /// Store a signed integer.
    #[inline]
    pub fn store_int(&mut self, addr: i64, value: i64) {
        self.store(addr, value as u64);
    }

    /// Load as an `f64` bit pattern.
    #[inline]
    pub fn load_fp(&self, addr: i64) -> f64 {
        f64::from_bits(self.load(addr))
    }

    /// Store an `f64` bit pattern.
    #[inline]
    pub fn store_fp(&mut self, addr: i64, value: f64) {
        self.store(addr, value.to_bits());
    }

    /// Raw view of all cells (for test assertions and checkpointing).
    #[inline]
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// Zero every cell in place, keeping the allocation. Used by batched
    /// runs that reuse one machine's memory across programs.
    pub fn reset(&mut self) {
        self.cells.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_load_store() {
        let mut m = DataMemory::new(16);
        assert_eq!(m.len(), 16);
        m.store_int(3, -42);
        assert_eq!(m.load_int(3), -42);
        m.store_fp(4, 2.5);
        assert_eq!(m.load_fp(4), 2.5);
        // Integer view of an fp cell is the bit pattern.
        assert_eq!(m.load(4), 2.5f64.to_bits());
    }

    #[test]
    fn wrapping_addresses() {
        let mut m = DataMemory::new(8);
        m.store_int(8, 1); // wraps to 0
        assert_eq!(m.load_int(0), 1);
        m.store_int(-1, 2); // wraps to 7
        assert_eq!(m.load_int(7), 2);
        assert_eq!(m.wrap(i64::MIN), (i64::MIN).rem_euclid(8) as usize);
    }

    #[test]
    #[should_panic]
    fn zero_size_rejected() {
        let _ = DataMemory::new(0);
    }
}
