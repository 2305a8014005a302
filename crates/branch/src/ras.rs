//! Return-address stack.

#![forbid(unsafe_code)]

/// A bounded return-address stack with wrap-around overwrite, as used by
/// real front-ends to predict return targets.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: Vec<u64>,
    top: usize,
    depth: usize,
    capacity: usize,
}

impl ReturnAddressStack {
    /// Create a stack holding up to `capacity` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ReturnAddressStack {
        assert!(capacity > 0, "capacity must be nonzero");
        ReturnAddressStack {
            entries: vec![0; capacity],
            top: 0,
            depth: 0,
            capacity,
        }
    }

    /// Push a return address (on a call). Overflow silently overwrites the
    /// oldest entry, as in hardware.
    pub fn push(&mut self, ret_addr: u64) {
        // Ring-buffer wrap without a division; any capacity is legal.
        self.top = if self.top + 1 == self.capacity {
            0
        } else {
            self.top + 1
        };
        self.entries[self.top] = ret_addr;
        self.depth = (self.depth + 1).min(self.capacity);
    }

    /// Pop the predicted return target (on a return). Returns `None` when
    /// the stack has underflowed.
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let v = self.entries[self.top];
        self.top = if self.top == 0 {
            self.capacity - 1
        } else {
            self.top - 1
        };
        self.depth -= 1;
        Some(v)
    }

    /// Current number of valid entries.
    pub fn len(&self) -> usize {
        self.depth
    }

    /// Whether the stack holds no valid entries.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// Empty the stack back to its freshly-constructed state, reusing
    /// the ring-buffer allocation.
    pub fn reset(&mut self) {
        self.entries.fill(0);
        self.top = 0;
        self.depth = 0;
    }
}

impl Default for ReturnAddressStack {
    /// 32-entry stack, a common hardware depth.
    fn default() -> ReturnAddressStack {
        ReturnAddressStack::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(0x1);
        ras.push(0x2);
        ras.push(0x3); // overwrites 0x1's slot
        assert_eq!(ras.len(), 2);
        assert_eq!(ras.pop(), Some(0x3));
        assert_eq!(ras.pop(), Some(0x2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn empty_and_len() {
        let mut ras = ReturnAddressStack::default();
        assert!(ras.is_empty());
        ras.push(0x42);
        assert!(!ras.is_empty());
        assert_eq!(ras.len(), 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = ReturnAddressStack::new(0);
    }
}
