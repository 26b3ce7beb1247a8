//! The overwrite-oldest ring buffer behind [`RingSink`](crate::RingSink)
//! and [`FlightRecorder`](crate::FlightRecorder).

/// A ring of up to `capacity` entries, allocated once at construction.
/// When full, a push overwrites the oldest entry and counts a drop.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index of the oldest entry once the buffer has wrapped.
    next: usize,
    dropped: u64,
}

impl<T: Copy> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            dropped: 0,
        }
    }

    /// Append `v`, overwriting the oldest entry once the ring is full.
    /// Needs a nonzero capacity.
    #[inline]
    pub(crate) fn push(&mut self, v: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries overwritten because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held entries, oldest first, walked in place.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.next..].iter().chain(&self.buf[..self.next])
    }

    /// The held entries, oldest first, as the ring's own buffer rotated
    /// in place: nothing is copied into a new allocation.
    pub(crate) fn into_vec(mut self) -> Vec<T> {
        self.buf.rotate_left(self.next);
        self.buf
    }

    /// Discard every entry and zero the drop count.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.dropped = 0;
    }
}
