//! A bounded ring buffer.
//!
//! [`RingBuffer`] is deliberately *not* thread-safe: in the Aspect
//! Moderator architecture the functional component is a **sequential**
//! object and all synchronization lives in aspects.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Error returned when pushing into a full [`RingBuffer`]; hands the
/// rejected element back to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingFullError<T>(pub T);

impl<T> fmt::Display for RingFullError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ring buffer is full")
    }
}

impl<T: fmt::Debug> Error for RingFullError<T> {}

/// A fixed-capacity FIFO buffer with no internal synchronization.
///
/// This is the shape of the paper's `TicketServer` storage: a bounded
/// buffer whose producer/consumer constraints are enforced *outside* the
/// data structure (by synchronization aspects).
///
/// ```
/// use amf_concurrency::RingBuffer;
///
/// let mut rb = RingBuffer::with_capacity(2);
/// rb.push_back(1).unwrap();
/// rb.push_back(2).unwrap();
/// assert!(rb.push_back(3).is_err());
/// assert_eq!(rb.pop_front(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> RingBuffer<T> {
    /// Creates an empty buffer holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Appends an element at the back.
    ///
    /// # Errors
    ///
    /// Returns [`RingFullError`] carrying `value` back if the buffer is
    /// full.
    pub fn push_back(&mut self, value: T) -> Result<(), RingFullError<T>> {
        if self.is_full() {
            Err(RingFullError(value))
        } else {
            self.items.push_back(value);
            Ok(())
        }
    }

    /// Removes the front element, or `None` if empty.
    pub fn pop_front(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the front element.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Iterates front to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fifo_order() {
        let mut rb = RingBuffer::with_capacity(3);
        rb.push_back(1).unwrap();
        rb.push_back(2).unwrap();
        rb.push_back(3).unwrap();
        assert_eq!(rb.pop_front(), Some(1));
        assert_eq!(rb.pop_front(), Some(2));
        rb.push_back(4).unwrap();
        assert_eq!(rb.pop_front(), Some(3));
        assert_eq!(rb.pop_front(), Some(4));
        assert_eq!(rb.pop_front(), None);
    }

    #[test]
    fn ring_full_returns_value() {
        let mut rb = RingBuffer::with_capacity(1);
        rb.push_back("a").unwrap();
        let err = rb.push_back("b").unwrap_err();
        assert_eq!(err.0, "b");
        assert_eq!(err.to_string(), "ring buffer is full");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ring_rejects_zero_capacity() {
        let _ = RingBuffer::<u8>::with_capacity(0);
    }

    #[test]
    fn ring_len_tracks() {
        let mut rb = RingBuffer::with_capacity(2);
        assert!(rb.is_empty());
        rb.push_back(()).unwrap();
        assert_eq!(rb.len(), 1);
        assert!(!rb.is_full());
        rb.push_back(()).unwrap();
        assert!(rb.is_full());
        rb.clear();
        assert!(rb.is_empty());
    }
}
