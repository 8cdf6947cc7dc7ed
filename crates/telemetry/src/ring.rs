//! A bounded, generic most-recent-entries ring buffer: the holder of an
//! execution trace (`pacstack_aarch64::trace`). Any `Display`-able entry
//! type renders as "... N earlier instructions elided ..." plus the tail.

use std::fmt;

/// A bounded buffer keeping the most recent `capacity` entries.
///
/// # Examples
///
/// ```
/// use pacstack_telemetry::Ring;
///
/// let mut ring: Ring<u64> = Ring::new(2);
/// for i in 0..4 {
///     ring.record(i);
/// }
/// assert_eq!(ring.entries(), &[2, 3]);
/// assert_eq!(ring.dropped(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ring<T> {
    entries: Vec<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records one entry, evicting the oldest if full.
    pub fn record(&mut self, entry: T) {
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
            self.dropped += 1;
        }
        self.entries.push(entry);
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    /// How many entries were evicted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<T: fmt::Display> fmt::Display for Ring<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dropped > 0 {
            writeln!(f, "... {} earlier instructions elided ...", self.dropped)?;
        }
        for entry in &self.entries {
            writeln!(f, "{entry}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_and_counts_drops() {
        let mut ring: Ring<u32> = Ring::new(3);
        for i in 0..10 {
            ring.record(i);
        }
        assert_eq!(ring.dropped(), 7);
        assert_eq!(ring.entries(), &[7, 8, 9]);
    }

    #[test]
    fn display_elides_dropped_entries() {
        let mut ring: Ring<u32> = Ring::new(1);
        ring.record(1);
        ring.record(2);
        let text = ring.to_string();
        assert!(
            text.contains("... 1 earlier instructions elided ..."),
            "{text}"
        );
        assert!(text.contains('2'), "{text}");
    }
}
