//! Shareable virtual clock handles.
//!
//! A [`Clock`] is a cheaply clonable handle to a single virtual timeline.
//! The disaggregated OS, the TELEPORT kernel, and the application layers all
//! hold clones of the same clock so that every charged cost lands on one
//! timeline. Multi-threaded experiments give each logical thread its own
//! clock ("lane") and combine them with the [`crate::event`] engine.

use std::cell::Cell;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// A handle to a virtual timeline. Cloning shares the underlying clock.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: Rc<Cell<u64>>,
}

impl Clock {
    /// A fresh clock at `SimTime::ZERO`.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.now.get())
    }

    /// Advance the clock by `d`.
    #[inline]
    pub fn advance(&self, d: SimDuration) {
        self.now.set(self.now.get() + d.0);
    }

    /// Reset to zero. Only used by test and benchmark setup.
    pub fn reset(&self) {
        self.now.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_a_timeline() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(SimDuration::from_nanos(10));
        b.advance(SimDuration::from_nanos(5));
        assert_eq!(a.now().as_nanos(), 15);
        assert_eq!(b.now().as_nanos(), 15);
        assert_eq!(Clock::new().now().as_nanos(), 0, "a new clock is its own");
    }

    #[test]
    fn reset_returns_to_zero() {
        let c = Clock::new();
        c.advance(SimDuration::from_secs(1));
        c.reset();
        assert_eq!(c.now(), SimTime::ZERO);
    }
}
