//! Shared virtual clock.
//!
//! Every simulated event (kernel execution, collective communication, host
//! data staging, power samples) is ordered on a single virtual timeline
//! measured in `f64` seconds. The clock is shared between a simulated node
//! (which advances it) and whoever reads the node's power registers, so it
//! is internally synchronised with a [`parking_lot::RwLock`] and cheap to
//! clone.

use crate::error::AccelError;
use parking_lot::RwLock;
use std::sync::Arc;

/// A monotonically non-decreasing virtual clock, shareable across threads.
///
/// ```
/// use caraml_accel::VirtualClock;
/// let clock = VirtualClock::new();
/// assert_eq!(clock.now(), 0.0);
/// clock.advance(1.5).unwrap();
/// clock.advance(0.5).unwrap();
/// assert_eq!(clock.now(), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Arc<RwLock<f64>>,
}

impl VirtualClock {
    /// Create a clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        *self.now.read()
    }

    /// Advance the clock by `dt` seconds. Negative or non-finite `dt` is
    /// rejected, keeping the timeline monotonic.
    pub fn advance(&self, dt: f64) -> Result<f64, AccelError> {
        if !dt.is_finite() || dt < 0.0 {
            let now = self.now();
            return Err(AccelError::ClockWentBackwards {
                now,
                requested: now + dt,
            });
        }
        let mut guard = self.now.write();
        *guard += dt;
        Ok(*guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now(), 0.0);
    }

    #[test]
    fn advance_accumulates() {
        let c = VirtualClock::new();
        c.advance(1.0).unwrap();
        c.advance(2.25).unwrap();
        assert!((c.now() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn advance_returns_new_time() {
        let c = VirtualClock::new();
        assert_eq!(c.advance(5.0).unwrap(), 5.0);
        assert_eq!(c.advance(0.0).unwrap(), 5.0);
    }

    #[test]
    fn negative_advance_rejected() {
        let c = VirtualClock::new();
        c.advance(3.0).unwrap();
        let err = c.advance(-1.0).unwrap_err();
        assert!(matches!(err, AccelError::ClockWentBackwards { .. }));
        assert_eq!(c.now(), 3.0);
    }

    #[test]
    fn nan_advance_rejected() {
        let c = VirtualClock::new();
        assert!(c.advance(f64::NAN).is_err());
        assert!(c.advance(f64::INFINITY).is_err());
    }

    #[test]
    fn clones_share_timeline() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(7.0).unwrap();
        assert_eq!(b.now(), 7.0);
    }

    #[test]
    fn concurrent_advances_are_all_applied() {
        let c = VirtualClock::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(0.001).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!((c.now() - 8.0).abs() < 1e-6);
    }
}
