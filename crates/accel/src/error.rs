//! Error type shared by all simulator components.

use std::fmt;

/// Errors produced by the accelerator simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum AccelError {
    /// A configuration needs more memory than one device has: the
    /// benchmarks' capacity checks raise it before anything runs.
    ///
    /// This is the error that paints the `OOM` cells of Figure 4 in the
    /// paper: a global batch size too large for the device memory.
    OutOfMemory {
        /// Device name (e.g. `"NVIDIA A100 (SXM4)"`).
        device: String,
        /// Bytes the configuration needs on the device.
        requested: u64,
        /// Bytes available to it.
        available: u64,
        /// Total capacity of the device memory.
        capacity: u64,
    },
    /// A benchmark or layout configuration is not executable
    /// (e.g. batch size not divisible by data-parallel width).
    InvalidConfig(String),
    /// The virtual clock was asked to move backwards.
    ClockWentBackwards {
        /// Current virtual time in seconds.
        now: f64,
        /// Requested (earlier) time in seconds.
        requested: f64,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::OutOfMemory {
                device,
                requested,
                available,
                capacity,
            } => write!(
                f,
                "out of memory on {device}: requested {requested} B, \
                 available {available} B of {capacity} B"
            ),
            AccelError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            AccelError::ClockWentBackwards { now, requested } => write!(
                f,
                "virtual clock cannot move backwards (now {now} s, requested {requested} s)"
            ),
        }
    }
}

impl std::error::Error for AccelError {}

impl AccelError {
    /// True if this error represents device memory exhaustion.
    pub fn is_oom(&self) -> bool {
        matches!(self, AccelError::OutOfMemory { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_oom_mentions_device_and_sizes() {
        let e = AccelError::OutOfMemory {
            device: "A100".into(),
            requested: 10,
            available: 5,
            capacity: 40,
        };
        let s = e.to_string();
        assert!(s.contains("A100"));
        assert!(s.contains("10"));
        assert!(s.contains("40"));
    }

    #[test]
    fn is_oom_discriminates() {
        let oom = AccelError::OutOfMemory {
            device: "x".into(),
            requested: 1,
            available: 0,
            capacity: 0,
        };
        assert!(oom.is_oom());
        assert!(!AccelError::InvalidConfig("x".into()).is_oom());
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(AccelError::InvalidConfig("bad".into()));
        assert!(e.to_string().contains("bad"));
    }
}
