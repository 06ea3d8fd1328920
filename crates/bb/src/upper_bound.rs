//! The shared incumbent (upper bound).
//!
//! Sequential solvers could keep the upper bound in a local variable, but the
//! multi-core baseline needs a value that many workers can read cheaply and
//! improve atomically, so a single lock-free implementation is shared by
//! everyone.

use fsp::Time;
use std::sync::atomic::{AtomicU32, Ordering};

/// A monotonically decreasing, atomically updated upper bound on the optimal
/// makespan.
#[derive(Debug)]
pub struct SharedUpperBound {
    value: AtomicU32,
}

impl SharedUpperBound {
    /// Creates an upper bound with no incumbent yet (`Time::MAX`).
    pub fn unbounded() -> Self {
        Self {
            value: AtomicU32::new(Time::MAX),
        }
    }

    /// Creates an upper bound seeded with a known feasible cost (e.g. NEH).
    pub fn new(initial: Time) -> Self {
        Self {
            value: AtomicU32::new(initial),
        }
    }

    /// Current upper bound.
    #[inline]
    pub fn get(&self) -> Time {
        self.value.load(Ordering::Acquire)
    }

    /// Attempts to lower the bound to `candidate`. Returns `true` if
    /// `candidate` was strictly better than the value at the time of the
    /// update (i.e. this caller is the one that improved the incumbent).
    pub fn try_improve(&self, candidate: Time) -> bool {
        let mut current = self.value.load(Ordering::Acquire);
        while candidate < current {
            match self.value.compare_exchange_weak(
                current,
                candidate,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
        false
    }

    /// `true` when a node with lower bound `lb` cannot improve on the
    /// incumbent and must be eliminated ("LB ≥ UB ⇒ prune", Figure 1 of the
    /// paper).
    #[inline]
    pub fn prunes(&self, lb: Time) -> bool {
        lb >= self.get()
    }
}

impl Default for SharedUpperBound {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn improve_only_accepts_strictly_better_values() {
        let ub = SharedUpperBound::new(100);
        assert!(!ub.try_improve(100));
        assert!(!ub.try_improve(150));
        assert!(ub.try_improve(90));
        assert_eq!(ub.get(), 90);
        assert!(ub.try_improve(10));
        assert_eq!(ub.get(), 10);
    }

    #[test]
    fn prunes_uses_greater_or_equal() {
        let ub = SharedUpperBound::new(50);
        assert!(ub.prunes(50));
        assert!(ub.prunes(51));
        assert!(!ub.prunes(49));
    }

    #[test]
    fn unbounded_never_prunes_finite_bounds() {
        let ub = SharedUpperBound::unbounded();
        assert!(!ub.prunes(Time::MAX - 1));
        assert!(ub.prunes(Time::MAX));
    }

    #[test]
    fn concurrent_improvements_keep_the_minimum() {
        let ub = Arc::new(SharedUpperBound::new(1_000_000));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let ub = Arc::clone(&ub);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u32 {
                    ub.try_improve(1_000_000 - (i * 8 + t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The global minimum of all candidates must have won.
        assert_eq!(ub.get(), 1_000_000 - (999 * 8 + 7));
    }
}
