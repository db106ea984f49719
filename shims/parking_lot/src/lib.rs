//! A minimal, offline stand-in for `parking_lot`, backed by
//! `std::sync::Mutex`. Matches the upstream ergonomics this workspace
//! relies on: `lock()` returns the guard directly (poisoning is ignored —
//! upstream parking_lot has no poisoning either).

#![forbid(unsafe_code)]

use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError};

/// A mutual-exclusion lock whose `lock` never returns a `Result`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = StdMutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wraps `value` in a new mutex.
    pub fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. A panic while a prior
    /// guard was held does not poison the lock (parking_lot semantics).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns a mutable reference to the data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trips() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn survives_panicking_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: still lockable afterwards.
        assert_eq!(*m.lock(), 0);
    }
}
