//! Simulator-level errors.

use std::fmt;

/// Errors the executor can surface instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A [`WorldBuilder`](crate::world::WorldBuilder) was finalized without
    /// one of its required parts.
    MissingComponent {
        /// Which part: `"sender"`, `"receiver"`, `"channel"` or
        /// `"scheduler"`.
        component: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingComponent { component } => {
                write!(f, "world builder is missing its {component}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_missing_component() {
        let e = SimError::MissingComponent {
            component: "channel",
        };
        assert_eq!(e.to_string(), "world builder is missing its channel");
    }
}
