//! Disk power states and the legal transitions between them.
//!
//! The paper's power management (§III-C) assumes the classic DPM model
//! [Benini et al.]: a drive is **Active** while servicing a request,
//! **Idle** (platters spinning, heads parked) between requests, and can be
//! sent to **Standby** (spun down) to save energy. Moving between Idle and
//! Standby is not free: the drive passes through timed **SpinningDown** /
//! **SpinningUp** phases that cost energy and — for spin-up — around two
//! seconds of added response time on the paper's drives.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A disk power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// Servicing a request (heads seeking / transferring).
    Active,
    /// Spinning but not servicing; the default resting state.
    Idle,
    /// Spun down; minimal power; must spin up before servicing.
    Standby,
    /// Timed transition from Standby toward Idle/Active.
    SpinningUp,
    /// Timed transition from Idle toward Standby.
    SpinningDown,
}

impl PowerState {
    /// All states, in a fixed order usable for indexing tables.
    pub const ALL: [PowerState; 5] = [
        PowerState::Active,
        PowerState::Idle,
        PowerState::Standby,
        PowerState::SpinningUp,
        PowerState::SpinningDown,
    ];

    /// Dense index of this state into tables sized [`Self::ALL`].
    pub fn index(self) -> usize {
        match self {
            PowerState::Active => 0,
            PowerState::Idle => 1,
            PowerState::Standby => 2,
            PowerState::SpinningUp => 3,
            PowerState::SpinningDown => 4,
        }
    }

    /// Whether a direct move `self -> to` is physically meaningful.
    ///
    /// The model allows: Active<->Idle freely (request boundaries),
    /// Idle->SpinningDown->Standby, Standby->SpinningUp->{Idle,Active}, and
    /// the mid-spin-down reversal SpinningDown->SpinningUp (a request
    /// arriving while the drive is still winding down). Self-loops are not
    /// transitions.
    pub fn can_transition_to(self, to: PowerState) -> bool {
        use PowerState::*;
        matches!(
            (self, to),
            (Active, Idle)
                | (Idle, Active)
                | (Idle, SpinningDown)
                | (SpinningDown, Standby)
                | (SpinningDown, SpinningUp)
                | (Standby, SpinningUp)
                | (SpinningUp, Idle)
                | (SpinningUp, Active)
        )
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PowerState::Active => "active",
            PowerState::Idle => "idle",
            PowerState::Standby => "standby",
            PowerState::SpinningUp => "spinning-up",
            PowerState::SpinningDown => "spinning-down",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PowerState::*;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; 5];
        for s in PowerState::ALL {
            assert!(!seen[s.index()], "duplicate index for {s}");
            seen[s.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn transition_legality() {
        assert!(Idle.can_transition_to(SpinningDown));
        assert!(SpinningDown.can_transition_to(Standby));
        assert!(Standby.can_transition_to(SpinningUp));
        assert!(SpinningUp.can_transition_to(Idle));
        assert!(SpinningUp.can_transition_to(Active));
        assert!(SpinningDown.can_transition_to(SpinningUp));
        assert!(Active.can_transition_to(Idle));
        assert!(Idle.can_transition_to(Active));

        // Illegal jumps.
        assert!(
            !Idle.can_transition_to(Standby),
            "must pass through spin-down"
        );
        assert!(
            !Standby.can_transition_to(Idle),
            "must pass through spin-up"
        );
        assert!(!Standby.can_transition_to(Active));
        assert!(!Active.can_transition_to(Standby));
        assert!(
            !Active.can_transition_to(SpinningDown),
            "finish the request first"
        );
    }

    #[test]
    fn no_self_loops() {
        for s in PowerState::ALL {
            assert!(
                !s.can_transition_to(s),
                "{s} -> {s} must not be a transition"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Active.to_string(), "active");
        assert_eq!(SpinningDown.to_string(), "spinning-down");
    }
}
