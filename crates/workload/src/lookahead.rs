//! Idle-window extraction from predicted access patterns.
//!
//! The storage node "uses the file access pattern to predict periods when
//! each of its data disks will be idle for long periods of time" (§III-C).
//! Given the times at which a disk is predicted to be touched, the windows
//! between touches that exceed the disk idle threshold are standby
//! candidates. This module is the pure look-ahead arithmetic; the policy
//! that decides which windows to act on lives in the `eevfs` crate.

use sim_core::{SimDuration, SimTime};

/// A half-open idle window `[start, end)` in predicted time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleWindow {
    /// Window start (the predicted completion of the previous touch).
    pub start: SimTime,
    /// Window end (the predicted arrival of the next touch, or the
    /// horizon for the trailing window).
    pub end: SimTime,
}

impl IdleWindow {
    /// Window length.
    pub fn len(&self) -> SimDuration {
        self.end - self.start
    }

    /// True for degenerate (empty) windows.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Extracts all idle windows of at least `min_len` from a disk's predicted
/// touch times.
///
/// `touches` must be sorted ascending (the caller derives them from a
/// time-ordered trace). The window before the first touch (starting at
/// `from`) and the window after the last touch (ending at `horizon`) are
/// included — the leading window is how EEVFS "sleeps the disks at the
/// beginning of the trace execution" when prefetching absorbs everything.
pub fn idle_windows(
    touches: &[SimTime],
    from: SimTime,
    horizon: SimTime,
    min_len: SimDuration,
) -> Vec<IdleWindow> {
    debug_assert!(
        touches.windows(2).all(|w| w[0] <= w[1]),
        "touch times must be sorted"
    );
    let mut out = Vec::new();
    let mut cursor = from;
    for &t in touches {
        if t > cursor {
            let w = IdleWindow {
                start: cursor,
                end: t,
            };
            if w.len() >= min_len {
                out.push(w);
            }
        }
        cursor = cursor.max(t);
    }
    if horizon > cursor {
        let w = IdleWindow {
            start: cursor,
            end: horizon,
        };
        if w.len() >= min_len {
            out.push(w);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn finds_interior_windows() {
        let touches = [secs(10), secs(12), secs(30)];
        let ws = idle_windows(&touches, SimTime::ZERO, secs(40), SimDuration::from_secs(5));
        assert_eq!(
            ws,
            vec![
                IdleWindow {
                    start: SimTime::ZERO,
                    end: secs(10)
                },
                IdleWindow {
                    start: secs(12),
                    end: secs(30)
                },
                IdleWindow {
                    start: secs(30),
                    end: secs(40)
                },
            ]
        );
    }

    #[test]
    fn threshold_filters_short_gaps() {
        let touches = [secs(10), secs(12), secs(30)];
        let ws = idle_windows(
            &touches,
            SimTime::ZERO,
            secs(40),
            SimDuration::from_secs(11),
        );
        // Only the 18 s interior gap survives.
        assert_eq!(
            ws,
            vec![IdleWindow {
                start: secs(12),
                end: secs(30)
            }]
        );
    }

    #[test]
    fn no_touches_is_one_big_window() {
        let ws = idle_windows(&[], SimTime::ZERO, secs(100), SimDuration::from_secs(5));
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].len(), SimDuration::from_secs(100));
    }

    #[test]
    fn touches_at_bounds_produce_no_empty_windows() {
        let touches = [SimTime::ZERO, secs(100)];
        let ws = idle_windows(&touches, SimTime::ZERO, secs(100), SimDuration::ZERO);
        assert_eq!(
            ws,
            vec![IdleWindow {
                start: SimTime::ZERO,
                end: secs(100)
            }]
        );
        assert!(ws.iter().all(|w| !w.is_empty()));
    }

    #[test]
    fn duplicate_touches_are_tolerated() {
        let touches = [secs(5), secs(5), secs(5), secs(20)];
        let ws = idle_windows(&touches, SimTime::ZERO, secs(20), SimDuration::from_secs(1));
        assert_eq!(
            ws,
            vec![
                IdleWindow {
                    start: SimTime::ZERO,
                    end: secs(5)
                },
                IdleWindow {
                    start: secs(5),
                    end: secs(20)
                },
            ]
        );
    }

    #[test]
    fn from_after_first_touches_skips_them() {
        let touches = [secs(1), secs(2), secs(50)];
        let ws = idle_windows(&touches, secs(10), secs(60), SimDuration::from_secs(5));
        // Touches before `from` leave cursor at max(from, touch).
        assert_eq!(
            ws,
            vec![
                IdleWindow {
                    start: secs(10),
                    end: secs(50)
                },
                IdleWindow {
                    start: secs(50),
                    end: secs(60)
                },
            ]
        );
    }

    #[test]
    fn zero_horizon_empty() {
        let ws = idle_windows(&[], SimTime::ZERO, SimTime::ZERO, SimDuration::ZERO);
        assert!(ws.is_empty());
    }
}
