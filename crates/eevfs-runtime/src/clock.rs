//! Virtual time for power accounting.
//!
//! Maps wall-clock time since an epoch onto simulated time at a
//! configurable acceleration, so a 2-second disk spin-up costs 2 *virtual*
//! seconds of spin-up energy but only `2 / scale` wall seconds of test
//! time. A scale of 1.0 runs in real time.

use sim_core::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// A shared, monotone virtual clock.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    epoch: Instant,
    scale: f64,
}

impl VirtualClock {
    /// Starts the clock now. `scale` > 0 is how many virtual seconds pass
    /// per wall second.
    pub fn start(scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "bad clock scale {scale}");
        VirtualClock {
            epoch: Instant::now(),
            scale,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        let wall = self.epoch.elapsed().as_secs_f64();
        SimTime::from_micros((wall * self.scale * 1e6) as u64)
    }

    /// Wall-clock duration corresponding to a virtual duration.
    pub fn to_wall(&self, d: SimDuration) -> Duration {
        Duration::from_secs_f64(d.as_secs_f64() / self.scale)
    }

    /// Sleeps the calling thread for the wall equivalent of a virtual
    /// duration (how the node "pays" a spin-up).
    pub fn sleep_virtual(&self, d: SimDuration) {
        std::thread::sleep(self.to_wall(d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_scaled() {
        let c = VirtualClock::start(1000.0);
        let a = c.now();
        std::thread::sleep(Duration::from_millis(5));
        let b = c.now();
        let virt = (b - a).as_secs_f64();
        // 5 ms wall at 1000x is ~5 virtual seconds; allow generous jitter.
        assert!(virt > 3.0 && virt < 60.0, "virtual elapsed {virt}");
    }

    #[test]
    fn to_wall_inverts_scale() {
        let c = VirtualClock::start(100.0);
        let wall = c.to_wall(SimDuration::from_secs(10));
        assert!((wall.as_secs_f64() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn monotone() {
        let c = VirtualClock::start(50.0);
        let mut last = c.now();
        for _ in 0..100 {
            let t = c.now();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "bad clock scale")]
    fn rejects_zero_scale() {
        let _ = VirtualClock::start(0.0);
    }
}
