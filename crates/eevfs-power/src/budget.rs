//! Per-disk spin-cycle budgets.
//!
//! Every spin-down/up pair wears the drive: datasheet MTTF figures assume
//! a bounded number of start/stop cycles (≈50 000 for the paper's
//! ATA-133 class drives). An aggressive predictor could burn through that
//! allowance in weeks, converting energy savings into early drive
//! mortality. [`SpinBudget`] caps the cycles a single run may spend; the
//! policy plane charges it before every sleep and counts refusals.

/// Datasheet start/stop-cycle rating assumed for the modelled drives.
pub const RATED_CYCLES: u64 = 50_000;

/// An MTTF-style per-run spin-cycle cap: the share of the drive's rated
/// start/stop cycles a run of `duration_s` may consume if the drive is to
/// survive `service_years` of continuous operation at this rate.
///
/// Returns at least 1 so short runs can still demonstrate sleeping.
pub fn mttf_cycle_cap(duration_s: f64, service_years: f64) -> u32 {
    let service_s = service_years * 365.25 * 86_400.0;
    if duration_s <= 0.0 || service_s <= 0.0 {
        return 1;
    }
    let share = RATED_CYCLES as f64 * (duration_s / service_s);
    share.floor().max(1.0) as u32
}

/// A consumable spin-cycle allowance for one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpinBudget {
    cap: u32,
    used: u32,
    denied: u32,
}

impl SpinBudget {
    /// A fresh budget of `cap` spin-down cycles.
    pub fn new(cap: u32) -> Self {
        SpinBudget {
            cap,
            used: 0,
            denied: 0,
        }
    }

    /// An effectively unlimited budget (no MTTF cap configured).
    pub fn unlimited() -> Self {
        SpinBudget::new(u32::MAX)
    }

    /// Charges one spin-down if the allowance permits; returns whether
    /// the sleep may proceed. Refusals are counted.
    pub fn try_charge(&mut self) -> bool {
        if self.used < self.cap {
            self.used += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Spin-down cycles charged so far.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Sleeps refused because the allowance was exhausted.
    pub fn denied(&self) -> u32 {
        self.denied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_charges_then_denies() {
        let mut b = SpinBudget::new(2);
        assert!(b.try_charge());
        assert!(b.try_charge());
        assert!(!b.try_charge());
        assert!(!b.try_charge());
        assert_eq!(b.used(), 2);
        assert_eq!(b.denied(), 2);
    }

    #[test]
    fn unlimited_budget_never_denies() {
        let mut b = SpinBudget::unlimited();
        for _ in 0..10_000 {
            assert!(b.try_charge());
        }
        assert_eq!(b.denied(), 0);
    }

    #[test]
    fn mttf_cap_scales_with_run_length() {
        // 5 years of service: ~50k cycles over ~1.58e8 s.
        let hour = mttf_cycle_cap(3600.0, 5.0);
        let day = mttf_cycle_cap(86_400.0, 5.0);
        assert!(day > hour);
        assert!(hour >= 1);
        // A 3-hour run at a 5-year pace allows only a handful of cycles.
        assert!(mttf_cycle_cap(3.0 * 3600.0, 5.0) < 10);
        // Degenerate inputs clamp to the floor.
        assert_eq!(mttf_cycle_cap(0.0, 5.0), 1);
    }
}
