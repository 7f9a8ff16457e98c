//! Baseline configurations from the paper's related-work section (§II),
//! used by the ablation benchmarks.

use crate::config::{BufferPolicy, EevfsConfig, PlacementPolicy, PowerPolicy};
use sim_core::SimDuration;

/// MAID-style disk-as-cache [Colarelli & Grunwald]: on-demand LRU caching
/// into the buffer disk, classic idle-timer power management, no
/// popularity prefetching. The paper's §II contrast: "MAID caches blocks
/// that are stored in a LRU order. Our strategy attempts to analyze
/// requests['] look-ahead window".
pub fn maid(capacity_bytes: u64) -> EevfsConfig {
    EevfsConfig {
        buffer: BufferPolicy::MaidLru { capacity_bytes },
        power: PowerPolicy::IdleTimer,
        ..EevfsConfig::paper_npf()
    }
}

/// PDC-style popular data concentration [Pinheiro & Bianchini]: hot files
/// packed onto the first disks, per-disk idle timers, no buffer disk.
pub fn pdc() -> EevfsConfig {
    EevfsConfig {
        placement: PlacementPolicy::PdcConcentration,
        power: PowerPolicy::IdleTimer,
        ..EevfsConfig::paper_npf()
    }
}

/// Energy-oblivious cluster file system (the PVFS/Lustre contrast): no
/// caching, no power management, plain round-robin placement.
pub fn energy_oblivious() -> EevfsConfig {
    EevfsConfig {
        buffer: BufferPolicy::None,
        power: PowerPolicy::None,
        placement: PlacementPolicy::PlainRoundRobin,
        write_buffer: false,
        ..EevfsConfig::paper_npf()
    }
}

/// EEVFS-PF with application hints disabled (§IV-C ablation): the node
/// falls back to waiting out the idle threshold before each spin-down.
pub fn pf_without_hints(k: u32) -> EevfsConfig {
    EevfsConfig {
        hints: false,
        ..EevfsConfig::paper_pf(k)
    }
}

/// EEVFS-PF with intra-node striping (§VII future work).
pub fn pf_striped(k: u32) -> EevfsConfig {
    EevfsConfig::paper_pf_striped(k)
}

/// EEVFS-PF with a custom idle threshold (§VI-B: "the idle threshold can
/// be increased to prevent disks from transitioning frequently").
pub fn pf_with_threshold(k: u32, threshold: SimDuration) -> EevfsConfig {
    EevfsConfig {
        idle_threshold: threshold,
        ..EevfsConfig::paper_pf(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maid_uses_lru_and_timers() {
        let c = maid(1 << 30);
        assert!(
            matches!(c.buffer, BufferPolicy::MaidLru { capacity_bytes } if capacity_bytes == 1 << 30)
        );
        assert_eq!(c.power, PowerPolicy::IdleTimer);
        assert_eq!(c.prefetch_k(), 0);
    }

    #[test]
    fn pdc_concentrates() {
        let c = pdc();
        assert_eq!(c.placement, PlacementPolicy::PdcConcentration);
        assert!(!c.caching_enabled());
    }

    #[test]
    fn energy_oblivious_is_fully_off() {
        let c = energy_oblivious();
        assert_eq!(c.power, PowerPolicy::None);
        assert!(!c.write_buffer);
        assert!(!c.caching_enabled());
    }

    #[test]
    fn hint_ablation_only_flips_hints() {
        let with = EevfsConfig::paper_pf(70);
        let without = pf_without_hints(70);
        assert!(with.hints && !without.hints);
        assert_eq!(with.buffer, without.buffer);
        assert_eq!(with.power, without.power);
    }

    #[test]
    fn striped_flag_set() {
        assert!(pf_striped(70).striping);
        assert!(!EevfsConfig::paper_pf(70).striping);
    }

    #[test]
    fn threshold_override() {
        let c = pf_with_threshold(70, SimDuration::from_secs(30));
        assert_eq!(c.idle_threshold, SimDuration::from_secs(30));
    }
}
