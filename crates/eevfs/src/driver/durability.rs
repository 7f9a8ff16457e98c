//! The durability plane (DESIGN §10): checksum-on-read and a scrubber
//! riding Active spindles detect silent corruption, each detected block
//! is repaired from another copy or written off, and every node restart
//! replays its buffer-disk metadata journal. Without a [`DurabilitySetup`]
//! the plane is disengaged: it does nothing and schedules no event.

use super::ClusterSim;
use crate::config::ClusterSpec;
use crate::journal::{Journal, JournalRecord};
use crate::metrics::DurabilityStats;
use crate::placement::PlacementPlan;
use crate::prefetch::PrefetchPlan;
use crate::replication::{Choice, ReplicaPlan};
use crate::scrub::{ScrubPolicy, Scrubber};
use disk_model::checksum::BLOCK_SIZE;
use disk_model::perf::AccessKind;
use disk_model::DiskSpec;
use eevfs_obs::EventKind;
use fault_model::{CorruptionEvent, CorruptionPlan, CorruptionTracker, CrashPlan};
use sim_core::{SimDuration, SimTime};
use workload::record::{FileId, Trace};

/// The durability plane of a [`Scenario`](super::Scenario): corruption
/// and crash/restart schedules and the scrub policy. Integrity transfers
/// are charged to the separate
/// [`RunMetrics::scrub_energy_j`](crate::metrics::RunMetrics::scrub_energy_j) meter.
#[derive(Debug, Clone, Copy)]
pub struct DurabilitySetup<'a> {
    /// Seeded latent-sector-error / bit-flip schedule.
    pub corruption: &'a CorruptionPlan,
    /// Node crash/restart schedule; each restart replays that node's
    /// buffer-disk journal.
    pub crashes: &'a CrashPlan,
    /// When to verify blocks beyond checksum-on-read.
    pub scrub: ScrubPolicy,
    /// Blocks per disk in the scrub address space; must cover every block
    /// coordinate the corruption plan targets (`simulate` rejects a plan
    /// that does not).
    pub blocks_per_disk: u32,
}

/// One run's durability state; `None` inside when the scenario has no
/// [`DurabilitySetup`].
pub(super) struct DurabilityPlane(Option<Engaged>);

/// The live state of an engaged plane.
struct Engaged {
    /// Which blocks currently hold bad data (shifted corruption plan).
    tracker: CorruptionTracker,
    /// Per-disk scrub cursors.
    scrubber: Scrubber,
    /// Files with a copy on each `(node, disk)`, ascending by file id:
    /// the victim map behind [`Engaged::victim_of`].
    files_on_disk: Vec<Vec<Vec<FileId>>>,
    /// One metadata journal per node, hosted on its buffer disk.
    journals: Vec<Journal>,
    stats: DurabilityStats,
    /// Joules of scrub windows and repair transfers (the integrity meter).
    scrub_energy_j: f64,
}

impl Engaged {
    /// The file a corrupt `block` of `(node, disk)` damages: the
    /// `block % n`-th of the `n` files with a copy there, if any.
    fn victim_of(&self, node: usize, disk: usize, block: u32) -> Option<FileId> {
        let victims = &self.files_on_disk[node][disk];
        (!victims.is_empty()).then(|| victims[block as usize % victims.len()])
    }

    /// Lands the corruption due by `now`, then resolves and returns the
    /// corrupt blocks of `(node, disk)` that `hit` picks. Lazy: corruption
    /// is invisible until read or scrubbed, so it has no simulation event.
    fn detect(
        &mut self,
        node: usize,
        disk: usize,
        now: SimTime,
        hit: impl Fn(&Self, u32) -> bool,
    ) -> Vec<u32> {
        self.tracker.apply_until(now);
        let corrupt = self.tracker.corrupt_blocks(node, disk).iter().copied();
        let found: Vec<u32> = corrupt.filter(|&b| hit(self, b)).collect();
        for &b in &found {
            self.tracker.resolve(node, disk, b);
        }
        found
    }
}

/// Marginal joules of moving `bytes` on a disk that is Active anyway: the
/// analytic cost of scrub and repair transfers, which never perturbs the
/// disk queues the serving path sees.
fn marginal_transfer_j(spec: &DiskSpec, bytes: u64) -> f64 {
    spec.p_active_w * (bytes as f64 / spec.bandwidth_bps as f64)
}

impl DurabilityPlane {
    /// The plane `setup` describes, its corruption plan shifted by `warmup`
    /// into sim time. Each node's journal starts with fsynced `Create` and
    /// `Prefetch` records for the files it owns and prefetched.
    pub(super) fn new(
        setup: Option<DurabilitySetup<'_>>,
        warmup: SimDuration,
        cluster: &ClusterSpec,
        trace: &Trace,
        placement: &PlacementPlan,
        replicas: &ReplicaPlan,
        prefetch: &PrefetchPlan,
    ) -> Self {
        DurabilityPlane(setup.map(|d| {
            let shifted =
                CorruptionPlan::from_trace(d.corruption.events().iter().map(|e| CorruptionEvent {
                    at: e.at + warmup,
                    kind: e.kind,
                }));
            let nodes = cluster.node_count();
            let max_disks = cluster.data_disk_counts().into_iter().max().unwrap_or(0);
            let mut files_on_disk = vec![vec![Vec::new(); max_disks]; nodes];
            for (f, copies) in replicas.replicas.iter().enumerate() {
                for &(n, dd) in copies {
                    files_on_disk[n as usize][dd as usize].push(FileId(f as u32));
                }
            }
            let mut journals = vec![Journal::new(); nodes];
            for f in 0..trace.file_count() {
                journals[placement.node_of_file[f] as usize].append(&JournalRecord::Create {
                    file: f as u32,
                    size: trace.file_sizes[f],
                    disk: placement.disk_of_file[f],
                });
            }
            for (j, files) in journals.iter_mut().zip(&prefetch.per_node) {
                for &f in files {
                    j.append(&JournalRecord::Prefetch {
                        file: f.index() as u32,
                    });
                }
                j.mark_fsync();
            }
            Engaged {
                tracker: CorruptionTracker::new(shifted, nodes, max_disks),
                scrubber: Scrubber::new(d.scrub, d.blocks_per_disk, nodes, max_disks),
                files_on_disk,
                journals,
                stats: DurabilityStats::default(),
                scrub_energy_j: 0.0,
            }
        }))
    }

    /// Journals a write the buffer on `node` absorbed, fsynced with the
    /// buffer-log append it rides on.
    pub(super) fn journal_buffer_write(&mut self, node: usize, file: FileId) {
        if let Some(e) = self.0.as_mut() {
            e.journals[node].append(&JournalRecord::BufferWrite {
                file: file.index() as u32,
            });
            e.journals[node].mark_fsync();
        }
    }

    /// The run's counters and scrub-meter joules at `end`, with every
    /// corruption due by then landed, as a full offline audit would find.
    pub(super) fn finish(self, end: SimTime) -> (DurabilityStats, f64) {
        self.0.map_or_else(Default::default, |mut e| {
            e.tracker.apply_until(end);
            let stats = DurabilityStats {
                corruptions_landed: e.tracker.landed(),
                latent_at_end: e.tracker.outstanding() as u64,
                journal_records: e.journals.iter().map(|j| j.records()).sum(),
                ..e.stats
            };
            (stats, e.scrub_energy_j)
        })
    }
}

impl ClusterSim<'_> {
    /// Integrity work after a physical access to data disk `(node, disk)`:
    /// checksum verification of the file it `read`, then a scrub of the
    /// next window while the spindle is Active anyway (so scrubbing never
    /// wakes a disk), which cannot find again a block the read caught.
    pub(super) fn verify_and_scrub(
        &mut self,
        node: usize,
        disk: usize,
        read: Option<FileId>,
        now: SimTime,
    ) {
        // Held outside `self` so repairs can consult the other planes.
        let Some(mut dur) = self.dur.0.take() else {
            return;
        };
        let bad = dur.detect(node, disk, now, |d, b| {
            read.is_some() && d.victim_of(node, disk, b) == read
        });
        dur.stats.detected_on_read += bad.len() as u64;
        for block in bad {
            self.repair_block(&mut dur, node, disk, block, false, now);
        }
        if let Some((start, len)) = dur.scrubber.next_window(node, disk) {
            let found = dur.detect(node, disk, now, |d, b| {
                d.scrubber.window_contains(start, len, b)
            });
            dur.stats.detected_by_scrub += found.len() as u64;
            dur.stats.scrub_passes += 1;
            dur.stats.scrubbed_blocks += len as u64;
            let spec = self.nodes[node].data_disks[disk].spec();
            dur.scrub_energy_j += marginal_transfer_j(spec, len as u64 * BLOCK_SIZE);
            self.obs.event(
                now,
                EventKind::ScrubPass {
                    node: node as u32,
                    disk: disk as u32,
                    blocks: len,
                    found: found.len() as u32,
                },
            );
            for block in found {
                self.repair_block(&mut dur, node, disk, block, true, now);
            }
        }
        self.dur.0 = Some(dur);
    }

    /// One detected corrupt block: restore it from another healthy copy of
    /// the file it damages through the energy-aware selector, or write it
    /// off as unrecoverable.
    fn repair_block(
        &mut self,
        dur: &mut Engaged,
        node: usize,
        disk: usize,
        block: u32,
        by_scrub: bool,
        now: SimTime,
    ) {
        let file = dur.victim_of(node, disk, block);
        // Pick the repair source among the file's *other* copies.
        let source = file.and_then(|f| {
            self.select_copy(f, self.cfg.replica_selection, block as u64, |n, d| {
                !(n == node && d == disk)
            })
        });
        // A block no live file occupies loses nothing: rewriting it in
        // place repairs it without a source copy.
        let repaired = file.is_none() || source.is_some();
        let mut joules = source.map_or(0.0, |sel| {
            let spec = match sel.choice {
                Choice::Buffered => self.nodes[sel.node].buffer_disk.spec(),
                _ => self.nodes[sel.node].data_disks[sel.disk].spec(),
            };
            marginal_transfer_j(spec, BLOCK_SIZE)
        });
        if repaired {
            joules += marginal_transfer_j(self.nodes[node].data_disks[disk].spec(), BLOCK_SIZE);
        }
        dur.scrub_energy_j += joules;
        dur.stats.repaired_blocks += u64::from(repaired);
        dur.stats.unrecoverable_blocks += u64::from(!repaired);
        self.obs.event(
            now,
            EventKind::CorruptionDetected {
                node: node as u32,
                disk: disk as u32,
                block,
                by_scrub,
                repaired,
            },
        );
    }

    /// A crashed node came back: replay its buffer-disk journal (a real
    /// sequential read on the always-on buffer disk) and account the
    /// recovery.
    pub(super) fn durable_restart(&mut self, node: usize, now: SimTime) {
        let Some(e) = self.dur.0.as_mut() else { return };
        let durable = e.journals[node].durable_bytes();
        let bytes = durable.len() as u64;
        let records = crate::journal::replay(durable).records.len() as u64;
        e.stats.journal_replays += 1;
        e.stats.journal_bytes_replayed += bytes;
        if bytes > 0 {
            self.nodes[node]
                .buffer_disk
                .submit(now, bytes, AccessKind::Sequential);
        }
        self.obs.event(
            now,
            EventKind::JournalReplay {
                node: node as u32,
                records,
                bytes,
            },
        );
        self.obs
            .event(now, EventKind::NodeRestart { node: node as u32 });
    }
}
