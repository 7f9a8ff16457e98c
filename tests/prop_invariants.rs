//! Property-based tests over the core invariants (proptest).
//!
//! The headline property is the paper's thesis itself: across random
//! workloads in the prefetch-friendly regime, EEVFS-PF never consumes
//! meaningfully more energy than NPF, while NPF never transitions a disk.

use eevfs::config::{ClusterSpec, EevfsConfig, PlacementPolicy};
use eevfs::driver::run_cluster;
use eevfs::placement::place;
use proptest::prelude::*;
use sim_core::SimDuration;
use workload::popularity::PopularityTable;
use workload::synthetic::{generate, SizeDist, SyntheticSpec};
use workload::trace_io;

fn arb_spec() -> impl Strategy<Value = SyntheticSpec> {
    (
        10u32..200,    // files
        20u32..150,    // requests
        0.5f64..200.0, // mu
        1u64..30,      // mean size MB
        prop_oneof![
            Just(SizeDist::Fixed),
            Just(SizeDist::Exponential),
            (0.1f64..0.9).prop_map(|s| SizeDist::Uniform { spread: s }),
        ],
        200u64..1500, // inter-arrival ms
        0.0f64..0.4,  // write fraction
        any::<u64>(), // seed
    )
        .prop_map(
            |(files, requests, mu, mb, size_dist, ms, wf, seed)| SyntheticSpec {
                files,
                requests,
                mu,
                mean_size_bytes: mb * 1_000_000,
                size_dist,
                inter_arrival: SimDuration::from_millis(ms),
                jitter: workload::synthetic::Jitter::None,
                write_fraction: wf,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's thesis as an invariant: PF never loses to NPF by more
    /// than float noise on replay energy, and NPF never transitions.
    #[test]
    fn pf_never_meaningfully_worse_than_npf(spec in arb_spec()) {
        let trace = generate(&spec);
        let cluster = ClusterSpec::paper_testbed();
        let pf = run_cluster(&cluster, &EevfsConfig::paper_pf(40), &trace);
        let npf = run_cluster(&cluster, &EevfsConfig::paper_npf(), &trace);
        prop_assert_eq!(npf.transitions.total(), 0);
        prop_assert!(
            pf.total_energy_j <= npf.total_energy_j * 1.02,
            "PF {} J > NPF {} J (spec {:?})",
            pf.total_energy_j, npf.total_energy_j, spec
        );
        // Every request completed in both runs.
        prop_assert_eq!(pf.response.count, trace.len() as u64);
        prop_assert_eq!(npf.response.count, trace.len() as u64);
    }

    /// Whole-pipeline determinism: generating and running twice is
    /// bit-identical.
    #[test]
    fn end_to_end_determinism(spec in arb_spec()) {
        let t1 = generate(&spec);
        let t2 = generate(&spec);
        prop_assert_eq!(&t1, &t2);
        let cluster = ClusterSpec::paper_testbed();
        let a = run_cluster(&cluster, &EevfsConfig::paper_pf(20), &t1);
        let b = run_cluster(&cluster, &EevfsConfig::paper_pf(20), &t2);
        prop_assert_eq!(a, b);
    }

    /// Faulted-replay determinism: a generated fault plan and a replicated
    /// config replay bit-identically for the same (config, seed, plan).
    #[test]
    fn faulted_replay_determinism(spec in arb_spec(), fault_seed in any::<u64>()) {
        use eevfs::driver::{simulate, Scenario};
        use fault_model::{FaultPlan, FaultSpec};
        let trace = generate(&spec);
        let cluster = ClusterSpec::paper_testbed();
        let faults = FaultPlan::generate(&FaultSpec {
            seed: fault_seed,
            horizon: SimDuration::from_secs(400),
            nodes: cluster.node_count() as u32,
            disks_per_node: 2,
            disk_fail_per_hour: 20.0,
            mean_repair: SimDuration::from_secs(40),
            node_crash_per_hour: 10.0,
            mean_restart: SimDuration::from_secs(25),
            spin_up_fail_per_hour: 20.0,
        });
        let cfg = EevfsConfig::paper_pf_replicated(20, 2);
        let scenario = Scenario { faults: &faults, ..Scenario::new(&cluster, &cfg, &trace) };
        let a = simulate(&scenario, None).expect("valid scenario").0;
        let b = simulate(&scenario, None).expect("valid scenario").0;
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On prefetch-friendly workloads (skewed reads, paper-style gaps),
    /// the energy-aware replica selector never meaningfully loses to
    /// random-healthy selection at R=2: it steers reads to buffered or
    /// already-spinning copies instead of waking standby disks.
    #[test]
    fn energy_aware_selection_beats_random(
        mu in 1.0f64..50.0,
        requests in 60u32..150,
        seed in any::<u64>(),
    ) {
        use eevfs::config::ReplicaSelection;
        let trace = generate(&SyntheticSpec {
            files: 100,
            requests,
            mu,
            write_fraction: 0.0,
            seed,
            ..SyntheticSpec::paper_default()
        });
        let cluster = ClusterSpec::paper_testbed();
        let aware = EevfsConfig::paper_pf_replicated(40, 2);
        let mut random = aware.clone();
        random.replica_selection = ReplicaSelection::RandomHealthy;
        let a = run_cluster(&cluster, &aware, &trace);
        let r = run_cluster(&cluster, &random, &trace);
        prop_assert!(
            a.total_energy_j <= r.total_energy_j * 1.02,
            "energy-aware {} J > random {} J (mu={}, requests={}, seed={})",
            a.total_energy_j, r.total_energy_j, mu, requests, seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Replica placement invariants for arbitrary popularity vectors and
    /// cluster shapes: the primary matches the placement plan, no two
    /// copies of a file share a node, and every copy's disk is in range.
    #[test]
    fn replica_plan_invariants(
        counts in proptest::collection::vec(0u64..50, 1..120),
        disks in proptest::collection::vec(1usize..4, 2..9),
        r in 1usize..6,
    ) {
        use eevfs::replication::replicate;
        let pop = PopularityTable::from_counts(counts);
        let plan = place(PlacementPolicy::PopularityRoundRobin, &pop, &disks);
        let rp = replicate(&plan, r, &disks);
        prop_assert_eq!(rp.file_count(), plan.file_count());
        prop_assert_eq!(rp.factor(), r.clamp(1, disks.len()));
        for (f, copies) in rp.replicas.iter().enumerate() {
            prop_assert_eq!(copies[0], (plan.node_of_file[f], plan.disk_of_file[f]));
            let mut nodes: Vec<u32> = copies.iter().map(|&(n, _)| n).collect();
            nodes.sort_unstable();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), copies.len(), "co-located copies of file {}", f);
            for &(n, d) in copies {
                prop_assert!((d as usize) < disks[n as usize], "disk out of range");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trace text serialisation is lossless for arbitrary generated
    /// traces.
    #[test]
    fn trace_text_roundtrip(spec in arb_spec()) {
        let trace = generate(&spec);
        let back = trace_io::from_text(&trace_io::to_text(&trace)).unwrap();
        prop_assert_eq!(trace, back);
    }

    /// Placement invariants for arbitrary popularity vectors and cluster
    /// shapes: every file placed exactly once, disk indices in range, and
    /// popularity round-robin balances node loads to within one stratum.
    #[test]
    fn placement_invariants(
        counts in proptest::collection::vec(0u64..50, 1..150),
        disks in proptest::collection::vec(1usize..4, 1..9),
        policy_idx in 0usize..3,
    ) {
        let policy = [
            PlacementPolicy::PopularityRoundRobin,
            PlacementPolicy::PlainRoundRobin,
            PlacementPolicy::PdcConcentration,
        ][policy_idx];
        let files = counts.len();
        let pop = PopularityTable::from_counts(counts.clone());
        let plan = place(policy, &pop, &disks);
        prop_assert_eq!(plan.node_of_file.len(), files);
        let mut seen = vec![0u32; files];
        for (node, &node_disks) in disks.iter().enumerate() {
            for f in plan.files_on(node) {
                seen[f.index()] += 1;
                prop_assert_eq!(plan.node_of_file[f.index()] as usize, node);
                prop_assert!((plan.disk_of_file[f.index()] as usize) < node_disks);
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "every file placed exactly once");

        if policy == PlacementPolicy::PopularityRoundRobin {
            // File counts per node differ by at most one.
            let per_node: Vec<usize> = (0..disks.len()).map(|n| plan.files_on(n).len()).collect();
            let min = per_node.iter().min().unwrap();
            let max = per_node.iter().max().unwrap();
            prop_assert!(max - min <= 1, "unbalanced: {:?}", per_node);
        }
    }

    /// The prefetch planner respects capacities exactly and keeps rank
    /// order within nodes.
    #[test]
    fn prefetch_plan_respects_capacity(
        counts in proptest::collection::vec(0u64..50, 8..80),
        k in 0u32..60,
        cap_mb in 1u64..2000,
    ) {
        let files = counts.len();
        let pop = PopularityTable::from_counts(counts);
        let plan = place(PlacementPolicy::PopularityRoundRobin, &pop, &[2; 4]);
        let sizes = vec![10_000_000u64; files];
        let caps = vec![cap_mb * 1_000_000; 4];
        let pf = eevfs::prefetch::plan_topk(k, &pop, &plan, &sizes, &caps);
        // Capacity respected per node.
        for (node, fs) in pf.per_node.iter().enumerate() {
            let used: u64 = fs.iter().map(|f| sizes[f.index()]).sum();
            prop_assert!(used <= caps[node]);
        }
        // Kept + dropped = requested top-K.
        prop_assert_eq!(pf.files.len() + pf.dropped.len(), (k as usize).min(files));
    }
}

/// One step of an event-queue interleaving. Offsets are microseconds
/// after the queue's clock.
#[derive(Debug, Clone)]
enum QueueOp {
    Schedule(u64),
    Batch(Vec<u64>),
    Pop,
    RunUntil(u64),
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    let sorted = |offsets: Vec<u64>| {
        let mut offsets = offsets;
        offsets.sort_unstable();
        QueueOp::Batch(offsets)
    };
    prop_oneof![
        (0u64..1_000).prop_map(QueueOp::Schedule),
        // Heavy ties: few distinct timestamps.
        (0u64..3).prop_map(QueueOp::Schedule),
        proptest::collection::vec(0u64..1_000, 0..40).prop_map(sorted),
        proptest::collection::vec(0u64..3, 0..40).prop_map(sorted),
        proptest::collection::vec(0u64..1_000, 0..40).prop_map(QueueOp::Batch),
        proptest::collection::vec(0u64..3, 0..40).prop_map(QueueOp::Batch),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        (0u64..500).prop_map(QueueOp::RunUntil),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Event queue pops in (time, insertion) order for arbitrary
    /// schedules.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = sim_core::EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(sim_core::SimTime::from_micros(t), i);
        }
        let popped = q.drain_ordered();
        for w in popped.windows(2) {
            let (t1, i1) = w[0];
            let (t2, i2) = w[1];
            prop_assert!(t1 < t2 || (t1 == t2 && i1 < i2));
        }
        prop_assert_eq!(popped.len(), times.len());
    }

    /// A queue fed through the presorted arrival lane pops exactly the
    /// same `(time, payload)` sequence as one fed only through
    /// `schedule`, across random interleavings of single schedules,
    /// sorted and unsorted batches, pops and `pop_until` horizons, with
    /// heavy timestamp ties.
    #[test]
    fn event_queue_lane_matches_heap_only(ops in proptest::collection::vec(arb_queue_op(), 1..60)) {
        use sim_core::{EventQueue, SimTime};
        let mut lane: EventQueue<u32> = EventQueue::new();
        let mut reference: EventQueue<u32> = EventQueue::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut next_id = 0u32;
        let mut stamp = |now: SimTime, offsets: &[u64]| -> Vec<(SimTime, u32)> {
            offsets
                .iter()
                .map(|&dt| {
                    next_id += 1;
                    (now + SimDuration::from_micros(dt), next_id)
                })
                .collect()
        };
        for op in ops {
            match op {
                QueueOp::Schedule(dt) => {
                    let (at, id) = stamp(lane.now(), &[dt])[0];
                    lane.schedule(at, id);
                    reference.schedule(at, id);
                }
                QueueOp::Batch(offsets) => {
                    let batch = stamp(lane.now(), &offsets);
                    for &(at, id) in &batch {
                        reference.schedule(at, id);
                    }
                    lane.schedule_sorted(batch);
                }
                QueueOp::Pop => {
                    got.extend(lane.pop());
                    want.extend(reference.pop());
                }
                QueueOp::RunUntil(dt) => {
                    let horizon = lane.now() + SimDuration::from_micros(dt);
                    while let Some(ev) = lane.pop_until(horizon) {
                        got.push(ev);
                    }
                    while reference.peek_time().is_some_and(|t| t <= horizon) {
                        want.extend(reference.pop());
                    }
                }
            }
            prop_assert_eq!(lane.len(), reference.len());
            prop_assert_eq!(lane.peek_time(), reference.peek_time());
            prop_assert_eq!(lane.now(), reference.now());
        }
        got.extend(lane.drain_ordered());
        want.extend(reference.drain_ordered());
        prop_assert_eq!(got, want);
    }

    /// Energy meters integrate exactly power x time across random legal
    /// state walks, never go negative, and count transitions correctly.
    #[test]
    fn energy_meter_integrates_exactly(steps in proptest::collection::vec((1u64..100, 0usize..3), 1..60)) {
        use disk_model::{DiskSpec, EnergyMeter, PowerState};
        let spec = DiskSpec::ata133_type1();
        let mut m = EnergyMeter::new(spec.clone());
        let mut t = sim_core::SimTime::ZERO;
        let mut expected = 0.0;
        let mut cycles = 0u64;
        for (dt, action) in steps {
            let dt = SimDuration::from_millis(dt);
            expected += spec.power(m.state()) * dt.as_secs_f64();
            t += dt;
            match (m.state(), action) {
                // Walk: Idle -> Active -> Idle -> SpinningDown -> Standby
                // -> SpinningUp -> Idle, choosing legal edges only.
                (PowerState::Idle, 0) => m.set_state(t, PowerState::Active),
                (PowerState::Idle, 1) => { m.set_state(t, PowerState::SpinningDown); cycles += 1; }
                (PowerState::Active, _) => m.set_state(t, PowerState::Idle),
                (PowerState::SpinningDown, _) => m.set_state(t, PowerState::Standby),
                (PowerState::Standby, _) => m.set_state(t, PowerState::SpinningUp),
                (PowerState::SpinningUp, _) => m.set_state(t, PowerState::Idle),
                _ => m.advance(t),
            }
        }
        m.advance(t);
        prop_assert!((m.total_joules() - expected).abs() < 1e-6,
            "integrated {} expected {}", m.total_joules(), expected);
        prop_assert_eq!(m.transitions().spin_downs, cycles);
        prop_assert!(m.total_joules() >= 0.0);
    }

    /// Buffer catalog never exceeds capacity and usage always equals the
    /// sum of resident sizes, under arbitrary operation sequences.
    #[test]
    fn buffer_catalog_capacity_invariant(
        ops in proptest::collection::vec((0u32..30, 0u8..4), 1..200)
    ) {
        use eevfs::buffer::BufferCatalog;
        use workload::record::FileId;
        let mut c = BufferCatalog::new(100);
        for (file, op) in ops {
            let f = FileId(file);
            // Size is a function of the id: file sizes are constant for
            // the life of a run, as in the cluster.
            let size = (file as u64 % 39) + 1;
            match op {
                0 => { let _ = c.insert_pinned(f, size); }
                1 => { let _ = c.insert_lru(f, size); }
                2 => { let _ = c.buffer_write(f, size); }
                _ => { let _ = c.lookup(f); c.mark_clean(f); }
            }
            prop_assert!(c.used() <= c.capacity(), "over capacity");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The overload plane's shed ledger closes exactly under arbitrary
    /// seeded overload schedules: any workload shape, any admission cap,
    /// any closed-loop width. Every offered request is classified exactly
    /// once (admitted/rejected/shed), every admitted one resolves exactly
    /// once (completed/node-shed/failed), the queue never exceeds the
    /// cap, and the run stays deterministic.
    #[test]
    fn shed_ledger_closes_under_arbitrary_overload(
        requests in 20u32..150,
        mu in 0.5f64..200.0,
        gap_ms in 0u64..200,
        wf in 0.0f64..0.4,
        seed in any::<u64>(),
        max_inflight in 1u32..32,
        streams in 1u32..16,
        closed in any::<bool>(),
        k in 0u32..80,
    ) {
        use eevfs::config::ArrivalMode;
        use eevfs::overload::OverloadOptions;
        let trace = generate(&SyntheticSpec {
            requests,
            mu,
            inter_arrival: SimDuration::from_millis(gap_ms),
            write_fraction: wf,
            seed,
            ..SyntheticSpec::paper_default()
        });
        let cluster = ClusterSpec::paper_testbed();
        let mut cfg = EevfsConfig::paper_pf(k);
        if closed {
            cfg.arrival = ArrivalMode::ClosedLoop { streams };
        }
        cfg.overload = Some(OverloadOptions::bounded(max_inflight as usize));
        let m = run_cluster(&cluster, &cfg, &trace);
        let o = m.overload;
        prop_assert!(o.ledger_closes(), "ledger open: {:?}", o);
        prop_assert_eq!(o.offered, requests as u64, "every request is offered once");
        prop_assert!(o.queue_peak <= max_inflight as u64,
            "queue peak {} > cap {}", o.queue_peak, max_inflight);
        prop_assert_eq!(m.response.count, o.completed + o.failed,
            "samples must cover exactly the admitted, non-shed requests");
        prop_assert_eq!(m.response_samples_s.len() as u64, m.response.count);
        let b = run_cluster(&cluster, &cfg, &trace);
        prop_assert_eq!(m, b, "overloaded replay must be bit-identical");
    }
}

/// An arbitrary journal record of any of the four kinds.
fn arb_journal_record() -> impl Strategy<Value = eevfs::journal::JournalRecord> {
    use eevfs::journal::JournalRecord as R;
    prop_oneof![
        (any::<u32>(), any::<u64>(), 0u32..8).prop_map(|(file, size, disk)| R::Create {
            file,
            size,
            disk
        }),
        any::<u32>().prop_map(|file| R::Prefetch { file }),
        any::<u32>().prop_map(|file| R::BufferWrite { file }),
        (any::<u32>(), 0u32..8, 0u32..8).prop_map(|(file, node, disk)| R::Placement {
            file,
            node,
            disk
        }),
    ]
}

proptest! {
    /// Journal recovery is total and idempotent: cutting the encoded log
    /// at any byte (a crash mid-append) leaves a prefix that replays to
    /// some metadata state, and replaying that prefix twice over yields
    /// exactly the state of replaying it once.
    #[test]
    fn journal_replay_is_idempotent_under_prefix_crash(
        recs in proptest::collection::vec(arb_journal_record(), 0..40),
        cut in any::<u16>(),
    ) {
        use eevfs::journal::{encode, replay, MetaState};
        let bytes = encode(&recs);
        let cut = cut as usize % (bytes.len() + 1);
        let prefix = &bytes[..cut];
        // Replay never panics, whatever byte the crash landed on, and
        // recovers a record-aligned prefix of what was logged.
        let replayed = replay(prefix);
        prop_assert!(replayed.records.len() <= recs.len());
        prop_assert_eq!(&replayed.records[..], &recs[..replayed.records.len()]);
        // Idempotence: applying the surviving records twice (a recovery
        // that itself crashed and re-ran) changes nothing.
        let once = MetaState::from_records(&replayed.records);
        let mut twice = MetaState::from_records(&replayed.records);
        for rec in &replayed.records {
            twice.apply(rec);
        }
        prop_assert_eq!(once, twice);
    }

    /// A corrupt tail never panics the replayer: flipping any byte of the
    /// log truncates recovery at (or before) the damaged record — the
    /// per-record CRC refuses to deliver altered bytes — and everything
    /// before the flip survives intact.
    #[test]
    fn journal_corrupt_tail_truncates_instead_of_panicking(
        recs in proptest::collection::vec(arb_journal_record(), 1..40),
        pos in any::<u16>(),
    ) {
        use eevfs::journal::{encode, replay};
        let mut bytes = encode(&recs);
        let pos = pos as usize % bytes.len();
        bytes[pos] ^= 0xFF;
        let replayed = replay(&bytes);
        prop_assert!(!replayed.clean, "a flipped byte must mark the log dirty");
        prop_assert!(replayed.records.len() < recs.len() + 1);
        prop_assert_eq!(&replayed.records[..], &recs[..replayed.records.len()]);
    }

    /// Checksum round-trip: CRC32 detects every single-bit flip in a
    /// block (guaranteed for CRCs, asserted here end-to-end through the
    /// disk-model implementation), and repairing the block from a healthy
    /// replica restores the original bytes and verification exactly.
    #[test]
    fn single_bit_flip_is_detected_and_repair_restores_the_block(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        bit in any::<u32>(),
    ) {
        use disk_model::checksum::crc32;
        let stored = crc32(&data);
        let bit = bit as usize % (data.len() * 8);
        let mut damaged = data.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(crc32(&damaged) != stored, "flip at bit {} undetected", bit);
        // Repair-from-replica: copy the healthy replica's bytes over the
        // damaged block; contents and checksum both round-trip.
        let replica = data.clone();
        damaged.copy_from_slice(&replica);
        prop_assert_eq!(crc32(&damaged), stored);
        prop_assert_eq!(damaged, data);
    }
}
