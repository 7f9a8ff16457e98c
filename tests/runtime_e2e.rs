//! End-to-end tests of the threaded loopback-TCP prototype
//! (`eevfs-runtime`): real daemons, real files, the paper's push data
//! path, and virtual-time power accounting.

use eevfs_runtime::store::verify_pattern;
use eevfs_runtime::{ClusterHandle, RuntimeConfig};
use sim_core::SimDuration;
use workload::synthetic::{generate, SizeDist, SyntheticSpec};

fn small_trace(files: u32, requests: u32, mu: f64) -> workload::record::Trace {
    generate(&SyntheticSpec {
        files,
        requests,
        mu,
        mean_size_bytes: 32 * 1024,
        size_dist: SizeDist::Fixed,
        inter_arrival: SimDuration::from_millis(700),
        ..SyntheticSpec::paper_default()
    })
}

#[test]
fn every_file_served_verbatim() {
    let trace = small_trace(24, 10, 8.0);
    let mut cluster =
        ClusterHandle::start(RuntimeConfig::small("verbatim"), &trace).expect("start");
    // Fetch every file in the population, hit or miss, and verify bytes.
    for file in 0..24u32 {
        let got = cluster
            .get(file)
            .unwrap_or_else(|e| panic!("get {file}: {e}"));
        assert_eq!(got.data.len(), 32 * 1024);
        assert!(
            verify_pattern(file, &got.data),
            "file {file} corrupted in flight"
        );
    }
    cluster.shutdown();
}

#[test]
fn prefetching_saves_disk_energy_in_the_prototype() {
    let trace = small_trace(32, 60, 6.0);

    let mut pf_cfg = RuntimeConfig::small("pf-save");
    pf_cfg.prefetch_k = 12;
    let mut pf_cluster = ClusterHandle::start(pf_cfg, &trace).expect("pf start");
    let pf = pf_cluster.replay(&trace).expect("pf replay");
    pf_cluster.shutdown();

    let mut npf_cfg = RuntimeConfig::small("npf-save");
    npf_cfg.prefetch_k = 0;
    let mut npf_cluster = ClusterHandle::start(npf_cfg, &trace).expect("npf start");
    let npf = npf_cluster.replay(&trace).expect("npf replay");
    npf_cluster.shutdown();

    assert!(pf.hit_rate() > 0.9, "hit rate {}", pf.hit_rate());
    assert_eq!(npf.stats.hits, 0);
    assert_eq!(
        npf.stats.spin_ups + npf.stats.spin_downs,
        0,
        "NPF must not sleep disks"
    );
    assert!(
        pf.stats.disk_joules < npf.stats.disk_joules,
        "PF {} J should beat NPF {} J over the replay window",
        pf.stats.disk_joules,
        npf.stats.disk_joules
    );
}

#[test]
fn wake_penalty_is_really_slept() {
    // One hot file prefetched, one cold file. The hints expect one read
    // of the cold file, less than the idle threshold into the pattern, so
    // its disk stays up for it. Once that read has come, nothing more is
    // expected on the disk and the power plane sleeps it as soon as the
    // read completes; fetching the cold file again pays a real, scaled
    // spin-up delay. The hot file does not.
    let trace = small_trace(4, 8, 1.0);
    let mut cfg = RuntimeConfig::small("wake");
    cfg.nodes = 1;
    cfg.data_disks_per_node = 2;
    cfg.prefetch_k = 2;
    cfg.time_scale = 1000.0; // 2 s spin-up -> 2 ms wall
    cfg.idle_threshold = SimDuration::from_secs(5);
    let mut cluster = ClusterHandle::start(cfg, &trace).expect("start");

    // The first cold fetch consumes the cold file's expected touch; the
    // gap after it outlasts the spin-down (in virtual time), so the second
    // fetch finds the disk in standby.
    let pop = workload::popularity::PopularityTable::from_trace(&trace);
    let cold = pop.ranked().last().copied().expect("population");
    let hot = pop.ranked()[0];
    let _ = cluster.get(cold.0).expect("first cold fetch");
    std::thread::sleep(std::time::Duration::from_millis(30)); // 30 virtual s

    let cold_fetch = cluster.get(cold.0).expect("cold fetch");
    let _hot_fetch = cluster.get(hot.0).expect("hot fetch");
    let stats = cluster.stats().expect("stats");
    cluster.shutdown();

    assert!(
        stats.spin_ups >= 1,
        "cold fetch should have woken a disk: {stats:?}"
    );
    // The cold fetch paid the scaled ~2 ms spin-up as a *real* sleep in
    // the node thread; the OS guarantees sleeps are never short, so this
    // bound is load-independent (comparing against the hot fetch would be
    // flaky under CI contention).
    assert!(
        cold_fetch.response.as_secs_f64() > 0.0019,
        "cold fetch {:?} should include the scaled spin-up",
        cold_fetch.response
    );
}

#[test]
fn stats_are_monotone_snapshots() {
    let trace = small_trace(16, 12, 4.0);
    let mut cluster =
        ClusterHandle::start(RuntimeConfig::small("monotone"), &trace).expect("start");
    let a = cluster.stats().expect("stats a");
    let _ = cluster.get(0).expect("get");
    std::thread::sleep(std::time::Duration::from_millis(5));
    let b = cluster.stats().expect("stats b");
    assert!(b.disk_joules > a.disk_joules, "energy must accumulate");
    assert!(b.hits + b.misses > a.hits + a.misses);
    cluster.shutdown();
}

#[test]
fn node_failure_is_surfaced_not_hung() {
    // Failure injection: kill one storage node out from under the server;
    // requests routed to it must fail fast with an error, and requests to
    // the surviving nodes must keep working.
    let trace = small_trace(16, 10, 4.0);
    let mut cluster =
        ClusterHandle::start(RuntimeConfig::small("nodefail"), &trace).expect("start");

    // Find which node holds file 0 vs file 1 by the placement rule: the
    // most popular file lands on node 0 and ranks alternate. Instead of
    // reconstructing ranks, just kill node 1 and probe all files: some
    // fail, some succeed.
    cluster.kill_node(1).expect("kill node 1");

    let mut failures = 0;
    let mut successes = 0;
    for file in 0..16u32 {
        match cluster.get(file) {
            Ok(r) => {
                assert!(verify_pattern(file, &r.data));
                successes += 1;
            }
            Err(e) => {
                assert!(
                    e.to_string().contains("server error"),
                    "unexpected error shape: {e}"
                );
                failures += 1;
            }
        }
    }
    assert!(failures > 0, "some files lived on the dead node");
    assert!(successes > 0, "the surviving node must keep serving");
    cluster.shutdown();
}

#[test]
fn replicated_cluster_survives_node_kill_mid_trace() {
    // The degraded-mode acceptance case on the real loopback-TCP stack:
    // with R=2 every file has a copy on both nodes, so killing one node
    // between the two halves of the workload must lose no reads.
    let trace = small_trace(16, 10, 4.0);
    let mut cfg = RuntimeConfig::small("failover");
    cfg.replication = 2;
    let mut cluster = ClusterHandle::start(cfg, &trace).expect("start");

    for file in 0..8u32 {
        let got = cluster
            .get(file)
            .unwrap_or_else(|e| panic!("healthy get {file}: {e}"));
        assert!(verify_pattern(file, &got.data));
    }
    cluster.kill_node(0).expect("kill node 0");
    for file in 0..16u32 {
        let got = cluster
            .get(file)
            .unwrap_or_else(|e| panic!("degraded get {file}: {e}"));
        assert!(
            verify_pattern(file, &got.data),
            "file {file} corrupted after failover"
        );
    }
    let stats = cluster.stats().expect("stats");
    assert!(
        stats.failovers > 0,
        "half the files lived on the dead node: {stats:?}"
    );
    cluster.shutdown();
}

#[test]
fn replicated_cluster_survives_disk_failure() {
    // A single failed disk degrades reads to the other copy (or the
    // buffer); repairing it stops the redirects.
    let trace = small_trace(12, 8, 4.0);
    let mut cfg = RuntimeConfig::small("diskfail");
    cfg.replication = 2;
    cfg.prefetch_k = 0; // keep every read on the data disks
    let mut cluster = ClusterHandle::start(cfg, &trace).expect("start");

    cluster.fail_disk(0, 0).expect("fail disk");
    cluster.fail_disk(0, 1).expect("fail disk");
    for file in 0..12u32 {
        let got = cluster
            .get(file)
            .unwrap_or_else(|e| panic!("get {file}: {e}"));
        assert!(verify_pattern(file, &got.data));
    }
    let degraded = cluster.stats().expect("stats");
    assert!(
        degraded.failovers > 0,
        "node 0 files must redirect: {degraded:?}"
    );

    cluster.repair_disk(0, 0).expect("repair disk");
    cluster.repair_disk(0, 1).expect("repair disk");
    let before = cluster.stats().expect("stats");
    for file in 0..12u32 {
        cluster
            .get(file)
            .unwrap_or_else(|e| panic!("repaired get {file}: {e}"));
    }
    let after = cluster.stats().expect("stats");
    assert_eq!(
        after.failovers, before.failovers,
        "repaired disks must serve primaries again"
    );
    cluster.shutdown();
}

#[test]
fn killed_node_can_be_revived_without_replication() {
    // The repair flow: an unreplicated cluster loses files when a node
    // dies, and gets them all back when a replacement daemon re-registers
    // (the server replays creates + prefetch + hints).
    let trace = small_trace(10, 6, 4.0);
    let mut cluster = ClusterHandle::start(RuntimeConfig::small("revive"), &trace).expect("start");

    cluster.kill_node(1).expect("kill node 1");
    let lost = (0..10u32).filter(|&f| cluster.get(f).is_err()).count();
    assert!(lost > 0, "some files lived on node 1");

    cluster.revive_node(1).expect("revive node 1");
    for file in 0..10u32 {
        let got = cluster
            .get(file)
            .unwrap_or_else(|e| panic!("revived get {file}: {e}"));
        assert!(
            verify_pattern(file, &got.data),
            "file {file} corrupted after revival"
        );
    }
    cluster.shutdown();
}

#[test]
fn partitioned_node_heals_through_the_breaker_without_restart() {
    use fault_model::{BreakerConfig, RpcPolicy};

    // The resilience acceptance case on the real TCP stack: cut the
    // server↔node link (the node stays alive), reads keep completing via
    // the surviving replica within the policy deadline, the partitioned
    // node's breaker trips, and after the heal a half-open probe restores
    // it — no cluster restart.
    let trace = small_trace(12, 8, 4.0);
    let mut cfg = RuntimeConfig::small("partition");
    cfg.replication = 2;
    cfg.resilience.policy = RpcPolicy {
        backoff_base: SimDuration::from_millis(20),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: SimDuration::from_millis(300),
        },
        ..RpcPolicy::retrying(SimDuration::from_secs(5), SimDuration::from_millis(500), 2)
    };
    let mut cluster = ClusterHandle::start(cfg, &trace).expect("start");

    for file in 0..6u32 {
        cluster
            .get(file)
            .unwrap_or_else(|e| panic!("healthy get {file}: {e}"));
    }

    cluster.partition_node(0).expect("partition node 0");
    for file in 0..12u32 {
        let got = cluster
            .get(file)
            .unwrap_or_else(|e| panic!("partitioned get {file}: {e}"));
        assert!(
            verify_pattern(file, &got.data),
            "file {file} corrupted during the partition"
        );
    }
    let mid = cluster.stats().expect("stats");
    assert!(
        mid.breaker_trips >= 1,
        "repeated drops must trip the breaker: {mid:?}"
    );
    assert!(
        mid.failovers > 0,
        "node 0's files must fail over to node 1: {mid:?}"
    );

    cluster.heal_node(0).expect("heal node 0");
    // Let the breaker cooldown (wall-interpreted) elapse so the next
    // request is admitted as the half-open probe.
    std::thread::sleep(std::time::Duration::from_millis(400));
    for file in 0..12u32 {
        let got = cluster
            .get(file)
            .unwrap_or_else(|e| panic!("healed get {file}: {e}"));
        assert!(verify_pattern(file, &got.data));
    }
    let end = cluster.stats().expect("stats");
    assert!(
        end.breaker_recoveries >= 1,
        "the half-open probe must close the breaker again: {end:?}"
    );
    cluster.shutdown();
}

#[test]
fn slow_links_trigger_hedged_reads_on_the_wire() {
    use fault_model::{LinkFaultProfile, RpcPolicy};

    // Injected latency spikes on every request-path frame; with hedging
    // armed, slow primaries get raced by the second replica.
    let trace = small_trace(10, 6, 3.0);
    let mut cfg = RuntimeConfig::small("hedge");
    cfg.replication = 2;
    cfg.resilience.policy = RpcPolicy::hedged(
        SimDuration::from_secs(5),
        SimDuration::from_secs(1),
        1,
        SimDuration::from_millis(20),
    );
    cfg.resilience.profile = LinkFaultProfile {
        seed: 7,
        drop_prob: 0.0,
        reset_prob: 0.0,
        delay_prob: 1.0,
        mean_delay: SimDuration::from_millis(60),
    };
    let mut cluster = ClusterHandle::start(cfg, &trace).expect("start");
    // Both copies of a hedged read push under the same request id over
    // their nodes' persistent push connections, so the loser's copy
    // arrives after its request is over, ahead of the next request's own
    // push. It must be dropped by id: every read that lands returns its
    // own file, never the file the read before it asked for.
    let mut ok = 0;
    for round in 0..2u32 {
        for file in 0..10u32 {
            let file = if round == 0 { file } else { 9 - file };
            match cluster.get_verified(file) {
                Ok(_) => ok += 1,
                Err(e) => assert!(
                    !e.to_string().contains("verification") && !e.to_string().contains("push of"),
                    "a stale push answered a later read: {e}"
                ),
            }
        }
    }
    let stats = cluster.stats().expect("stats");
    cluster.shutdown();
    // The race between a hedge loser's error and the winner's push can
    // cost the odd request; the bulk must still land in time.
    assert!(ok >= 16, "only {ok}/20 reads landed: {stats:?}");
    assert!(
        stats.hedges >= 1,
        "60 ms mean spikes vs a 20 ms hedge trigger must hedge: {stats:?}"
    );
}

#[test]
fn consecutive_load_campaigns_reuse_the_push_path() {
    use eevfs_runtime::{loadgen, LoadConfig};
    use std::time::Duration;

    // Each campaign's workers are new clients on new callback ports. The
    // nodes keep push connections to the first campaign's clients after
    // they have closed, and must replace them rather than write into
    // them, so the second campaign is served as cleanly as the first.
    let trace = small_trace(8, 6, 2.0);
    let mut cluster =
        ClusterHandle::start(RuntimeConfig::small("campaigns"), &trace).expect("start");
    let addr = cluster.server_addr().expect("addr");
    for seed in [1, 2] {
        let report = loadgen::run(
            addr,
            &LoadConfig {
                clients: 2,
                requests_per_client: 25,
                think: Duration::ZERO,
                deadline_us: 0,
                files: 8,
                seed,
                request_timeout: Duration::from_secs(20),
            },
        );
        assert!(report.ledger_closes(), "{report:?}");
        assert_eq!(report.errors, 0, "campaign {seed}: {report:?}");
        assert_eq!(report.completed, 50, "campaign {seed}: {report:?}");
    }
    cluster
        .get_verified(3)
        .expect("the handle's own client still served");
    cluster.shutdown();
}

#[test]
fn malformed_frames_do_not_wedge_a_node() {
    use eevfs_runtime::node::{NodeConfig, NodeDaemon};
    use eevfs_runtime::proto::{read_message, write_message, Message};
    use std::io::Write as _;

    let root = std::env::temp_dir().join(format!("eevfs-garbage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let node = NodeDaemon::spawn(NodeConfig {
        root: root.clone(),
        data_disks: 1,
        disk_spec: disk_model::DiskSpec::ata133_type1(),
        idle_threshold: SimDuration::from_secs(5),
        clock: eevfs_runtime::clock::VirtualClock::start(10_000.0),
    })
    .expect("spawn");

    // First connection: garbage. The node must drop it without dying.
    {
        let mut garbage = std::net::TcpStream::connect(node.addr).expect("connect");
        garbage
            .write_all(&[0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3]) // absurd length prefix
            .expect("write garbage");
        // Dropping the stream closes it.
    }

    // Second connection: normal protocol still works.
    let mut ctl = std::net::TcpStream::connect(node.addr).expect("reconnect");
    write_message(
        &mut ctl,
        &Message::CreateFile {
            file: 1,
            size: 512,
            disk: 0,
        },
    )
    .expect("send");
    assert_eq!(read_message(&mut ctl).expect("reply"), Message::Ok);
    write_message(&mut ctl, &Message::Shutdown).expect("send shutdown");
    let _ = read_message(&mut ctl);
    node.join();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn two_clusters_coexist_on_loopback() {
    let trace = small_trace(8, 5, 2.0);
    let mut a = ClusterHandle::start(RuntimeConfig::small("coex-a"), &trace).expect("a");
    let mut b = ClusterHandle::start(RuntimeConfig::small("coex-b"), &trace).expect("b");
    let ra = a.get_verified(1).expect("a get");
    let rb = b.get_verified(1).expect("b get");
    assert_eq!(ra.data, rb.data);
    a.shutdown();
    b.shutdown();
}

#[test]
fn killed_node_recovers_via_journal_replay() {
    // Crash recovery on the real loopback stack: kill a daemon
    // mid-workload, then restart it over the *same* store directory. The
    // replacement replays its buffer-disk journal to recover file
    // placements and buffer contents, re-registers with the server, and
    // serves every file verbatim — no server-side state replay needed.
    let trace = small_trace(12, 8, 4.0);
    let mut cluster =
        ClusterHandle::start(RuntimeConfig::small("jrecover"), &trace).expect("start");

    cluster.kill_node(1).expect("kill node 1");
    let lost = (0..12u32).filter(|&f| cluster.get(f).is_err()).count();
    assert!(lost > 0, "some files lived on node 1");

    cluster.restart_node(1).expect("restart node 1");
    for file in 0..12u32 {
        let got = cluster
            .get(file)
            .unwrap_or_else(|e| panic!("recovered get {file}: {e}"));
        assert!(
            verify_pattern(file, &got.data),
            "file {file} corrupted across the crash"
        );
    }
    let stats = cluster.stats().expect("stats");
    assert!(
        stats.journal_replays >= 1,
        "the restarted daemon must have replayed its journal: {stats:?}"
    );
    assert_eq!(
        stats.corruptions_detected, 0,
        "a clean crash must not look like corruption: {stats:?}"
    );
    cluster.shutdown();
}
