//! Byte pins for the JSONL trace export.
//!
//! The golden lines are the exact output of the previous, tree-building
//! serializer, one per [`EventKind`] variant, so any change to the trace
//! wire format (field order, enum encoding, integer text) fails here
//! before it reaches a committed trace digest.

use disk_model::PowerState;
use eevfs_obs::{EventKind, Recorder, Severity, TraceEvent};
use proptest::prelude::*;
use sim_core::SimTime;

/// One instance of every variant, with values that exercise the full
/// integer widths and both `Option` arms.
fn every_variant() -> Vec<EventKind> {
    vec![
        EventKind::RequestArrive {
            req: 1,
            file: u64::MAX,
            write: true,
            bytes: 4096,
        },
        EventKind::RequestQueued { req: 2, node: 3 },
        EventKind::SpinupWait {
            req: 3,
            node: 1,
            disk: 2,
        },
        EventKind::RequestServe {
            req: 4,
            node: 0,
            disk: u32::MAX,
            from_buffer: true,
        },
        EventKind::TierServe {
            req: 5,
            node: 7,
            ssd: false,
        },
        EventKind::RequestComplete {
            req: 6,
            response_us: 1_234_567,
        },
        EventKind::DiskTransition {
            node: 1,
            disk: 0,
            from: PowerState::Standby,
            to: PowerState::SpinningUp,
        },
        EventKind::PrefetchFile {
            node: 2,
            file: 99,
            bytes: 10 << 20,
        },
        EventKind::SleepDecision {
            node: 0,
            disk: 1,
            predicted_idle_us: None,
            breakeven_us: 8_000_000,
        },
        EventKind::SleepDecision {
            node: 0,
            disk: 1,
            predicted_idle_us: Some(40_000_000),
            breakeven_us: 8_000_000,
        },
        EventKind::IdleRealized {
            node: 4,
            disk: 3,
            realized_us: 0,
            paid_off: false,
        },
        EventKind::RpcSend {
            req: 8,
            node: 2,
            attempt: 1,
        },
        EventKind::RpcDropped {
            req: 8,
            node: 2,
            attempt: 1,
        },
        EventKind::RpcRetry { req: 8, attempt: 2 },
        EventKind::RpcHedge {
            req: 400,
            parent: 8,
            node: 3,
        },
        EventKind::RpcComplete {
            req: 8,
            won_by_hedge: true,
        },
        EventKind::CorruptionDetected {
            node: 1,
            disk: 0,
            block: 77,
            by_scrub: true,
            repaired: false,
        },
        EventKind::ScrubPass {
            node: 1,
            disk: 0,
            blocks: 64,
            found: 1,
        },
        EventKind::JournalReplay {
            node: 5,
            records: 12,
            bytes: 3_072,
        },
        EventKind::NodeRestart { node: 5 },
    ]
}

const GOLDEN: &[&str] = &[
    r#"{"seq":0,"at_us":0,"sev":"Info","kind":{"RequestArrive":{"req":1,"file":18446744073709551615,"write":true,"bytes":4096}}}"#,
    r#"{"seq":1,"at_us":10,"sev":"Debug","kind":{"RequestQueued":{"req":2,"node":3}}}"#,
    r#"{"seq":2,"at_us":20,"sev":"Warn","kind":{"SpinupWait":{"req":3,"node":1,"disk":2}}}"#,
    r#"{"seq":3,"at_us":30,"sev":"Debug","kind":{"RequestServe":{"req":4,"node":0,"disk":4294967295,"from_buffer":true}}}"#,
    r#"{"seq":4,"at_us":40,"sev":"Debug","kind":{"TierServe":{"req":5,"node":7,"ssd":false}}}"#,
    r#"{"seq":5,"at_us":50,"sev":"Info","kind":{"RequestComplete":{"req":6,"response_us":1234567}}}"#,
    r#"{"seq":6,"at_us":60,"sev":"Debug","kind":{"DiskTransition":{"node":1,"disk":0,"from":"Standby","to":"SpinningUp"}}}"#,
    r#"{"seq":7,"at_us":70,"sev":"Info","kind":{"PrefetchFile":{"node":2,"file":99,"bytes":10485760}}}"#,
    r#"{"seq":8,"at_us":80,"sev":"Info","kind":{"SleepDecision":{"node":0,"disk":1,"predicted_idle_us":null,"breakeven_us":8000000}}}"#,
    r#"{"seq":9,"at_us":90,"sev":"Info","kind":{"SleepDecision":{"node":0,"disk":1,"predicted_idle_us":40000000,"breakeven_us":8000000}}}"#,
    r#"{"seq":10,"at_us":100,"sev":"Warn","kind":{"IdleRealized":{"node":4,"disk":3,"realized_us":0,"paid_off":false}}}"#,
    r#"{"seq":11,"at_us":110,"sev":"Debug","kind":{"RpcSend":{"req":8,"node":2,"attempt":1}}}"#,
    r#"{"seq":12,"at_us":120,"sev":"Warn","kind":{"RpcDropped":{"req":8,"node":2,"attempt":1}}}"#,
    r#"{"seq":13,"at_us":130,"sev":"Info","kind":{"RpcRetry":{"req":8,"attempt":2}}}"#,
    r#"{"seq":14,"at_us":140,"sev":"Info","kind":{"RpcHedge":{"req":400,"parent":8,"node":3}}}"#,
    r#"{"seq":15,"at_us":150,"sev":"Info","kind":{"RpcComplete":{"req":8,"won_by_hedge":true}}}"#,
    r#"{"seq":16,"at_us":160,"sev":"Warn","kind":{"CorruptionDetected":{"node":1,"disk":0,"block":77,"by_scrub":true,"repaired":false}}}"#,
    r#"{"seq":17,"at_us":170,"sev":"Debug","kind":{"ScrubPass":{"node":1,"disk":0,"blocks":64,"found":1}}}"#,
    r#"{"seq":18,"at_us":180,"sev":"Info","kind":{"JournalReplay":{"node":5,"records":12,"bytes":3072}}}"#,
    r#"{"seq":19,"at_us":190,"sev":"Info","kind":{"NodeRestart":{"node":5}}}"#,
];

fn recorded(kinds: Vec<EventKind>) -> Recorder {
    let mut r = Recorder::with_capacity(1 << 16);
    for (i, kind) in kinds.into_iter().enumerate() {
        assert!(r.record(SimTime::from_micros(10 * i as u64), kind));
    }
    r
}

#[test]
fn every_variant_renders_its_golden_line() {
    let r = recorded(every_variant());
    let jsonl = r.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), GOLDEN.len());
    for (got, want) in lines.iter().zip(GOLDEN) {
        assert_eq!(got, want);
    }
    assert_eq!(jsonl, GOLDEN.join("\n") + "\n");
}

#[test]
fn to_jsonl_is_the_concatenation_of_per_event_to_string() {
    let mut kinds = Vec::new();
    for _ in 0..50 {
        kinds.extend(every_variant());
    }
    let r = recorded(kinds);
    let mut expected = String::new();
    for ev in r.events() {
        expected.push_str(&serde_json::to_string(ev).unwrap());
        expected.push('\n');
    }
    assert_eq!(r.to_jsonl(), expected);
    assert_eq!(Recorder::with_capacity(4).to_jsonl(), "");
}

const STATES: [PowerState; 5] = [
    PowerState::Active,
    PowerState::Idle,
    PowerState::Standby,
    PowerState::SpinningUp,
    PowerState::SpinningDown,
];

const SEVERITIES: [Severity; 3] = [Severity::Debug, Severity::Info, Severity::Warn];

/// Builds variant `which` (mod the variant count) from raw field values.
fn arbitrary_kind(which: usize, a: u64, b: u64, x: u32, y: u32, p: bool, q: bool) -> EventKind {
    let (from, to) = (STATES[a as usize % 5], STATES[b as usize % 5]);
    match which % 19 {
        0 => EventKind::RequestArrive {
            req: a,
            file: b,
            write: p,
            bytes: a ^ b,
        },
        1 => EventKind::RequestQueued { req: a, node: x },
        2 => EventKind::SpinupWait {
            req: a,
            node: x,
            disk: y,
        },
        3 => EventKind::RequestServe {
            req: a,
            node: x,
            disk: y,
            from_buffer: p,
        },
        4 => EventKind::TierServe {
            req: a,
            node: x,
            ssd: p,
        },
        5 => EventKind::RequestComplete {
            req: a,
            response_us: b,
        },
        6 => EventKind::DiskTransition {
            node: x,
            disk: y,
            from,
            to,
        },
        7 => EventKind::PrefetchFile {
            node: x,
            file: a,
            bytes: b,
        },
        8 => EventKind::SleepDecision {
            node: x,
            disk: y,
            predicted_idle_us: if p { Some(a) } else { None },
            breakeven_us: b,
        },
        9 => EventKind::IdleRealized {
            node: x,
            disk: y,
            realized_us: a,
            paid_off: p,
        },
        10 => EventKind::RpcSend {
            req: a,
            node: x,
            attempt: y,
        },
        11 => EventKind::RpcDropped {
            req: a,
            node: x,
            attempt: y,
        },
        12 => EventKind::RpcRetry { req: a, attempt: y },
        13 => EventKind::RpcHedge {
            req: a,
            parent: b,
            node: x,
        },
        14 => EventKind::RpcComplete {
            req: a,
            won_by_hedge: p,
        },
        15 => EventKind::CorruptionDetected {
            node: x,
            disk: y,
            block: x ^ y,
            by_scrub: p,
            repaired: q,
        },
        16 => EventKind::ScrubPass {
            node: x,
            disk: y,
            blocks: x.wrapping_add(y),
            found: y,
        },
        17 => EventKind::JournalReplay {
            node: x,
            records: a,
            bytes: b,
        },
        _ => EventKind::NodeRestart { node: x },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_event_round_trips_through_jsonl(
        (which, sev, seq, at_us) in (0usize..19, 0usize..3, any::<u64>(), any::<u64>()),
        (a, b, x, y, p, q) in (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            any::<bool>(),
        ),
    ) {
        let ev = TraceEvent {
            seq,
            at_us,
            sev: SEVERITIES[sev],
            kind: arbitrary_kind(which, a, b, x, y, p, q),
        };
        let mut r = Recorder::with_capacity(4);
        r.record(SimTime::from_micros(at_us), ev.kind.clone());
        let line = r.to_jsonl();
        prop_assert!(line.ends_with('\n'));
        let back: TraceEvent = serde_json::from_str(line.trim_end()).unwrap();
        // The recorder stamps its own seq and severity; the payload and
        // timestamp must survive the export untouched.
        prop_assert_eq!(&back.kind, &ev.kind);
        prop_assert_eq!(back.at_us, at_us);
        // The full event, seq and severity included, round-trips too.
        let back: TraceEvent = serde_json::from_str(&serde_json::to_string(&ev).unwrap()).unwrap();
        prop_assert_eq!(back, ev);
    }
}
