//! Property tests for the fleet determinism contract: the serialized
//! report is a pure function of `(seed, size)` — never of the job count —
//! plus the intent-log round trip and chaos-failure replay.

use ea_fleet::{render, replay_failure, run_fleet, FleetConfig};
use ea_framework::{Cause, IntentLog, IntentLogDump, LifecycleOp};
use ea_sim::{SimTime, Uid};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn report_is_independent_of_job_count(
        size in 1usize..6,
        seed in 0u64..1_000,
        jobs in 2usize..5,
    ) {
        let mut config = FleetConfig::smoke(size, seed);
        config.jobs = 1;
        let (sequential, _) = run_fleet(&config);
        config.jobs = jobs;
        let (parallel, _) = run_fleet(&config);
        prop_assert_eq!(
            render::to_json(&sequential),
            render::to_json(&parallel),
            "jobs={} changed the report for (seed={}, size={})", jobs, seed, size
        );
    }

    #[test]
    fn fleet_always_accounts_for_every_device(
        size in 1usize..6,
        seed in 0u64..1_000,
        panic_index in 0usize..6,
    ) {
        let config = FleetConfig {
            jobs: 2,
            panic_devices: vec![panic_index],
            ..FleetConfig::smoke(size, seed)
        };
        let (report, _) = run_fleet(&config);
        prop_assert_eq!(report.devices_completed + report.failures.len(), size);
        if panic_index < size {
            prop_assert_eq!(report.failures.len(), 1);
            prop_assert_eq!(report.failures[0].index, panic_index);
        } else {
            prop_assert!(report.failures.is_empty());
        }
    }
}

fn cause() -> impl Strategy<Value = Cause> {
    prop_oneof![
        Just(Cause::User),
        (0u32..100).prop_map(|n| Cause::App(Uid::from_raw(10_000 + n))),
        Just(Cause::Routine),
        Just(Cause::Attack),
        Just(Cause::Fault),
        Just(Cause::Sweep),
        Just(Cause::System),
    ]
}

fn any_uid() -> impl Strategy<Value = Uid> {
    (0u32..100).prop_map(|n| Uid::from_raw(10_000 + n))
}

fn any_component() -> impl Strategy<Value = String> {
    const COMPONENTS: [&str; 6] = ["Main", "Player", "Uploader", "Tracker", "Sync", "Record"];
    (0usize..COMPONENTS.len()).prop_map(|i| String::from(COMPONENTS[i]))
}

fn lifecycle_op() -> impl Strategy<Value = LifecycleOp> {
    prop_oneof![
        (any_uid(), any_component())
            .prop_map(|(uid, component)| { LifecycleOp::ActivityStarted { uid, component } }),
        (any_uid(), any_component())
            .prop_map(|(uid, component)| { LifecycleOp::ServiceStarted { uid, component } }),
        (any_uid(), any_component(), any::<bool>()).prop_map(|(uid, component, still_running)| {
            LifecycleOp::ServiceStopped {
                uid,
                component,
                still_running,
            }
        }),
        (any_uid(), any_component())
            .prop_map(|(uid, component)| { LifecycleOp::ServiceBound { uid, component } }),
        (any_uid(), any_component(), any::<bool>()).prop_map(|(uid, component, still_running)| {
            LifecycleOp::ServiceUnbound {
                uid,
                component,
                still_running,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite invariant: an intent log is a faithful, serializable
    /// record. Whatever sequence of transitions a device emits — however
    /// long, whatever the ring capacity — the dump survives a JSON round
    /// trip byte-identically and diffs clean against itself, and any
    /// single altered entry is localized to its exact sequence number.
    #[test]
    fn arbitrary_intent_logs_round_trip_byte_identically(
        entries in proptest::collection::vec((0u64..1_000_000, cause(), lifecycle_op()), 1..64),
        capacity in 1usize..48,
        tamper_pick in 0usize..64,
    ) {
        let mut log = IntentLog::new(capacity);
        for (millis, cause, op) in &entries {
            log.append(SimTime::from_millis(*millis), *cause, op.clone());
        }
        let dump = log.dump();
        prop_assert_eq!(dump.len(), entries.len().min(capacity));
        prop_assert_eq!(dump.dropped as usize, entries.len().saturating_sub(capacity));

        // Byte-identical JSON round trip.
        let json = serde_json::to_string(&dump).expect("dump serializes");
        let parsed: IntentLogDump = serde_json::from_str(&json).expect("dump parses");
        prop_assert_eq!(&parsed, &dump);
        let rejson = serde_json::to_string(&parsed).expect("reserializes");
        prop_assert_eq!(&rejson, &json, "serializer drift on the round trip");

        // Identical logs diff clean; one altered cause is pinned to its seq.
        prop_assert_eq!(dump.first_divergence(&parsed), None);
        let mut tampered = dump.clone();
        let slot = tamper_pick % tampered.intents.len();
        let entry = &mut tampered.intents[slot];
        entry.cause = if entry.cause == Cause::Fault { Cause::User } else { Cause::Fault };
        let expected_seq = entry.seq;
        prop_assert_eq!(dump.first_divergence(&tampered), Some(expected_seq));
    }
}

proptest! {
    // Each case runs live fleets and replays them; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite invariant: replay under a chaos perturbation stream
    /// equals live execution under the same `FaultPlan` seed. Every
    /// failure a faulted fleet records — panic message, attempts,
    /// checkpoint, and the perturbation-bearing intent-log tail — must
    /// reproduce exactly when re-supervised from the report's embedded
    /// replay config.
    #[test]
    fn chaos_failures_replay_identically_for_arbitrary_plan_seeds(
        fleet_seed in 0u64..500,
        plan_seed in 0u64..500,
        rate_pct in 10u64..40,
    ) {
        let config = FleetConfig {
            jobs: 2,
            max_retries: 0,
            faults: Some(ea_chaos::FaultPlan {
                seed: plan_seed,
                rates: ea_chaos::FaultRates {
                    device_panic: 0.5,
                    ..ea_chaos::FaultRates::uniform(rate_pct as f64 / 100.0)
                },
            }),
            ..FleetConfig::smoke(4, fleet_seed)
        };
        let (report, _) = run_fleet(&config);
        let corpus = ea_corpus::generate_corpus(
            &ea_corpus::CorpusConfig {
                size: config.corpus_size,
                ..ea_corpus::CorpusConfig::paper()
            },
            config.corpus_seed,
        );
        for failure in &report.failures {
            prop_assert!(
                failure.intent_log.is_some(),
                "device {} abandoned without an intent-log tail", failure.index
            );
            let verdict = replay_failure(&report.replay_config, &corpus, failure);
            prop_assert!(
                verdict.matched,
                "device {} diverged on replay: {:?}", failure.index, verdict.mismatches
            );
        }
    }
}
