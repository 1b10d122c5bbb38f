//! Reports written by earlier builds must keep loading and replaying.
//!
//! `fixtures/report_v5_injected_panic.json` is the output of
//! `eandroid fleet --size 8 --jobs 2 --inject-panic 3 --json` from the
//! build that still had the reference accounting, scheduler and
//! lifecycle switches: its `replay_config` carries their keys, and it
//! records one abandoned device.

use ea_corpus::{generate_corpus, CorpusConfig};
use ea_fleet::{render, replay_failure, FleetReport};

const FIXTURE: &str = include_str!("fixtures/report_v5_injected_panic.json");

fn fixture() -> FleetReport {
    serde_json::from_str(FIXTURE).expect("the schema-v5 fixture deserializes")
}

#[test]
fn old_report_loads_and_renders_byte_identically() {
    let report = fixture();
    assert_eq!(report.schema_version, 5);
    assert_eq!(report.fleet_size, 8);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(
        render::to_json(&report),
        FIXTURE,
        "schema v5 bytes, retired switch keys included, must not move"
    );
}

#[test]
fn old_report_failure_replays_exactly() {
    let report = fixture();
    let config = &report.replay_config;
    let corpus = generate_corpus(
        &CorpusConfig {
            size: config.corpus_size,
            ..CorpusConfig::paper()
        },
        config.corpus_seed,
    );
    let failure = &report.failures[0];
    assert_eq!(failure.index, 3);
    let verdict = replay_failure(config, &corpus, failure);
    assert!(
        verdict.matched,
        "device 3 diverged on replay: {:?}",
        verdict.mismatches
    );
}
