//! Absolute goldens at corpus and fleet scale: the rendered lint report
//! over realistic app sets must keep the same bytes forever.
//!
//! `golden.rs` pins the renderer on a two-app world, which never reaches
//! the `+N more` evidence path or a deep reachability fixpoint. These
//! two fingerprints pin the whole analyzer on the inputs the fleet
//! actually feeds it:
//!
//! * `lint_manifests` over the first 64 manifests of the default corpus
//!   (the paper's 1,124-app collection, seed 2017);
//! * `lint_system` on the install sets of `FleetConfig::default()`
//!   devices 0..32 — each device's sampled corpus mix, the demo set and,
//!   when infected, the malware.
//!
//! Each fingerprint is the 64-bit FNV-1a of `render::to_json`, so any
//! byte of any message, evidence line, severity, energy bound or rank
//! that moves fails the test. A deliberate output change updates the
//! constant (the failure message prints the new value) and says why.

use ea_apps::demo::DemoApps;
use ea_apps::malware::Malware;
use ea_corpus::{generate_corpus, CorpusConfig};
use ea_fleet::{device_seed, simulate_device, DeviceHooks, FleetConfig};
use ea_framework::{AndroidSystem, AppManifest};
use ea_lint::{render, Linter};
use ea_sim::SimRng;

/// FNV-1a of the corpus-mode report over the first 64 corpus manifests.
const CORPUS_64_FINGERPRINT: u64 = 0xda2e_2ec3_dc14_3bee;

/// FNV-1a of the concatenated install-set reports of fleet devices 0..32.
const FLEET_32_FINGERPRINT: u64 = 0xb3c4_26b5_96d4_47d5;

/// Devices whose install sets the fleet golden covers.
const FLEET_DEVICES: usize = 32;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn corpus(config: &FleetConfig) -> Vec<AppManifest> {
    generate_corpus(
        &CorpusConfig {
            size: config.corpus_size,
            ..CorpusConfig::paper()
        },
        config.corpus_seed,
    )
}

/// Device `index`'s install set, drawn exactly as a fault-free fleet
/// device draws it: `min_apps..=max_apps` distinct corpus manifests from
/// the device seed, the demo set, then the infection coin.
fn install_set(config: &FleetConfig, corpus: &[AppManifest], index: usize) -> AndroidSystem {
    let mut rng = SimRng::seed(device_seed(config.seed, index));
    let lo = config.min_apps.min(corpus.len());
    let hi = config.max_apps.clamp(lo, corpus.len());
    let count = if hi > lo {
        lo + rng.range_u64(0, (hi - lo + 1) as u64) as usize
    } else {
        lo
    };
    let mut chosen: Vec<usize> = Vec::with_capacity(count);
    while chosen.len() < count {
        let candidate = rng.range_u64(0, corpus.len() as u64) as usize;
        if !chosen.contains(&candidate) {
            chosen.push(candidate);
        }
    }
    let mut android = AndroidSystem::new();
    for index in chosen {
        android.install(corpus[index].clone());
    }
    DemoApps::install_all(&mut android);
    if rng.chance(config.infection_rate) {
        Malware::install(&mut android);
    }
    android
}

#[test]
fn corpus_report_matches_absolute_fingerprint() {
    let config = FleetConfig::default();
    let manifests = corpus(&config);
    let report = Linter::new().lint_manifests(&manifests[..64]);
    assert_eq!(report.apps_checked, 64);
    let json = render::to_json(&report);
    assert!(
        json.contains(" more\""),
        "the scale golden must exercise the `+N more` evidence path"
    );
    let print = fnv1a(json.as_bytes());
    assert_eq!(
        print, CORPUS_64_FINGERPRINT,
        "corpus lint report fingerprint is {print:#018x}"
    );
}

#[test]
fn fleet_install_set_reports_match_absolute_fingerprint() {
    let config = FleetConfig::default();
    let manifests = corpus(&config);
    let linter = Linter::new();
    let mut rendered = String::new();
    for index in 0..FLEET_DEVICES {
        let report = linter.lint_system(&install_set(&config, &manifests, index));
        rendered.push_str(&render::to_json(&report));
    }
    let print = fnv1a(rendered.as_bytes());
    assert_eq!(
        print, FLEET_32_FINGERPRINT,
        "fleet install-set lint fingerprint is {print:#018x}"
    );
}

/// The install sets above are the fleet's: each device's own pre-run
/// lint pass saw the same app count, the same diagnostic count and the
/// same total energy bound, bit for bit.
#[test]
fn install_sets_are_the_fleet_devices_install_sets() {
    let config = FleetConfig::default();
    let manifests = corpus(&config);
    let linter = Linter::new();
    for index in 0..FLEET_DEVICES {
        let report = linter.lint_system(&install_set(&config, &manifests, index));
        let device = simulate_device(&config, &manifests, index, &DeviceHooks::default());
        assert_eq!(device.apps_linted, report.apps_checked, "device {index}");
        assert_eq!(device.lint_diagnostics, report.len(), "device {index}");
        assert_eq!(
            device.static_predicted_joules.to_bits(),
            report.total_predicted_joules().to_bits(),
            "device {index}"
        );
    }
}
