//! Absolute byte goldens for every artifact the paper's figures and the
//! fleet report are built from.
//!
//! Each pin is a committed 64-bit FNV-1a fingerprint of serialized
//! output, so a change that moves a byte fails here even when every
//! code path moves it the same way:
//!
//! * ledger, collateral graph and battery-drained bits of all 14
//!   scenarios, on both power kernels;
//! * fig01's stock-Android profile, fig08's hybrid chain, a fine-step
//!   (50 ms) profile, and every fig03 depletion curve;
//! * the fleet report at `--jobs` 1/4/8 and the streamed report at
//!   `--lanes` 1/2/5, on both power kernels;
//! * each of the above with no plan and under an active fault plan.
//!
//! A deliberate output change updates the constants: a failing test
//! prints its whole regenerated table, and the change says why.

use ea_apps::{run_depletion, run_depletion_chaos, DepletionCase, DepletionCurve, Scenario};
use ea_chaos::FaultPlan;
use ea_core::{Profiler, ScreenPolicy};
use ea_fleet::{render, run_fleet, FleetConfig};
use ea_serve::{run_serve, ServeConfig};
use ea_sim::SimDuration;

/// `(scenario, [ledger, graph, drained bits])` with no fault plan.
const SCENARIOS: [(&str, [u64; 3]); 14] = [
    (
        "scene1_message_video",
        [
            0xa1f4_d99d_a0da_4dc3,
            0x3178_d20a_6dd7_65b9,
            0x4059_dd73_6971_4ef6,
        ],
    ),
    (
        "scene2_hybrid_chain",
        [
            0xd32e_6c48_eba4_fd63,
            0xdbc6_cb1b_325d_02c8,
            0x4057_712b_f3db_b128,
        ],
    ),
    (
        "attack1_camera_hijack",
        [
            0x522b_5bcd_b960_5b99,
            0x4f26_8793_4ee1_6a72,
            0x4063_2765_2bb7_a8b1,
        ],
    ),
    (
        "attack2_background_apps",
        [
            0xaa2f_c1b6_2f82_ab9e,
            0xb005_b246_938f_0a69,
            0x4051_aa90_ff5e_ee17,
        ],
    ),
    (
        "attack3_bind_service",
        [
            0x7394_062f_043a_cf39,
            0xdd3b_f703_2a5a_7267,
            0x4052_2b4d_69dd_e7f4,
        ],
    ),
    (
        "attack4_interrupt",
        [
            0x2404_5782_5f81_9aad,
            0x1913_0aed_ced4_4dc3,
            0x404f_ad21_febd_db62,
        ],
    ),
    (
        "attack5_brightness",
        [
            0x4fcb_74c9_982e_c022,
            0x4a74_1f7f_c93c_29f1,
            0x404f_6fb0_4918_00d9,
        ],
    ),
    (
        "normal5_brightness",
        [
            0x1e0c_8d2e_2266_5fc9,
            0x0961_2b07_b5ec_b5a5,
            0x4044_b388_44be_f7ce,
        ],
    ),
    (
        "attack6_wakelock",
        [
            0xcd31_e3b8_6a44_a56c,
            0x9de4_007a_e111_4bbf,
            0x404d_25c8_1a90_b0ec,
        ],
    ),
    (
        "normal6_wakelock",
        [
            0x0ba5_b82e_f40a_8556,
            0x0961_2b07_b5ec_b5a5,
            0x4040_e275_0384_649e,
        ],
    ),
    (
        "multi_attack_same_victim",
        [
            0xe9e5_ed86_9fa9_e769,
            0x361c_771a_efcb_9611,
            0x4051_d171_be25_9a4c,
        ],
    ),
    (
        "hybrid_attack_chain",
        [
            0x2365_ed15_fbce_ea87,
            0xe3c4_848f_a638_45e4,
            0x4051_3e87_abd3_b8a7,
        ],
    ),
    (
        "attack5_auto_mode",
        [
            0x27ba_2d0c_0450_61ee,
            0x5cb0_97e5_6691_6102,
            0x4051_7e9b_b767_5e94,
        ],
    ),
    (
        "benign_no_sleep_bug",
        [
            0xd9ac_4ff3_eb83_75c0,
            0x698e_3b7b_7aef_31f5,
            0x4056_0600_0fd3_f207,
        ],
    ),
];

/// The same table under [`plan`] (scenario `i` runs on lane `i`).
const SCENARIOS_FAULTED: [(&str, [u64; 3]); 14] = [
    (
        "scene1_message_video",
        [
            0x7e0d_3bfe_fbfb_acfb,
            0x54c8_bdf2_f75d_0998,
            0x4059_dd73_6971_4ef6,
        ],
    ),
    (
        "scene2_hybrid_chain",
        [
            0xfefb_95bd_df65_1bfa,
            0x1d81_ade5_5bd4_d0ef,
            0x4057_712b_f3db_b128,
        ],
    ),
    (
        "attack1_camera_hijack",
        [
            0xcbbd_09da_de6d_49b0,
            0x8004_d1d1_1a66_929b,
            0x4063_2765_2bb7_a8b1,
        ],
    ),
    (
        "attack2_background_apps",
        [
            0x2932_bad6_0b21_d0da,
            0x608c_8fa8_48b5_4985,
            0x4051_aa90_ff5e_ee17,
        ],
    ),
    (
        "attack3_bind_service",
        [
            0xb5bf_f7cf_49b3_5329,
            0xc1e0_6638_92e5_a55d,
            0x4052_2b4d_69dd_e7f4,
        ],
    ),
    (
        "attack4_interrupt",
        [
            0xfc4a_cedb_8bb1_0f1d,
            0x20ad_8c7d_9564_f0ee,
            0x404f_ad21_febd_db62,
        ],
    ),
    (
        "attack5_brightness",
        [
            0x973c_e551_1527_d088,
            0xa57b_b440_00c2_f99e,
            0x404f_6fb0_4918_00d9,
        ],
    ),
    (
        "normal5_brightness",
        [
            0xa4a9_0bb2_70a0_f736,
            0x0961_2b07_b5ec_b5a5,
            0x4044_b388_44be_f7ce,
        ],
    ),
    (
        "attack6_wakelock",
        [
            0x3c61_31ee_82bd_00f2,
            0x15b5_8fc5_17eb_c76c,
            0x404d_25c8_1a90_b0ec,
        ],
    ),
    (
        "normal6_wakelock",
        [
            0x5771_9520_9f2a_24c8,
            0x0961_2b07_b5ec_b5a5,
            0x4040_ec9e_6b7d_9886,
        ],
    ),
    (
        "multi_attack_same_victim",
        [
            0xc282_854a_1190_5d18,
            0xd559_3e3b_d5b1_0176,
            0x4051_d171_be25_9a4c,
        ],
    ),
    (
        "hybrid_attack_chain",
        [
            0x9237_1f42_62b9_b686,
            0x7fa8_f165_26a8_e7b3,
            0x4051_3e87_abd3_b8a7,
        ],
    ),
    (
        "attack5_auto_mode",
        [
            0xa10a_45b9_0843_cb06,
            0xc1fa_6adb_288e_b351,
            0x4051_7e9b_b767_5e94,
        ],
    ),
    (
        "benign_no_sleep_bug",
        [
            0x9bc4_8b47_bac1_0e0e,
            0x10fa_bfe0_7e67_c804,
            0x4056_0600_0fd3_f207,
        ],
    ),
];

/// Figure artifacts, no fault plan: fig01, fig08, the fine-step profile,
/// then the five fig03 curves.
const FIGURES: [(&str, [u64; 3]); 8] = [
    (
        "fig01",
        [
            0xa1f4_d99d_a0da_4dc3,
            0x0000_0000_0000_0000,
            0x4059_dd73_6971_4ef6,
        ],
    ),
    (
        "fig08",
        [
            0xd32e_6c48_eba4_fd63,
            0xdbc6_cb1b_325d_02c8,
            0x4057_712b_f3db_b128,
        ],
    ),
    (
        "fine_step_50ms",
        [
            0x9cf9_f12a_58a9_ab29,
            0x296d_5a6c_b23b_81cb,
            0x4051_3e87_abd3_ba26,
        ],
    ),
    (
        "fig03 Bind_service",
        [
            0x9ec5_4713_8100_6610,
            0x3ff0_0000_0000_0000,
            0x0000_0000_0000_000a,
        ],
    ),
    (
        "fig03 Brightness_10",
        [
            0xdc0f_4843_b894_e853,
            0x3ff0_0000_0000_0000,
            0x0000_0000_0000_0009,
        ],
    ),
    (
        "fig03 Brightness_full",
        [
            0x204c_da6e_0197_b6df,
            0x3ff0_0000_0000_0000,
            0x0000_0000_0000_0011,
        ],
    ),
    (
        "fig03 Brightness_low",
        [
            0xddfd_027b_16f7_f5a0,
            0x3ff0_0000_0000_0000,
            0x0000_0000_0000_0008,
        ],
    ),
    (
        "fig03 Interrupt_app",
        [
            0x2c56_7474_eab7_9b2c,
            0x3ff0_0000_0000_0000,
            0x0000_0000_0000_000b,
        ],
    ),
];

/// The same artifacts under [`plan`] on lane 0.
const FIGURES_FAULTED: [(&str, [u64; 3]); 8] = [
    (
        "fig01",
        [
            0x7e0d_3bfe_fbfb_acfb,
            0x0000_0000_0000_0000,
            0x4059_dd73_6971_4ef6,
        ],
    ),
    (
        "fig08",
        [
            0x57d7_dd54_228b_8f46,
            0xc4d1_affe_726a_0484,
            0x4057_712b_f3db_b128,
        ],
    ),
    (
        "fine_step_50ms",
        [
            0xae9d_2fae_8128_9400,
            0xda43_4af0_5c3d_608e,
            0x4051_3e87_abd3_ba26,
        ],
    ),
    (
        "fig03 Bind_service",
        [
            0x9ec5_4713_8100_6610,
            0x3ff0_0000_0000_0000,
            0x0000_0000_0000_000a,
        ],
    ),
    (
        "fig03 Brightness_10",
        [
            0xdc0f_4843_b894_e853,
            0x3ff0_0000_0000_0000,
            0x0000_0000_0000_0009,
        ],
    ),
    (
        "fig03 Brightness_full",
        [
            0x204c_da6e_0197_b6df,
            0x3ff0_0000_0000_0000,
            0x0000_0000_0000_0011,
        ],
    ),
    (
        "fig03 Brightness_low",
        [
            0xddfd_027b_16f7_f5a0,
            0x3ff0_0000_0000_0000,
            0x0000_0000_0000_0008,
        ],
    ),
    (
        "fig03 Interrupt_app",
        [
            0x2c56_7474_eab7_9b2c,
            0x3ff0_0000_0000_0000,
            0x0000_0000_0000_000b,
        ],
    ),
];

/// `render::to_json` of the 6-device smoke fleet, seed 2026, at any
/// `--jobs` on either power kernel, for each of [`fleet_plans`].
const FLEET: [u64; 3] = [
    0xf0f4_dfd1_d771_5eb8,
    0x3d9b_52cd_7eed_190e,
    0x0d14_fba6_a1c3_2cc3,
];

/// The streamed report of the 5-device smoke fleet at any `--lanes` on
/// either power kernel, for each of [`fleet_plans`].
const STREAM: [u64; 3] = [
    0x28ff_39ca_e4c1_88a3,
    0x1848_2677_dc10_2ce0,
    0x6425_d4a7_74e9_741e,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The active plan of the faulted goldens: every fault kind at 0.25.
fn plan() -> FaultPlan {
    FaultPlan::uniform(2_026, 0.25)
}

fn eandroid() -> Profiler {
    Profiler::eandroid(ScreenPolicy::SeparateEntity)
}

/// `[ledger, graph, drained bits]` of one scenario run; the graph pin is
/// 0 when the profiler runs no collateral monitor.
fn pin_run(run: &ea_apps::RunOutput) -> [u64; 3] {
    let ledger = serde_json::to_string(run.profiler.ledger()).expect("serialize ledger");
    let graph = run.profiler.collateral().map_or(0, |graph| {
        fnv1a(
            serde_json::to_string(graph)
                .expect("serialize graph")
                .as_bytes(),
        )
    });
    let drained = run.profiler.battery().drained().as_joules().to_bits();
    [fnv1a(ledger.as_bytes()), graph, drained]
}

/// `[sample bits, lifetime bits, sample count]` of one depletion curve.
fn pin_curve(curve: &DepletionCurve) -> [u64; 3] {
    let mut bytes = Vec::with_capacity(curve.points.len() * 16);
    for point in &curve.points {
        bytes.extend_from_slice(&point.hours.to_bits().to_le_bytes());
        bytes.extend_from_slice(&point.percent.to_bits().to_le_bytes());
    }
    [
        fnv1a(&bytes),
        curve.lifetime_hours.to_bits(),
        curve.points.len() as u64,
    ]
}

/// Panics with the regenerated table when `actual` differs from `pinned`.
fn check_table(table: &str, pinned: &[(&str, [u64; 3])], actual: &[(String, [u64; 3])]) {
    let matches = pinned.len() == actual.len()
        && pinned
            .iter()
            .zip(actual)
            .all(|((name, pins), (label, got))| name == label && pins == got);
    if matches {
        return;
    }
    let mut regenerated = String::new();
    for (label, [a, b, c]) in actual {
        regenerated.push_str(&format!(
            "    (\"{label}\", [0x{a:016x}, 0x{b:016x}, 0x{c:016x}]),\n"
        ));
    }
    let moved: Vec<&str> = pinned
        .iter()
        .zip(actual)
        .filter(|((name, pins), (label, got))| name != label || pins != got)
        .map(|((name, _), _)| *name)
        .collect();
    panic!("{table} moved at {moved:?}; regenerated table:\n{regenerated}");
}

fn scenario_table(faulted: bool, batch_kernel: bool) -> Vec<(String, [u64; 3])> {
    Scenario::ALL
        .into_iter()
        .enumerate()
        .map(|(lane, scenario)| {
            let profiler = eandroid().with_batch_kernel(batch_kernel);
            let run = if faulted {
                scenario.run_chaos(profiler, &plan(), lane as u64)
            } else {
                scenario.run(profiler)
            };
            (scenario.name().to_string(), pin_run(&run))
        })
        .collect()
}

fn figure_table(faulted: bool) -> Vec<(String, [u64; 3])> {
    let run = |scenario: Scenario, profiler: Profiler| {
        if faulted {
            scenario.run_chaos(profiler, &plan(), 0)
        } else {
            scenario.run(profiler)
        }
    };
    let mut table = vec![
        (
            "fig01".to_string(),
            pin_run(&run(
                Scenario::Scene1MessageVideo,
                Profiler::android(ScreenPolicy::SeparateEntity),
            )),
        ),
        (
            "fig08".to_string(),
            pin_run(&run(Scenario::Scene2HybridChain, eandroid())),
        ),
        (
            "fine_step_50ms".to_string(),
            pin_run(&run(
                Scenario::HybridAttackChain,
                eandroid().with_step(SimDuration::from_millis(50)),
            )),
        ),
    ];
    for case in DepletionCase::ALL {
        let curve = if faulted {
            run_depletion_chaos(case, 1, &plan(), 0)
        } else {
            run_depletion(case, 1)
        };
        table.push((format!("fig03 {}", case.label()), pin_curve(&curve)));
    }
    table
}

#[test]
fn scenario_bytes_match_their_absolute_pins() {
    check_table("SCENARIOS", &SCENARIOS, &scenario_table(false, true));
}

#[test]
fn scenario_bytes_match_their_pins_on_the_struct_kernel() {
    check_table("SCENARIOS", &SCENARIOS, &scenario_table(false, false));
}

#[test]
fn faulted_scenario_bytes_match_their_absolute_pins() {
    check_table(
        "SCENARIOS_FAULTED",
        &SCENARIOS_FAULTED,
        &scenario_table(true, true),
    );
}

#[test]
fn figure_artifacts_match_their_absolute_pins() {
    check_table("FIGURES", &FIGURES, &figure_table(false));
}

#[test]
fn faulted_figure_artifacts_match_their_absolute_pins() {
    check_table("FIGURES_FAULTED", &FIGURES_FAULTED, &figure_table(true));
}

#[test]
fn zero_rate_fault_plan_is_a_byte_identical_noop_on_figure_artifacts() {
    let zero = FaultPlan::zero(2_026);
    let fig01 = Scenario::Scene1MessageVideo.run_chaos(
        Profiler::android(ScreenPolicy::SeparateEntity),
        &zero,
        0,
    );
    assert_eq!(pin_run(&fig01), FIGURES[0].1, "fig01 under a zero plan");
    let fig08 = Scenario::Scene2HybridChain.run_chaos(eandroid(), &zero, 0);
    assert_eq!(pin_run(&fig08), FIGURES[1].1, "fig08 under a zero plan");
    for (index, case) in DepletionCase::ALL.into_iter().enumerate() {
        let curve = run_depletion_chaos(case, 1, &zero, 0);
        assert_eq!(
            pin_curve(&curve),
            FIGURES[3 + index].1,
            "depletion curve {} under a zero plan",
            curve.label
        );
    }
}

fn fleet_config(size: usize, faults: Option<FaultPlan>) -> FleetConfig {
    FleetConfig {
        jobs: 1,
        faults,
        ..FleetConfig::smoke(size, 2_026)
    }
}

/// The fleet settings the report goldens cover: no plan; a plan whose
/// only failure is a pre-boot panic; and a plan that abandons devices
/// mid-run, so their intent-log tails are pinned too.
fn fleet_plans() -> [Option<FaultPlan>; 3] {
    [
        None,
        Some(FaultPlan::uniform(2_026, 0.35)),
        Some(FaultPlan::uniform(1, 0.5)),
    ]
}

/// Panics, listing every run, unless each fingerprint in `runs` is `pin`.
fn check_runs(what: &str, pin: u64, runs: &[(String, u64)]) {
    if runs.iter().all(|&(_, got)| got == pin) {
        return;
    }
    let listing: Vec<String> = runs
        .iter()
        .map(|(label, got)| format!("{label}: 0x{got:016x}"))
        .collect();
    panic!("{what} moved from pin 0x{pin:016x}: {listing:?}");
}

#[test]
fn fleet_report_bytes_match_their_absolute_pins_at_any_jobs() {
    for (setting, (pin, faults)) in FLEET.into_iter().zip(fleet_plans()).enumerate() {
        let base = fleet_config(6, faults);
        let runs: Vec<(String, u64)> = [1, 4, 8]
            .into_iter()
            .flat_map(|jobs| [(jobs, true), (jobs, false)])
            .map(|(jobs, batch_kernel)| {
                let (report, _) = run_fleet(&FleetConfig {
                    jobs,
                    batch_kernel,
                    ..base.clone()
                });
                let label = format!("jobs={jobs} batch_kernel={batch_kernel}");
                (label, fnv1a(render::to_json(&report).as_bytes()))
            })
            .collect();
        let what = format!("fleet report (fleet_plans()[{setting}])");
        check_runs(&what, pin, &runs);
    }
}

#[test]
fn streamed_report_bytes_match_their_absolute_pins_at_any_lanes() {
    for (setting, (pin, faults)) in STREAM.into_iter().zip(fleet_plans()).enumerate() {
        let base = fleet_config(5, faults);
        let runs: Vec<(String, u64)> = [1, 2, 5]
            .into_iter()
            .flat_map(|lanes| [(lanes, true), (lanes, false)])
            .map(|(lanes, batch_kernel)| {
                let config = ServeConfig {
                    lanes,
                    ..ServeConfig::new(FleetConfig {
                        batch_kernel,
                        ..base.clone()
                    })
                };
                let (streamed, _) = run_serve(&config, None).expect("no socket: cannot fail");
                (
                    format!("lanes={lanes} batch_kernel={batch_kernel}"),
                    fnv1a(render::to_json(&streamed).as_bytes()),
                )
            })
            .collect();
        let what = format!("streamed report (fleet_plans()[{setting}])");
        check_runs(&what, pin, &runs);
    }
}
