//! `eandroid` — command-line front end to the E-Android reproduction.
//!
//! ```text
//! eandroid scenario <name|all> [--mode android|eandroid] [--policy separate|foreground] [--routines] [--timeline] [--detect] [--faults <rate|plan.json>] [--fault-seed N]
//! eandroid depletion [<case>|all] [--cap-hours N]
//! eandroid corpus [--seed N] [--size N] [--show-xml]
//! eandroid micro [--runs N]
//! eandroid antutu
//! eandroid workload [--seed N] [--sessions N]
//! eandroid fleet [<fleet flags>] [--trace <base>]
//! eandroid replay <report.json> [--healthy N] [--json]
//! eandroid metrics [<fleet flags>]
//! eandroid serve [<fleet flags>] [--lanes L] [--ring N] [--window N] [--socket <path>] [--hold]
//! eandroid query [--socket <path>] <ping|snapshot|window|report|shutdown>
//! eandroid chaos [--seed N] [--fleet-size N] [--quick] [--json]
//! eandroid list
//! eandroid help
//! ```
//!
//! where `<fleet flags>` are `[--size N] [--seed N] [--jobs J] [--json]
//! [--inject-panic N] [--faults <rate|plan.json>] [--watch]
//! [--heartbeat <path>] [--flight-recorder N] [--batch-kernel on|off]`.
//!
//! Argument parsing is hand-rolled: the interface is small and the workspace
//! keeps its dependency set minimal (see DESIGN.md §6). Every command that
//! takes arguments rejects an unknown flag, a missing value or a malformed
//! number with exit code 2 and its usage line.

use std::process::ExitCode;

use e_android::apps::{run_depletion, DepletionCase, Scenario};
use e_android::chaos::FaultPlan;
use e_android::core::{
    labels_from, AttackTimeline, BatteryView, DetectorConfig, Profiler, ScreenPolicy,
};
use e_android::corpus::{analyze, generate_corpus, to_manifest_xml, CorpusConfig};
use e_android::fleet::{run_fleet_traced, FleetConfig};
use e_android::framework::AndroidSystem;
use e_android::lint::{render, BaselineDiff, LintSystem, Linter};
use e_android::metrics::{sample_live, FleetObservatory, SnapshotEmitter};
use e_android::serve::{run_serve, Request, ServeConfig};
use e_android::telemetry::SinkHandle;

const HELP: &str = "\
eandroid — collateral-energy profiling on a simulated Android handset

USAGE:
    eandroid <command> [options]

COMMANDS:
    scenario <name|all>   run a paper scenario and print the battery views
        --mode android|eandroid    profiler mode (default eandroid)
        --policy separate|foreground
                                   screen policy (default separate)
        --routines                 also print the eprof-style routine split
        --timeline                 also print the attack-period timeline
        --detect                   also print the collateral-bug report
        --faults <rate|plan.json>  inject seeded faults (DESIGN.md \u{a7}11)
        --fault-seed N             fault-plan seed (default 2026)
    depletion [<case>|all]  replay the Figure 3 battery race
        --cap-hours N              stop after N simulated hours (default 24)
    corpus                  generate + analyze the Figure 2 corpus
        --seed N                   RNG seed (default 2017)
        --size N                   corpus size (default 1124)
        --show-xml                 print the first manifest as XML
    micro                   run the Figure 10 micro-benchmark matrix
        --runs N                   samples per op/config (default 50)
    antutu                  run the Figure 11 parity benchmark
    lint [demo|corpus]      static collateral-energy analysis (rules EA0001-EA0009)
        --json                     emit the report as JSON (schema v2)
        --baseline <report.json>   diff against a saved JSON report; exit
                                   non-zero iff new findings are introduced
        --rules                    list the rule registry and exit
        --seed N                   corpus RNG seed (default 2017)
        --size N                   corpus size (default 1124)
    workload                simulate a randomized day of phone use
        --seed N                   RNG seed (default 7)
        --sessions N               user sessions (default 10)
    fleet                   simulate a fleet of devices and aggregate
        --size N                   devices to simulate (default 64)
        --seed N                   fleet seed (default 2026)
        --jobs J                   worker threads (default: all cores)
        --json                     emit the deterministic report as JSON
        --trace <base>             export telemetry to <base>.jsonl + <base>.trace.json
        --inject-panic N           fault-inject a panic into device N
        --faults <rate|plan.json>  inject seeded faults into every device
        --watch                    live fleet-health line on stderr while running
        --heartbeat <path>         write JSONL health snapshots to <path>
        --flight-recorder N        keep the last N telemetry events per device,
                                   dumped into the report on device abandonment
        --batch-kernel on|off      struct-of-arrays power kernel (default on;
                                   off = per-device model structs, same bytes)
    replay <report.json>    re-execute every failure recorded in a fleet
                            report and verify it reproduces exactly
        --healthy N                also re-simulate N completed devices
                                   and diff them against their rows
        --json                     emit the replay verdicts as JSON
    metrics                 run a fleet and print its health snapshot
        --json                     one JSONL snapshot instead of Prometheus text
        (also accepts every fleet flag above except --trace)
    serve                   stream the fleet through the ingest service
        --lanes L                  ingest lanes (default: all cores)
        --ring N                   SPSC ring capacity per lane (default 1024)
        --window N                 lane events per ingest window (default 64)
        --socket <path>            serve snapshot queries on a Unix socket
        --hold                     keep serving after the stream drains,
                                   until a shutdown query arrives
        (also accepts every fleet flag above except --trace; the
         final report is byte-identical to `eandroid fleet`)
    query <op>              query a running serve instance; ops: ping,
                            snapshot, window, report, shutdown
        --socket <path>            the service's socket (required)
        --retries N                connection attempts (default 40)
        --retry-delay-ms N         pause between attempts (default 250)
    chaos                   run the deterministic fault-injection soak
        --seed N                   fault-plan seed (default 2026)
        --fleet-size N             devices in the fleet leg (default 64)
        --quick                    one moderate rate instead of the ladder
        --json                     emit the soak report as JSON
    list                    list scenario and depletion-case names
    help                    this text
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some("scenario") => cmd_scenario(&args.collect::<Vec<_>>()),
        Some("depletion") => cmd_depletion(&args.collect::<Vec<_>>()),
        Some("corpus") => cmd_corpus(&args.collect::<Vec<_>>()),
        Some("micro") => cmd_micro(&args.collect::<Vec<_>>()),
        Some("antutu") => cmd_antutu(),
        Some("lint") => cmd_lint(&args.collect::<Vec<_>>()),
        Some("workload") => cmd_workload(&args.collect::<Vec<_>>()),
        Some("fleet") => cmd_fleet(&args.collect::<Vec<_>>()),
        Some("replay") => cmd_replay(&args.collect::<Vec<_>>()),
        Some("metrics") => cmd_metrics(&args.collect::<Vec<_>>()),
        Some("serve") => cmd_serve(&args.collect::<Vec<_>>()),
        Some("query") => cmd_query(&args.collect::<Vec<_>>()),
        Some("chaos") => cmd_chaos(&args.collect::<Vec<_>>()),
        Some("list") => {
            println!("scenarios:");
            for scenario in Scenario::ALL {
                println!("  {}", scenario.name());
            }
            println!("depletion cases:");
            for case in DepletionCase::ALL {
                println!("  {}", case.label());
            }
            ExitCode::SUCCESS
        }
        Some("help") | None => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            print!("{HELP}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &[&'a str], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|&arg| arg == flag)
        .and_then(|index| args.get(index + 1).copied())
}

fn has_flag(args: &[&str], flag: &str) -> bool {
    args.contains(&flag)
}

/// One flag a command accepts: its name and the placeholder of its value
/// (`None` for a switch).
type Flag = (&'static str, Option<&'static str>);

/// The arguments one command accepts. Its usage line is built from these
/// lists, so each flag is declared once.
struct Usage {
    command: &'static str,
    /// Leading positional arguments, as the usage line shows them.
    positionals: &'static [&'static str],
    flags: &'static [&'static [Flag]],
}

/// Flags shared by `fleet`, `metrics` and `serve` (parsed by
/// [`parse_fleet_config`] and the observatory wiring).
const FLEET_FLAGS: &[Flag] = &[
    ("--size", Some("N")),
    ("--seed", Some("N")),
    ("--jobs", Some("J")),
    ("--json", None),
    ("--inject-panic", Some("N")),
    ("--faults", Some("<rate|plan.json>")),
    ("--watch", None),
    ("--heartbeat", Some("<path>")),
    ("--flight-recorder", Some("N")),
    ("--batch-kernel", Some("on|off")),
];

const SCENARIO_USAGE: Usage = Usage {
    command: "scenario",
    positionals: &["<name|all>"],
    flags: &[&[
        ("--mode", Some("android|eandroid")),
        ("--policy", Some("separate|foreground")),
        ("--routines", None),
        ("--timeline", None),
        ("--detect", None),
        ("--faults", Some("<rate|plan.json>")),
        ("--fault-seed", Some("N")),
    ]],
};

const FLEET_USAGE: Usage = Usage {
    command: "fleet",
    positionals: &[],
    flags: &[FLEET_FLAGS, &[("--trace", Some("<base>"))]],
};

const METRICS_USAGE: Usage = Usage {
    command: "metrics",
    positionals: &[],
    flags: &[FLEET_FLAGS],
};

const SERVE_USAGE: Usage = Usage {
    command: "serve",
    positionals: &[],
    flags: &[
        FLEET_FLAGS,
        &[
            ("--lanes", Some("L")),
            ("--ring", Some("N")),
            ("--window", Some("N")),
            ("--socket", Some("<path>")),
            ("--hold", None),
        ],
    ],
};

const REPLAY_USAGE: Usage = Usage {
    command: "replay",
    positionals: &["<report.json>"],
    flags: &[&[("--healthy", Some("N")), ("--json", None)]],
};

const QUERY_USAGE: Usage = Usage {
    command: "query",
    positionals: &["[ping|snapshot|window|report|shutdown]"],
    flags: &[&[
        ("--socket", Some("<path>")),
        ("--retries", Some("N")),
        ("--retry-delay-ms", Some("N")),
    ]],
};

const CHAOS_USAGE: Usage = Usage {
    command: "chaos",
    positionals: &[],
    flags: &[&[
        ("--seed", Some("N")),
        ("--fleet-size", Some("N")),
        ("--quick", None),
        ("--json", None),
    ]],
};

const LINT_USAGE: Usage = Usage {
    command: "lint",
    positionals: &["[demo|corpus]"],
    flags: &[&[
        ("--json", None),
        ("--baseline", Some("<report.json>")),
        ("--rules", None),
        ("--seed", Some("N")),
        ("--size", Some("N")),
    ]],
};

const DEPLETION_USAGE: Usage = Usage {
    command: "depletion",
    positionals: &["[<case>|all]"],
    flags: &[&[("--cap-hours", Some("N"))]],
};

const CORPUS_USAGE: Usage = Usage {
    command: "corpus",
    positionals: &[],
    flags: &[&[
        ("--seed", Some("N")),
        ("--size", Some("N")),
        ("--show-xml", None),
    ]],
};

const MICRO_USAGE: Usage = Usage {
    command: "micro",
    positionals: &[],
    flags: &[&[("--runs", Some("N"))]],
};

const WORKLOAD_USAGE: Usage = Usage {
    command: "workload",
    positionals: &[],
    flags: &[&[("--seed", Some("N")), ("--sessions", Some("N"))]],
};

impl Usage {
    fn flag(&self, arg: &str) -> Option<Flag> {
        self.flags
            .iter()
            .flat_map(|flags| flags.iter())
            .find(|(flag, _)| *flag == arg)
            .copied()
    }

    /// The first argument that is neither a flag nor a flag's value,
    /// wherever it sits among the flags.
    fn positional<'a>(&self, args: &[&'a str]) -> Option<&'a str> {
        let mut rest = args.iter();
        while let Some(&arg) = rest.next() {
            match self.flag(arg) {
                Some((_, Some(_))) => {
                    rest.next();
                }
                Some((_, None)) => {}
                None => return Some(arg),
            }
        }
        None
    }

    /// Rejects a value flag with no value, and any argument that is not a
    /// flag of this command or one of its positionals.
    fn check(&self, args: &[&str]) -> Result<(), ExitCode> {
        let mut rest = args.iter();
        let mut positionals = 0;
        while let Some(&arg) = rest.next() {
            match self.flag(arg) {
                Some((_, Some(_))) => {
                    if rest.next().is_none() {
                        return Err(self.reject(&format!("{arg} needs a value")));
                    }
                }
                Some((_, None)) => {}
                None if !arg.starts_with("--") && positionals < self.positionals.len() => {
                    positionals += 1;
                }
                None => return Err(self.reject(&format!("unknown argument: {arg}"))),
            }
        }
        Ok(())
    }

    /// The value of `flag` parsed as a number, `None` when absent.
    fn number<T: std::str::FromStr>(
        &self,
        args: &[&str],
        flag: &str,
    ) -> Result<Option<T>, ExitCode> {
        flag_value(args, flag)
            .map(|value| {
                value
                    .parse()
                    .map_err(|_| self.reject(&format!("{flag} expects a number, got {value:?}")))
            })
            .transpose()
    }

    fn line(&self) -> String {
        let mut line = format!("usage: eandroid {}", self.command);
        for positional in self.positionals {
            line.push(' ');
            line.push_str(positional);
        }
        for (flag, value) in self.flags.iter().flat_map(|flags| flags.iter()) {
            match value {
                Some(value) => line.push_str(&format!(" [{flag} {value}]")),
                None => line.push_str(&format!(" [{flag}]")),
            }
        }
        line
    }

    /// The bad-argument exit: the message and this command's usage line on
    /// stderr, exit code 2.
    fn reject(&self, message: &str) -> ExitCode {
        eprintln!("{}: {message}\n{}", self.command, self.line());
        ExitCode::from(2)
    }
}

fn parse_policy(args: &[&str]) -> Result<ScreenPolicy, String> {
    match flag_value(args, "--policy") {
        None | Some("separate") => Ok(ScreenPolicy::SeparateEntity),
        Some("foreground") => Ok(ScreenPolicy::ForegroundApp),
        Some(other) => Err(format!("unknown policy: {other}")),
    }
}

fn cmd_scenario(args: &[&str]) -> ExitCode {
    if let Err(code) = SCENARIO_USAGE.check(args) {
        return code;
    }
    let Some(name) = SCENARIO_USAGE.positional(args) else {
        eprintln!("scenario: missing name (try `eandroid list`)");
        return ExitCode::FAILURE;
    };
    let policy = match parse_policy(args) {
        Ok(policy) => policy,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let eandroid_mode = match flag_value(args, "--mode") {
        None | Some("eandroid") => true,
        Some("android") => false,
        Some(other) => {
            eprintln!("unknown mode: {other}");
            return ExitCode::FAILURE;
        }
    };

    let fault_seed: u64 = match SCENARIO_USAGE.number(args, "--fault-seed") {
        Ok(seed) => seed.unwrap_or(2_026),
        Err(code) => return code,
    };
    let faults = match flag_value(args, "--faults") {
        Some(spec) => match FaultPlan::parse(spec, fault_seed) {
            Ok(plan) => Some(plan),
            Err(message) => {
                eprintln!("scenario: {message}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let selected: Vec<Scenario> = if name == "all" {
        Scenario::ALL.to_vec()
    } else {
        match Scenario::ALL.into_iter().find(|s| s.name() == name) {
            Some(scenario) => vec![scenario],
            None => {
                eprintln!("unknown scenario: {name} (try `eandroid list`)");
                return ExitCode::FAILURE;
            }
        }
    };

    for scenario in selected {
        let mut profiler = if eandroid_mode {
            Profiler::eandroid(policy)
        } else {
            Profiler::android(policy)
        };
        if has_flag(args, "--routines") {
            profiler = profiler.with_routine_accounting();
        }
        let run = match &faults {
            Some(plan) => {
                // Lanes follow the scenario's position in `Scenario::ALL`
                // so `scenario all --faults R` matches `eandroid chaos`.
                let lane = Scenario::ALL
                    .iter()
                    .position(|s| s.name() == scenario.name())
                    .unwrap_or(0) as u64;
                scenario.run_chaos(profiler, plan, lane)
            }
            None => scenario.run(profiler),
        };
        let labels = labels_from(&run.android);

        println!("=== {} ===", scenario.name());
        let mut view = match run.profiler.collateral() {
            Some(graph) => BatteryView::eandroid(run.profiler.ledger(), graph, &labels),
            None => BatteryView::android(run.profiler.ledger(), &labels),
        };
        if let Some(chaos) = run.profiler.chaos() {
            view = view
                .with_degraded(&chaos.degraded_by_entity())
                .with_confidence(chaos.confidence());
        }
        println!("{view}");
        println!(
            "battery: {:.2}% remaining ({:.1} J drained)",
            run.profiler.battery().percent(),
            run.profiler.battery().drained().as_joules()
        );
        if faults.is_some() {
            let mut injected = 0;
            let mut detected = 0;
            if let Some(log) = run.android.fault_log() {
                injected += log.injected_total();
                detected += log.detected_total();
            }
            if let Some(chaos) = run.profiler.chaos() {
                injected += chaos.log().injected_total();
                detected += chaos.log().detected_total();
            }
            println!("faults: {injected} injected, {detected} detected/compensated");
        }

        if has_flag(args, "--timeline") {
            if let Some(monitor) = run.profiler.monitor() {
                println!("\nattack timeline:");
                print!(
                    "{}",
                    AttackTimeline::from_history(monitor.attack_history(), &labels).render()
                );
            }
        }
        if has_flag(args, "--detect") {
            if let Some(monitor) = run.profiler.monitor() {
                let findings = e_android::core::report(
                    run.profiler.ledger(),
                    monitor.graph(),
                    monitor.attack_history(),
                    &DetectorConfig::default(),
                );
                println!("\ncollateral-bug report:");
                for finding in findings {
                    let label = labels
                        .get(&finding.uid)
                        .cloned()
                        .unwrap_or_else(|| format!("uid:{}", finding.uid.as_raw()));
                    println!(
                        "  {label:<26} own {:>8} collateral {:>8} stealth {:>4.0}% flags {:?}",
                        finding.own.to_string(),
                        finding.collateral.to_string(),
                        100.0 * finding.stealth_ratio,
                        finding.flags
                    );
                }
            }
        }
        if has_flag(args, "--routines") {
            if let Some(routines) = run.profiler.routines() {
                println!("\nhottest routines:");
                for (uid, routine, energy) in routines.top(8) {
                    let label = labels
                        .get(&uid)
                        .cloned()
                        .unwrap_or_else(|| format!("uid:{}", uid.as_raw()));
                    println!("  {label:<26} {:<22} {energy}", routine.label());
                }
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}

fn cmd_depletion(args: &[&str]) -> ExitCode {
    let usage = &DEPLETION_USAGE;
    let cap_hours = match usage
        .check(args)
        .and_then(|()| usage.number(args, "--cap-hours"))
    {
        Ok(hours) => hours.unwrap_or(24),
        Err(code) => return code,
    };
    let selected: Vec<DepletionCase> = match usage.positional(args) {
        None | Some("all") => DepletionCase::ALL.to_vec(),
        Some(name) => match DepletionCase::ALL.into_iter().find(|c| c.label() == name) {
            Some(case) => vec![case],
            None => {
                eprintln!("unknown depletion case: {name} (try `eandroid list`)");
                return ExitCode::FAILURE;
            }
        },
    };
    for case in selected {
        let curve = run_depletion(case, cap_hours);
        println!(
            "{:<16} battery dead after {:>5.1} h",
            curve.label, curve.lifetime_hours
        );
    }
    ExitCode::SUCCESS
}

/// The `--seed`/`--size` corpus flags of `corpus` and `lint`, defaulting
/// to the paper's 1,124-app corpus at seed 2017.
fn parse_corpus_flags(usage: &Usage, args: &[&str]) -> Result<(u64, usize), ExitCode> {
    Ok((
        usage.number(args, "--seed")?.unwrap_or(2_017),
        usage.number(args, "--size")?.unwrap_or(1_124),
    ))
}

fn cmd_corpus(args: &[&str]) -> ExitCode {
    let usage = &CORPUS_USAGE;
    let (seed, size) = match usage
        .check(args)
        .and_then(|()| parse_corpus_flags(usage, args))
    {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let config = CorpusConfig {
        size,
        ..CorpusConfig::paper()
    };
    let corpus = generate_corpus(&config, seed);
    let stats = analyze(&corpus);
    println!("apps: {}", stats.total);
    println!("exported component: {:.1}%", stats.exported_percent());
    println!("WAKE_LOCK:          {:.1}%", stats.wake_lock_percent());
    println!("WRITE_SETTINGS:     {:.1}%", stats.write_settings_percent());
    if has_flag(args, "--show-xml") {
        if let Some(first) = corpus.first() {
            println!("\n{}", to_manifest_xml(first));
        }
    }
    ExitCode::SUCCESS
}

fn cmd_micro(args: &[&str]) -> ExitCode {
    let usage = &MICRO_USAGE;
    let runs = match usage
        .check(args)
        .and_then(|()| usage.number(args, "--runs"))
    {
        Ok(runs) => runs.unwrap_or(50),
        Err(code) => return code,
    };
    for result in ea_bench::run_micro_matrix(runs) {
        println!(
            "{:<22} {:<20} median {:>8.2} µs",
            result.op,
            result.config,
            result.stats.median as f64 / 1_000.0
        );
    }
    ExitCode::SUCCESS
}

fn cmd_workload(args: &[&str]) -> ExitCode {
    let usage = &WORKLOAD_USAGE;
    let parsed = usage.check(args).and_then(|()| {
        let mut config = e_android::apps::WorkloadConfig {
            sessions: 10,
            ..e_android::apps::WorkloadConfig::default()
        };
        if let Some(seed) = usage.number(args, "--seed")? {
            config.seed = seed;
        }
        if let Some(sessions) = usage.number(args, "--sessions")? {
            config.sessions = sessions;
        }
        Ok(config)
    });
    let config = match parsed {
        Ok(config) => config,
        Err(code) => return code,
    };
    let (android, profiler, summary) =
        e_android::apps::run_workload(config, Profiler::eandroid(ScreenPolicy::SeparateEntity));
    println!(
        "{:.1} simulated minutes, {} actions, battery {:.1}%",
        summary.elapsed_secs / 60.0,
        summary.actions,
        summary.final_percent
    );
    let labels = labels_from(&android);
    let graph = profiler.collateral().expect("eandroid profiler");
    println!(
        "{}",
        BatteryView::eandroid(profiler.ledger(), graph, &labels)
    );
    ExitCode::SUCCESS
}

/// Builds a [`FleetConfig`] from the shared fleet/metrics/serve flag
/// set, after checking `args` against `usage`. Bad arguments exit 2 with
/// the usage line; a fault plan that fails to load exits 1.
fn parse_fleet_config(usage: &Usage, args: &[&str]) -> Result<FleetConfig, ExitCode> {
    usage.check(args)?;
    let mut config = FleetConfig::default();
    if let Some(size) = usage.number(args, "--size")? {
        config.size = size;
    }
    if let Some(seed) = usage.number(args, "--seed")? {
        config.seed = seed;
    }
    if let Some(jobs) = usage.number(args, "--jobs")? {
        config.jobs = jobs;
    }
    if let Some(index) = usage.number(args, "--inject-panic")? {
        config.panic_devices.push(index);
    }
    if let Some(capacity) = usage.number(args, "--flight-recorder")? {
        config.flight_recorder = capacity;
    }
    match flag_value(args, "--batch-kernel") {
        None | Some("on") => config.batch_kernel = true,
        Some("off") => config.batch_kernel = false,
        Some(other) => {
            return Err(usage.reject(&format!("--batch-kernel expects on|off, got {other}")))
        }
    }
    if let Some(spec) = flag_value(args, "--faults") {
        match FaultPlan::parse(spec, config.seed) {
            Ok(plan) => config.faults = Some(plan),
            Err(message) => {
                eprintln!("{}: {message}", usage.command);
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(config)
}

/// The `--watch`/`--heartbeat` surfaces `args` ask for. A heartbeat
/// file that cannot be created is an error (exit 1).
fn live_emitter(usage: &Usage, args: &[&str]) -> Result<SnapshotEmitter<'static>, ExitCode> {
    let heartbeat = match flag_value(args, "--heartbeat") {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(Box::new(file) as Box<dyn std::io::Write + Send>),
            Err(error) => {
                eprintln!(
                    "{}: cannot create heartbeat file {path}: {error}",
                    usage.command
                );
                return Err(ExitCode::FAILURE);
            }
        },
        None => None,
    };
    Ok(SnapshotEmitter::new(has_flag(args, "--watch"), heartbeat))
}

/// Runs the fleet with a live observatory attached, sampled into
/// `emitter` by the same sampler the `serve` service runs, so `--watch`
/// and `--heartbeat` render identical numbers on both commands.
fn run_fleet_with_observatory(
    config: &FleetConfig,
    sink: SinkHandle,
    emitter: &SnapshotEmitter<'_>,
) -> (
    e_android::fleet::FleetReport,
    e_android::fleet::FleetRunStats,
    e_android::metrics::MetricsSnapshot,
) {
    let jobs = config.effective_jobs().max(1).min(config.size.max(1));
    let observatory = FleetObservatory::new(config.size, jobs);
    let ((report, stats), snapshot) = sample_live(&observatory, emitter, || {
        e_android::fleet::run_fleet_observed(config, sink, Some(&observatory))
    });
    (report, stats, snapshot)
}

fn cmd_fleet(args: &[&str]) -> ExitCode {
    let config = match parse_fleet_config(&FLEET_USAGE, args) {
        Ok(config) => config,
        Err(code) => return code,
    };

    let trace = flag_value(args, "--trace").map(ea_bench::TraceRequest::to_base);
    let sink = match &trace {
        Some(trace) => SinkHandle::new(trace.sink()),
        None => SinkHandle::noop(),
    };

    let emitter = match live_emitter(&FLEET_USAGE, args) {
        Ok(emitter) => emitter,
        Err(code) => return code,
    };
    let (report, stats) = if emitter.enabled() {
        let (report, stats, _) = run_fleet_with_observatory(&config, sink, &emitter);
        (report, stats)
    } else {
        run_fleet_traced(&config, sink)
    };

    // The report is the deterministic artifact; wall-clock facts go to
    // stderr so `--json` output stays byte-identical across job counts.
    if has_flag(args, "--json") {
        print!("{}", e_android::fleet::render::to_json(&report));
    } else {
        print!("{}", e_android::fleet::render::to_text(&report));
    }
    eprintln!("{}", e_android::fleet::render::stats_line(&stats));
    if let Some(trace) = &trace {
        if let Err(error) = trace.finish() {
            eprintln!("fleet: failed to write trace files: {error}");
            return ExitCode::FAILURE;
        }
    }
    // Device failures are data, not a process error: the report carries
    // them and the run still succeeded.
    ExitCode::SUCCESS
}

/// `eandroid replay` — load a saved fleet report and re-execute every
/// recorded [`DeviceFailure`](e_android::fleet::DeviceFailure) from the
/// report's embedded replay config, diffing panic message, attempt
/// count, salvaged checkpoint, and the lifecycle intent-log tail against
/// the recorded bundle. `--healthy N` additionally re-simulates a strided
/// sample of completed devices as a divergence detector. Exits non-zero
/// on any mismatch: a divergence means nondeterminism, not noise.
fn cmd_replay(args: &[&str]) -> ExitCode {
    let usage = &REPLAY_USAGE;
    let healthy = match usage
        .check(args)
        .and_then(|()| usage.number(args, "--healthy"))
    {
        Ok(healthy) => healthy.unwrap_or(0),
        Err(code) => return code,
    };
    let Some(path) = usage.positional(args) else {
        eprintln!("replay: missing report path (produce one with `eandroid fleet --json`)");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("replay: cannot read {path}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let report: e_android::fleet::FleetReport = match serde_json::from_str(&text) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("replay: {path} is not a fleet report: {error}");
            return ExitCode::FAILURE;
        }
    };

    let verdicts = e_android::fleet::replay_report(&report, healthy);
    if has_flag(args, "--json") {
        match serde_json::to_string_pretty(&verdicts) {
            Ok(json) => println!("{json}"),
            Err(error) => {
                eprintln!("replay: failed to serialize verdicts: {error}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for replay in &verdicts.failures {
            if replay.matched {
                println!(
                    "device {:>4}  failure reproduced ({} intents in the replayed log)",
                    replay.index, replay.replayed_intents
                );
            } else {
                println!("device {:>4}  failure DIVERGED", replay.index);
                for mismatch in &replay.mismatches {
                    println!("    {mismatch}");
                }
            }
        }
        for replay in &verdicts.healthy {
            if replay.matched {
                println!(
                    "device {:>4}  healthy, matches its recorded row",
                    replay.index
                );
            } else {
                println!("device {:>4}  healthy replay DIVERGED", replay.index);
                for mismatch in &replay.mismatches {
                    println!("    {mismatch}");
                }
            }
        }
        println!(
            "replayed {} device(s): {} failure(s), {} healthy",
            verdicts.replayed(),
            verdicts.failures.len(),
            verdicts.healthy.len()
        );
    }
    if verdicts.replayed() == 0 {
        eprintln!(
            "replay: report records no failures (add --healthy N to spot-check completed devices)"
        );
    }
    if verdicts.all_matched() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `eandroid metrics` — run a fleet under the observatory and print the
/// final health snapshot as Prometheus-style text (or one JSONL heartbeat
/// with `--json`). The deterministic report itself is discarded: this
/// command is the observability surface, `eandroid fleet` the report one.
fn cmd_metrics(args: &[&str]) -> ExitCode {
    let config = match parse_fleet_config(&METRICS_USAGE, args) {
        Ok(config) => config,
        Err(code) => return code,
    };

    let emitter = match live_emitter(&METRICS_USAGE, args) {
        Ok(emitter) => emitter,
        Err(code) => return code,
    };

    let (_report, stats, snapshot) =
        run_fleet_with_observatory(&config, SinkHandle::noop(), &emitter);
    if has_flag(args, "--json") {
        println!("{}", snapshot.to_jsonl());
    } else {
        print!("{}", snapshot.to_prometheus());
    }
    eprintln!("{}", e_android::fleet::render::stats_line(&stats));
    ExitCode::SUCCESS
}

/// `eandroid serve` — stream the configured fleet through the ingest
/// service and print the drained deterministic report, byte-identical
/// to `eandroid fleet` over the same seed/size at any `--lanes`.
fn cmd_serve(args: &[&str]) -> ExitCode {
    let fleet = match parse_fleet_config(&SERVE_USAGE, args) {
        Ok(config) => config,
        Err(code) => return code,
    };
    let mut config = ServeConfig::new(fleet);
    let sizes = (|| -> Result<(), ExitCode> {
        if let Some(lanes) = SERVE_USAGE.number(args, "--lanes")? {
            config.lanes = lanes;
        }
        if let Some(capacity) = SERVE_USAGE.number(args, "--ring")? {
            config.ring_capacity = capacity;
        }
        if let Some(events) = SERVE_USAGE.number(args, "--window")? {
            config.window_events = events;
        }
        Ok(())
    })();
    if let Err(code) = sizes {
        return code;
    }
    config.socket = flag_value(args, "--socket").map(std::path::PathBuf::from);
    config.hold = has_flag(args, "--hold");
    if config.hold && config.socket.is_none() {
        eprintln!("serve: --hold needs --socket (nothing to hold the service open for)");
        return ExitCode::FAILURE;
    }

    let emitter = match live_emitter(&SERVE_USAGE, args) {
        Ok(emitter) => emitter,
        Err(code) => return code,
    };

    let (report, stats) = match run_serve(&config, Some(&emitter)) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    if has_flag(args, "--json") {
        print!("{}", e_android::fleet::render::to_json(&report));
    } else {
        print!("{}", e_android::fleet::render::to_text(&report));
    }
    eprintln!("{}", e_android::serve::stats_line(&stats));
    ExitCode::SUCCESS
}

/// `eandroid query` — one request to a running serve instance; prints
/// the raw JSON response line.
fn cmd_query(args: &[&str]) -> ExitCode {
    let usage = &QUERY_USAGE;
    let retries = usage.check(args).and_then(|()| {
        Ok((
            usage.number(args, "--retries")?.unwrap_or(40),
            usage.number(args, "--retry-delay-ms")?.unwrap_or(250),
        ))
    });
    let (retries, delay_ms) = match retries {
        Ok(retries) => retries,
        Err(code) => return code,
    };
    let Some(socket) = flag_value(args, "--socket") else {
        eprintln!("query: --socket <path> is required");
        return ExitCode::FAILURE;
    };
    let op = usage.positional(args).unwrap_or("snapshot");
    let request = match Request::parse(op) {
        Ok(request) => request,
        Err(message) => {
            eprintln!("query: {message}");
            return ExitCode::FAILURE;
        }
    };
    match e_android::serve::query_with_retry(
        std::path::Path::new(socket),
        request,
        retries,
        std::time::Duration::from_millis(delay_ms),
    ) {
        Ok(reply) => {
            println!("{reply}");
            if reply.starts_with("{\"error\"") {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(error) => {
            eprintln!("query: {error}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_chaos(args: &[&str]) -> ExitCode {
    let usage = &CHAOS_USAGE;
    let parsed = usage.check(args).and_then(|()| {
        let mut config = e_android::soak::SoakConfig::default();
        if let Some(seed) = usage.number(args, "--seed")? {
            config.seed = seed;
        }
        if let Some(size) = usage.number(args, "--fleet-size")? {
            config.fleet_size = size;
        }
        config.quick = has_flag(args, "--quick");
        Ok(config)
    });
    let config = match parsed {
        Ok(config) => config,
        Err(code) => return code,
    };

    let report = e_android::soak::run_soak(&config);
    if has_flag(args, "--json") {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(error) => {
                eprintln!("chaos: failed to serialize report: {error}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!(
            "chaos soak: {} scenario runs, {} fleet runs (seed {})",
            report.scenario_runs, report.fleet_runs, config.seed
        );
        println!("faults injected:");
        for (kind, count) in &report.faults_injected {
            let detected = report.faults_detected.get(kind).copied().unwrap_or(0);
            println!("  {kind:<24} {count:>7} injected {detected:>7} detected");
        }
        if report.passed() {
            println!("all invariants held");
        } else {
            println!("{} violation(s):", report.violations.len());
            for violation in &report.violations {
                println!("  {violation}");
            }
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_lint(args: &[&str]) -> ExitCode {
    let usage = &LINT_USAGE;
    let (seed, size) = match usage
        .check(args)
        .and_then(|()| parse_corpus_flags(usage, args))
    {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    if has_flag(args, "--rules") {
        println!("{:<26} {:<8} description", "rule", "attack");
        for (rule, description) in Linter::new().rule_listing() {
            let attack = rule
                .paper_attack()
                .map(|n| format!("#{n}"))
                .unwrap_or_else(|| String::from("-"));
            println!("{:<26} {:<8} {}", rule.to_string(), attack, description);
        }
        return ExitCode::SUCCESS;
    }

    let target = match usage.positional(args) {
        None | Some("demo") => "demo",
        Some("corpus") => "corpus",
        Some(other) => {
            eprintln!("unknown lint target: {other} (expected demo or corpus)");
            return ExitCode::FAILURE;
        }
    };

    let report = if target == "demo" {
        // The paper's testbed: the six demo apps plus the fungame malware.
        let mut android = AndroidSystem::new();
        e_android::apps::DemoApps::install_all(&mut android);
        e_android::apps::Malware::install(&mut android);
        android.lint()
    } else {
        let config = CorpusConfig {
            size,
            ..CorpusConfig::paper()
        };
        let corpus = generate_corpus(&config, seed);
        Linter::new().lint_manifests(&corpus)
    };

    // Revision-regression mode: diff against a saved schema-v2 JSON
    // report. Introduced findings are regressions and fail the exit code;
    // identical inputs diff clean and exit zero.
    if let Some(path) = flag_value(args, "--baseline") {
        let baseline_text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("cannot read baseline {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match render::parse_json(&baseline_text) {
            Ok(parsed) => parsed,
            Err(err) => {
                eprintln!("invalid baseline {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let diff = BaselineDiff::compare(&baseline, &render::json_report(&report));
        print!("{diff}");
        return if diff.has_regressions() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if has_flag(args, "--json") {
        print!("{}", render::to_json(&report));
    } else if target == "demo" {
        print!("{}", render::to_text(&report));
    } else {
        println!(
            "{} diagnostic(s) across {} app(s), total static bound {:.1} kJ/day",
            report.len(),
            report.apps_checked,
            report.total_predicted_joules() / 1_000.0
        );
        for (rule, count) in report.counts_by_rule() {
            println!("  {:<26} {count:>6}", rule.to_string());
        }
    }
    ExitCode::SUCCESS
}

fn cmd_antutu() -> ExitCode {
    for config in ea_bench::OverheadConfig::ALL {
        let score = ea_bench::run_antutu(config, ea_bench::AntutuWorkload::default());
        println!("{:<20} total {:>10.1}", config.label(), score.total);
    }
    ExitCode::SUCCESS
}
