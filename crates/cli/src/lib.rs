//! # dtn-cli
//!
//! The `dtn` command-line tool: run incentive-mechanism scenarios from
//! JSON config files without writing Rust.
//!
//! ```text
//! dtn template > scenario.json        # a commented starting point
//! dtn validate scenario.json          # check a config
//! dtn run scenario.json               # run the Incentive arm, print stats
//! dtn run scenario.json --arm chitchat --seed 7 --json out.json
//! dtn compare scenario.json --seeds 3 # paired Incentive-vs-ChitChat
//! ```
//!
//! All the command logic lives in this library so it is unit-testable;
//! `main.rs` only forwards `std::env::args`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Write as _;

use dtn_sim::stats::RunSummary;
use dtn_workloads::paper::{reduced_scenario, seeds_for, QUICK_SEEDS};
use dtn_workloads::prelude::{
    read_snapshot, run_with_snapshots, BackendKind, RunMeta, RunProgress, SnapshotPolicy,
};
use dtn_workloads::runner::{compare, PerfReport};
use dtn_workloads::scenario::{Arm, Scenario};

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print a scenario template to stdout.
    Template,
    /// Validate a scenario file.
    Validate {
        /// Path to the scenario JSON.
        path: String,
    },
    /// Run one arm of a scenario.
    Run {
        /// Path to the scenario JSON.
        path: String,
        /// Which arm to run.
        arm: Arm,
        /// The seed.
        seed: u64,
        /// Optional path for a JSON result dump.
        json_out: Option<String>,
        /// Optional path for a kernel event trace dump.
        trace_out: Option<String>,
        /// Optional fault-injection spec (overrides the scenario's
        /// `chaos` field; see `FaultPlan::from_str` for the grammar).
        chaos: Option<String>,
        /// Optional adversarial strategy-mix spec (overrides the
        /// scenario's `strategies` field; see `StrategyMix::from_str`
        /// for the grammar).
        strategies: Option<String>,
        /// Audit invariants in-run (`--check-invariants`): sets the
        /// scenario's `audit_every` to 60 steps when it leaves it unset.
        check_invariants: bool,
        /// Optional path for a wall-clock metrics JSON dump
        /// (`--metrics-out`); enables the phase profiler.
        metrics_out: Option<String>,
        /// Print the per-phase wall-clock table (`--verbose`); enables
        /// the phase profiler.
        verbose: bool,
        /// Optional retry-cap override (`--retry-max`); any recovery flag
        /// enables transfer recovery if the scenario did not.
        retry_max: Option<u32>,
        /// Optional backoff-base override in seconds (`--backoff-base`).
        backoff_base: Option<f64>,
        /// Optional checkpoint-resume toggle (`--resume on|off`).
        resume: Option<bool>,
        /// Optional override of the threads that may step the event
        /// core's contact regions (`--threads N`); output is
        /// byte-identical at any value.
        threads: Option<usize>,
        /// Optional simulation-core override (`--kernel-mode
        /// event-driven|time-stepped`); both cores are byte-identical.
        kernel_mode: Option<dtn_sim::events::KernelMode>,
        /// Optional periodic-snapshot cadence in simulated seconds
        /// (`--snapshot-every`); requires `--snapshot-dir`.
        snapshot_every: Option<f64>,
        /// Optional directory for whole-world snapshots
        /// (`--snapshot-dir`); also receives the final snapshot a SIGINT
        /// flushes.
        snapshot_dir: Option<String>,
        /// Optional snapshot file to resume from (`--resume-from`); the
        /// run continues byte-identically to never having stopped.
        resume_from: Option<String>,
    },
    /// Run both arms and print the paired comparison.
    Compare {
        /// Path to the scenario JSON.
        path: String,
        /// How many seeds to average over (the quick set first, then the
        /// deterministic extension `404, 505, …`).
        seeds: usize,
        /// Optional path for a wall-clock metrics JSON dump
        /// (`--metrics-out`); enables the phase profiler.
        metrics_out: Option<String>,
        /// Print the per-phase wall-clock table (`--verbose`); enables
        /// the phase profiler.
        verbose: bool,
        /// Optional override of the threads that may step the event
        /// core's contact regions (`--threads N`); output is
        /// byte-identical at any value.
        threads: Option<usize>,
        /// Optional sweep-executor pool size (`--sweep-workers N`); both
        /// arms' seeds run through one work queue. Output is
        /// byte-identical at any value.
        sweep_workers: Option<usize>,
        /// Persist the executor's run cache under `results/.sweep-cache/`
        /// (`--sweep-cache`); repeat comparisons become cache hits.
        sweep_cache: bool,
        /// Optional routing backend (`--router <spec>`): the comparison
        /// becomes "incentive overlay on vs off" over that substrate.
        /// Overrides the scenario's `backend` field; defaults to chitchat
        /// (the paper's arms).
        router: Option<BackendKind>,
    },
    /// Print usage.
    Help,
}

/// Parses a command line (excluding `argv[0]`).
///
/// # Errors
///
/// Returns a usage-style message for unknown commands, missing arguments
/// or malformed flag values.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    match cmd {
        "template" => Ok(Command::Template),
        "validate" => {
            let path = it.next().ok_or("validate needs a scenario path")?.clone();
            Ok(Command::Validate { path })
        }
        "run" => {
            let path = it.next().ok_or("run needs a scenario path")?.clone();
            let mut arm = Arm::Incentive;
            let mut seed = QUICK_SEEDS[0];
            let mut json_out = None;
            let mut trace_out = None;
            let mut chaos = None;
            let mut strategies = None;
            let mut check_invariants = false;
            let mut metrics_out = None;
            let mut verbose = false;
            let mut retry_max = None;
            let mut backoff_base = None;
            let mut resume = None;
            let mut threads = None;
            let mut kernel_mode = None;
            let mut snapshot_every = None;
            let mut snapshot_dir = None;
            let mut resume_from = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--arm" => {
                        arm = match it.next().map(String::as_str) {
                            Some("incentive") => Arm::Incentive,
                            Some("chitchat") => Arm::ChitChat,
                            other => {
                                return Err(format!(
                                    "--arm must be 'incentive' or 'chitchat', got {other:?}"
                                ))
                            }
                        };
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|e| format!("bad --seed: {e}"))?;
                    }
                    "--json" => {
                        json_out = Some(it.next().ok_or("--json needs a path")?.clone());
                    }
                    "--trace" => {
                        trace_out = Some(it.next().ok_or("--trace needs a path")?.clone());
                    }
                    "--chaos" => {
                        let spec = it.next().ok_or("--chaos needs a fault spec")?.clone();
                        // Parse eagerly so a typo fails at the prompt, not
                        // minutes into a run.
                        spec.parse::<dtn_sim::faults::FaultPlan>()
                            .map_err(|e| format!("bad --chaos: {e}"))?;
                        chaos = Some(spec);
                    }
                    "--strategies" => {
                        let spec = it.next().ok_or("--strategies needs a mix spec")?.clone();
                        // Parse eagerly so a typo fails at the prompt, not
                        // minutes into a run.
                        spec.parse::<dtn_core::strategy::StrategyMix>()
                            .map_err(|e| format!("bad --strategies: {e}"))?;
                        strategies = Some(spec);
                    }
                    "--check-invariants" => check_invariants = true,
                    "--metrics-out" => {
                        metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?.clone());
                    }
                    "--verbose" => verbose = true,
                    "--retry-max" => {
                        retry_max = Some(
                            it.next()
                                .ok_or("--retry-max needs a count")?
                                .parse()
                                .map_err(|e| format!("bad --retry-max: {e}"))?,
                        );
                    }
                    "--backoff-base" => {
                        let secs: f64 = it
                            .next()
                            .ok_or("--backoff-base needs seconds")?
                            .parse()
                            .map_err(|e| format!("bad --backoff-base: {e}"))?;
                        if !secs.is_finite() || secs < 0.0 {
                            return Err(format!(
                                "--backoff-base must be finite and non-negative, got {secs}"
                            ));
                        }
                        backoff_base = Some(secs);
                    }
                    "--resume" => {
                        resume = match it.next().map(String::as_str) {
                            Some("on") => Some(true),
                            Some("off") => Some(false),
                            other => {
                                return Err(format!(
                                    "--resume must be 'on' or 'off', got {other:?}"
                                ))
                            }
                        };
                    }
                    "--threads" => threads = Some(parse_threads(it.next())?),
                    "--kernel-mode" => {
                        let spec = it.next().ok_or("--kernel-mode needs a core name")?;
                        kernel_mode = Some(
                            spec.parse::<dtn_sim::events::KernelMode>()
                                .map_err(|e| format!("bad --kernel-mode: {e}"))?,
                        );
                    }
                    "--snapshot-every" => {
                        let secs: f64 = it
                            .next()
                            .ok_or("--snapshot-every needs simulated seconds")?
                            .parse()
                            .map_err(|e| format!("bad --snapshot-every: {e}"))?;
                        if !secs.is_finite() || secs <= 0.0 {
                            return Err(format!(
                                "--snapshot-every must be finite and positive, got {secs}"
                            ));
                        }
                        snapshot_every = Some(secs);
                    }
                    "--snapshot-dir" => {
                        snapshot_dir =
                            Some(it.next().ok_or("--snapshot-dir needs a path")?.clone());
                    }
                    "--resume-from" => {
                        resume_from = Some(
                            it.next()
                                .ok_or("--resume-from needs a snapshot path")?
                                .clone(),
                        );
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if snapshot_every.is_some() && snapshot_dir.is_none() {
                return Err("--snapshot-every needs --snapshot-dir".to_owned());
            }
            Ok(Command::Run {
                path,
                arm,
                seed,
                json_out,
                trace_out,
                chaos,
                strategies,
                check_invariants,
                metrics_out,
                verbose,
                retry_max,
                backoff_base,
                resume,
                threads,
                kernel_mode,
                snapshot_every,
                snapshot_dir,
                resume_from,
            })
        }
        "compare" => {
            let path = it.next().ok_or("compare needs a scenario path")?.clone();
            let mut seeds = QUICK_SEEDS.len();
            let mut metrics_out = None;
            let mut verbose = false;
            let mut threads = None;
            let mut sweep_workers = None;
            let mut sweep_cache = false;
            let mut router = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--router" => {
                        let spec = it.next().ok_or("--router needs a router name")?;
                        router = Some(
                            BackendKind::parse(spec).map_err(|e| format!("bad --router: {e}"))?,
                        );
                    }
                    "--seeds" => {
                        seeds = it
                            .next()
                            .ok_or("--seeds needs a value")?
                            .parse()
                            .map_err(|e| format!("bad --seeds: {e}"))?;
                        if seeds == 0 {
                            return Err("--seeds must be at least 1".to_owned());
                        }
                    }
                    "--metrics-out" => {
                        metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?.clone());
                    }
                    "--verbose" => verbose = true,
                    "--threads" => threads = Some(parse_threads(it.next())?),
                    "--sweep-workers" => {
                        let n: usize = it
                            .next()
                            .ok_or("--sweep-workers needs a count")?
                            .parse()
                            .map_err(|e| format!("bad --sweep-workers: {e}"))?;
                        if n == 0 {
                            return Err("--sweep-workers must be at least 1".to_owned());
                        }
                        sweep_workers = Some(n);
                    }
                    "--sweep-cache" => sweep_cache = true,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Compare {
                path,
                seeds,
                metrics_out,
                verbose,
                threads,
                sweep_workers,
                sweep_cache,
                router,
            })
        }
        other => Err(format!("unknown command {other}; try 'dtn help'")),
    }
}

/// Parses a `--threads` value (a positive thread count).
fn parse_threads(value: Option<&String>) -> Result<usize, String> {
    let n: usize = value
        .ok_or("--threads needs a count")?
        .parse()
        .map_err(|e| format!("bad --threads: {e}"))?;
    if n == 0 {
        return Err("--threads must be at least 1".to_owned());
    }
    Ok(n)
}

/// The usage text.
#[must_use]
pub fn usage() -> &'static str {
    "dtn — delay-tolerant-network incentive-mechanism runner

USAGE:
    dtn template                         print a scenario template (JSON)
    dtn validate <scenario.json>         check a scenario file
    dtn run <scenario.json> [--arm incentive|chitchat] [--seed N]
                            [--json out.json] [--trace out.txt]
                            [--chaos <spec>] [--strategies <spec>]
                            [--check-invariants]
                            [--metrics-out m.json] [--verbose]
                            [--retry-max N] [--backoff-base SECS]
                            [--resume on|off] [--threads N]
                            [--kernel-mode event-driven|time-stepped]
                            [--snapshot-every SIMSECS] [--snapshot-dir DIR]
                            [--resume-from FILE]
    dtn compare <scenario.json> [--seeds N] [--metrics-out m.json] [--verbose]
                                [--threads N] [--sweep-workers N] [--sweep-cache]
                                [--router chitchat|epidemic|direct|spray[:N]|twohop|prophet]
    dtn help

METRICS:
    --metrics-out writes a wall-clock performance report (per-phase timings,
    events/sec throughput, sim-seconds-per-second speedup, peak buffer
    occupancy) as JSON; --verbose prints the phase table to the terminal.
    Either flag enables the kernel phase profiler, which never changes
    simulation results. compare --seeds N past the quick set extends the
    deterministic seed family (101, 202, 303, 404, …).

CHAOS:
    --chaos takes a comma-separated fault spec, e.g.
        --chaos 'crash=4,crashdown=120,wipe,cut=10,cutdown=30,loss=0.02'
    (crash/cut/spike are events per node-hour; loss/corrupt are per-transfer
    probabilities). Identical (scenario, seed, spec) runs replay exactly;
    an invariant-breach report prints the flags needed to reproduce it.
    --check-invariants audits token conservation, rating bounds, buffer
    accounting and energy sanity every 60 steps, or at the scenario's own
    `audit_every` cadence (in steps) when it sets one.

STRATEGIES:
    --strategies assigns economically rational adversary strategies to a
    fraction of the population (overriding the scenario's `strategies`
    field), e.g.
        --strategies 'free=0.2,farm=0.1,white=0.05,minority=0.1,cost=0.05,churn=3600,defense'
    (free/farm/white/minority are population fractions; cost is the
    minority-game per-contact energy cost in tokens; churn is the
    whitewasher identity-churn interval in seconds; 'defense' arms the
    sequenced, reputation-weighted gossip and watchdog custody
    countermeasures). Identical (scenario, seed, spec) runs replay exactly.

RECOVERY:
    Aborted transfers are normally lost. --retry-max N redelivers each
    aborted transfer up to N times with deterministic jittered exponential
    backoff (--backoff-base sets the base delay in seconds); --resume on
    restarts retried transfers from their checkpointed byte offset instead
    of from zero. Any recovery flag enables the recovery layer with
    defaults for the rest; settlement stays exactly-once under redelivery.

SNAPSHOTS:
    --snapshot-dir DIR makes the run crash-resumable: --snapshot-every N
    writes a whole-world snapshot into DIR at every N simulated seconds
    (atomically: tmp-then-rename, checksummed), and SIGINT (Ctrl-C) flushes
    a final snapshot plus any --metrics-out report before exiting with
    status 130. --resume-from FILE rebuilds the interrupted run from a
    snapshot and continues byte-identically to never having stopped —
    traces, summaries and metrics all match the uninterrupted run. The
    resuming command line must name the same scenario, arm, seed and
    instrumentation flags as the interrupted one (the snapshot embeds them
    and the mismatch is a typed error). Profiling a resumed run reports
    wall-clock from the resume point only.

PARALLELISM:
    --threads N lets up to N OS threads step the event core's contact
    regions, overriding the scenario's `threads` field. The core builds
    one region per thread, at most one per host core; mobility and the
    time-stepped sweep always run serially. Output is byte-identical at
    any value — traces, summaries and metrics match the serial run
    exactly; only wall-clock changes.

KERNEL MODE:
    --kernel-mode picks the simulation core, overriding the scenario's
    `kernel_mode` field: event-driven (the default) detects contacts with
    predicted cell-crossing events so idle geometry costs nothing;
    time-stepped sweeps the whole world every step, serially, and is the
    oracle the event core is checked against. Both cores are
    byte-identical — traces, summaries and metrics match exactly. A
    snapshot records the core that wrote it and only resumes on that core.

SWEEPS:
    compare runs both arms' seeds through the sweep executor's worker
    pool. --sweep-workers N sets the pool size (default: CPU cores);
    results aggregate in plan order, so output is byte-identical at any
    value. --sweep-cache persists each (scenario, arm, seed) result under
    results/.sweep-cache/ keyed by content hash; repeating a comparison
    becomes a set of cache hits. Corrupt or stale entries are detected by
    hash and re-run.

ROUTERS:
    compare --router <spec> swaps the routing substrate under the incentive
    overlay: the comparison becomes overlay-on vs overlay-off over that
    router on the identical workload. chitchat (the default) is the paper's
    Incentive-vs-ChitChat arms. The flag overrides the scenario's optional
    `backend` field. dtn run runs the paper arms over chitchat only and
    refuses a scenario whose `backend` names another router.
"
}

/// Loads and validates a scenario file.
///
/// A key the scenario does not serialize is refused: the parser skips
/// unknown keys, so a typo would otherwise run silently with the default.
/// A key whose value is `null` means "unset" and is accepted.
///
/// # Errors
///
/// Returns a message naming the file and the parse failure, the dotted
/// path of an unknown key, or the validation failure.
pub fn load_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let read: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let scenario = <Scenario as serde::Deserialize>::from_value(&read)
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    if let Some(key) = unknown_key(&read, &serde::Serialize::to_value(&scenario)) {
        return Err(format!("{path} has an unknown key `{key}`"));
    }
    scenario
        .validate()
        .map_err(|e| format!("{path} is invalid: {e}"))?;
    Ok(scenario)
}

/// The dotted path of the first key of `read` that `known` lacks, looking
/// into the maps both documents hold; a key whose value is `null` is unset
/// and never unknown.
fn unknown_key(read: &serde::Value, known: &serde::Value) -> Option<String> {
    let (Some(read), Some(known)) = (read.as_map(), known.as_map()) else {
        return None;
    };
    read.iter()
        .find_map(|(key, value)| match known.iter().find(|(k, _)| k == key) {
            None if *value == serde::Value::Null => None,
            None => Some(key.clone()),
            Some((_, inner)) => unknown_key(value, inner).map(|path| format!("{key}.{path}")),
        })
}

/// The scenario template `dtn template` prints: the reduced-scale paper
/// configuration, pretty-printed.
///
/// # Panics
///
/// Never in practice (the default scenario always serializes).
#[must_use]
pub fn template_json() -> String {
    serde_json::to_string_pretty(&reduced_scenario()).expect("default scenario serializes")
}

/// Formats a run summary for terminal output.
#[must_use]
pub fn format_summary(title: &str, s: &RunSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "  messages created       {}", s.created);
    let _ = writeln!(out, "  expected (msg, dest)   {}", s.expected_pairs);
    let _ = writeln!(out, "  delivered pairs        {}", s.delivered_pairs);
    let _ = writeln!(out, "  delivery ratio         {:.4}", s.delivery_ratio);
    let _ = writeln!(out, "  bonus deliveries       {}", s.bonus_deliveries);
    let _ = writeln!(out, "  transfers completed    {}", s.relays_completed);
    let _ = writeln!(
        out,
        "  bytes moved            {:.1} MB",
        s.relay_bytes as f64 / 1e6
    );
    let _ = writeln!(out, "  mean latency           {:.1} s", s.mean_latency_secs);
    let _ = writeln!(out, "  transfers aborted      {}", s.transfers_aborted);
    let _ = writeln!(out, "  buffer evictions       {}", s.buffer_evictions);
    let _ = writeln!(out, "  ttl expiries           {}", s.ttl_expiries);
    for (level, label) in [(1u8, "high"), (2, "medium"), (3, "low")] {
        if let Some(r) = s.delivery_ratio_by_priority.get(&level) {
            let _ = writeln!(out, "  MDR ({label:<6} priority)  {r:.4}");
        }
    }
    out
}

/// What executing a command produced.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Human-readable output for stdout.
    pub text: String,
    /// Whether a run stopped on the interrupt flag; the caller should
    /// exit with status 130 (128 + SIGINT) after printing.
    pub interrupted: bool,
}

/// Executes a parsed command, writing human output to the returned string.
///
/// # Errors
///
/// Returns the error text to print to stderr (exit code 1).
pub fn execute(command: Command) -> Result<String, String> {
    execute_with_interrupt(command, &|| false).map(|o| o.text)
}

/// [`execute`] with an interrupt flag, polled between simulation steps on
/// the `run` path (other commands ignore it). When the flag fires the run
/// flushes its `--metrics-out` report and — with `--snapshot-dir` — a
/// final whole-world snapshot before returning with `interrupted = true`.
///
/// # Errors
///
/// Returns the error text to print to stderr (exit code 1).
pub fn execute_with_interrupt(
    command: Command,
    interrupt: &dyn Fn() -> bool,
) -> Result<ExecOutcome, String> {
    let done = |text: String| ExecOutcome {
        text,
        interrupted: false,
    };
    match command {
        Command::Help => Ok(done(usage().to_owned())),
        Command::Template => Ok(done(template_json())),
        Command::Validate { path } => {
            let s = load_scenario(&path)?;
            Ok(done(format!(
                "{path} OK: '{}', {} nodes, {:.1} km², {:.1} h, {} messages expected\n",
                s.name,
                s.nodes,
                s.area_km2,
                s.duration_secs / 3600.0,
                s.expected_message_count()
            )))
        }
        Command::Run {
            path,
            arm,
            seed,
            json_out,
            trace_out,
            chaos,
            strategies,
            check_invariants,
            metrics_out,
            verbose,
            retry_max,
            backoff_base,
            resume,
            threads,
            kernel_mode,
            snapshot_every,
            snapshot_dir,
            resume_from,
        } => {
            let mut scenario = load_scenario(&path)?;
            let backend = scenario.effective_backend();
            if backend != BackendKind::ChitChat {
                return Err(format!(
                    "{path} sets backend '{}', but dtn run runs the paper arms over chitchat; \
                     run `dtn compare {path} --router {}` for that router",
                    backend.tag(),
                    backend.tag()
                ));
            }
            if threads.is_some() {
                scenario.threads = threads;
            }
            if kernel_mode.is_some() {
                scenario.kernel_mode = kernel_mode;
            }
            if let Some(spec) = &chaos {
                let plan = spec
                    .parse::<dtn_sim::faults::FaultPlan>()
                    .map_err(|e| format!("bad --chaos: {e}"))?;
                scenario.chaos = Some(plan);
            }
            if let Some(spec) = &strategies {
                let mix = spec
                    .parse::<dtn_core::strategy::StrategyMix>()
                    .map_err(|e| format!("bad --strategies: {e}"))?;
                scenario.strategies = Some(mix);
            }
            // Recovery overrides: any flag enables recovery (from the
            // scenario's policy, or the defaults) and tweaks that field.
            if retry_max.is_some() || backoff_base.is_some() || resume.is_some() {
                let mut policy = scenario
                    .recovery
                    .unwrap_or_else(dtn_sim::transfer::RecoveryPolicy::default);
                if let Some(n) = retry_max {
                    policy.retry_max = n;
                }
                if let Some(secs) = backoff_base {
                    policy.backoff_base_secs = secs;
                }
                if let Some(on) = resume {
                    policy.resume = on;
                }
                policy
                    .validate()
                    .map_err(|e| format!("bad recovery flags: {e}"))?;
                scenario.recovery = Some(policy);
            }
            // Audit every 60 steps unless the scenario sets its own cadence:
            // the rating-bounds scan is O(nodes²), so a per-step audit
            // would dominate a 100-node run.
            if check_invariants && scenario.audit_every.is_none() {
                scenario.audit_every = Some(60);
            }
            // Traced runs bound the log (1M events) so a runaway scenario
            // cannot exhaust memory.
            let capacity = trace_out.as_ref().map(|_| 1_000_000);
            let profile = metrics_out.is_some() || verbose;
            // Run identity as the snapshot layer records it: the snapshot
            // embeds this and a resumed command line must rebuild it
            // exactly, or the dynamic state would be restored into a
            // different world.
            let meta = RunMeta {
                scenario: scenario.clone(),
                arm,
                seed,
                trace_capacity: capacity,
            };
            // Read (and reject) the resume document before paying for the
            // world build; restore after, into the identical configuration.
            let resume_doc = match &resume_from {
                Some(file) => {
                    let doc = read_snapshot(std::path::Path::new(file))
                        .map_err(|e| format!("cannot resume: {e}"))?;
                    if doc.meta != meta {
                        return Err(format!(
                            "cannot resume: {file} records '{}' · {} arm · seed {} \
                             (trace {}, audit {}), but this command line builds '{}' · \
                             {} arm · seed {} (trace {}, audit {}); rerun with the flags \
                             the interrupted run used",
                            doc.meta.scenario.name,
                            doc.meta.arm.label(),
                            doc.meta.seed,
                            doc.meta.trace_capacity.is_some(),
                            doc.meta.scenario.audit_every.is_some(),
                            meta.scenario.name,
                            meta.arm.label(),
                            meta.seed,
                            meta.trace_capacity.is_some(),
                            meta.scenario.audit_every.is_some(),
                        ));
                    }
                    Some(doc)
                }
                None => None,
            };
            let mut sim = meta.build(profile);
            if let Some(doc) = &resume_doc {
                sim.restore(&doc.world)
                    .map_err(|e| format!("cannot resume: {e}"))?;
            }
            let policy = match &snapshot_dir {
                Some(dir) => {
                    std::fs::create_dir_all(dir)
                        .map_err(|e| format!("cannot create {dir}: {e}"))?;
                    Some(SnapshotPolicy {
                        // No cadence means "final flush only": the
                        // interrupt handler still lands a checkpoint, but
                        // no periodic ones are due.
                        every_secs: snapshot_every.unwrap_or(f64::INFINITY),
                        dir: std::path::PathBuf::from(dir),
                    })
                }
                None => None,
            };
            let t0 = std::time::Instant::now();
            let progress = run_with_snapshots(
                &mut sim,
                &meta,
                dtn_sim::time::SimTime::from_secs(scenario.duration_secs),
                policy.as_ref(),
                &|_| interrupt(),
            )
            .map_err(|e| format!("cannot write snapshot: {e}"))?;
            if let RunProgress::Interrupted { at, snapshot } = progress {
                if let Some(out_path) = &metrics_out {
                    let report = PerfReport::capture(&sim, t0.elapsed().as_secs_f64());
                    write_metrics(out_path, &report)?;
                }
                let mut text = format!(
                    "interrupted at t={:.0}s · {} · {} arm · seed {seed}\n",
                    at.as_secs(),
                    scenario.name,
                    arm.label()
                );
                match snapshot {
                    Some(p) => {
                        let _ = writeln!(
                            text,
                            "final snapshot: {} (continue with --resume-from)",
                            p.display()
                        );
                    }
                    None => {
                        let _ = writeln!(
                            text,
                            "no snapshot written; pass --snapshot-dir to make runs resumable"
                        );
                    }
                }
                return Ok(ExecOutcome {
                    text,
                    interrupted: true,
                });
            }
            let perf = profile.then(|| PerfReport::capture(&sim, t0.elapsed().as_secs_f64()));
            let trace_text = capacity.map(|_| sim.api().trace().render());
            let (router, summary) = sim.finish();
            if let (Some(out_path), Some(text)) = (&trace_out, &trace_text) {
                std::fs::write(out_path, text)
                    .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            }
            if let Some(out_path) = json_out {
                let json = serde_json::to_string_pretty(&summary)
                    .map_err(|e| format!("cannot serialize results: {e}"))?;
                std::fs::write(&out_path, json)
                    .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            }
            if let (Some(out_path), Some(report)) = (&metrics_out, &perf) {
                write_metrics(out_path, report)?;
            }
            let mut text = format_summary(
                &format!("{} · {} arm · seed {seed}", scenario.name, arm.label()),
                &summary,
            );
            if arm == Arm::Incentive {
                let stats = router.stats();
                let _ = writeln!(text, "  settlements            {}", stats.settlements);
                let _ = writeln!(text, "  tokens awarded         {:.1}", stats.tokens_awarded);
                let _ = writeln!(
                    text,
                    "  broke nodes            {}",
                    router.ledger().broke_nodes().len()
                );
            }
            if verbose {
                if let Some(report) = &perf {
                    text.push('\n');
                    text.push_str(&report.render());
                }
            }
            Ok(done(text))
        }
        Command::Compare {
            path,
            seeds,
            metrics_out,
            verbose,
            threads,
            sweep_workers,
            sweep_cache,
            router,
        } => {
            let mut scenario = load_scenario(&path)?;
            if threads.is_some() {
                scenario.threads = threads;
            }
            if let Some(n) = sweep_workers {
                dtn_workloads::sweep::set_workers(n);
            }
            if sweep_cache {
                dtn_workloads::sweep::set_cache_dir(Some(std::path::PathBuf::from(
                    "results/.sweep-cache",
                )));
            }
            // The flag overrides the scenario's own `backend` field;
            // chitchat is the paper's two arms.
            let backend = router.unwrap_or_else(|| scenario.effective_backend());
            let seed_values = seeds_for(seeds);
            let profile = metrics_out.is_some() || verbose;
            let (cmp, perf) = compare(&scenario, backend, &seed_values, profile);
            if let (Some(out_path), Some(report)) = (&metrics_out, &perf) {
                write_metrics(out_path, report)?;
            }
            let (on, off) = match backend {
                BackendKind::ChitChat => ("Incentive".to_owned(), "ChitChat".to_owned()),
                other => (
                    format!("Incentive over {}", other.label()),
                    format!("Plain {}", other.label()),
                ),
            };
            let mut text = format_summary(
                &format!("{} · {on} (mean of {seeds} seeds)", scenario.name),
                &cmp.incentive,
            );
            text.push('\n');
            text.push_str(&format_summary(
                &format!("{} · {off} (mean of {seeds} seeds)", scenario.name),
                &cmp.chitchat,
            ));
            let _ = writeln!(
                text,
                "\npaired: MDR gap {:+.4}, traffic reduction {:+.1}%",
                cmp.mdr_gap(),
                cmp.traffic_reduction_pct()
            );
            if verbose {
                if let Some(report) = &perf {
                    text.push('\n');
                    text.push_str(&report.render());
                }
            }
            Ok(done(text))
        }
    }
}

/// The async-signal-safe SIGINT latch: the handler only stores a flag,
/// and the run loop polls it between simulation steps.
static SIGINT_FLAG: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn sigint_handler(_signum: i32) {
    SIGINT_FLAG.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Installs a SIGINT handler that latches a process-wide flag instead of
/// killing the process, so `dtn run` can flush its `--metrics-out` report
/// and a final snapshot before exiting with status 130. Returns the flag;
/// on non-Unix platforms this installs nothing and the flag stays false.
pub fn install_sigint_flag() -> &'static std::sync::atomic::AtomicBool {
    #[cfg(unix)]
    {
        // libc's `signal` without pulling in a crate: the handler only
        // touches an atomic, which is async-signal-safe.
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, sigint_handler);
        }
    }
    &SIGINT_FLAG
}

/// Serializes a [`PerfReport`] to `path` as pretty JSON.
fn write_metrics(path: &str, report: &PerfReport) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| format!("cannot serialize metrics: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    /// One per-test scratch directory (pid + name keyed, created fresh).
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dtn-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn parses_all_commands() {
        assert_eq!(parse_args(&argv("")), Ok(Command::Help));
        assert_eq!(parse_args(&argv("help")), Ok(Command::Help));
        assert_eq!(parse_args(&argv("template")), Ok(Command::Template));
        assert_eq!(
            parse_args(&argv("validate s.json")),
            Ok(Command::Validate {
                path: "s.json".into()
            })
        );
        assert_eq!(
            parse_args(&argv(
                "run s.json --arm chitchat --seed 9 --json o.json --trace t.txt"
            )),
            Ok(Command::Run {
                path: "s.json".into(),
                arm: Arm::ChitChat,
                seed: 9,
                json_out: Some("o.json".into()),
                trace_out: Some("t.txt".into()),
                chaos: None,
                strategies: None,
                check_invariants: false,
                metrics_out: None,
                verbose: false,
                retry_max: None,
                backoff_base: None,
                resume: None,
                threads: None,
                kernel_mode: None,
                snapshot_every: None,
                snapshot_dir: None,
                resume_from: None,
            })
        );
        assert_eq!(
            parse_args(&argv(
                "run s.json --chaos crash=4,crashdown=120,wipe --check-invariants \
                 --metrics-out m.json --verbose"
            )),
            Ok(Command::Run {
                path: "s.json".into(),
                arm: Arm::Incentive,
                seed: QUICK_SEEDS[0],
                json_out: None,
                trace_out: None,
                chaos: Some("crash=4,crashdown=120,wipe".into()),
                strategies: None,
                check_invariants: true,
                metrics_out: Some("m.json".into()),
                verbose: true,
                retry_max: None,
                backoff_base: None,
                resume: None,
                threads: None,
                kernel_mode: None,
                snapshot_every: None,
                snapshot_dir: None,
                resume_from: None,
            })
        );
        assert_eq!(
            parse_args(&argv(
                "run s.json --retry-max 5 --backoff-base 2.5 --resume off"
            )),
            Ok(Command::Run {
                path: "s.json".into(),
                arm: Arm::Incentive,
                seed: QUICK_SEEDS[0],
                json_out: None,
                trace_out: None,
                chaos: None,
                strategies: None,
                check_invariants: false,
                metrics_out: None,
                verbose: false,
                retry_max: Some(5),
                backoff_base: Some(2.5),
                resume: Some(false),
                threads: None,
                kernel_mode: None,
                snapshot_every: None,
                snapshot_dir: None,
                resume_from: None,
            })
        );
        assert_eq!(
            parse_args(&argv("compare s.json --seeds 2")),
            Ok(Command::Compare {
                path: "s.json".into(),
                seeds: 2,
                metrics_out: None,
                verbose: false,
                threads: None,
                sweep_workers: None,
                sweep_cache: false,
                router: None,
            })
        );
        // Seed counts beyond the quick set extend the deterministic
        // family instead of erroring.
        assert_eq!(
            parse_args(&argv("compare s.json --seeds 8 --metrics-out m.json")),
            Ok(Command::Compare {
                path: "s.json".into(),
                seeds: 8,
                metrics_out: Some("m.json".into()),
                verbose: false,
                threads: None,
                sweep_workers: None,
                sweep_cache: false,
                router: None,
            })
        );
        // Every router spelling parses, including the ticketed spray form.
        for (spec, expected) in [
            ("chitchat", BackendKind::ChitChat),
            ("epidemic", BackendKind::Epidemic),
            ("direct", BackendKind::DirectDelivery),
            ("spray", BackendKind::SprayAndWait(8)),
            ("spray:4", BackendKind::SprayAndWait(4)),
            ("twohop", BackendKind::TwoHop),
            ("prophet", BackendKind::Prophet),
        ] {
            let Ok(Command::Compare { router, .. }) =
                parse_args(&argv(&format!("compare s.json --router {spec}")))
            else {
                panic!("--router {spec} parses");
            };
            assert_eq!(router, Some(expected), "spelling {spec}");
        }
        assert_eq!(seeds_for(3), QUICK_SEEDS.to_vec());
        assert_eq!(seeds_for(5)[3..], [404, 505]);
        let Ok(Command::Run { strategies, .. }) =
            parse_args(&argv("run s.json --strategies free=0.1,farm=0.1,defense"))
        else {
            panic!("--strategies parses on run");
        };
        assert_eq!(strategies, Some("free=0.1,farm=0.1,defense".into()));
        let Ok(Command::Run { threads, .. }) = parse_args(&argv("run s.json --threads 8")) else {
            panic!("--threads parses on run");
        };
        assert_eq!(threads, Some(8));
        let Ok(Command::Compare { threads, .. }) =
            parse_args(&argv("compare s.json --seeds 2 --threads 4"))
        else {
            panic!("--threads parses on compare");
        };
        assert_eq!(threads, Some(4));
        let Ok(Command::Compare {
            sweep_workers,
            sweep_cache,
            ..
        }) = parse_args(&argv("compare s.json --sweep-workers 3 --sweep-cache"))
        else {
            panic!("sweep flags parse on compare");
        };
        assert_eq!(sweep_workers, Some(3));
        assert!(sweep_cache);
        let Ok(Command::Run {
            snapshot_every,
            snapshot_dir,
            resume_from,
            ..
        }) = parse_args(&argv(
            "run s.json --snapshot-every 300 --snapshot-dir snaps \
             --resume-from snaps/snap-000000000600.dtnsnap",
        ))
        else {
            panic!("snapshot flags parse on run");
        };
        assert_eq!(snapshot_every, Some(300.0));
        assert_eq!(snapshot_dir, Some("snaps".into()));
        assert_eq!(resume_from, Some("snaps/snap-000000000600.dtnsnap".into()));
        // --snapshot-dir alone is valid: no periodic checkpoints, but the
        // SIGINT flush still has somewhere to land.
        let Ok(Command::Run {
            snapshot_every,
            snapshot_dir,
            ..
        }) = parse_args(&argv("run s.json --snapshot-dir snaps"))
        else {
            panic!("--snapshot-dir alone parses on run");
        };
        assert_eq!(snapshot_every, None);
        assert_eq!(snapshot_dir, Some("snaps".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("run")).is_err());
        assert!(parse_args(&argv("run s.json --arm epidemics")).is_err());
        assert!(parse_args(&argv("run s.json --seed banana")).is_err());
        assert!(parse_args(&argv("compare s.json --seeds 0")).is_err());
        assert!(parse_args(&argv("run s.json --metrics-out")).is_err());
        assert!(parse_args(&argv("run s.json --wat")).is_err());
        assert!(parse_args(&argv("run s.json --chaos")).is_err());
        assert!(parse_args(&argv("run s.json --chaos frobs=1")).is_err());
        assert!(parse_args(&argv("run s.json --chaos crash=-2")).is_err());
        assert!(parse_args(&argv("run s.json --strategies")).is_err());
        assert!(parse_args(&argv("run s.json --strategies frobs=1")).is_err());
        assert!(parse_args(&argv("run s.json --strategies free=2")).is_err());
        assert!(parse_args(&argv("run s.json --strategies free=0.6,farm=0.6")).is_err());
        assert!(parse_args(&argv("compare s.json --strategies free=0.1")).is_err());
        assert!(parse_args(&argv("run s.json --retry-max lots")).is_err());
        assert!(parse_args(&argv("run s.json --backoff-base -3")).is_err());
        assert!(parse_args(&argv("run s.json --backoff-base nan")).is_err());
        assert!(parse_args(&argv("run s.json --resume maybe")).is_err());
        assert!(parse_args(&argv("run s.json --resume")).is_err());
        assert!(parse_args(&argv("run s.json --threads 0")).is_err());
        assert!(parse_args(&argv("run s.json --threads many")).is_err());
        assert!(parse_args(&argv("compare s.json --threads")).is_err());
        assert!(parse_args(&argv("compare s.json --sweep-workers 0")).is_err());
        assert!(parse_args(&argv("compare s.json --sweep-workers")).is_err());
        assert!(parse_args(&argv("run s.json --sweep-cache")).is_err());
        assert!(parse_args(&argv("compare s.json --router")).is_err());
        assert!(parse_args(&argv("compare s.json --router flooding")).is_err());
        assert!(parse_args(&argv("compare s.json --router spray:0")).is_err());
        assert!(parse_args(&argv("run s.json --router epidemic")).is_err());
        assert!(parse_args(&argv("run s.json --snapshot-every")).is_err());
        assert!(parse_args(&argv("run s.json --snapshot-every soon --snapshot-dir d")).is_err());
        assert!(parse_args(&argv("run s.json --snapshot-every 0 --snapshot-dir d")).is_err());
        assert!(parse_args(&argv("run s.json --snapshot-every -60 --snapshot-dir d")).is_err());
        assert!(parse_args(&argv("run s.json --snapshot-every inf --snapshot-dir d")).is_err());
        assert!(parse_args(&argv("run s.json --snapshot-every 300")).is_err());
        assert!(parse_args(&argv("run s.json --snapshot-dir")).is_err());
        assert!(parse_args(&argv("run s.json --resume-from")).is_err());
        assert!(parse_args(&argv("compare s.json --snapshot-dir d")).is_err());
    }

    #[test]
    fn template_round_trips_through_load() {
        let dir = scratch_dir("test");
        let path = dir.join("scenario.json");
        std::fs::write(&path, template_json()).expect("write");
        let s = load_scenario(path.to_str().expect("utf8")).expect("loads");
        assert_eq!(s.nodes, 100);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn load_reports_missing_and_invalid_files() {
        assert!(load_scenario("/nonexistent/x.json")
            .unwrap_err()
            .contains("cannot read"));
        let dir = scratch_dir("bad");
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").expect("write");
        assert!(load_scenario(path.to_str().expect("utf8"))
            .unwrap_err()
            .contains("cannot parse"));
        // Valid JSON, invalid scenario.
        let mut s = reduced_scenario();
        s.nodes = 0;
        std::fs::write(&path, serde_json::to_string(&s).expect("json")).expect("write");
        assert!(load_scenario(path.to_str().expect("utf8"))
            .unwrap_err()
            .contains("invalid"));
    }

    /// A key the scenario does not serialize is refused with its dotted
    /// path; a `null` one means unset, so files from an older template
    /// still load.
    #[test]
    fn load_refuses_unknown_keys_and_accepts_null_ones() {
        let dir = scratch_dir("unknown-keys");
        let path = dir.join("scenario.json");
        let load = |text: &str| {
            std::fs::write(&path, text).expect("write");
            load_scenario(path.to_str().expect("utf8"))
        };
        let template = template_json();
        let with = |entry: &str| template.replacen('{', &format!("{{{entry},"), 1);
        let mut recovered = reduced_scenario();
        recovered.recovery = Some(dtn_sim::transfer::RecoveryPolicy::default());
        let adaptive = serde_json::to_string(&recovered).expect("json").replacen(
            "\"recovery\":{",
            "\"recovery\":{\"adaptive_backoff\":true,",
            1,
        );
        for (text, key) in [
            (with("\"selfish_fraktion\": 0.4"), "selfish_fraktion"),
            (with("\"selfish_duty_cycle\": 0.25"), "selfish_duty_cycle"),
            (adaptive, "recovery.adaptive_backoff"),
        ] {
            let err = load(&text).expect_err(key);
            assert!(
                err.contains(&format!("unknown key `{key}`")),
                "{key}: {err}"
            );
        }
        assert!(load(&template).is_ok(), "the template loads");
        let unset = with("\"selfish_duty_cycle\": null");
        assert!(load(&unset).is_ok(), "a null key is unset");
    }

    /// The key check looks into maps at any depth, reports the first
    /// unknown key in document order, and skips `null` values and the
    /// elements of arrays.
    #[test]
    fn unknown_key_walks_maps_in_document_order() {
        let parse = |text: &str| serde_json::from_str::<serde::Value>(text).expect("json");
        let known = parse(r#"{"a":{"b":{"c":1}},"d":[{"e":1}],"f":null}"#);
        let unknown = |text: &str| unknown_key(&parse(text), &known);
        assert_eq!(unknown(r#"{"a":{"b":{"c":2}},"f":3}"#), None);
        assert_eq!(
            unknown(r#"{"a":{"b":{"c":2,"x":1}}}"#),
            Some("a.b.x".into())
        );
        assert_eq!(
            unknown(r#"{"z":1,"a":{"y":1}}"#),
            Some("z".into()),
            "first in document order"
        );
        assert_eq!(unknown(r#"{"a":{"y":1},"z":1}"#), Some("a.y".into()));
        assert_eq!(unknown(r#"{"a":{"b":{"q":null}},"z":null}"#), None);
        assert_eq!(
            unknown(r#"{"d":[{"zz":1}]}"#),
            None,
            "arrays are not walked"
        );
        // Below a key whose parsed value is not a map, nothing is judged.
        assert_eq!(unknown(r#"{"f":{"anything":1}}"#), None);
    }

    #[test]
    fn validate_command_refuses_an_unknown_key() {
        let dir = scratch_dir("val-unknown");
        let path = dir.join("scenario.json");
        let text = template_json().replacen('{', "{\"nodez\": 5,", 1);
        std::fs::write(&path, text).expect("write");
        let err = execute(Command::Validate {
            path: path.to_str().expect("utf8").to_owned(),
        })
        .expect_err("unknown key");
        assert!(err.ends_with("has an unknown key `nodez`"), "{err}");
    }

    #[test]
    fn validate_command_summarizes() {
        let dir = scratch_dir("val");
        let path = dir.join("scenario.json");
        std::fs::write(&path, template_json()).expect("write");
        let out = execute(Command::Validate {
            path: path.to_str().expect("utf8").to_owned(),
        })
        .expect("valid");
        assert!(out.contains("OK"));
        assert!(out.contains("100 nodes"));
    }

    #[test]
    fn run_command_executes_a_tiny_scenario() {
        let mut s = reduced_scenario();
        s.nodes = 12;
        s.area_km2 = 0.12;
        s.duration_secs = 600.0;
        s.message_interval_secs = 30.0;
        s.message_ttl_secs = 500.0;
        let dir = scratch_dir("run");
        let path = dir.join("tiny.json");
        std::fs::write(&path, serde_json::to_string(&s).expect("json")).expect("write");
        let json_out = dir.join("out.json");
        let trace_out = dir.join("trace.txt");
        let text = execute(Command::Run {
            path: path.to_str().expect("utf8").to_owned(),
            arm: Arm::Incentive,
            seed: 1,
            json_out: Some(json_out.to_str().expect("utf8").to_owned()),
            trace_out: Some(trace_out.to_str().expect("utf8").to_owned()),
            chaos: Some("crash=2,crashdown=60,cut=5,cutdown=20,loss=0.01".into()),
            strategies: Some("free=0.2,defense".into()),
            check_invariants: true,
            metrics_out: None,
            verbose: false,
            retry_max: Some(3),
            backoff_base: Some(5.0),
            resume: Some(true),
            threads: None,
            kernel_mode: None,
            snapshot_every: None,
            snapshot_dir: None,
            resume_from: None,
        })
        .expect("runs");
        let trace_text = std::fs::read_to_string(&trace_out).expect("trace written");
        assert!(
            trace_text.contains("created m0"),
            "trace names events: {}",
            trace_text.lines().next().unwrap_or("")
        );
        assert!(text.contains("delivery ratio"));
        assert!(text.contains("settlements"));
        let dumped: RunSummary =
            serde_json::from_str(&std::fs::read_to_string(&json_out).expect("json written"))
                .expect("valid result JSON");
        assert!(dumped.created > 0);
    }

    #[test]
    fn run_returns_validation_errors_the_kernel_would_panic_on() {
        use dtn_sim::faults::FaultPlan;
        let dir = scratch_dir("run-invalid");
        let path = dir.join("invalid.json");
        let broken = |edit: fn(&mut Scenario)| {
            let mut s = reduced_scenario();
            edit(&mut s);
            serde_json::to_string(&s).expect("json")
        };
        // A value written as `1e400` in the file parses as +inf; `SENTINEL`
        // marks the field whose text is swapped for it.
        const SENTINEL: f64 = 123.25;
        let infinite = |field: &str, edit: fn(&mut Scenario)| {
            let json = broken(edit);
            let from = format!("\"{field}\":{SENTINEL}");
            assert!(json.contains(&from), "{field} not written as {SENTINEL}");
            json.replace(&from, &format!("\"{field}\":1e400"))
        };
        for (field, text) in [
            ("buffer_bytes", broken(|s| s.buffer_bytes = 0)),
            ("radio.range_m", broken(|s| s.radio.range_m = 0.0)),
            (
                "radio.link_speed_bps",
                broken(|s| s.radio.link_speed_bps = -1.0),
            ),
            ("message_ttl_secs", broken(|s| s.message_ttl_secs = 0.0)),
            ("area_km2", infinite("area_km2", |s| s.area_km2 = SENTINEL)),
            (
                "duration_secs",
                infinite("duration_secs", |s| s.duration_secs = SENTINEL),
            ),
            (
                "crash_down_secs",
                infinite("crash_down_secs", |s| {
                    s.chaos = Some(FaultPlan {
                        crash_per_hour: 60.0,
                        crash_down_secs: SENTINEL,
                        ..FaultPlan::default()
                    });
                }),
            ),
            (
                "link_cut_secs",
                infinite("link_cut_secs", |s| {
                    s.chaos = Some(FaultPlan {
                        link_cut_per_hour: 60.0,
                        link_cut_secs: SENTINEL,
                        ..FaultPlan::default()
                    });
                }),
            ),
            (
                "battery_spike_joules",
                infinite("battery_spike_joules", |s| {
                    s.chaos = Some(FaultPlan {
                        battery_spike_per_hour: 60.0,
                        battery_spike_joules: SENTINEL,
                        ..FaultPlan::default()
                    });
                }),
            ),
        ] {
            std::fs::write(&path, text).expect("write");
            let run = parse_args(&["run".to_owned(), path.to_str().expect("utf8").to_owned()])
                .expect("run parses");
            let err = execute(run).expect_err("an invalid scenario must not run");
            assert!(
                err.contains("is invalid") && err.contains(field),
                "{field}: {err}"
            );
        }
    }

    #[test]
    fn metrics_out_writes_a_valid_perf_report() {
        let mut s = reduced_scenario();
        s.nodes = 12;
        s.area_km2 = 0.12;
        s.duration_secs = 600.0;
        s.message_interval_secs = 30.0;
        s.message_ttl_secs = 500.0;
        let dir = scratch_dir("metrics");
        let path = dir.join("tiny.json");
        std::fs::write(&path, serde_json::to_string(&s).expect("json")).expect("write");
        let metrics_out = dir.join("m.json");
        let text = execute(Command::Run {
            path: path.to_str().expect("utf8").to_owned(),
            arm: Arm::Incentive,
            seed: 1,
            json_out: None,
            trace_out: None,
            chaos: None,
            strategies: None,
            check_invariants: false,
            metrics_out: Some(metrics_out.to_str().expect("utf8").to_owned()),
            verbose: true,
            retry_max: None,
            backoff_base: None,
            resume: None,
            threads: Some(2),
            kernel_mode: None,
            snapshot_every: None,
            snapshot_dir: None,
            resume_from: None,
        })
        .expect("runs");
        assert!(
            text.contains("phase"),
            "verbose output has phase table: {text}"
        );
        let report: PerfReport =
            serde_json::from_str(&std::fs::read_to_string(&metrics_out).expect("written"))
                .expect("valid PerfReport JSON");
        assert!(!report.phases.is_empty(), "per-phase wall-clock present");
        assert!(report.phases.iter().any(|p| p.secs > 0.0));
        assert!(report.events_per_sec > 0.0);
        assert!(report.wall_secs > 0.0);
    }

    #[test]
    fn compare_metrics_out_covers_both_arms() {
        let mut s = reduced_scenario();
        s.nodes = 10;
        s.area_km2 = 0.1;
        s.duration_secs = 400.0;
        s.message_interval_secs = 40.0;
        s.message_ttl_secs = 300.0;
        let dir = scratch_dir("cmp-metrics");
        let path = dir.join("tiny.json");
        std::fs::write(&path, serde_json::to_string(&s).expect("json")).expect("write");
        let metrics_out = dir.join("m.json");
        let text = execute(Command::Compare {
            path: path.to_str().expect("utf8").to_owned(),
            seeds: 1,
            metrics_out: Some(metrics_out.to_str().expect("utf8").to_owned()),
            verbose: false,
            threads: None,
            sweep_workers: None,
            sweep_cache: false,
            router: None,
        })
        .expect("runs");
        assert!(text.contains("Incentive") && text.contains("ChitChat"));
        let report: PerfReport =
            serde_json::from_str(&std::fs::read_to_string(&metrics_out).expect("written"))
                .expect("valid PerfReport JSON");
        assert_eq!(report.runs, 2, "one run per arm");
        assert!(report.events_per_sec > 0.0);
        assert!(!report.phases.is_empty());
    }

    #[test]
    fn compare_with_a_router_runs_the_overlay_grid() {
        let mut s = reduced_scenario();
        s.nodes = 10;
        s.area_km2 = 0.1;
        s.duration_secs = 400.0;
        s.message_interval_secs = 40.0;
        s.message_ttl_secs = 300.0;
        let dir = scratch_dir("cmp-router");
        let path = dir.join("tiny.json");
        std::fs::write(&path, serde_json::to_string(&s).expect("json")).expect("write");
        let text = execute(Command::Compare {
            path: path.to_str().expect("utf8").to_owned(),
            seeds: 1,
            metrics_out: None,
            verbose: false,
            threads: None,
            sweep_workers: None,
            sweep_cache: false,
            router: Some(BackendKind::Epidemic),
        })
        .expect("runs");
        assert!(
            text.contains("Incentive over Epidemic") && text.contains("Plain Epidemic"),
            "labels name the substrate: {text}"
        );
        assert!(text.contains("MDR gap"));
        // Profiling covers every router: one run per overlay state.
        let metrics_out = dir.join("m.json");
        let profiled = execute(Command::Compare {
            path: path.to_str().expect("utf8").to_owned(),
            seeds: 1,
            metrics_out: Some(metrics_out.to_str().expect("utf8").to_owned()),
            verbose: true,
            threads: None,
            sweep_workers: None,
            sweep_cache: false,
            router: Some(BackendKind::Epidemic),
        })
        .expect("profiling a non-chitchat router runs");
        assert!(profiled.starts_with(&text), "profiling changes no result");
        assert!(
            profiled.contains("phase"),
            "verbose phase table: {profiled}"
        );
        let report: PerfReport =
            serde_json::from_str(&std::fs::read_to_string(&metrics_out).expect("written"))
                .expect("valid PerfReport JSON");
        assert_eq!(report.runs, 2, "one run per overlay state");
        assert!(report.events_per_sec > 0.0);
    }

    #[test]
    fn run_refuses_a_scenario_that_names_another_backend() {
        let dir = scratch_dir("run-backend");
        let path = dir.join("tiny.json");
        let command = parse_args(&argv(&format!("run {}", path.display()))).expect("parses");
        let mut s = reduced_scenario();
        s.nodes = 10;
        s.area_km2 = 0.1;
        s.duration_secs = 300.0;
        s.message_ttl_secs = 200.0;
        s.backend = Some(BackendKind::Epidemic);
        std::fs::write(&path, serde_json::to_string(&s).expect("json")).expect("write");
        let err = execute(command.clone()).expect_err("run does not run epidemic as chitchat");
        assert!(
            err.contains("epidemic") && err.contains("dtn compare") && err.contains("--router"),
            "the error points to compare --router: {err}"
        );
        // `backend: null`, as `dtn template` writes it, is chitchat.
        s.backend = None;
        std::fs::write(&path, serde_json::to_string(&s).expect("json")).expect("write");
        assert!(execute(command).expect("runs").contains("delivery ratio"));
    }

    /// A tiny chaos+strategies scenario on disk, for the resume tests.
    fn resumable_scenario(dir: &std::path::Path) -> String {
        let mut s = reduced_scenario();
        s.nodes = 12;
        s.area_km2 = 0.12;
        s.duration_secs = 600.0;
        s.message_interval_secs = 30.0;
        s.message_ttl_secs = 500.0;
        s.chaos = Some(
            "crash=2,crashdown=60,cut=5,cutdown=20,loss=0.01"
                .parse()
                .expect("valid chaos"),
        );
        s.strategies = Some("free=0.2,defense".parse().expect("valid mix"));
        let path = dir.join("tiny.json");
        std::fs::write(&path, serde_json::to_string(&s).expect("json")).expect("write");
        path.to_str().expect("utf8").to_owned()
    }

    /// The `run` command for that scenario, with every snapshot knob open.
    fn run_command(
        path: &str,
        dir: &std::path::Path,
        tag: &str,
        seed: u64,
        metrics_out: Option<String>,
        snapshot_dir: Option<String>,
        resume_from: Option<String>,
    ) -> Command {
        Command::Run {
            path: path.to_owned(),
            arm: Arm::Incentive,
            seed,
            json_out: Some(dir.join(format!("{tag}.json")).to_str().unwrap().to_owned()),
            trace_out: Some(dir.join(format!("{tag}.txt")).to_str().unwrap().to_owned()),
            chaos: None,
            strategies: None,
            check_invariants: false,
            metrics_out,
            verbose: false,
            retry_max: None,
            backoff_base: None,
            resume: None,
            threads: None,
            kernel_mode: None,
            snapshot_every: Some(100.0),
            snapshot_dir,
            resume_from,
        }
    }

    #[test]
    fn interrupt_flushes_metrics_and_a_final_snapshot() {
        let dir = scratch_dir("interrupt");
        let snaps = dir.join("snaps");
        let path = resumable_scenario(&dir);
        let metrics_out = dir.join("m.json");
        let polls = std::sync::atomic::AtomicUsize::new(0);
        let outcome = execute_with_interrupt(
            run_command(
                &path,
                &dir,
                "cut-short",
                1,
                Some(metrics_out.to_str().unwrap().to_owned()),
                Some(snaps.to_str().unwrap().to_owned()),
                None,
            ),
            // Trip the flag mid-run, the way a SIGINT latch would.
            &|| polls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) > 500,
        )
        .expect("an interrupted run is not an error");
        assert!(outcome.interrupted, "the flag must stop the run");
        assert!(
            outcome.text.contains("--resume-from"),
            "the output points at the snapshot: {}",
            outcome.text
        );
        let report: PerfReport =
            serde_json::from_str(&std::fs::read_to_string(&metrics_out).expect("metrics flushed"))
                .expect("valid PerfReport JSON");
        assert!(report.wall_secs > 0.0);
        let last = dtn_workloads::resume::latest_snapshot(&snaps)
            .expect("readable dir")
            .expect("a final snapshot was flushed");
        assert!(dtn_workloads::resume::read_snapshot(&last).is_ok());
    }

    #[test]
    fn resumed_run_matches_the_uninterrupted_run() {
        let dir = scratch_dir("resume");
        let snaps = dir.join("snaps");
        let path = resumable_scenario(&dir);

        let golden =
            execute(run_command(&path, &dir, "golden", 1, None, None, None)).expect("runs");

        let polls = std::sync::atomic::AtomicUsize::new(0);
        let outcome = execute_with_interrupt(
            run_command(
                &path,
                &dir,
                "victim",
                1,
                None,
                Some(snaps.to_str().unwrap().to_owned()),
                None,
            ),
            &|| polls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) > 500,
        )
        .expect("interruption is clean");
        assert!(outcome.interrupted);
        let last = dtn_workloads::resume::latest_snapshot(&snaps)
            .expect("readable dir")
            .expect("a snapshot to resume from");

        let resumed = execute(run_command(
            &path,
            &dir,
            "resumed",
            1,
            None,
            None,
            Some(last.to_str().unwrap().to_owned()),
        ))
        .expect("resumes");
        assert_eq!(resumed, golden, "printed summary diverged");
        for ext in ["json", "txt"] {
            let a = std::fs::read_to_string(dir.join(format!("golden.{ext}"))).expect("golden");
            let b = std::fs::read_to_string(dir.join(format!("resumed.{ext}"))).expect("resumed");
            assert_eq!(a, b, "{ext} artifact diverged after resume");
        }

        // The same snapshot under a different command line is refused with
        // an identity mismatch, not silently restored.
        let err = execute(run_command(
            &path,
            &dir,
            "wrong",
            2,
            None,
            None,
            Some(last.to_str().unwrap().to_owned()),
        ))
        .expect_err("a different seed is a different run");
        assert!(err.contains("cannot resume"), "typed refusal: {err}");
    }

    #[test]
    fn format_summary_is_complete() {
        let mut c = dtn_sim::stats::StatsCollector::new();
        c.record_created(
            dtn_sim::message::MessageId(1),
            dtn_sim::message::Priority::High,
            [dtn_sim::world::NodeId(1)],
        );
        let text = format_summary("t", &c.summarize());
        for needle in ["messages created", "delivery ratio", "MDR (high"] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }
}
