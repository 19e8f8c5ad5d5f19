//! The figure suite as a library: one submodule per experiment, each
//! exposing the figure's sweep as executor [`Cell`]s plus a `run`
//! function that prints the table/CSV exactly as the standalone binary
//! does.
//!
//! Splitting "what cells does this figure need" from "how does it format
//! them" is what lets the `all` driver prefetch the *union* of every
//! figure's cells through one saturated worker pool ([`suite_cells`] →
//! [`dtn_workloads::sweep::run_cells`]) and then render each figure from
//! the warm memo — and it is why conditions shared between figures (the
//! Fig. 5.1/5.2 selfish sweep, Fig. 5.3's ×1.0-endowment column) simulate
//! once instead of once per figure.
//!
//! Every scenario is routed through [`Cli::prep`] so smoke mode reshapes
//! prefetch cells and formatting cells identically — their cache keys must
//! agree or the prefetch is wasted.

use crate::Cli;
use dtn_workloads::scenario::Scenario;
use dtn_workloads::sweep::{run_cells, Cell};

/// Cross product of scenarios × arms × seeds as executor cells.
fn arm_cells(
    scenarios: &[Scenario],
    arms: &[dtn_workloads::scenario::Arm],
    seeds: &[u64],
) -> Vec<Cell> {
    scenarios
        .iter()
        .flat_map(|s| {
            arms.iter().flat_map(move |&arm| {
                seeds
                    .iter()
                    .map(move |&seed| Cell::arm(s.clone(), arm, seed))
            })
        })
        .collect()
}

/// The union of every figure's cells — the `all` driver's prefetch plan.
/// Duplicate conditions across figures collapse inside the executor (same
/// cache key), so the union is cheaper than the sum of its parts.
#[must_use]
pub fn suite_cells(cli: &Cli) -> Vec<Cell> {
    let mut cells = Vec::new();
    cells.extend(fig5_1::cells(cli));
    cells.extend(fig5_2::cells(cli));
    cells.extend(fig5_3::cells(cli));
    cells.extend(fig5_4::cells(cli));
    cells.extend(fig5_5::cells(cli));
    cells.extend(fig5_6::cells(cli));
    cells.extend(ablation::cells(cli));
    cells.extend(baselines::cells(cli));
    cells.extend(lifetime::cells(cli));
    cells.extend(matrix::cells(cli));
    cells.extend(loss::cells(cli));
    cells.extend(adversary::cells(cli));
    cells
}

/// Runs the whole evaluation in-process: one union prefetch through the
/// executor, then every figure renders from the warm memo.
pub fn run_all(cli: &Cli) {
    let plan = suite_cells(cli);
    println!(
        "[sweep] prefetching {} cells across {} worker(s)...",
        plan.len(),
        dtn_workloads::sweep::workers()
    );
    let _ = run_cells(&plan);
    let m = dtn_workloads::sweep::metrics();
    println!(
        "[sweep] prefetch done: {} run, {} cache hits ({} from disk)",
        m.cells_run, m.cache_hits, m.disk_hits
    );
    type FigureEntry = (&'static str, fn(&Cli));
    let figures: [FigureEntry; 12] = [
        ("fig5_1", fig5_1::run),
        ("fig5_2", fig5_2::run),
        ("fig5_3", fig5_3::run),
        ("fig5_4", fig5_4::run),
        ("fig5_5", fig5_5::run),
        ("fig5_6", fig5_6::run),
        ("ablation", ablation::run),
        ("baselines", baselines::run),
        ("lifetime", lifetime::run),
        ("matrix", matrix::run),
        ("loss", loss::run),
        ("adversary", adversary::run),
    ];
    for (name, run) in figures {
        println!("\n##### {name} #####\n");
        run(cli);
    }
}

/// Fig. 5.1 — MDR vs percentage of selfish nodes, both arms.
pub mod fig5_1 {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_workloads::dispersion::SeedStats;
    use dtn_workloads::paper::selfish_sweep;
    use dtn_workloads::runner::run_seeds;
    use dtn_workloads::scenario::Arm;

    /// The figure's sweep scenarios (smoke-prepped).
    fn sweep(cli: &Cli) -> Vec<Scenario> {
        selfish_sweep(cli.scale)
            .into_iter()
            .map(|s| cli.prep(s))
            .collect()
    }

    /// Executor cells: selfish sweep × both arms × seeds.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        arm_cells(&sweep(cli), &Arm::BOTH, &cli.seeds)
    }

    /// Prints the table and writes `results/fig5_1.csv`.
    pub fn run(cli: &Cli) {
        let sweep = sweep(cli);
        let _ = run_cells(&cells(cli));
        print_scenario_header(
            "Fig 5.1 — MDR vs percentage of selfish nodes",
            &sweep[0],
            &cli.seeds,
        );
        println!(
            "{:>9} | {:>17} | {:>17} | {:>9}",
            "selfish %", "Incentive MDR", "ChitChat MDR", "gap"
        );
        println!("{}", "-".repeat(63));
        let mut rows = Vec::new();
        for scenario in &sweep {
            let pct = (scenario.selfish_fraction * 100.0).round();
            let inc = SeedStats::of(&run_seeds(scenario, Arm::Incentive, &cli.seeds));
            let cc = SeedStats::of(&run_seeds(scenario, Arm::ChitChat, &cli.seeds));
            println!(
                "{:>9} | {:>17} | {:>17} | {:>+9.3}",
                pct,
                inc.delivery_ratio.display(3),
                cc.delivery_ratio.display(3),
                cc.delivery_ratio.mean - inc.delivery_ratio.mean
            );
            rows.push(format!(
                "{pct},{:.6},{:.6},{:.6},{:.6}",
                inc.delivery_ratio.mean,
                inc.delivery_ratio.std_dev,
                cc.delivery_ratio.mean,
                cc.delivery_ratio.std_dev
            ));
        }
        write_csv(
            "fig5_1",
            "selfish_pct,mdr_incentive,sd_incentive,mdr_chitchat,sd_chitchat",
            &rows,
        );
    }
}

/// Fig. 5.2 — percentage of reduced traffic over ChitChat.
pub mod fig5_2 {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_workloads::paper::selfish_sweep;
    use dtn_workloads::prelude::BackendKind;
    use dtn_workloads::runner::compare;
    use dtn_workloads::scenario::Arm;

    fn sweep(cli: &Cli) -> Vec<Scenario> {
        selfish_sweep(cli.scale)
            .into_iter()
            .map(|s| cli.prep(s))
            .collect()
    }

    /// Executor cells — identical conditions to Fig. 5.1, so in a
    /// combined run the cache collapses the two figures into one sweep.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        arm_cells(&sweep(cli), &Arm::BOTH, &cli.seeds)
    }

    /// Prints the table and writes `results/fig5_2.csv`.
    pub fn run(cli: &Cli) {
        let sweep = sweep(cli);
        let _ = run_cells(&cells(cli));
        print_scenario_header(
            "Fig 5.2 — % of reduced traffic over ChitChat vs selfish nodes",
            &sweep[0],
            &cli.seeds,
        );
        println!(
            "{:>9} | {:>15} | {:>15} | {:>11}",
            "selfish %", "Incentive relays", "ChitChat relays", "reduction %"
        );
        println!("{}", "-".repeat(60));
        let mut rows = Vec::new();
        for scenario in &sweep {
            let pct = (scenario.selfish_fraction * 100.0).round();
            let (cmp, _) = compare(scenario, BackendKind::ChitChat, &cli.seeds, false);
            println!(
                "{:>9} | {:>15} | {:>15} | {:>+11.1}",
                pct,
                cmp.incentive.relays_completed,
                cmp.chitchat.relays_completed,
                cmp.traffic_reduction_pct()
            );
            rows.push(format!(
                "{pct},{},{},{:.4}",
                cmp.incentive.relays_completed,
                cmp.chitchat.relays_completed,
                cmp.traffic_reduction_pct()
            ));
        }
        write_csv(
            "fig5_2",
            "selfish_pct,relays_incentive,relays_chitchat,reduction_pct",
            &rows,
        );
    }
}

/// Fig. 5.3 — MDR vs selfish % under several initial token endowments.
pub mod fig5_3 {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_sim::stats::RunSummary;
    use dtn_workloads::paper::token_sweep;
    use dtn_workloads::runner::run_seeds;
    use dtn_workloads::scenario::Arm;

    fn sweep(cli: &Cli) -> Vec<(f64, Vec<Scenario>)> {
        token_sweep(cli.scale)
            .into_iter()
            .map(|(tokens, scenarios)| {
                (tokens, scenarios.into_iter().map(|s| cli.prep(s)).collect())
            })
            .collect()
    }

    /// Executor cells: every endowment column × incentive arm × seeds.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        sweep(cli)
            .iter()
            .flat_map(|(_, scenarios)| arm_cells(scenarios, &[Arm::Incentive], &cli.seeds))
            .collect()
    }

    /// Prints the table and writes `results/fig5_3.csv`.
    pub fn run(cli: &Cli) {
        let sweep = sweep(cli);
        let _ = run_cells(&cells(cli));
        print_scenario_header(
            "Fig 5.3 — MDR vs selfish % under different initial token endowments",
            &sweep[0].1[0],
            &cli.seeds,
        );
        let header: Vec<String> = sweep
            .iter()
            .map(|(tokens, _)| format!("{tokens:>7.0} tok"))
            .collect();
        println!("{:>9} | {}", "selfish %", header.join(" | "));
        println!("{}", "-".repeat(12 + 14 * sweep.len()));

        let points = sweep[0].1.len();
        let mut rows = Vec::new();
        for idx in 0..points {
            let pct = (sweep[0].1[idx].selfish_fraction * 100.0).round();
            let mut cells = Vec::new();
            let mut csv = format!("{pct}");
            for (_, scenarios) in &sweep {
                let summary =
                    RunSummary::mean_of(&run_seeds(&scenarios[idx], Arm::Incentive, &cli.seeds));
                cells.push(format!("{:>11.3}", summary.delivery_ratio));
                csv.push_str(&format!(",{:.6}", summary.delivery_ratio));
            }
            println!("{pct:>9} | {}", cells.join(" | "));
            rows.push(csv);
        }
        let csv_header = std::iter::once("selfish_pct".to_owned())
            .chain(sweep.iter().map(|(t, _)| format!("mdr_tokens_{t:.0}")))
            .collect::<Vec<_>>()
            .join(",");
        write_csv("fig5_3", &csv_header, &rows);
    }
}

/// Fig. 5.4 — average rating of malicious nodes vs time.
pub mod fig5_4 {
    use super::*;
    use crate::{ascii_chart, print_scenario_header, write_csv};
    use dtn_core::protocol::MALICIOUS_RATING_SERIES;
    use dtn_sim::stats::RunSummary;
    use dtn_workloads::paper::malicious_sweep;
    use dtn_workloads::runner::run_seeds;
    use dtn_workloads::scenario::Arm;

    fn sweep(cli: &Cli) -> Vec<Scenario> {
        malicious_sweep(cli.scale)
            .into_iter()
            .map(|s| cli.prep(s))
            .collect()
    }

    /// Executor cells: malicious sweep × incentive arm × seeds.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        arm_cells(&sweep(cli), &[Arm::Incentive], &cli.seeds)
    }

    /// Prints the table + ASCII charts and writes `results/fig5_4.csv`.
    pub fn run(cli: &Cli) {
        let sweep = sweep(cli);
        let _ = run_cells(&cells(cli));
        print_scenario_header(
            "Fig 5.4 — average rating of malicious nodes vs time",
            &sweep[0],
            &cli.seeds,
        );

        let mut series_by_pct = Vec::new();
        for scenario in &sweep {
            let pct = (scenario.malicious_fraction * 100.0).round();
            let summary = RunSummary::mean_of(&run_seeds(scenario, Arm::Incentive, &cli.seeds));
            let series = summary
                .series
                .get(MALICIOUS_RATING_SERIES)
                .cloned()
                .unwrap_or_default();
            series_by_pct.push((pct, series));
        }

        // Align on the first series' sample times.
        let times: Vec<f64> = series_by_pct
            .first()
            .map(|(_, s)| s.iter().map(|(t, _)| *t).collect())
            .unwrap_or_default();
        let header: Vec<String> = series_by_pct
            .iter()
            .map(|(pct, _)| format!("{pct:>3.0}% mal"))
            .collect();
        println!("{:>9} | {}", "t (min)", header.join(" | "));
        println!("{}", "-".repeat(12 + 11 * series_by_pct.len()));
        let mut rows = Vec::new();
        for (i, t) in times.iter().enumerate() {
            let mut cells = Vec::new();
            let mut csv = format!("{:.0}", t / 60.0);
            for (_, series) in &series_by_pct {
                let v = series.get(i).map_or(f64::NAN, |(_, v)| *v);
                cells.push(format!("{v:>8.3}"));
                csv.push_str(&format!(",{v:.4}"));
            }
            println!("{:>9.0} | {}", t / 60.0, cells.join(" | "));
            rows.push(csv);
        }
        let csv_header = std::iter::once("t_min".to_owned())
            .chain(
                series_by_pct
                    .iter()
                    .map(|(p, _)| format!("avg_rating_{p:.0}pct")),
            )
            .collect::<Vec<_>>()
            .join(",");
        write_csv("fig5_4", &csv_header, &rows);

        for (pct, series) in &series_by_pct {
            println!("\n{pct:.0}% malicious:");
            print!(
                "{}",
                ascii_chart(
                    series,
                    6,
                    &format!("time → avg rating, {pct:.0}% malicious")
                )
            );
        }
    }
}

/// Fig. 5.5 — MDR vs number of users on a fixed area.
pub mod fig5_5 {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_workloads::paper::user_count_sweep;
    use dtn_workloads::prelude::BackendKind;
    use dtn_workloads::runner::compare;
    use dtn_workloads::scenario::Arm;

    fn sweep(cli: &Cli) -> Vec<Scenario> {
        user_count_sweep(cli.scale)
            .into_iter()
            .map(|s| cli.prep(s))
            .collect()
    }

    /// Executor cells: user-count sweep × both arms × seeds.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        arm_cells(&sweep(cli), &Arm::BOTH, &cli.seeds)
    }

    /// Prints the table and writes `results/fig5_5.csv`.
    pub fn run(cli: &Cli) {
        let sweep = sweep(cli);
        let _ = run_cells(&cells(cli));
        print_scenario_header(
            "Fig 5.5 — MDR vs number of users (fixed area)",
            &sweep[0],
            &cli.seeds,
        );
        println!(
            "{:>7} | {:>13} | {:>13} | {:>9}",
            "users", "Incentive MDR", "ChitChat MDR", "gap"
        );
        println!("{}", "-".repeat(53));
        let mut rows = Vec::new();
        for scenario in &sweep {
            let (cmp, _) = compare(scenario, BackendKind::ChitChat, &cli.seeds, false);
            println!(
                "{:>7} | {:>13.3} | {:>13.3} | {:>+9.3}",
                scenario.nodes,
                cmp.incentive.delivery_ratio,
                cmp.chitchat.delivery_ratio,
                cmp.mdr_gap()
            );
            rows.push(format!(
                "{},{:.6},{:.6}",
                scenario.nodes, cmp.incentive.delivery_ratio, cmp.chitchat.delivery_ratio
            ));
        }
        write_csv("fig5_5", "users,mdr_incentive,mdr_chitchat", &rows);
    }
}

/// Fig. 5.6 — priority-segmented MDR at 20% and 40% selfish nodes.
pub mod fig5_6 {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_workloads::paper::priority_sweep;
    use dtn_workloads::prelude::BackendKind;
    use dtn_workloads::runner::compare;
    use dtn_workloads::scenario::Arm;

    fn sweep(cli: &Cli) -> Vec<Scenario> {
        priority_sweep(cli.scale)
            .into_iter()
            .map(|s| cli.prep(s))
            .collect()
    }

    /// Executor cells: priority sweep × both arms × seeds.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        arm_cells(&sweep(cli), &Arm::BOTH, &cli.seeds)
    }

    /// Prints the table and writes `results/fig5_6.csv`.
    pub fn run(cli: &Cli) {
        let sweep = sweep(cli);
        let _ = run_cells(&cells(cli));
        print_scenario_header(
            "Fig 5.6 — priority-segmented MDR vs selfish percentage",
            &sweep[0],
            &cli.seeds,
        );
        println!(
            "{:>9} | {:>9} | {:>8} | {:>8} | {:>8}",
            "selfish %", "arm", "high", "medium", "low"
        );
        println!("{}", "-".repeat(55));
        let mut rows = Vec::new();
        for scenario in &sweep {
            let pct = (scenario.selfish_fraction * 100.0).round();
            let (cmp, _) = compare(scenario, BackendKind::ChitChat, &cli.seeds, false);
            for (label, summary) in [("Incentive", &cmp.incentive), ("ChitChat", &cmp.chitchat)] {
                let by = &summary.delivery_ratio_by_priority;
                let get = |level: u8| by.get(&level).copied().unwrap_or(0.0);
                println!(
                    "{:>9} | {:>9} | {:>8.3} | {:>8.3} | {:>8.3}",
                    pct,
                    label,
                    get(1),
                    get(2),
                    get(3)
                );
                rows.push(format!(
                    "{pct},{label},{:.6},{:.6},{:.6}",
                    get(1),
                    get(2),
                    get(3)
                ));
            }
        }
        write_csv(
            "fig5_6",
            "selfish_pct,arm,mdr_high,mdr_medium,mdr_low",
            &rows,
        );
    }
}

/// Ablation study — component contributions at 40% selfish, 10% malicious.
pub mod ablation {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_sim::stats::RunSummary;
    use dtn_workloads::scenario::Arm;

    fn base(cli: &Cli) -> Scenario {
        let mut base = cli.scale.base_scenario();
        base.selfish_fraction = 0.4;
        base.malicious_fraction = 0.1;
        cli.prep(base)
    }

    fn variant(base: &Scenario, name: &str, f: impl Fn(&mut Scenario)) -> (String, Scenario) {
        let mut s = base.clone().named(name);
        f(&mut s);
        (name.to_owned(), s)
    }

    fn variants(cli: &Cli) -> Vec<(String, Scenario)> {
        let base = base(cli);
        vec![
            variant(&base, "full", |_| {}),
            variant(&base, "no-drm", |s| s.protocol.drm_enabled = false),
            variant(&base, "no-enrichment", |s| {
                s.protocol.enrichment_enabled = false
            }),
            variant(&base, "no-hardware", |s| {
                s.protocol.hardware_factor_enabled = false;
            }),
        ]
    }

    /// Executor cells: each variant on the incentive arm plus the
    /// everything-off ChitChat baseline, all seeds.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        let mut cells: Vec<Cell> = variants(cli)
            .iter()
            .flat_map(|(_, s)| arm_cells(std::slice::from_ref(s), &[Arm::Incentive], &cli.seeds))
            .collect();
        cells.extend(arm_cells(
            std::slice::from_ref(&base(cli)),
            &[Arm::ChitChat],
            &cli.seeds,
        ));
        cells
    }

    /// Seed-mean of a variant's summaries plus its mean tokens awarded,
    /// pulled from the executor's memoized [`dtn_workloads::sweep::CellResult`]s.
    fn mean_runs(scenario: &Scenario, arm: Arm, seeds: &[u64]) -> (RunSummary, f64) {
        let plan: Vec<Cell> = seeds
            .iter()
            .map(|&seed| Cell::arm(scenario.clone(), arm, seed))
            .collect();
        let results = run_cells(&plan);
        let awarded = results.iter().map(|r| r.tokens_awarded).sum::<f64>() / results.len() as f64;
        let summaries: Vec<RunSummary> = results.into_iter().map(|r| r.summary).collect();
        (RunSummary::mean_of(&summaries), awarded)
    }

    /// Prints the table and writes `results/ablation.csv`.
    pub fn run(cli: &Cli) {
        let base = base(cli);
        let _ = run_cells(&cells(cli));
        print_scenario_header(
            "Ablation — component contributions at 40% selfish, 10% malicious",
            &base,
            &cli.seeds,
        );

        println!(
            "{:>14} | {:>7} | {:>8} | {:>9} | {:>9} | {:>10}",
            "variant", "MDR", "high MDR", "relays", "bonus", "tok moved"
        );
        println!("{}", "-".repeat(72));
        let mut rows = Vec::new();
        for (name, scenario) in &variants(cli) {
            let (summary, awarded) = mean_runs(scenario, Arm::Incentive, &cli.seeds);
            let high = summary
                .delivery_ratio_by_priority
                .get(&1)
                .copied()
                .unwrap_or(0.0);
            println!(
                "{:>14} | {:>7.3} | {:>8.3} | {:>9} | {:>9} | {:>10.1}",
                name,
                summary.delivery_ratio,
                high,
                summary.relays_completed,
                summary.bonus_deliveries,
                awarded
            );
            rows.push(format!(
                "{name},{:.6},{:.6},{},{},{:.1}",
                summary.delivery_ratio,
                high,
                summary.relays_completed,
                summary.bonus_deliveries,
                awarded
            ));
        }
        // The all-off baseline for reference.
        let (cc, _) = mean_runs(&base, Arm::ChitChat, &cli.seeds);
        let high = cc
            .delivery_ratio_by_priority
            .get(&1)
            .copied()
            .unwrap_or(0.0);
        println!(
            "{:>14} | {:>7.3} | {:>8.3} | {:>9} | {:>9} | {:>10}",
            "chitchat", cc.delivery_ratio, high, cc.relays_completed, cc.bonus_deliveries, "-"
        );
        rows.push(format!(
            "chitchat,{:.6},{:.6},{},{},0",
            cc.delivery_ratio, high, cc.relays_completed, cc.bonus_deliveries
        ));
        write_csv(
            "ablation",
            "variant,mdr,mdr_high,relays,bonus_deliveries,tokens_awarded",
            &rows,
        );
    }
}

/// Baseline routing comparison — every router on the identical workload.
pub mod baselines {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_workloads::prelude::{BackendKind, Overlay};
    use dtn_workloads::scenario::Arm;

    fn scenario(cli: &Cli) -> Scenario {
        let mut scenario = cli.scale.base_scenario();
        scenario.selfish_fraction = 0.0;
        cli.prep(scenario.named("baselines"))
    }

    /// The comparison's row order, one seed each: the mechanism, then every
    /// backend of [`BackendKind::ALL`] with the overlay off. All rows share
    /// the overlay-off substrate (behavior models, participation gate,
    /// drop-oldest buffers), and the ChitChat row canonicalizes to the
    /// paper's baseline arm.
    fn table(cli: &Cli) -> Vec<(String, Cell)> {
        let s = scenario(cli);
        let seed = cli.seeds[0];
        let mut rows = vec![(
            "incentive".to_owned(),
            Cell::arm(s.clone(), Arm::Incentive, seed),
        )];
        for kind in BackendKind::ALL {
            rows.push((
                kind.tag(),
                Cell::backend(s.clone(), kind, Overlay::Off, seed),
            ));
        }
        rows
    }

    /// Executor cells: the incentive arm plus every overlay-off backend.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        table(cli).into_iter().map(|(_, cell)| cell).collect()
    }

    /// Prints the table and writes `results/baselines.csv`.
    pub fn run(cli: &Cli) {
        let scenario = scenario(cli);
        print_scenario_header(
            "Baseline comparison — identical workload, every router",
            &scenario,
            &cli.seeds[..1],
        );
        let table = table(cli);
        let plan: Vec<Cell> = table.iter().map(|(_, c)| c.clone()).collect();
        let results = run_cells(&plan);

        println!(
            "{:>14} | {:>7} | {:>9} | {:>12} | {:>9} | {:>9}",
            "router", "MDR", "relays", "bytes (MB)", "latency s", "aborted"
        );
        println!("{}", "-".repeat(75));
        let mut csv = Vec::new();
        for ((name, _), result) in table.iter().zip(&results) {
            let s = &result.summary;
            println!(
                "{:>14} | {:>7.3} | {:>9} | {:>12.1} | {:>9.0} | {:>9}",
                name,
                s.delivery_ratio,
                s.relays_completed,
                s.relay_bytes as f64 / 1e6,
                s.mean_latency_secs,
                s.transfers_aborted
            );
            csv.push(format!(
                "{name},{:.6},{},{},{:.1},{}",
                s.delivery_ratio,
                s.relays_completed,
                s.relay_bytes,
                s.mean_latency_secs,
                s.transfers_aborted
            ));
        }
        write_csv(
            "baselines",
            "router,mdr,relays,bytes,latency_s,aborted",
            &csv,
        );
    }
}

/// Network-lifetime extension — finite batteries, 40% selfish.
pub mod lifetime {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_sim::stats::RunSummary;
    use dtn_workloads::scenario::Arm;

    /// The battery budgets swept (J); infinity = ideal power.
    const BUDGETS: [f64; 4] = [50.0, 150.0, 400.0, f64::INFINITY];

    fn base(cli: &Cli) -> Scenario {
        let mut base = cli.scale.base_scenario();
        base.selfish_fraction = 0.4;
        cli.prep(base.named("lifetime"))
    }

    fn scenario_for(base: &Scenario, budget: f64) -> Scenario {
        let mut s = base.clone();
        if budget.is_finite() {
            s.battery_joules = Some(budget);
        }
        s
    }

    /// Executor cells: every budget × both arms × seeds. Depletion counts
    /// ride back on [`RunSummary::depleted_nodes`], which is what lets this
    /// experiment share the pool instead of hand-building simulations.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        let base = base(cli);
        BUDGETS
            .iter()
            .flat_map(|&budget| {
                arm_cells(
                    std::slice::from_ref(&scenario_for(&base, budget)),
                    &Arm::BOTH,
                    &cli.seeds,
                )
            })
            .collect()
    }

    /// Prints the table and writes `results/lifetime.csv`.
    pub fn run(cli: &Cli) {
        let base = base(cli);
        let _ = run_cells(&cells(cli));
        print_scenario_header(
            "Network lifetime under finite batteries (extension)",
            &base,
            &cli.seeds,
        );

        println!(
            "{:>12} | {:>9} | {:>13} | {:>13} | {:>10} | {:>10}",
            "battery (J)", "arm", "MDR", "relays", "dead nodes", "bytes (MB)"
        );
        println!("{}", "-".repeat(82));
        let mut rows = Vec::new();
        for budget in BUDGETS {
            for arm in Arm::BOTH {
                let s = scenario_for(&base, budget);
                let runs = dtn_workloads::runner::run_seeds(&s, arm, &cli.seeds);
                let dead_total: u64 = runs.iter().map(|r| r.depleted_nodes).sum();
                let mean = RunSummary::mean_of(&runs);
                let dead = dead_total as f64 / cli.seeds.len() as f64;
                let label = if budget.is_finite() {
                    format!("{budget:.0}")
                } else {
                    "ideal".to_owned()
                };
                println!(
                    "{:>12} | {:>9} | {:>13.3} | {:>13} | {:>10.1} | {:>10.1}",
                    label,
                    arm.label(),
                    mean.delivery_ratio,
                    mean.relays_completed,
                    dead,
                    mean.relay_bytes as f64 / 1e6
                );
                rows.push(format!(
                    "{label},{},{:.6},{},{dead:.1},{}",
                    arm.label(),
                    mean.delivery_ratio,
                    mean.relays_completed,
                    mean.relay_bytes
                ));
            }
        }
        write_csv(
            "lifetime",
            "battery_j,arm,mdr,relays,dead_nodes,bytes",
            &rows,
        );
    }
}

/// Router × overlay matrix (extension): the incentive overlay composed
/// with every routing backend on one workload. The paper's headline
/// "Incentive vs ChitChat" comparison is the chitchat column of this
/// grid; the other columns measure how much of the win is
/// router-independent.
pub mod matrix {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_sim::stats::RunSummary;
    use dtn_workloads::prelude::{BackendKind, Overlay};

    fn scenario(cli: &Cli) -> Scenario {
        let mut s = cli.scale.base_scenario();
        s.selfish_fraction = 0.2;
        cli.prep(s.named("matrix"))
    }

    /// Executor cells: the full backend × overlay grid, every seed. The
    /// ChitChat rows canonicalize to the paper arms inside
    /// [`Cell::backend`], so they share cache entries with Figs. 5.1–5.6.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        let s = scenario(cli);
        let mut cells = Vec::new();
        for backend in BackendKind::ALL {
            for overlay in Overlay::BOTH {
                for &seed in &cli.seeds {
                    cells.push(Cell::backend(s.clone(), backend, overlay, seed));
                }
            }
        }
        cells
    }

    /// Prints the 12-row grid and writes `results/matrix.csv`.
    pub fn run(cli: &Cli) {
        let scenario = scenario(cli);
        let results = run_cells(&cells(cli));
        print_scenario_header(
            "Matrix — incentive overlay × routing backend (extension)",
            &scenario,
            &cli.seeds,
        );
        println!(
            "{:>10} | {:>9} | {:>7} | {:>9} | {:>10} | {:>9} | {:>8}",
            "backend", "overlay", "MDR", "relays", "bytes (MB)", "latency s", "settled"
        );
        println!("{}", "-".repeat(80));
        let mut rows = Vec::new();
        let per_cell = cli.seeds.len();
        let mut chunks = results.chunks(per_cell);
        for backend in BackendKind::ALL {
            for overlay in Overlay::BOTH {
                let chunk = chunks.next().expect("plan covers the grid");
                let summaries: Vec<RunSummary> = chunk.iter().map(|r| r.summary.clone()).collect();
                let mean = RunSummary::mean_of(&summaries);
                let settled =
                    chunk.iter().map(|r| r.settlements).sum::<u64>() as f64 / per_cell as f64;
                println!(
                    "{:>10} | {:>9} | {:>7.3} | {:>9} | {:>10.1} | {:>9.0} | {:>8.1}",
                    backend.tag(),
                    overlay.label(),
                    mean.delivery_ratio,
                    mean.relays_completed,
                    mean.relay_bytes as f64 / 1e6,
                    mean.mean_latency_secs,
                    settled
                );
                rows.push(format!(
                    "{},{},{:.6},{},{},{:.1},{:.1}",
                    backend.tag(),
                    overlay.tag(),
                    mean.delivery_ratio,
                    mean.relays_completed,
                    mean.relay_bytes,
                    mean.mean_latency_secs,
                    settled
                ));
            }
        }
        write_csv(
            "matrix",
            "backend,overlay,mdr,relays,bytes,latency_s,settlements",
            &rows,
        );
    }
}

/// Recovery-aware loss sweep (extension): delivery under in-flight payload
/// loss with the kernel's retry/resume layer on vs off, incentive arm.
pub mod loss {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_sim::stats::RunSummary;
    use dtn_sim::transfer::RecoveryPolicy;
    use dtn_workloads::scenario::Arm;

    /// The in-flight loss probabilities swept.
    pub const LOSSES: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.4];

    fn base(cli: &Cli) -> Scenario {
        let mut s = cli.scale.base_scenario();
        s.selfish_fraction = 0.2;
        cli.prep(s.named("loss"))
    }

    fn scenario_for(base: &Scenario, loss: f64, retries: bool) -> Scenario {
        let mut s = base.clone();
        if loss > 0.0 {
            s.chaos = Some(format!("loss={loss}").parse().expect("valid spec"));
        }
        if retries {
            s.recovery = Some(RecoveryPolicy::default());
        }
        s
    }

    /// Executor cells: every loss level × retries {off, on} × seeds.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        let base = base(cli);
        let mut cells = Vec::new();
        for loss in LOSSES {
            for retries in [false, true] {
                for &seed in &cli.seeds {
                    cells.push(Cell::arm(
                        scenario_for(&base, loss, retries),
                        Arm::Incentive,
                        seed,
                    ));
                }
            }
        }
        cells
    }

    /// Prints the table and writes `results/loss.csv`.
    pub fn run(cli: &Cli) {
        let base = base(cli);
        let results = run_cells(&cells(cli));
        print_scenario_header(
            "Loss sweep — delivery vs payload loss, retries off/on (extension)",
            &base,
            &cli.seeds,
        );
        println!(
            "{:>7} | {:>13} | {:>12} | {:>9} | {:>8}",
            "loss %", "MDR (no retry)", "MDR (retry)", "retried", "gain"
        );
        println!("{}", "-".repeat(60));
        let mut rows = Vec::new();
        let per_cell = cli.seeds.len();
        let mut chunks = results.chunks(per_cell);
        for loss in LOSSES {
            let mean_of = |chunk: &[dtn_workloads::sweep::CellResult]| {
                let summaries: Vec<RunSummary> = chunk.iter().map(|r| r.summary.clone()).collect();
                RunSummary::mean_of(&summaries)
            };
            let off = mean_of(chunks.next().expect("plan covers the sweep"));
            let on = mean_of(chunks.next().expect("plan covers the sweep"));
            println!(
                "{:>7.0} | {:>13.3} | {:>12.3} | {:>9} | {:>+8.3}",
                loss * 100.0,
                off.delivery_ratio,
                on.delivery_ratio,
                on.transfers_retried,
                on.delivery_ratio - off.delivery_ratio
            );
            rows.push(format!(
                "{loss},{:.6},{:.6},{}",
                off.delivery_ratio, on.delivery_ratio, on.transfers_retried
            ));
        }
        write_csv("loss", "loss,mdr_no_retry,mdr_retry,retried", &rows);
    }
}

/// Adversarial economy sweep (extension): fraction of the token economy
/// captured by strategic nodes vs attacker population, with the
/// reputation-weighted-gossip/watchdog countermeasures off and on.
/// Every cell runs with a periodic `check_invariants` audit so economic
/// conservation is machine-checked under attack.
pub mod adversary {
    use super::*;
    use crate::{print_scenario_header, write_csv};
    use dtn_core::strategy::StrategyMix;
    use dtn_workloads::scenario::Arm;
    use dtn_workloads::sweep::CellResult;

    /// Attacker population fractions swept: the honest baseline plus four
    /// escalating attacker populations.
    pub const FRACTIONS: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.4];

    /// Kernel steps between `check_invariants` audits in every cell.
    pub const AUDIT_EVERY: u64 = 300;

    fn base(cli: &Cli) -> Scenario {
        cli.prep(cli.scale.base_scenario().named("adversary"))
    }

    /// The strategy mix at a given attacker fraction: 40% free-riders,
    /// 10% minority-game players, 30% tag farmers, 20% whitewashers —
    /// every strategy in the book, weighted toward the custody attacks
    /// the watchdog can see. `None` for the honest/defense-free corner so
    /// that cell keeps its strategy-free cache key.
    fn mix_for(fraction: f64, defense: bool) -> Option<StrategyMix> {
        if fraction == 0.0 && !defense {
            return None;
        }
        Some(StrategyMix {
            free_rider_fraction: fraction * 0.4,
            minority_fraction: fraction * 0.1,
            farmer_fraction: fraction * 0.3,
            whitewash_fraction: fraction * 0.2,
            defense,
            ..StrategyMix::default()
        })
    }

    fn scenario_for(base: &Scenario, fraction: f64, defense: bool) -> Scenario {
        let mut s = base.clone();
        s.strategies = mix_for(fraction, defense);
        s.audit_every = Some(AUDIT_EVERY);
        s
    }

    /// Executor cells: every attacker fraction × defense {off, on} ×
    /// seeds, incentive arm.
    #[must_use]
    pub fn cells(cli: &Cli) -> Vec<Cell> {
        let base = base(cli);
        let mut cells = Vec::new();
        for fraction in FRACTIONS {
            for defense in [false, true] {
                for &seed in &cli.seeds {
                    cells.push(Cell::arm(
                        scenario_for(&base, fraction, defense),
                        Arm::Incentive,
                        seed,
                    ));
                }
            }
        }
        cells
    }

    /// Prints the table and writes `results/adversary.csv`.
    pub fn run(cli: &Cli) {
        let base = base(cli);
        let results = run_cells(&cells(cli));
        print_scenario_header(
            "Adversary sweep — economy captured by strategic nodes, defense off/on (extension)",
            &base,
            &cli.seeds,
        );
        println!(
            "{:>10} | {:>9} | {:>13} | {:>12} | {:>8} | {:>8}",
            "attacker %", "attackers", "capture (off)", "capture (on)", "mdr off", "mdr on"
        );
        println!("{}", "-".repeat(76));
        let endowment = base.nodes as f64 * base.protocol.incentive.initial_tokens;
        let mut rows = Vec::new();
        let per_cell = cli.seeds.len();
        let mut chunks = results.chunks(per_cell);
        for fraction in FRACTIONS {
            let attackers: usize = mix_for(fraction, true)
                .map(|m| m.counts(base.nodes).iter().sum())
                .unwrap_or(0);
            let capture_of = |chunk: &[CellResult]| {
                chunk
                    .iter()
                    .map(|r| r.attacker_tokens / endowment)
                    .sum::<f64>()
                    / chunk.len() as f64
            };
            let mdr_of = |chunk: &[CellResult]| {
                chunk.iter().map(|r| r.summary.delivery_ratio).sum::<f64>() / chunk.len() as f64
            };
            let off = chunks.next().expect("plan covers the sweep");
            let on = chunks.next().expect("plan covers the sweep");
            let (cap_off, cap_on) = (capture_of(off), capture_of(on));
            let (mdr_off, mdr_on) = (mdr_of(off), mdr_of(on));
            println!(
                "{:>10.0} | {:>9} | {:>13.4} | {:>12.4} | {:>8.3} | {:>8.3}",
                fraction * 100.0,
                attackers,
                cap_off,
                cap_on,
                mdr_off,
                mdr_on
            );
            rows.push(format!(
                "{fraction},{attackers},{cap_off:.6},{cap_on:.6},{mdr_off:.6},{mdr_on:.6}"
            ));
        }
        write_csv(
            "adversary",
            "attacker_fraction,attackers,capture_defense_off,capture_defense_on,mdr_defense_off,mdr_defense_on",
            &rows,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_workloads::paper::Scale;

    fn cli() -> Cli {
        Cli {
            scale: Scale::Reduced,
            seeds: vec![1, 2],
            smoke: true,
            expect_warm: false,
        }
    }

    #[test]
    fn suite_union_covers_every_figure() {
        let cli = cli();
        let union = suite_cells(&cli);
        let parts = [
            fig5_1::cells(&cli).len(),
            fig5_2::cells(&cli).len(),
            fig5_3::cells(&cli).len(),
            fig5_4::cells(&cli).len(),
            fig5_5::cells(&cli).len(),
            fig5_6::cells(&cli).len(),
            ablation::cells(&cli).len(),
            baselines::cells(&cli).len(),
            lifetime::cells(&cli).len(),
            matrix::cells(&cli).len(),
            loss::cells(&cli).len(),
            adversary::cells(&cli).len(),
        ];
        assert_eq!(union.len(), parts.iter().sum::<usize>());
        // Figs. 5.1 and 5.2 are the same sweep: their cells must share
        // cache keys so the union dedupes them inside the executor.
        let k1: Vec<u128> = fig5_1::cells(&cli).iter().map(Cell::cache_key).collect();
        let k2: Vec<u128> = fig5_2::cells(&cli).iter().map(Cell::cache_key).collect();
        assert_eq!(k1, k2, "fig5_1 and fig5_2 share conditions");
    }

    #[test]
    fn smoke_prep_shrinks_duration_and_caps_ttl() {
        let cli = cli();
        let base = cli.scale.base_scenario();
        let prepped = cli.prep(base.clone());
        assert!(prepped.duration_secs < base.duration_secs);
        assert!(prepped.message_ttl_secs <= prepped.duration_secs);
        // Off-switch: without --smoke the scenario passes through.
        let off = Cli {
            smoke: false,
            ..cli.clone()
        };
        assert_eq!(off.prep(base.clone()).duration_secs, base.duration_secs);
    }

    #[test]
    fn matrix_covers_the_full_grid_and_reuses_the_arm_cells() {
        use dtn_workloads::sweep::CellKind;
        let cli = cli();
        let cells = matrix::cells(&cli);
        // 6 backends × 2 overlays × 2 seeds.
        assert_eq!(cells.len(), 24);
        let arm_rows = cells
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Arm(_)))
            .count();
        assert_eq!(
            arm_rows,
            2 * cli.seeds.len(),
            "the ChitChat rows canonicalize to the paper arms and share their cache"
        );
    }

    #[test]
    fn baselines_rows_are_the_incentive_arm_then_every_backend_overlay_off() {
        use dtn_workloads::prelude::{BackendKind, Overlay};
        use dtn_workloads::scenario::Arm;
        use dtn_workloads::sweep::CellKind;
        let cli = cli();
        let cells = baselines::cells(&cli);
        let expected: Vec<CellKind> = std::iter::once(CellKind::Arm(Arm::Incentive))
            .chain(BackendKind::ALL.into_iter().map(|backend| match backend {
                BackendKind::ChitChat => CellKind::Arm(Arm::ChitChat),
                backend => CellKind::Backend {
                    backend,
                    overlay: Overlay::Off,
                },
            }))
            .collect();
        let kinds: Vec<CellKind> = cells.iter().map(|c| c.kind).collect();
        assert_eq!(kinds, expected);
        assert!(
            cells
                .iter()
                .all(|c| c.seed == cli.seeds[0] && c.scenario == cells[0].scenario),
            "one seed, one workload"
        );
    }

    #[test]
    fn loss_cells_leave_the_clean_point_chaos_free() {
        let cli = cli();
        let cells = loss::cells(&cli);
        // 5 loss levels × retries {off, on} × 2 seeds.
        assert_eq!(cells.len(), 20);
        let clean = cells.iter().filter(|c| c.scenario.chaos.is_none()).count();
        assert_eq!(clean, 4, "loss=0 rows carry no fault plan");
        let with_recovery = cells
            .iter()
            .filter(|c| c.scenario.recovery.is_some())
            .count();
        assert_eq!(with_recovery, 10, "half the sweep runs with retries on");
    }

    #[test]
    fn adversary_cells_audit_everything_and_keep_the_honest_corner_clean() {
        let cli = cli();
        let cells = adversary::cells(&cli);
        // 5 attacker fractions × defense {off, on} × 2 seeds.
        assert_eq!(cells.len(), 20);
        assert!(
            cells.iter().all(|c| c.scenario.audit_every.is_some()),
            "every adversary cell runs invariant-audited"
        );
        let strategy_free = cells
            .iter()
            .filter(|c| c.scenario.strategies.is_none())
            .count();
        assert_eq!(
            strategy_free,
            cli.seeds.len(),
            "only the honest/defense-off corner keeps a strategy-free scenario"
        );
        let armed = cells
            .iter()
            .filter(|c| c.scenario.strategies.is_some_and(|m| m.defense))
            .count();
        assert_eq!(
            armed,
            5 * cli.seeds.len(),
            "half the sweep arms the defense"
        );
    }

    #[test]
    fn lifetime_cells_leave_ideal_battery_unset() {
        let cli = cli();
        let cells = lifetime::cells(&cli);
        // 4 budgets × 2 arms × 2 seeds.
        assert_eq!(cells.len(), 16);
        let ideal = cells
            .iter()
            .filter(|c| c.scenario.battery_joules.is_none())
            .count();
        assert_eq!(ideal, 4, "ideal budget rows keep battery_joules = None");
    }
}
