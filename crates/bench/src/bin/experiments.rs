//! Experiment runner: regenerates every table and figure of the paper
//! plus the quantitative studies E1–E9 (see DESIGN.md §4 and
//! EXPERIMENTS.md).
//!
//! ```text
//! experiments <id>|all|list [--out-dir DIR] [--verbose]
//!             [--cache-dir DIR] [--code-version V]
//!             [--shard K/N | --spawn N | --merge]
//! experiments study run|status <study-id> [--cache-dir DIR] ...
//! experiments study explain <key-prefix> --cache-dir DIR
//! experiments study gc --cache-dir DIR
//! experiments study list
//! ```
//!
//! With `--cache-dir DIR`, every point result of a sweep-engine
//! experiment (every id `sweep_runner` resolves; a misused sharding
//! flag lists them) is a content-addressed object in a shared store
//! (DESIGN.md §17): reruns, other shards, and other hosts sharing the
//! store dedupe work, a killed run resumes by running again, and the run
//! prints a `cache: …` summary line. `--code-version` overrides the
//! version baked into every cache key (defaults to the crate version) —
//! flip it to invalidate the store wholesale.
//!
//! The store is where sweep rows are kept, so the sharding flags need
//! `--cache-dir`: `--shard K/N` runs one shard of the grid into the
//! store and exits (no merge — run the other shards, then `--merge`);
//! `--spawn N` forks one `--shard` worker subprocess per shard and
//! merges when all succeed; `--merge` only loads every planned point
//! from the store, verifies the sweep's cross-point assertions, and
//! writes the `BENCH_*.json` artifact. The artifact is byte-identical
//! however the grid was split. The `study` subcommand runs multi-stage
//! DAGs (sweep → pivot → report) over the same store.

use std::path::PathBuf;
use std::process::exit;

use rsp_bench::experiments::{run, studies, sweep_runner, ALL_IDS, HIDDEN_IDS};
use rsp_bench::{CasStore, Executor, Shard, SweepConfig, SweepError, SweepRunner};

struct Cli {
    positionals: Vec<String>,
    cfg: SweepConfig,
    merge_only: bool,
    sweep_flags_used: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id> [--out-dir DIR] [--verbose]\n\
         \x20                    [--cache-dir DIR] [--code-version V]\n\
         \x20                    [--shard K/N | --spawn N | --merge]\n\
         \x20      experiments study run|status <study-id> [flags]\n\
         \x20      experiments study explain <key-prefix> --cache-dir DIR\n\
         \x20      experiments study gc --cache-dir DIR\n\
         \x20      experiments study list"
    );
    eprintln!("ids:");
    for id in ALL_IDS {
        eprintln!("  {id}");
    }
    eprintln!("studies:");
    for id in studies::STUDY_IDS {
        eprintln!("  {id}");
    }
    exit(2);
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let mut positionals: Vec<String> = Vec::new();
    let mut cfg = SweepConfig::default();
    let mut merge_only = false;
    let mut sweep_flags_used = false;
    let mut spawn: Option<u32> = None;
    let need = |what: &str, v: Option<String>| -> String {
        v.unwrap_or_else(|| {
            eprintln!("{what} needs a value");
            exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out-dir" => cfg.out_dir = PathBuf::from(need("--out-dir", args.next())),
            "--cache-dir" => {
                cfg.cache_dir = Some(PathBuf::from(need("--cache-dir", args.next())));
            }
            "--code-version" => cfg.code_version = need("--code-version", args.next()),
            "--verbose" => cfg.verbose = true,
            "--shard" => {
                let s = need("--shard", args.next());
                match Shard::parse(&s) {
                    Ok(shard) => cfg.executor = Executor::Shard(shard),
                    Err(e) => {
                        eprintln!("{e}");
                        exit(2);
                    }
                }
                sweep_flags_used = true;
            }
            "--spawn" => {
                let n: u32 = need("--spawn", args.next()).parse().unwrap_or_else(|_| {
                    eprintln!("--spawn needs a shard count");
                    exit(2);
                });
                spawn = Some(n);
                sweep_flags_used = true;
            }
            "--merge" => {
                merge_only = true;
                sweep_flags_used = true;
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
            other => positionals.push(other.to_string()),
        }
    }
    if positionals.first().map(String::as_str) != Some("study") && positionals.len() > 1 {
        eprintln!("more than one experiment id given");
        usage();
    }
    if let Some(count) = spawn {
        let exe = std::env::current_exe().expect("own executable path");
        cfg.executor = Executor::Workers {
            exe,
            args: positionals.clone(),
            count,
        };
    }
    Cli {
        positionals,
        cfg,
        merge_only,
        sweep_flags_used,
    }
}

fn fail(e: SweepError) -> ! {
    eprintln!("error: {e}");
    exit(1);
}

/// Every id [`sweep_runner`] resolves: the sweep-engine experiments.
fn sweep_ids() -> Vec<&'static str> {
    ALL_IDS
        .into_iter()
        .chain(HIDDEN_IDS)
        .filter(|id| sweep_runner(id).is_some())
        .collect()
}

/// Drive one sweep per the CLI. Shard runs publish into the store and
/// stop; `--merge` only merges from it; everything else runs and merges,
/// printing the report.
fn drive_sweep(sweep: &dyn SweepRunner, cli: &Cli) {
    if cli.sweep_flags_used && cli.cfg.cache_dir.is_none() {
        eprintln!(
            "--shard/--spawn/--merge keep sweep rows in the artifact store: pass --cache-dir DIR"
        );
        exit(2);
    }
    let merged = if cli.merge_only {
        sweep.merge(&cli.cfg)
    } else if let Executor::Shard(shard) = cli.cfg.executor {
        let summary = sweep.run(&cli.cfg).unwrap_or_else(|e| fail(e));
        eprintln!("{} shard {shard} {}", sweep.name(), summary.progress);
        if let Some(cache) = &summary.cache {
            eprintln!("{}", cache.summary_line());
        }
        return;
    } else {
        sweep.run_and_merge(&cli.cfg).map(|(merged, _)| merged)
    };
    let merged = merged.unwrap_or_else(|e| fail(e));
    if let Some(cache) = &merged.cache {
        println!("{}", cache.summary_line());
    }
    println!("{}", merged.report);
    if let Some(path) = &merged.artifact {
        println!("wrote {} ({} points)", path.display(), merged.points);
    }
}

fn open_store(cli: &Cli) -> CasStore {
    let Some(dir) = &cli.cfg.cache_dir else {
        eprintln!("this study action needs --cache-dir");
        exit(2);
    };
    CasStore::open(dir).unwrap_or_else(|e| fail(e))
}

/// Every cache key any registered sweep or study can reach under the
/// current code version — the `study gc` live set.
fn reachable_keys(cli: &Cli) -> std::collections::BTreeSet<String> {
    let store = open_store(cli);
    let mut live = std::collections::BTreeSet::new();
    for sweep in sweep_ids().into_iter().filter_map(sweep_runner) {
        if sweep.cacheable() {
            let hashes = sweep.point_hashes(&cli.cfg).unwrap_or_else(|e| fail(e));
            live.extend(hashes);
        }
    }
    for id in studies::STUDY_IDS {
        let study = studies::study(id).expect("listed study resolves");
        let plans = study.plan(&cli.cfg, &store).unwrap_or_else(|e| fail(e));
        live.extend(plans.into_iter().map(|p| p.key));
    }
    live
}

/// Dispatch `experiments study <action> [target]`.
fn drive_study(cli: &Cli) {
    let action = cli.positionals.get(1).map(String::as_str);
    let target = cli.positionals.get(2).map(String::as_str);
    if cli.sweep_flags_used {
        eprintln!("--shard/--spawn/--merge apply to sweep ids, not 'study'");
        exit(2);
    }
    match (action, target) {
        (Some("list"), None) => {
            for id in studies::STUDY_IDS {
                println!("{id}");
            }
        }
        (Some("run"), Some(id)) => {
            let Some(study) = studies::study(id) else {
                eprintln!("unknown study '{id}'; try: experiments study list");
                exit(2);
            };
            let report = study.run(&cli.cfg).unwrap_or_else(|e| fail(e));
            for node in &report.nodes {
                println!(
                    "  [{}] {:<6} {:<12} {}{}",
                    if node.cached { "cached " } else { "ran    " },
                    node.kind,
                    node.id,
                    &node.key[..16.min(node.key.len())],
                    match node.points {
                        Some(p) => format!(" ({p} points)"),
                        None => String::new(),
                    }
                );
            }
            println!(
                "study {}: {}/{} node(s) cached; {}",
                report.name,
                report.nodes_cached,
                report.nodes.len(),
                report.cache.summary_line()
            );
            println!("{}", report.report);
            println!(
                "wrote {}",
                cli.cfg.out_dir.join(format!("STUDY_{id}.txt")).display()
            );
        }
        (Some("status"), Some(id)) => {
            let Some(study) = studies::study(id) else {
                eprintln!("unknown study '{id}'; try: experiments study list");
                exit(2);
            };
            print!("{}", study.status(&cli.cfg).unwrap_or_else(|e| fail(e)));
        }
        (Some("explain"), Some(prefix)) => {
            let store = open_store(cli);
            let found = store.find(prefix).unwrap_or_else(|e| fail(e));
            if found.is_empty() {
                eprintln!("no object matches prefix {prefix:?}");
                exit(1);
            }
            for obj in found {
                println!("{} ({})", obj.key, obj.kind);
                println!("  name:         {}", obj.name);
                println!("  code_version: {}", obj.code_version);
                println!("  inputs:       {}", obj.inputs.len());
                for input in &obj.inputs {
                    println!("    {input}");
                }
            }
        }
        (Some("gc"), None) => {
            let live = reachable_keys(cli);
            let store = open_store(cli);
            let summary = store.gc(&live).unwrap_or_else(|e| fail(e));
            println!(
                "gc: kept {} object(s), removed {} object(s), {} claim(s), {} quarantined",
                summary.kept, summary.removed, summary.claims_removed, summary.quarantine_removed
            );
        }
        _ => {
            eprintln!(
                "usage: experiments study run|status <study-id> | explain <key-prefix> | gc | list"
            );
            exit(2);
        }
    }
}

fn main() {
    let cli = parse_cli();
    match cli.positionals.first().map(String::as_str) {
        None | Some("list") => usage(),
        Some("study") => drive_study(&cli),
        Some("all") => {
            if cli.sweep_flags_used {
                eprintln!("--shard/--spawn/--merge apply to a single sweep id, not 'all'");
                exit(2);
            }
            for id in ALL_IDS.iter().filter(|&&i| i != "all") {
                if let Some(sweep) = sweep_runner(id) {
                    drive_sweep(sweep.as_ref(), &cli);
                } else {
                    let text = run(id).expect("known id");
                    println!("{text}");
                }
                println!("{}", "=".repeat(78));
            }
        }
        Some(id) => {
            if let Some(sweep) = sweep_runner(id) {
                drive_sweep(sweep.as_ref(), &cli);
            } else if cli.sweep_flags_used {
                eprintln!(
                    "'{id}' is not a sweep experiment; --shard/--spawn/--merge need one of: {}",
                    sweep_ids().join(", ")
                );
                exit(2);
            } else {
                match run(id) {
                    Some(text) => println!("{text}"),
                    None => {
                        eprintln!("unknown experiment '{id}'; try: experiments list");
                        exit(2);
                    }
                }
            }
        }
    }
}
