//! Experiment runner: regenerates every table and figure of the paper
//! plus the quantitative studies E1–E9 (see DESIGN.md §4 and
//! EXPERIMENTS.md).
//!
//! ```text
//! experiments <id>|all|list [--out-dir DIR] [--verbose]
//!             [--cache-dir DIR] [--code-version V]
//!             [--shard K/N | --spawn N | --merge]
//! experiments gc --cache-dir DIR [--code-version V]
//! experiments explain <key-prefix> --cache-dir DIR
//! ```
//!
//! Every id, listed or hidden, is a sweep on the engine (`sweep_runner`
//! resolves them all; report-only experiments are one-point sweeps). With
//! `--cache-dir DIR`, every point result is a content-addressed object in
//! a shared store (DESIGN.md §17): reruns, other shards, and other hosts
//! sharing the store dedupe work, a killed run resumes by running again,
//! and the run prints a `cache: …` summary line. `--code-version`
//! overrides the version baked into every cache key (defaults to the
//! crate version plus a hash of the workspace sources) — flip it to
//! invalidate the store wholesale.
//!
//! The store is where sweep rows are kept, so the sharding flags need
//! `--cache-dir`: `--shard K/N` runs one shard of the grid into the
//! store and exits (no merge — run the other shards, then `--merge`);
//! `--spawn N` forks one `--shard` worker subprocess per shard and
//! merges when all succeed; `--merge` only loads every planned point
//! from the store, verifies the sweep's cross-point assertions, and
//! writes the `BENCH_*.json` artifact. The artifact is byte-identical
//! however the grid was split.
//!
//! Two commands look after the store itself: `gc` removes every object
//! no id can reach under the current code version (plus leftover claims
//! and quarantined files), and `explain` prints the metadata of every
//! object whose hash starts with a prefix.

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::exit;

use rsp_bench::experiments::{sweep_runner, ALL_IDS, HIDDEN_IDS};
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
         \x20      experiments gc --cache-dir DIR [--code-version V]\n\
         \x20      experiments explain <key-prefix> --cache-dir DIR"
    );
    eprintln!("ids:");
    for id in ALL_IDS {
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

/// Drive one sweep per the CLI. Shard runs publish into the store and
/// stop; `--merge` only merges from it; everything else runs and merges,
/// writing the report to `out`.
fn drive_sweep(sweep: &dyn SweepRunner, cli: &Cli, out: &mut impl Write) -> io::Result<()> {
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
        return Ok(());
    } else {
        sweep.run_and_merge(&cli.cfg)
    };
    let merged = merged.unwrap_or_else(|e| fail(e));
    if let Some(cache) = &merged.cache {
        writeln!(out, "{}", cache.summary_line())?;
    }
    writeln!(out, "{}", merged.report)?;
    if let Some(path) = &merged.artifact {
        writeln!(out, "wrote {} ({} points)", path.display(), merged.points)?;
    }
    Ok(())
}

fn open_store(cli: &Cli) -> CasStore {
    let Some(dir) = &cli.cfg.cache_dir else {
        eprintln!("gc and explain act on the artifact store: pass --cache-dir DIR");
        usage();
    };
    CasStore::open(dir).unwrap_or_else(|e| fail(e))
}

/// `experiments gc`: remove every object that no id (listed or hidden)
/// reaches under the current code version.
fn gc(cli: &Cli, out: &mut impl Write) -> io::Result<()> {
    let store = open_store(cli);
    let mut live = std::collections::BTreeSet::new();
    for sweep in ALL_IDS
        .into_iter()
        .chain(HIDDEN_IDS)
        .filter_map(sweep_runner)
    {
        live.extend(sweep.point_hashes(&cli.cfg).unwrap_or_else(|e| fail(e)));
    }
    let summary = store.gc(&live).unwrap_or_else(|e| fail(e));
    writeln!(
        out,
        "gc: kept {} object(s), removed {} object(s), {} claim(s), {} quarantined",
        summary.kept, summary.removed, summary.claims_removed, summary.quarantine_removed
    )
}

/// `experiments explain <prefix>`: every stored object whose hash starts
/// with `prefix`, with its metadata, or why the store would not serve
/// it. Read-only: it moves no object, servable or not.
fn explain(cli: &Cli, prefix: &str, out: &mut impl Write) -> io::Result<()> {
    let store = open_store(cli);
    let found = store.find(prefix).unwrap_or_else(|e| fail(e));
    if found.is_empty() {
        eprintln!("no object matches prefix {prefix:?}");
        exit(1);
    }
    for (hash, obj) in found {
        match obj {
            Ok(obj) => {
                writeln!(out, "{}", obj.key)?;
                writeln!(out, "  name:         {}", obj.name)?;
                writeln!(out, "  code_version: {}", obj.code_version)?;
            }
            Err(reason) => {
                writeln!(out, "{hash}")?;
                writeln!(out, "  unservable:   {reason}")?;
            }
        }
    }
    Ok(())
}

/// Runs the command; stdout closing early (`| head`) ends the run
/// quietly with exit 0.
fn main() {
    let cli = parse_cli();
    let mut out = io::stdout().lock();
    match run(&cli, &mut out).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => exit(0),
        Err(e) => {
            eprintln!("error: writing to stdout: {e}");
            exit(1);
        }
    }
}

fn run(cli: &Cli, out: &mut impl Write) -> io::Result<()> {
    let args: Vec<&str> = cli.positionals.iter().map(String::as_str).collect();
    let known =
        |id: &str| matches!(id, "all" | "list" | "gc" | "explain") || sweep_runner(id).is_some();
    if let Some(id) = args.first().filter(|id| !known(id)) {
        eprintln!("unknown experiment '{id}'; try: experiments list");
        exit(2);
    }
    match args[..] {
        [] | ["list"] => usage(),
        ["gc" | "explain", ..] if cli.sweep_flags_used => {
            eprintln!("--shard/--spawn/--merge apply to experiment ids, not gc or explain");
            usage();
        }
        ["gc"] => gc(cli, out),
        ["explain"] => {
            eprintln!("explain needs a key prefix");
            usage();
        }
        ["explain", prefix] => explain(cli, prefix, out),
        ["all"] => {
            if cli.sweep_flags_used {
                eprintln!("--shard/--spawn/--merge apply to a single experiment id, not 'all'");
                exit(2);
            }
            for id in ALL_IDS.iter().filter(|&&i| i != "all") {
                drive_sweep(sweep_runner(id).expect("listed id").as_ref(), cli, out)?;
                writeln!(out, "{}", "=".repeat(78))?;
            }
            Ok(())
        }
        [id] => drive_sweep(sweep_runner(id).expect("known id").as_ref(), cli, out),
        _ => {
            eprintln!("unexpected arguments {:?}", &args[1..]);
            usage();
        }
    }
}
