//! `prepare-repro` — command-line front end for the PREPARE reproduction.
//!
//! ```text
//! prepare-repro run --app rubis --fault memleak --scheme prepare [--policy migration] [--seed 42]
//! prepare-repro trials --app systems --fault bottleneck [--seeds 5]
//! prepare-repro trace --app rubis --fault cpuhog --seed 1 --json out.json [--csv-vm 3 out.csv]
//! prepare-repro compare --app systems --fault memleak
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency); every subcommand
//! prints a paper-style report.

use prepare_repro::core::{
    eval_violation_intervals, AppKind, Experiment, ExperimentReport, ExperimentSpec, FaultChoice,
    PreventionPolicy, Scheme, TrialSummary,
};
use prepare_repro::metrics::TraceStore;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: prepare-repro <run|trials|trace|compare> [options]\n\
         \n\
         common options:\n\
           --app <systems|rubis>        application under test (default rubis)\n\
           --fault <memleak|cpuhog|bottleneck|contention>  injected fault (default memleak)\n\
           --scheme <prepare|reactive|none>     management scheme (default prepare)\n\
           --policy <scaling|migration> prevention preference (default scaling)\n\
           --seed <u64>                 RNG seed (default 1)\n\
         \n\
         subcommands:\n\
           run       one experiment; prints the event log and report\n\
           trials    mean±std violation time over --seeds N seeded runs\n\
           compare   all three schemes side by side\n\
           trace     run once and write the monitoring trace (--json PATH,\n\
                     --csv-vm IDX PATH)"
    );
    std::process::exit(2);
}

#[derive(Debug)]
struct Args {
    app: AppKind,
    fault: FaultChoice,
    scheme: Scheme,
    policy: PreventionPolicy,
    seed: u64,
    seeds: u64,
    json: Option<String>,
    csv_vm: Option<(usize, String)>,
}

fn parse(mut argv: std::env::Args) -> (String, Args) {
    let _bin = argv.next();
    let Some(cmd) = argv.next() else { usage() };
    let mut args = Args {
        app: AppKind::Rubis,
        fault: FaultChoice::MemLeak,
        scheme: Scheme::Prepare,
        policy: PreventionPolicy::ScalingFirst,
        seed: 1,
        seeds: 5,
        json: None,
        csv_vm: None,
    };
    let mut rest: Vec<String> = argv.collect();
    rest.reverse();
    let next = |rest: &mut Vec<String>| -> String { rest.pop().unwrap_or_else(|| usage()) };
    while let Some(flag) = rest.pop() {
        match flag.as_str() {
            "--app" => {
                args.app = match next(&mut rest).as_str() {
                    "systems" | "system-s" => AppKind::SystemS,
                    "rubis" => AppKind::Rubis,
                    other => {
                        eprintln!("unknown app: {other}");
                        usage()
                    }
                }
            }
            "--fault" => {
                args.fault = match next(&mut rest).as_str() {
                    "memleak" => FaultChoice::MemLeak,
                    "cpuhog" => FaultChoice::CpuHog,
                    "bottleneck" => FaultChoice::Bottleneck,
                    "contention" => FaultChoice::Contention,
                    other => {
                        eprintln!("unknown fault: {other}");
                        usage()
                    }
                }
            }
            "--scheme" => {
                args.scheme = match next(&mut rest).as_str() {
                    "prepare" => Scheme::Prepare,
                    "reactive" => Scheme::Reactive,
                    "none" => Scheme::NoIntervention,
                    other => {
                        eprintln!("unknown scheme: {other}");
                        usage()
                    }
                }
            }
            "--policy" => {
                args.policy = match next(&mut rest).as_str() {
                    "scaling" => PreventionPolicy::ScalingFirst,
                    "migration" => PreventionPolicy::MigrationFirst,
                    other => {
                        eprintln!("unknown policy: {other}");
                        usage()
                    }
                }
            }
            "--seed" => args.seed = next(&mut rest).parse().unwrap_or_else(|_| usage()),
            "--seeds" => args.seeds = next(&mut rest).parse().unwrap_or_else(|_| usage()),
            "--json" => args.json = Some(next(&mut rest)),
            "--csv-vm" => {
                let idx = next(&mut rest).parse().unwrap_or_else(|_| usage());
                args.csv_vm = Some((idx, next(&mut rest)));
            }
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    (cmd, args)
}

fn spec_of(args: &Args, scheme: Scheme) -> ExperimentSpec {
    ExperimentSpec::paper_default(args.app, args.fault, scheme).with_policy(args.policy)
}

fn cmd_run(args: &Args) -> ExitCode {
    let result = Experiment::new(spec_of(args, args.scheme), args.seed).run();
    println!(
        "{} / {} / {} (seed {})",
        args.app.name(),
        args.fault.name(),
        args.scheme.name(),
        args.seed
    );
    for event in &result.events {
        println!("  {event}");
    }
    let report = ExperimentReport::from_result(&result);
    println!("\nreport: {report}");
    if let Some(lead) = report.lead_time {
        println!("lead time: {lead}");
    }
    let intervals = eval_violation_intervals(&result);
    if intervals.is_empty() {
        println!("no SLO violation in the evaluation window");
    } else {
        println!("violations (relative to the evaluated injection):");
        for (s, e) in intervals {
            println!("  +{s}s .. +{e}s");
        }
    }
    ExitCode::SUCCESS
}

fn cmd_trials(args: &Args) -> ExitCode {
    let seeds: Vec<u64> = (1..=args.seeds).collect();
    let summary = TrialSummary::collect(&spec_of(args, args.scheme), &seeds);
    println!(
        "{} / {} / {}: {:.1} ± {:.1} s over {} runs {:?}",
        args.app.name(),
        args.fault.name(),
        args.scheme.name(),
        summary.mean_secs,
        summary.std_secs,
        seeds.len(),
        summary.runs
    );
    ExitCode::SUCCESS
}

fn cmd_compare(args: &Args) -> ExitCode {
    let seeds: Vec<u64> = (1..=args.seeds).collect();
    println!(
        "{} / {} ({:?}), mean±std over {} seeds:",
        args.app.name(),
        args.fault.name(),
        args.policy,
        seeds.len()
    );
    for scheme in [Scheme::Prepare, Scheme::Reactive, Scheme::NoIntervention] {
        let summary = TrialSummary::collect(&spec_of(args, scheme), &seeds);
        println!(
            "  {:9} {:6.1} ± {:5.1} s",
            scheme.name(),
            summary.mean_secs,
            summary.std_secs
        );
    }
    ExitCode::SUCCESS
}

fn cmd_trace(args: &Args) -> ExitCode {
    let result = Experiment::new(spec_of(args, args.scheme), args.seed).run();
    let mut store = TraceStore::new();
    for tick in &result.ticks {
        store.record_slo(tick.time, tick.slo_violated);
    }
    for (vm, series) in &result.vm_series {
        for sample in series.iter() {
            store.record_sample(*vm, *sample);
        }
    }
    if let Some(path) = &args.json {
        match store.to_json() {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote JSON trace to {path}");
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some((idx, path)) = &args.csv_vm {
        let Some((vm, _)) = result.vm_series.get(*idx) else {
            eprintln!(
                "vm index {idx} out of range ({} VMs)",
                result.vm_series.len()
            );
            return ExitCode::FAILURE;
        };
        let Some(csv) = store.to_csv(*vm) else {
            eprintln!("{vm} has no recorded samples");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote CSV for {vm} to {path}");
    }
    if args.json.is_none() && args.csv_vm.is_none() {
        eprintln!("trace: pass --json PATH and/or --csv-vm IDX PATH");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let (cmd, args) = parse(std::env::args());
    match cmd.as_str() {
        "run" => cmd_run(&args),
        "trials" => cmd_trials(&args),
        "compare" => cmd_compare(&args),
        "trace" => cmd_trace(&args),
        _ => usage(),
    }
}
