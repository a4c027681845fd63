//! perfbench: the serving benchmark.
//!
//! `perfbench --workload <steady|durable|retrain_storm> --seed <n>
//! --seconds <s> --trace <0|1>` starts the netserve server as a child
//! process with a fresh engine, drives the workload over the binary wire
//! protocol on two connections from at most two threads, checks the
//! outputs, and prints a JSON result as its last line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! Exit codes: 0 for a correct run, 1 when a correctness check failed
//! (the result says `"correct": false`), 2 for bad arguments, 3 when the
//! run could not report numbers (no result line).

mod conn;
mod gen;
mod load;
mod replay;
mod run;
mod scrape;
mod server;
mod spans;
mod stats;

use gen::Workload;
use run::{Failure, Opts};

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let int =
            || value.parse::<u64>().map_err(|_| format!("{flag} expects an integer, got {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    format!("unknown workload {value}; expected steady, durable or retrain_storm")
                })?)
            }
            "--seed" => seed = Some(int()?),
            "--seconds" => seconds = Some(int()?.max(1)),
            "--trace" => trace = Some(int()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        if let Err(e) = server::serve(&args[1..]) {
            eprintln!("perfbench serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let outcome = match run::run(&opts) {
        Ok(o) => o,
        Err(Failure::Invalid(why)) => {
            eprintln!("perfbench: invalid run, the generator fell behind its schedule\n{why}");
            std::process::exit(3);
        }
        Err(Failure::Error(e)) => {
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} {value} {unit}");
    }
    println!("ops attempted {} failed {}", outcome.tally.attempted, outcome.tally.failed);
    for p in &outcome.problems {
        println!("check failed: {p}");
    }
    let correct = outcome.problems.is_empty();
    println!("{}", result_json(correct, &outcome));
    if !correct {
        std::process::exit(1);
    }
}

fn result_json(correct: bool, o: &run::Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a metric without a value is 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.attempted,
        o.tally.failed,
        metrics.join(", ")
    )
}
