//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference <name>
//! perfbench --vet-escape <shape> <first seed> <end seed>
//! perfbench --time-pool
//! ```
//!
//! The last line printed is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every verdict
//! check passed.

use pda_perfbench::{execute, report, workload, write_reference, Options};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <escape-forward|typestate-meta|escape-shared> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-reference <workload>\n       \
                     perfbench --vet-escape <shape> <first seed> <end seed>\n       \
                     perfbench --time-pool";

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = None;
    let mut seed = workload::REFERENCE_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut reference_for = None;
    let mut vet = None;
    let mut time_pool = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => name = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--write-reference" => reference_for = Some(value()?.clone()),
            "--time-pool" => time_pool = true,
            "--vet-escape" => {
                let shape = value()?.clone();
                let from: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--vet-escape <shape> <from> <to>")?;
                let to: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--vet-escape <shape> <from> <to>")?;
                vet = Some((shape, from..to));
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    if let Some((shape, seeds)) = vet {
        for line in pda_perfbench::vet_escape(&shape, seeds)? {
            println!("{line}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if time_pool {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("data/escape-pool.txt");
        for line in pda_perfbench::time_pool(&path)? {
            println!("{line}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    let lookup = |n: &str| {
        workload::Workload::named(n).ok_or_else(|| format!("unknown workload {n}\n{USAGE}"))
    };
    if let Some(n) = reference_for {
        let wl = lookup(&n)?;
        let queries = write_reference(&wl)?;
        eprintln!(
            "perfbench: wrote {queries} reference verdicts for {}",
            wl.name
        );
        return Ok(ExitCode::SUCCESS);
    }
    let wl = lookup(&name.ok_or_else(|| format!("--workload is required\n{USAGE}"))?)?;
    let opts = Options {
        seed,
        seconds,
        trace,
        programs: None,
        rounds: None,
        write_files: true,
    };
    let out = execute(&wl, &opts)?;
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "{}",
        report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
