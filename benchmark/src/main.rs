//! `regvault-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process on this thread and prints a report,
//! the deterministic section on a line starting `deterministic `, and as
//! the last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or the per-layer ones with
//! `--trace 1`). Exits 1 when any check failed, 2 on bad arguments or
//! when the trace cannot be written.

use std::path::PathBuf;
use std::process::ExitCode;

use regvault_bench::json::Value;
use regvault_benchmark::run::{one_line, run, Options};
use regvault_benchmark::workload::Kind;

const USAGE: &str = "usage: regvault-benchmark --workload <spec-user|syscall-kernel|serve-faults|fleet-calm|fleet-chaos> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--trace-out <file>] [--smoke]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut opts = Options {
        kind: Kind::SpecUser,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        trace_out: PathBuf::new(),
    };
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::from_name(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.kind = kind.ok_or("--workload is required")?;
    // Default: next to the build, which is inside the checkout and
    // ignored by git.
    opts.trace_out = trace_out.unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        PathBuf::from(target)
            .join("regvault-benchmark")
            .join(format!("{}-seed{}.trace.json", opts.kind.name(), opts.seed))
    });
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("cannot write the trace: {err}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.summary {
        println!("{line}");
    }
    println!("deterministic {}", one_line(&outcome.deterministic));
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let entry = vec![
                ("value".to_owned(), Value::Num(value)),
                ("unit".to_owned(), Value::Str(unit.to_owned())),
            ];
            (name.to_owned(), Value::Obj(entry))
        })
        .collect();
    let correct = outcome.failed == 0;
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(outcome.attempted)),
        ("failed".into(), Value::Int(outcome.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", one_line(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
