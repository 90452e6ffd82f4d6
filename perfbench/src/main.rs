//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload <organize-fast|serve-cold|serve-hot> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host record and run notes, then, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and the
//! metrics: end-to-end ones with `--trace 0`, per-layer ones with
//! `--trace 1`. Run files (record, and spans when traced) go to `out/`
//! next to this package's manifest.

use std::path::PathBuf;
use std::process::ExitCode;

use tac25d_obs::json::{obj, Value};
use tac25d_perfbench::{host, pin_environment, report, run, trace, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("{flag} is required"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args.workload, args.seed, args.seconds as f64, args.trace);
    let metrics = if args.trace {
        outcome.per_layer()
    } else {
        outcome.end_to_end()
    };

    let w = &outcome.window;
    let record = obj([
        ("workload", Value::from(args.workload.as_str())),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::from(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("cpu_model", Value::from(host::cpu_model())),
        ("nproc", Value::from(host::nproc())),
        ("steal_share", Value::from(w.steal)),
        ("ops", Value::from(w.ops())),
        ("window_s", Value::from(w.elapsed_s)),
        (
            "setup_s",
            Value::from(
                outcome
                    .setup_s
                    .iter()
                    .map(|&s| Value::from(s))
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
    println!("host {}", record.render());

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let line = report::result_line(outcome.attempted(), outcome.failed(), &metrics);
    let mut files = vec![(
        format!("{stem}.json"),
        format!("{}\n{line}\n", record.render()),
    )];
    if args.trace {
        files.push((format!("{stem}-spans.jsonl"), trace::render_jsonl()));
        files.push((
            format!("{stem}-profile.json"),
            tac25d_obs::profile::render_profile("perfbench"),
        ));
    }
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        files
            .iter()
            .try_for_each(|(name, text)| std::fs::write(dir.join(name), text))
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write run files to {}: {e}",
            dir.display()
        );
    }
    println!("{line}");
    ExitCode::SUCCESS
}
