//! `tac25d` — command-line front end for the thermally-aware chiplet
//! organization toolkit.
//!
//! ```text
//! tac25d evaluate --benchmark shock --layout uniform:4,6 [--freq 1000] [--cores 256]
//! tac25d optimize --benchmark hpccg [--alpha 1 --beta 0] [--threshold 85]
//!                 [--starts 10] [--exhaustive] [--iso-cost]
//! tac25d cost     --chiplets 16 --edge 30 [--d0 0.25]
//! tac25d export   --layout sym16:4,2,5 --out /tmp/flp
//! ```
//!
//! Layout syntax: `2d` | `uniform:<r>,<gap-mm>` | `sym4:<s3>` |
//! `sym16:<s1>,<s2>,<s3>`.

use std::collections::HashMap;
use std::process::ExitCode;
use tac25d_core::prelude::*;
use tac25d_floorplan::hotspot::{die_floorplan, render_flp, render_ptrace};
use tac25d_floorplan::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "evaluate" => cmd_evaluate(&opts),
        "optimize" => cmd_optimize(&opts),
        "cost" => cmd_cost(&opts),
        "export" => cmd_export(&opts),
        "latency" => cmd_latency(&opts),
        "obs-report" => cmd_obs_report(&opts),
        "serve" => cmd_serve(&opts),
        "query" => cmd_query(&opts),
        "trace-report" => cmd_trace_report(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
tac25d — thermally-aware chiplet organization for 2.5D systems

USAGE:
  tac25d evaluate --benchmark <name> --layout <layout> [--freq <MHz>] [--cores <p>]
  tac25d optimize --benchmark <name> [--alpha <a>] [--beta <b>] [--threshold <C>]
                  [--starts <n>] [--exhaustive] [--iso-cost] [--fast]
  tac25d cost     --chiplets <4|16> --edge <mm> [--d0 <defects/cm2>]
  tac25d export   --layout <layout> --out <dir> [--benchmark <name>]
  tac25d latency  --layout <layout> [--freq <MHz>] [--pattern uniform|neighbor|transpose]
  tac25d obs-report [--profile <BENCH_profile.json>] [--baseline <baseline.json>]
                  [--bless] [--json]
  tac25d serve    [--addr <host:port>] [--workers <n>] [--queue <n>]
                  [--deadline-ms <ms>] [--threshold <C>] [--fast] [--no-trace]
  tac25d query    --benchmark <name> (--layout <layout> | --optimize)
                  (--addr <host:port> | --local) [--freq <MHz>] [--cores <p>]
                  [--threshold <C>] [--deadline-ms <ms>] [--seed <n>] [--starts <n>]
                  [--alpha <a>] [--beta <b>] [--iso-cost] [--exhaustive] [--fast]
  tac25d trace-report (--addr <host:port> [--id <request-id>] | --file <trace.json>)
                  [--json]
  tac25d help

SUBCOMMANDS:
  evaluate    one organization at one operating point (human-readable)
  optimize    full organizer run (human-readable)
  cost        2.5D vs single-chip manufacturing cost breakdown
  export      HotSpot .flp/.ptrace and SVG for a layout
  latency     NoC latency/saturation for a layout
  obs-report  render/check an observability profile
  serve       long-running evaluation daemon (POST /v1/evaluate,
              POST /v1/optimize, GET /healthz, GET /metrics,
              GET /metrics/history, GET /v1/traces[/{id}])
  query       send one request to a daemon (--addr) or answer it locally
              (--local); prints the JSON response either way, byte-identical
  trace-report
              render a daemon's stored slow-request exemplars: the listing
              (--addr), one trace by request id (--id), or a saved document
              (--file); --json passes the raw JSON through
  help        this message

OBS-REPORT:
  Renders the timing tree and top counters of a profile written by any
  bench bin run with TAC25D_OBS/TAC25D_PROFILE set. With --baseline,
  checks drift of the guarded counters (>20% fails); with --bless,
  (re)writes the baseline from the profile. --json emits the same data
  (plus drift rows) as one machine-readable document for CI artifacts.

LAYOUTS:
  2d | uniform:<r>,<gap-mm> | sym4:<s3> | sym16:<s1>,<s2>,<s3>

BENCHMARKS:
  cholesky lu.cont blackscholes swaptions streamcluster canneal hpccg shock";

fn parse_opts(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got {:?}", args[i]))?;
        let flag = matches!(
            key,
            "exhaustive"
                | "iso-cost"
                | "fast"
                | "bless"
                | "local"
                | "optimize"
                | "json"
                | "no-trace"
        );
        if flag {
            map.insert(key.to_owned(), "true".to_owned());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_owned(), value.clone());
            i += 2;
        }
    }
    Ok(map)
}

fn parse_benchmark(opts: &HashMap<String, String>) -> Result<Benchmark, String> {
    let name = opts.get("benchmark").ok_or("--benchmark is required")?;
    tac25d_serve::protocol::parse_benchmark(name)
}

// The layout grammar is shared with the serve protocol so CLI arguments
// and request bodies parse identically.
use tac25d_serve::protocol::parse_layout;

fn get_f64(opts: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => match v.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            Ok(_) => Err(format!("bad --{key} {v:?}: must be finite")),
            Err(e) => Err(format!("bad --{key} {v:?}: {e}")),
        },
    }
}

fn make_spec(opts: &HashMap<String, String>) -> Result<SystemSpec, String> {
    let mut spec = if opts.contains_key("fast") {
        let mut s = SystemSpec::fast();
        s.thermal.grid = 24;
        s.edge_step = Mm(2.0);
        s
    } else {
        SystemSpec::fast()
    };
    spec.threshold = Celsius(get_f64(opts, "threshold", 85.0)?);
    Ok(spec)
}

fn cmd_evaluate(opts: &HashMap<String, String>) -> Result<(), String> {
    use tac25d_serve::protocol::EvaluateRequest;

    let req = EvaluateRequest::from_json(&parse_body(&query_body(opts, false)?)?)?;
    let spec = make_spec(opts)?;
    let freq = req.freq_mhz;
    let op = spec
        .vf
        .at_frequency(freq)
        .ok_or_else(|| format!("no VF point at {freq} MHz (have 1000/800/533/400/320)"))?;
    req.check_cores(spec.chip.core_count())?;
    let (layout, benchmark, cores) = (req.layout, req.benchmark, req.cores);
    let threshold = spec.threshold;
    let ev = Evaluator::new(spec);
    let e = ev
        .evaluate(&layout, benchmark, op, cores)
        .map_err(|e| e.to_string())?;
    println!("layout      : {layout}");
    println!("benchmark   : {benchmark} at {op}, {cores} active cores");
    println!(
        "peak        : {:.1}°C (threshold {threshold})",
        e.peak.value()
    );
    println!(
        "power       : {:.1} W (NoC {:.1} W)",
        e.total_power.value(),
        e.noc_power.value()
    );
    println!("performance : {}", e.ips);
    println!("feasible    : {}", e.feasible(threshold));
    Ok(())
}

fn cmd_optimize(opts: &HashMap<String, String>) -> Result<(), String> {
    use tac25d_serve::protocol::OptimizeRequest;

    // The daemon's validator: weights, start count and seed are checked
    // once, in one place, for both front ends.
    let req = OptimizeRequest::from_json(&parse_body(&query_body(opts, true)?)?)?;
    let spec = make_spec(opts)?;
    let cfg = req.config();
    let ev = Evaluator::new(spec);
    let result = if req.iso_cost {
        optimize_with_filter(&ev, req.benchmark, &cfg, |c, base| c.cost <= base.cost)
    } else {
        optimize(&ev, req.benchmark, &cfg)
    }
    .map_err(|e| e.to_string())?;
    let base = &result.baseline;
    println!(
        "baseline : {} with {} cores, {} (${:.0})",
        base.op, base.active_cores, base.ips, base.cost
    );
    match result.best {
        None => println!("no feasible 2.5D organization under the threshold"),
        Some(best) => {
            println!(
                "optimum  : {} at {} with {} cores",
                best.layout, best.candidate.op, best.candidate.active_cores
            );
            println!(
                "           peak {:.1}°C, ${:.0}, perf {:+.1}%, cost {:+.1}%",
                best.peak.value(),
                best.candidate.cost,
                (best.normalized_perf - 1.0) * 100.0,
                (best.normalized_cost - 1.0) * 100.0
            );
            println!(
                "search   : {} thermal simulations over {} candidates",
                result.stats.thermal_sims, result.stats.candidates_tried
            );
        }
    }
    Ok(())
}

fn cmd_cost(opts: &HashMap<String, String>) -> Result<(), String> {
    let n = get_f64(opts, "chiplets", 16.0)? as u32;
    let edge = get_f64(opts, "edge", 20.0)?;
    let d0 = get_f64(opts, "d0", 0.25)?;
    let params = tac25d_cost::CostParams::paper().with_defect_density(d0);
    let chip_area = 324.0;
    let b = params.assembly_cost(n, chip_area / f64::from(n), edge * edge);
    let c2d = params.single_chip_cost(chip_area);
    println!("chiplets ({n}x): ${:.2}", b.chiplets);
    println!("interposer    : ${:.2}", b.interposer);
    println!(
        "bonding       : ${:.2} (assembly yield {:.3})",
        b.bonding, b.assembly_yield
    );
    println!("total 2.5D    : ${:.2}", b.total());
    println!("single chip   : ${c2d:.2}");
    println!("ratio         : {:.3}", b.total() / c2d);
    Ok(())
}

fn cmd_latency(opts: &HashMap<String, String>) -> Result<(), String> {
    use tac25d_noc::latency::{average_latency, TrafficPattern};
    use tac25d_noc::mesh::NocModel;
    use tac25d_noc::throughput::saturation_throughput;
    use tac25d_power::dvfs::VfTable;

    let layout = parse_layout(opts.get("layout").ok_or("--layout is required")?)?;
    let chip = ChipSpec::scc_256();
    let rules = PackageRules::default();
    layout.validate(&chip, &rules).map_err(|e| e.to_string())?;
    let freq = get_f64(opts, "freq", 1000.0)?;
    let op = VfTable::paper()
        .at_frequency(freq)
        .ok_or_else(|| format!("no VF point at {freq} MHz"))?;
    let pattern = match opts.get("pattern").map(String::as_str) {
        None | Some("uniform") => TrafficPattern::UniformRandom,
        Some("neighbor") => TrafficPattern::NearestNeighbor,
        Some("transpose") => TrafficPattern::Transpose,
        Some(other) => return Err(format!("unknown pattern {other:?}")),
    };
    let model = NocModel::paper();
    let lat =
        average_latency(&chip, &layout, &rules, &model, op, pattern).map_err(|e| e.to_string())?;
    let sat = saturation_throughput(&chip, pattern, model.flit_width, freq * 1e6);
    println!("layout             : {layout}");
    println!("pattern            : {pattern:?} at {op}");
    println!("avg hops           : {:.2}", lat.avg_hops);
    println!("avg latency        : {:.2} cycles", lat.avg_cycles);
    println!(
        "interposer hops    : {:.1}%",
        lat.interposer_hop_fraction * 100.0
    );
    println!(
        "saturation         : {:.3} flits/node/cycle ({:.1} Tb/s aggregate)",
        sat.saturation_flits_per_node_cycle,
        sat.aggregate_bits_per_s / 1e12
    );
    Ok(())
}

fn cmd_obs_report(opts: &HashMap<String, String>) -> Result<(), String> {
    use tac25d_obs::profile;

    let profile_path = opts
        .get("profile")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(tac25d_bench::profile_output_path);
    let doc = profile::load_json(&profile_path)?;
    let json_mode = opts.contains_key("json");

    if opts.contains_key("bless") {
        let baseline_path = opts
            .get("baseline")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(default_baseline_path);
        if let Some(parent) = baseline_path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        std::fs::write(&baseline_path, profile::baseline_from_profile(&doc))
            .map_err(|e| e.to_string())?;
        println!("blessed baseline -> {}", baseline_path.display());
        return Ok(());
    }

    let baseline_path = opts.get("baseline").map(std::path::PathBuf::from);
    let drifts = match &baseline_path {
        Some(path) => {
            let baseline = profile::load_json(path)?;
            profile::check_drift(&doc, &baseline, profile::DRIFT_TOLERANCE)
        }
        None => Vec::new(),
    };

    if json_mode {
        // Machine-readable mirror of the table (plus drift rows when a
        // baseline was given) — CI archives this as an artifact.
        println!("{}", profile::render_report_json(&doc, &drifts));
    } else {
        print!("{}", profile::render_report(&doc));
        if baseline_path.is_some() {
            println!(
                "\nbaseline drift (tolerance {:.0}%):",
                profile::DRIFT_TOLERANCE * 100.0
            );
            for d in &drifts {
                println!(
                    "  {:<28} baseline {:>10.0}  observed {:>10.0}  drift {:>6.1}% {}",
                    d.name,
                    d.baseline,
                    d.observed,
                    d.relative * 100.0,
                    if d.exceeded { "FAIL" } else { "ok" }
                );
            }
        }
    }
    if drifts.iter().any(|d| d.exceeded) {
        return Err(format!(
            "counter drift beyond {:.0}% of {} — investigate, or re-bless with \
             `tac25d obs-report --profile {} --bless`",
            profile::DRIFT_TOLERANCE * 100.0,
            baseline_path.expect("drift implies baseline").display(),
            profile_path.display()
        ));
    }
    Ok(())
}

fn cmd_trace_report(opts: &HashMap<String, String>) -> Result<(), String> {
    let doc_text = if let Some(file) = opts.get("file") {
        std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?
    } else {
        let addr = opts
            .get("addr")
            .ok_or("--addr <host:port> or --file <trace.json> is required")?;
        let mut client =
            tac25d_serve::client::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let path = match opts.get("id") {
            Some(id) => format!("/v1/traces/{id}"),
            None => "/v1/traces".to_owned(),
        };
        let r = client.get(&path).map_err(|e| format!("request: {e}"))?;
        if r.status != 200 {
            return Err(format!("HTTP {}: {}", r.status, r.text()));
        }
        r.text()
    };
    let doc = tac25d_obs::json::parse(&doc_text).map_err(|e| e.to_string())?;
    if opts.contains_key("json") {
        println!("{doc_text}");
    } else {
        print!("{}", tac25d_serve::telemetry::render_trace_report(&doc));
    }
    Ok(())
}

/// `tests/obs/baseline.json` at the workspace root — the committed CI
/// drift baseline.
fn default_baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(std::path::Path::to_path_buf)
        .unwrap_or_else(|| std::path::PathBuf::from("."))
        .join("tests")
        .join("obs")
        .join("baseline.json")
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    use tac25d_serve::engine::EngineState;
    use tac25d_serve::server::{install_signal_handlers, start, ServerConfig};

    let spec = make_spec(opts)?;
    let config = ServerConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8425".to_owned()),
        workers: get_f64(opts, "workers", 0.0)? as usize,
        queue_capacity: get_f64(opts, "queue", 64.0)? as usize,
        default_deadline_ms: opts
            .get("deadline-ms")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|e| format!("bad --deadline-ms {v:?}: {e}"))
            })
            .transpose()?,
        tracing: !opts.contains_key("no-trace"),
    };
    install_signal_handlers();
    let engine = std::sync::Arc::new(EngineState::new(spec));
    let handle = start(config, engine).map_err(|e| format!("bind failed: {e}"))?;
    println!("tac25d serve listening on {}", handle.local_addr());
    handle.join();
    println!("tac25d serve drained and stopped");
    Ok(())
}

/// Builds the request body shared by `evaluate`, `optimize` and the remote
/// and local query paths. Numbers pass through unchanged, so the request
/// validators see exactly what the flags said.
fn query_body(opts: &HashMap<String, String>, optimize: bool) -> Result<String, String> {
    use tac25d_obs::json::{obj, Value};

    let benchmark = parse_benchmark(opts)?;
    let mut fields: Vec<(&str, Value)> = vec![("benchmark", Value::from(benchmark.name()))];
    if optimize {
        fields.push(("alpha", Value::from(get_f64(opts, "alpha", 1.0)?)));
        fields.push(("beta", Value::from(get_f64(opts, "beta", 0.0)?)));
        fields.push(("starts", Value::from(get_f64(opts, "starts", 10.0)?)));
        fields.push(("seed", Value::from(get_f64(opts, "seed", 42.0)?)));
        fields.push(("iso_cost", Value::from(opts.contains_key("iso-cost"))));
        fields.push(("exhaustive", Value::from(opts.contains_key("exhaustive"))));
    } else {
        let layout = opts.get("layout").ok_or("--layout is required")?;
        parse_layout(layout)?; // validate before shipping
        fields.push(("layout", Value::from(layout.as_str())));
        fields.push(("freq_mhz", Value::from(get_f64(opts, "freq", 1000.0)?)));
        fields.push(("cores", Value::from(get_f64(opts, "cores", 256.0)?)));
    }
    fields.push((
        "threshold_c",
        Value::from(get_f64(opts, "threshold", 85.0)?),
    ));
    if let Some(ms) = opts.get("deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|e| format!("bad --deadline-ms {ms:?}: {e}"))?;
        fields.push(("deadline_ms", Value::from(ms)));
    }
    Ok(obj(fields).render())
}

fn parse_body(body: &str) -> Result<tac25d_obs::json::Value, String> {
    tac25d_obs::json::parse(body).map_err(|e| e.to_string())
}

fn cmd_query(opts: &HashMap<String, String>) -> Result<(), String> {
    use tac25d_serve::engine::EngineState;
    use tac25d_serve::protocol::{EvaluateRequest, OptimizeRequest};

    let optimize = opts.contains_key("optimize");
    let body = query_body(opts, optimize)?;
    let (status, response) = if opts.contains_key("local") {
        // One-shot local answer through the same engine code path the
        // daemon runs — byte-identical by construction.
        let engine = EngineState::new(make_spec(opts)?);
        let value = parse_body(&body)?;
        let deadline = opts
            .get("deadline-ms")
            .and_then(|v| v.parse::<u64>().ok())
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        let result = if optimize {
            engine.optimize(&OptimizeRequest::from_json(&value)?, deadline)
        } else {
            engine.evaluate(&EvaluateRequest::from_json(&value)?, deadline)
        };
        (result.status, result.body)
    } else {
        let addr = opts
            .get("addr")
            .ok_or("--addr <host:port> or --local is required")?;
        let mut client =
            tac25d_serve::client::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let path = if optimize {
            "/v1/optimize"
        } else {
            "/v1/evaluate"
        };
        let r = client
            .post(path, &body)
            .map_err(|e| format!("request: {e}"))?;
        (r.status, r.text())
    };
    println!("{response}");
    if status == 200 {
        Ok(())
    } else {
        Err(format!("HTTP {status}"))
    }
}

fn cmd_export(opts: &HashMap<String, String>) -> Result<(), String> {
    let layout = parse_layout(opts.get("layout").ok_or("--layout is required")?)?;
    let out = std::path::PathBuf::from(opts.get("out").ok_or("--out is required")?);
    let chip = ChipSpec::scc_256();
    let rules = PackageRules::default();
    layout.validate(&chip, &rules).map_err(|e| e.to_string())?;
    let blocks = die_floorplan(&chip, &layout, &rules).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let flp = out.join("die.flp");
    std::fs::write(&flp, render_flp(&blocks)).map_err(|e| e.to_string())?;
    println!("wrote {}", flp.display());
    let svg = out.join("die.svg");
    let rendered = tac25d_floorplan::svg::render_layout_svg(&chip, &layout, &rules, None)
        .map_err(|e| e.to_string())?;
    std::fs::write(&svg, rendered).map_err(|e| e.to_string())?;
    println!("wrote {}", svg.display());
    if let Ok(benchmark) = parse_benchmark(opts) {
        let profile = benchmark.profile();
        let powers: Vec<(String, f64)> = blocks
            .iter()
            .map(|b| (b.name.clone(), profile.core_power_nominal))
            .collect();
        let ptrace = out.join("die.ptrace");
        std::fs::write(&ptrace, render_ptrace(&powers)).map_err(|e| e.to_string())?;
        println!("wrote {}", ptrace.display());
    }
    Ok(())
}
