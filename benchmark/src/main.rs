//! `laab-benchmark` — see `README.md` and `run.sh`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use laab_benchmark::measure::Protocol;
use laab_benchmark::replica::REQUESTS;
use laab_benchmark::workloads::Workload;
use laab_benchmark::{compare, host::Fingerprint, server, Options, DEFAULT_SEED};

const USAGE: &str = "\
laab-benchmark — socket-level benchmark of `laab serve`

USAGE:
  laab-benchmark [--seed N] [--quick]
      Full set: six interleaved rounds of all four workloads, then the
      traced replica run. Prints the table, writes <out-dir>/result.json.
  laab-benchmark --workload NAME --seed N --seconds S --trace 0|1
      One workload for S measured seconds; the last line of stdout is one
      JSON object (end-to-end metrics with --trace 0, per-layer with 1).
  laab-benchmark --compare [A.json] B.json
      Apply each end-to-end metric's bound per workload; exit 1 on `worse`.
      A defaults to the committed baseline of this host.

OPTIONS:
  --server PATH    the `laab` binary          [${CARGO_TARGET_DIR:-target}/release/laab]
  --out-dir DIR    socket, traces, result     [benchmark/out]
  --quick          1 round x 1 s, short replica (smoke test, not a measurement)

WORKLOADS: matrix_closed vector_pipelined tiny_closed churn_cold
";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    server: PathBuf,
    out_dir: PathBuf,
    compare: Option<Vec<PathBuf>>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        server: Path::new(&target).join("release/laab"),
        out_dir: PathBuf::from("benchmark/out"),
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--server" => args.server = PathBuf::from(value()?),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--compare" => {
                let files: Vec<PathBuf> = argv.by_ref().map(PathBuf::from).collect();
                if files.is_empty() || files.len() > 2 {
                    return Err("--compare takes one or two result files".to_string());
                }
                args.compare = Some(files);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

fn load(path: &Path) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_compare(files: &[PathBuf], out_dir: &Path) -> Result<bool, String> {
    let baseline =
        out_dir.with_file_name("baseline").join(format!("{}.json", Fingerprint::read().slug()));
    let (a, b) = match files {
        [b] => (baseline.as_path(), b.as_path()),
        [a, b] => (a.as_path(), b.as_path()),
        _ => unreachable!("parse() admits one or two files"),
    };
    println!("A = {}\nB = {}\n", a.display(), b.display());
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::table(&rows));
    Ok(compare::any_worse(&rows))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) if message.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(files) = &args.compare {
        return match run_compare(files, &args.out_dir) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        };
    }

    server::install_signal_handlers();
    let protocol = match (args.quick, args.seconds) {
        (true, _) => Protocol::QUICK,
        (false, Some(seconds)) => Protocol::measuring_for(seconds),
        (false, None) => Protocol::SET,
    };
    // A single-workload run is the driver's: it traces only when asked.
    // The set always ends with the traced replica run.
    let replica = args.workload.is_none() || args.trace;
    let opts = Options {
        workloads: args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        protocol,
        seed: args.seed,
        replica_requests: match (replica, args.quick) {
            (false, _) => 0,
            (true, true) => REQUESTS / 10,
            (true, false) => REQUESTS,
        },
        server: args.server,
        out_dir: args.out_dir,
    };
    let report = match laab_benchmark::run(&opts) {
        Ok(report) => report,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return ExitCode::from(130),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.table());
    // The result file keeps every round; the driver's line only medians.
    let file =
        args.workload.map_or("result.json".to_string(), |w| format!("result_{}.json", w.name()));
    let path = opts.out_dir.join(file);
    let text = serde_json::to_string_pretty(&report.to_json()).expect("a value tree serialises");
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("error: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", path.display());
    if args.workload.is_some() {
        println!("{}", report.driver_line(args.trace));
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
