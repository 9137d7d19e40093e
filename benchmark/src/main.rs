//! The repo benchmark: runs the workloads on `mflow-runtime`, checks
//! every output against the serial oracle, and prints every metric by
//! name and unit. See `benchmark/README.md`.

mod host;
mod layers;
mod measure;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use layers::Ledger;
use measure::{EndToEnd, SEGMENTS};
use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use trace::Tracer;
use workload::{runtime_config, Workload, WORKERS, WORKLOADS};

const USAGE: &str =
    "usage: mflow-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--sets K]
  --workload NAME  run one workload (default: all six)
  --seed N         seed of the generated frames (default 1)
  --seconds S      length of the measured window (default 10)
  --trace 1        the traced run: per-layer ledger, model line, span file under benchmark/out/
  --sets K         repeat the workload list K times and check the sets agree (default 1)";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        sets: 1,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                args.workload = Some(found.ok_or_else(|| format!("unknown workload: {value}"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.0..=3600.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => args.sets = value.parse().ok().filter(|&k| k >= 1).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    Ok(args)
}

/// One workload, measured once.
struct Outcome {
    workload: &'static Workload,
    set: usize,
    end_to_end: EndToEnd,
    /// Present in a traced run.
    ledger: Option<Ledger>,
    attempted: u64,
    failed: u64,
}

/// Pairs every metric of a table with its measured value.
fn values_of(
    table: &'static [MetricDef],
    value: impl Fn(&str) -> Option<f64>,
) -> Vec<(&'static MetricDef, f64)> {
    table
        .iter()
        .map(|m| {
            (
                m,
                value(m.name).expect("the tables name only measured values"),
            )
        })
        .collect()
}

impl Outcome {
    fn end_to_end_values(&self) -> Vec<(&'static MetricDef, f64)> {
        values_of(&END_TO_END, |name| self.end_to_end.value(name))
    }

    fn per_layer_values(&self) -> Option<Vec<(&'static MetricDef, f64)>> {
        let ledger = self.ledger.as_ref()?;
        Some(values_of(&PER_LAYER, |name| ledger.value(name)))
    }

    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`
    /// with the metrics this run is asked for: per-layer when traced,
    /// end-to-end otherwise.
    fn result_json(&self) -> String {
        let reported = self
            .per_layer_values()
            .unwrap_or_else(|| self.end_to_end_values());
        let metrics: Vec<String> = reported
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run_workload(
    w: &'static Workload,
    set: usize,
    args: &Args,
    host_json: &str,
) -> io::Result<Outcome> {
    let cfg = runtime_config(w);
    let mut tracer = args.trace.then(Tracer::new);
    let run = measure::run_pipeline(w, &cfg, args.seed, args.seconds, tracer.as_mut())?;
    let (mut attempted, mut failed) = (run.attempted, run.failed);
    let ledger = match tracer.as_mut() {
        Some(tracer) => {
            let ledger = layers::measure(w, &cfg, args.seed, &run, tracer);
            attempted += ledger.attempted;
            failed += ledger.failed;
            Some(ledger)
        }
        None => None,
    };
    let outcome = Outcome {
        workload: w,
        set,
        end_to_end: run.end_to_end,
        ledger,
        attempted,
        failed,
    };
    print_outcome(&outcome);
    if let Some(tracer) = &tracer {
        print_span_ledger(tracer);
        let file = format!("trace-{}-seed{}-set{set}.json", w.name, args.seed);
        let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "out", &file].iter().collect();
        tracer.write(&path, host_json, w.name)?;
        println!(
            "# spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    Ok(outcome)
}

fn print_outcome(o: &Outcome) {
    let name = o.workload.name;
    let print = |values: Vec<(&MetricDef, f64)>| {
        for (m, v) in values {
            println!("{name} {} {v} {} ({} is better)", m.name, m.unit, m.better);
        }
    };
    println!("# workload {name} set {}: {}", o.set, o.workload.why);
    print(o.end_to_end_values());
    println!(
        "{name} failed_ratio {} ratio ({} of {} frames)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    println!("{name} latency_samples {} count", o.end_to_end.calls);
    for (metric, values) in &o.end_to_end.per_segment {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("#   {metric} by segment: {}", shown.join(" "));
    }
    if let (Some(values), Some(ledger)) = (o.per_layer_values(), &o.ledger) {
        print(values);
        println!("{name} model.bottleneck {}", ledger.bottleneck);
    }
}

fn print_span_ledger(tracer: &Tracer) {
    println!("# span ledger: name spans calls total_ns self_ns");
    for t in tracer.totals() {
        println!(
            "#   {} {} {} {} {}",
            t.name, t.spans, t.calls, t.total_ns, t.self_ns
        );
    }
}

/// The self-agreement check: for every end-to-end metric of every
/// workload, each set's value, their relative spread, and whether that
/// is within the metric's bound.
fn print_agreement(outcomes: &[Outcome]) -> bool {
    let mut all_pass = true;
    println!("# agreement across sets: workload metric values.. spread bound verdict");
    for w in &WORKLOADS {
        let sets: Vec<&Outcome> = outcomes
            .iter()
            .filter(|o| o.workload.name == w.name)
            .collect();
        if sets.is_empty() {
            continue;
        }
        for m in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|o| o.end_to_end.value(m.name))
                .collect();
            let spread = stats::relative_spread(&values).unwrap_or(f64::INFINITY);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let pass = spread <= bound;
            all_pass &= pass;
            let shown: Vec<String> = values.iter().map(f64::to_string).collect();
            println!(
                "{} {} {} {spread:.4} {bound} {}",
                w.name,
                m.name,
                shown.join(" "),
                if pass { "PASS" } else { "FAIL" }
            );
        }
        let failed: u64 = sets.iter().map(|o| o.failed).sum();
        all_pass &= failed == 0;
        println!(
            "{} failed_ratio {failed} frames {}",
            w.name,
            if failed == 0 { "PASS" } else { "FAIL" }
        );
    }
    all_pass
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("cannot pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host_json = host::header_json(
        host_cpus,
        pinned_cpu,
        args.seed,
        WORKERS,
        SEGMENTS,
        args.seconds,
        args.trace,
    );
    println!("# host {host_json}");

    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut outcomes = Vec::new();
    for set in 1..=args.sets {
        for &w in &selected {
            match run_workload(w, set, &args, &host_json) {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => {
                    eprintln!("{}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if args.sets > 1 {
        let verdict = if print_agreement(&outcomes) {
            "PASS"
        } else {
            "FAIL"
        };
        println!("# agreement {verdict}");
    }

    // The JSON document: the host header and every result.
    let results: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let bottleneck = o.ledger.as_ref().map_or(String::new(), |l| {
                format!(", \"bottleneck\": \"{}\"", l.bottleneck)
            });
            format!(
                "{{\"workload\": \"{}\", \"set\": {}{bottleneck}, \"result\": {}}}",
                o.workload.name,
                o.set,
                o.result_json()
            )
        })
        .collect();
    println!(
        "{{\"host\": {host_json}, \"results\": [{}]}}",
        results.join(", ")
    );
    // A single result ends with the bare result object on the last line.
    if let [only] = outcomes.as_slice() {
        println!("{}", only.result_json());
    }
    ExitCode::SUCCESS
}
