//! `perfbench`: the wall-clock benchmark of the dtrain workspace.
//!
//! ```text
//! perfbench --workload <cnn_threaded|mlp_proc|collective_sim|ps_sim>
//!           --seed <n> --seconds <s> --trace <0|1> [--spec BENCHMARK.json]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with observation off;
//! `--trace 1` measures every per-layer metric (see `layers`). Every
//! metric, with its unit, clock, workload, sample count, median and
//! quartiles, is printed, then a `report:` line with the whole
//! self-describing document, then — as the last line — a JSON summary of
//! the metrics `BENCHMARK.json` declares for that mode. The exit code is
//! non-zero when any output check failed or the host would be
//! oversubscribed. `perfbench/run.py` builds and runs it (see README.md).

mod layers;
mod record;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::time::Duration;

use serde_json::Value;

use record::{num, num_u, obj, Clock, Doc};
use workloads::{Workload, DEFAULT_SEED};

/// Hard limit on one invocation: past it the run is abandoned (exit 5).
const WALL_LIMIT: Duration = Duration::from_secs(170);

/// Layers no workload spends measurable time in, and why.
const UNMEASURED: &str = "compress, sched and the chaos parts of faults: no workload here spends \
     measurable time in them (DGC on vs off made no measurable difference to an 8-worker MLP \
     simulator run, 12.4 s vs 12.3 s)";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spec: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spec <path>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::CnnThreaded,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spec: "BENCHMARK.json".into(),
    };
    let mut seen_workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value)
                    .unwrap_or_else(|| usage(&format!("unknown workload {value:?}")));
                seen_workload = true;
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {value:?}")))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .unwrap_or_else(|| usage(&format!("bad seconds {value:?}")))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad trace {value:?}")),
                }
            }
            "--spec" => args.spec = value,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !seen_workload {
        usage("--workload is required");
    }
    args
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared(spec: &str, trace: bool) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(spec)
        .unwrap_or_else(|e| usage(&format!("cannot read spec {spec}: {e}")));
    let v = serde_json::from_str(&text).unwrap_or_else(|e| usage(&format!("bad spec: {e:?}")));
    let list = if trace { "per_layer" } else { "end_to_end" };
    v[list]
        .as_array()
        .unwrap_or_else(|| usage(&format!("spec has no {list} list")))
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().map(str::to_string);
            match (field("name"), field("unit")) {
                (Some(n), Some(u)) => (n, u),
                _ => usage(&format!("malformed {list} entry")),
            }
        })
        .collect()
}

/// Run `f` with every thread of this process confined to one CPU, then
/// restore the affinity. The simulator runs one simulated process at a
/// time, so on one CPU it measures the program rather than cross-core
/// wake-up latency. Records the affinity used under `label`.
fn confined(
    doc: &mut Doc,
    affinity: &mut BTreeMap<String, Value>,
    label: &str,
    f: impl FnOnce(&mut Doc),
) {
    let before = sys::affinity();
    match sys::set_affinity(&sys::last_cpu()) {
        Ok(()) => {
            affinity.insert(label.into(), Value::String(sys::affinity()));
            f(doc);
            if let Err(e) = sys::set_affinity(&before) {
                doc.failed += 1;
                doc.check(format!("{label}.restore_affinity"), false, e);
            }
        }
        Err(e) => {
            doc.failed += 1;
            doc.check(format!("{label}.confine"), false, e);
            affinity.insert(label.into(), Value::String(before));
            f(doc);
        }
    }
}

fn main() {
    let args = parse_args();
    let wanted = declared(&args.spec, args.trace);
    std::thread::spawn(|| {
        std::thread::sleep(WALL_LIMIT);
        eprintln!("perfbench: exceeded {WALL_LIMIT:?}, abandoning the run");
        std::process::exit(5);
    });

    // Read before any confinement: both are fixed for the process.
    let nproc = sys::nproc();
    let host = dtrain_tensor::parallel::host_parallelism();
    let pool = dtrain_tensor::parallel::pool_width();
    // A traced run profiles every layer, so it runs every workload's path.
    let run: Vec<Workload> = if args.trace {
        Workload::ALL.to_vec()
    } else {
        vec![args.workload]
    };
    for w in &run {
        if w.compute_threads() * pool > nproc {
            eprintln!(
                "perfbench: refusing {}: {} compute threads × kernel pool width {pool} > {nproc} CPUs \
                 (set DTRAIN_THREADS=1, or use a larger host)",
                w.name(),
                w.compute_threads()
            );
            std::process::exit(3);
        }
    }

    let ticks_before = sys::cpu_ticks();
    let mut affinity = BTreeMap::new();
    affinity.insert("start".to_string(), Value::String(sys::affinity()));
    let mut doc = Doc::default();
    let (w, seed) = (args.workload, args.seed);
    if !args.trace {
        if w.is_sim() {
            confined(&mut doc, &mut affinity, "e2e", |d| {
                workloads::end_to_end(w, seed, args.seconds, d)
            });
        } else {
            affinity.insert("e2e".into(), Value::String(sys::affinity()));
            workloads::end_to_end(w, seed, args.seconds, &mut doc);
        }
    } else {
        // Events dropped by every traced call of the profile (must stay 0).
        let mut dropped = 0;
        confined(&mut doc, &mut affinity, "kernels", |d| {
            layers::kernels(seed, d)
        });
        confined(&mut doc, &mut affinity, "sim", |d| {
            layers::sim(seed, d, &mut dropped)
        });
        affinity.insert("threaded_proc".into(), Value::String(sys::affinity()));
        layers::threaded(seed, &mut doc, &mut dropped);
        layers::proc_run(seed, &mut doc, &mut dropped);
        if w.is_sim() {
            confined(&mut doc, &mut affinity, "overhead", |d| {
                layers::overhead(w, seed, args.seconds, d, &mut dropped)
            });
        } else {
            layers::overhead(w, seed, args.seconds, &mut doc, &mut dropped);
        }
        doc.metric(
            "obs.dropped",
            "count",
            Clock::None,
            w.name(),
            &[dropped as f64],
        );
        if !doc.check(
            "obs.dropped_zero",
            dropped == 0,
            format!("{dropped} events dropped"),
        ) {
            doc.failed += 1;
        }
    }

    // Share of the host's CPU time stolen by the hypervisor during the run:
    // the main source of run-to-run spread on a shared virtual machine.
    let steal_pct = match (ticks_before, sys::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            num((s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
        }
        _ => Value::Null,
    };
    let header = obj([
        ("benchmark", Value::String("perfbench".into())),
        ("workload", Value::String(w.name().into())),
        ("seed", num_u(seed)),
        ("trace", Value::Bool(args.trace)),
        ("seconds", num(args.seconds)),
        ("nproc", num_u(nproc as u64)),
        ("host_parallelism", num_u(host as u64)),
        ("pool_width", num_u(pool as u64)),
        (
            "simd",
            Value::String(dtrain_tensor::simd::active_isa().name().into()),
        ),
        ("affinity", Value::Object(affinity)),
        ("host_steal_pct", steal_pct),
        ("revision", Value::String(sys::revision())),
        (
            "rss_scope",
            Value::String(
                "peak RSS (VmHWM) of the benchmark process during one training call, reset before each call; \
                 median over calls; proc worker processes not included"
                    .into(),
            ),
        ),
        ("unmeasured", Value::String(UNMEASURED.into())),
    ]);
    emit(&doc, header, &wanted);
}

/// Print every metric, the full report, and the summary line; exit
/// non-zero unless every check passed and every declared metric exists.
fn emit(doc: &Doc, header: Value, wanted: &[(String, String)]) {
    for m in &doc.metrics {
        let s = &m.summary;
        println!(
            "{:<36} {:>14.6} {:<10} [{} time, {}, n={}, q1={:.6}, q3={:.6}{}]",
            m.name,
            s.median,
            m.unit,
            m.clock.name(),
            m.workload,
            s.n,
            s.q1,
            s.q3,
            s.tail
                .map(|(p, v)| format!(", p{p}={v:.6}"))
                .unwrap_or_default()
        );
    }
    for c in doc.checks.iter().filter(|c| !c.ok) {
        println!("FAILED CHECK {}: {}", c.name, c.detail);
    }
    let report = serde_json::to_string(&doc.to_json(header)).expect("report serializes");
    println!("report: {report}");

    let mut ok = doc.correct();
    let mut metrics = BTreeMap::new();
    for (name, unit) in wanted {
        match doc.metrics.iter().find(|m| &m.name == name) {
            Some(m) if &m.unit == unit => {
                metrics.insert(
                    name.clone(),
                    obj([
                        ("value", num(m.summary.median)),
                        ("unit", Value::String(unit.clone())),
                    ]),
                );
            }
            Some(m) => {
                eprintln!(
                    "perfbench: {name} measured in {} but declared in {unit}",
                    m.unit
                );
                ok = false;
            }
            None => {
                eprintln!("perfbench: declared metric {name} was not measured");
                ok = false;
            }
        }
    }
    let line = obj([
        ("correct", Value::Bool(ok)),
        ("attempted", num_u(doc.attempted.max(1))),
        ("failed", num_u(doc.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("summary serializes")
    );
    if !ok {
        std::process::exit(1);
    }
}
