//! Seeded network adversity on the process path: a 4-process BSP run
//! under a chaotic link (drops, bit-flips, duplicates, delays) must be
//! absorbed entirely by the self-healing transport — zero evictions,
//! exact iteration accounting, and a bit-identical model when run twice.
//! A *severed* link, by contrast, must exhaust the reconnect window and
//! fire the ordinary eviction path while the survivors keep training.

use std::path::PathBuf;
use std::time::Duration;

use dtrain_data::TeacherTaskConfig;
use dtrain_faults::ChaosSpec;
use dtrain_nn::ParamSet;
use dtrain_obs::{names, EventKind, ObsSink, Track};
use dtrain_proc::{train_proc_observed, ProcConfig};
use dtrain_runtime::{Algo, RunPlan};

const TIMEOUT: Duration = Duration::from_secs(120);

/// 4 workers, 256 samples / 4 / batch 16 = 4 rounds per epoch, 3 epochs
/// = 12 rounds per rank, under a moderately hostile link.
fn chaos_cfg() -> ProcConfig {
    ProcConfig {
        plan: RunPlan {
            workers: 4,
            epochs: 3,
            batch: 16,
            strategy: Algo::Bsp,
            seed: 5,
            ..Default::default()
        },
        task: TeacherTaskConfig {
            train_size: 256,
            test_size: 32,
            seed: 11,
            ..Default::default()
        },
        model_seed: 7,
        // Generous: recoverable chaos must never force-close a barrier.
        barrier_deadline: Duration::from_secs(5),
        chaos: ChaosSpec {
            seed: 42,
            drop_pm: 25,
            corrupt_pm: 10,
            dup_pm: 20,
            delay_pm: 30,
            delay_ms: 3,
            ..ChaosSpec::default()
        },
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
        ..Default::default()
    }
}

fn archive_trace(name: &str, sink: &ObsSink) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/proc");
    if std::fs::create_dir_all(&dir).is_ok() {
        let trace = dtrain_obs::export::canonical_trace(&sink.snapshot());
        let _ = std::fs::write(dir.join(format!("{name}.txt")), trace);
    }
}

fn instants(sink: &ObsSink, name: &str) -> Vec<i64> {
    sink.snapshot()
        .iter()
        .filter(|e| e.track == Track::Runtime(0))
        .filter_map(|e| match e.kind {
            EventKind::Instant { name: n, value } if n == name => Some(value),
            _ => None,
        })
        .collect()
}

fn param_bits(p: &ParamSet) -> Vec<u32> {
    p.0.iter()
        .flat_map(|t| t.data().iter().map(|f| f.to_bits()))
        .collect()
}

/// Drops force reconnect-with-resume, bit-flips bounce off the CRC,
/// duplicates are deduplicated by the session layer, delays just wait —
/// none of it may cost an eviction, an iteration, or a partial barrier,
/// and the chaos stream is seeded, so a second run is bit-identical.
#[test]
fn chaotic_bsp_completes_clean_and_reruns_bit_identical() {
    let run = || {
        let sink = ObsSink::enabled();
        let report =
            train_proc_observed(chaos_cfg(), TIMEOUT, &sink).expect("chaotic run must finish");
        (report, sink)
    };
    let (a, sink) = run();
    archive_trace("bsp_chaos", &sink);

    assert_eq!(a.evictions, 0, "self-healing transport must absorb chaos");
    assert_eq!(a.rejoins, 0);
    assert_eq!(a.partial_rounds, 0, "recoverable chaos closed a barrier");
    for w in 0..4 {
        assert!(!a.per_worker[w].evicted);
        assert_eq!(a.per_worker[w].iterations, 12, "rank {w} lost iterations");
    }
    assert_eq!(a.total_iterations, 48);
    assert!(
        a.retries > 0,
        "25\u{2030} drops over ~150 frames must force at least one resume"
    );
    assert_eq!(
        instants(&sink, names::RETRY).len(),
        a.retries as usize,
        "every resume takeover stamps one net.retry marker"
    );
    assert!(
        a.final_accuracy > 0.1,
        "chaotic run still converges, got {}",
        a.final_accuracy
    );

    let (b, _) = run();
    assert_eq!(
        a.retries, b.retries,
        "seeded chaos: same retry choreography"
    );
    assert_eq!(a.total_iterations, b.total_iterations);
    assert_eq!(a.final_accuracy.to_bits(), b.final_accuracy.to_bits());
    assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
    assert_eq!(
        param_bits(&a.final_params),
        param_bits(&b.final_params),
        "chaos may shift timing, never the model"
    );
}

/// Cut rank 2's link for good after 8 frames: no resume can succeed, the
/// reconnect window expires, and the *existing* eviction path fires —
/// while the other three ranks finish every round.
#[test]
fn severed_link_exhausts_reconnect_window_and_evicts() {
    let mut cfg = chaos_cfg();
    cfg.chaos = ChaosSpec {
        seed: 7,
        sever_after: 9,
        ..ChaosSpec::default()
    };
    cfg.chaos_rank = Some(2);
    // Short window so the test does not idle a full second waiting for
    // the sweep; still far above the liveness-poll period.
    cfg.reconnect_window = Duration::from_millis(350);

    let sink = ObsSink::enabled();
    let report = train_proc_observed(cfg, TIMEOUT, &sink).expect("survivors must finish");
    archive_trace("bsp_sever", &sink);

    assert_eq!(report.evictions, 1, "severed rank must be evicted");
    assert_eq!(report.rejoins, 0);
    assert!(report.per_worker[2].evicted);
    assert!(
        report.per_worker[2].iterations < 12,
        "the victim cannot have finished"
    );
    for w in [0, 1, 3] {
        assert!(!report.per_worker[w].evicted);
        assert_eq!(report.per_worker[w].iterations, 12, "survivor {w}");
    }
    assert!(
        report.final_accuracy > 0.1,
        "survivor cohort accuracy {}",
        report.final_accuracy
    );
    assert_eq!(instants(&sink, names::EVICT), vec![2]);
    assert_eq!(
        instants(&sink, names::RETRY),
        Vec::<i64>::new(),
        "a severed link must never complete a resume"
    );
}
