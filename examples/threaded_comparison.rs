//! Real multi-threaded training (no simulation): run all six aggregation
//! strategies on actual OS threads and compare wall-clock time, accuracy,
//! and replica drift on this machine.
//!
//! Run with: `cargo run --release --example threaded_comparison`

use std::sync::Arc;

use dtrain_core::prelude::*;
use dtrain_data::{teacher_task, TeacherTaskConfig};
use dtrain_models::default_mlp;
use dtrain_repro::runtime::{train_threaded, Algo, ThreadedConfig};

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(4)
        & !1; // even, so AD-PSGD's bipartite split is balanced
    let workers = workers.max(2);
    let (train, test) = teacher_task(&TeacherTaskConfig {
        train_size: 4096,
        test_size: 1024,
        seed: 11,
        ..Default::default()
    });
    let train = Arc::new(train);

    let strategies = [
        Algo::Bsp,
        Algo::Asp,
        Algo::Ssp { staleness: 3 },
        Algo::Easgd {
            tau: 8,
            alpha: None,
        },
        Algo::GoSgd { p: 0.1 },
        Algo::AdPsgd,
    ];

    let mut table = Table::new(
        format!("Threaded training on {workers} OS threads (16 epochs, real wall-clock)"),
        &["strategy", "accuracy", "drift", "wall time", "iters"],
    );
    for strategy in strategies {
        let report = train_threaded(
            || default_mlp(10, 7),
            &train,
            &test,
            &ThreadedConfig {
                workers,
                epochs: 16,
                strategy,
                ..Default::default()
            },
        );
        table.push_row(vec![
            report.strategy.to_string(),
            fmt_acc(report.final_accuracy),
            format!("{:.4}", report.final_drift),
            format!("{:.2}s", report.wall_time.as_secs_f64()),
            report.total_iterations.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Unlike the simulator, these runs race for real: rerun and the\n\
         asynchronous rows will differ. The BSP row's drift stays exactly 0."
    );
}
