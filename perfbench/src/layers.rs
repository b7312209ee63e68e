//! Per-layer metrics. Two sources, neither of which adds tracing inside
//! the program: the spans and counters the program already emits into an
//! `ObsSink` (`train_threaded_observed`, `ProcRun::launch`, `run_observed`),
//! and this benchmark's own timers around calls into each crate's public
//! functions, at the shapes the workloads use.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use dtrain_cluster::NodeId;
use dtrain_data::{prototype_images, teacher_task};
use dtrain_desim::{Pid, SimTime, Simulation};
use dtrain_models::mlp_classifier;
use dtrain_nn::{Conv2d, Dense, Flatten, Layer, MaxPool2d, ParamSet, Relu};
use dtrain_obs::{names, Event, EventKind, ObsSink, Phase, Track};
use dtrain_proc::codec::{read_frame, write_frame};
use dtrain_proc::{crc32, Msg, Session};
use dtrain_tensor::{
    accuracy, conv2d_backward_scratch, conv2d_forward_scratch, matmul_a_bt_scratch,
    softmax_cross_entropy_scratch, Conv2dSpec, Scratch, Tensor,
};
use rand::{rngs::SmallRng, SeedableRng};

use crate::record::{Clock, Doc};
use crate::stats::median;
use crate::workloads::{
    checked_call, cnn_config, cnn_model, cnn_task, collective_config, mlp_config, ps_config,
    threaded_outcome, verify, Workload, TRACE_CAPACITY,
};

/// Tolerance of the `nn` sum check: Σ per-layer forward/backward plus the
/// loss must be within this share of the measured `Network::train_batch`.
pub const LAYER_SUM_TOLERANCE_PCT: f64 = 10.0;

const CNN: &str = "cnn_threaded";
const MLP: &str = "mlp_proc";
const COLL: &str = "collective_sim";
const PS: &str = "ps_sim";

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A sink for a traced call: large enough that no track wraps.
fn trace_sink() -> ObsSink {
    ObsSink::with_capacity(TRACE_CAPACITY)
}

/// `tensor`, `nn`, the `proc` frame codec and session machine, the `desim`
/// hand-off, `NetModel::transfer_delay` and `data` generation, each timed
/// through its public API.
pub fn kernels(seed: u64, doc: &mut Doc) {
    tensor_kernels(seed, doc);
    nn_layers(seed, doc);
    proc_codec(seed, doc);
    desim_handoff(doc);
    transfer_delay(seed, doc);
    data_gen(seed, doc);
}

/// SmallCnn's two convolutions at batch 32 on 1×32×32 inputs, and the
/// largest GEMM of a step (conv1's forward, `[8192×72]·[16×72]ᵀ`).
fn tensor_kernels(seed: u64, doc: &mut Doc) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let batch = 32;
    let convs = [
        (
            Conv2dSpec {
                in_channels: 1,
                out_channels: 8,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            32,
        ),
        (
            Conv2dSpec {
                in_channels: 8,
                out_channels: 16,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            16,
        ),
    ];
    let inputs: Vec<(Tensor, Tensor, Tensor)> = convs
        .iter()
        .map(|(spec, side)| {
            let ws = spec.weight_shape();
            (
                Tensor::randn(&[batch, spec.in_channels, *side, *side], 1.0, &mut rng),
                Tensor::randn(&ws, 0.1, &mut rng),
                Tensor::zeros(&[spec.out_channels]),
            )
        })
        .collect();
    let mut scratch = Scratch::new();
    let (mut fwd, mut bwd, mut mm) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..105 {
        let t = Instant::now();
        let outs: Vec<(Tensor, Tensor)> = convs
            .iter()
            .zip(&inputs)
            .map(|((spec, _), (x, w, b))| conv2d_forward_scratch(x, w, b, spec, &mut scratch))
            .collect();
        let f = ms(t);
        let t = Instant::now();
        let grads: Vec<(Tensor, Tensor, Tensor)> = convs
            .iter()
            .zip(&inputs)
            .zip(&outs)
            .map(|(((spec, side), (_, w, _)), (y, cols))| {
                conv2d_backward_scratch(y, cols, w, spec, *side, *side, &mut scratch)
            })
            .collect();
        let bw = ms(t);
        let t = Instant::now();
        let y = matmul_a_bt_scratch(&outs[1].1, &inputs[1].1, &mut scratch);
        let m = ms(t);
        black_box(&y);
        scratch.recycle_tensor(y);
        for (y, cols) in outs {
            scratch.recycle_tensor(y);
            scratch.recycle_tensor(cols);
        }
        for (dx, dw, db) in grads {
            scratch.recycle_tensor(dx);
            scratch.recycle_tensor(dw);
            scratch.recycle_tensor(db);
        }
        if rep >= 5 {
            fwd.push(f);
            bwd.push(bw);
            mm.push(m);
        }
    }
    doc.metric("tensor.conv2d_fwd_ms", "wall_ms", Clock::Wall, CNN, &fwd);
    doc.metric("tensor.conv2d_bwd_ms", "wall_ms", Clock::Wall, CNN, &bwd);
    doc.metric("tensor.matmul_ms", "wall_ms", Clock::Wall, CNN, &mm);
}

/// The SmallCnn stack rebuilt from the public layer constructors, drawing
/// from the RNG in the same order as `small_cnn`.
fn small_cnn_layers(seed: u64) -> Vec<Box<dyn Layer>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spec = |in_channels, out_channels| Conv2dSpec {
        in_channels,
        out_channels,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    vec![
        Box::new(Conv2d::new("conv0", spec(1, 8), (32, 32), &mut rng)),
        Box::new(Relu::new("relu0")),
        Box::new(MaxPool2d::new("pool0", 2)),
        Box::new(Conv2d::new("conv1", spec(8, 16), (16, 16), &mut rng)),
        Box::new(Relu::new("relu1")),
        Box::new(MaxPool2d::new("pool1", 2)),
        Box::new(Flatten::new("flatten")),
        Box::new(Dense::new("dense0", 16 * 8 * 8, 8, &mut rng)),
    ]
}

/// Per-layer forward/backward times of SmallCnn at batch 32, the loss, the
/// whole `Network::train_batch`, and the check that the parts add up.
fn nn_layers(seed: u64, doc: &mut Doc) {
    let mut layers = small_cnn_layers(seed);
    let mut net = cnn_model(seed);
    let rebuilt = ParamSet(
        layers
            .iter()
            .flat_map(|l| l.params().into_iter().cloned())
            .collect(),
    );
    doc.attempted += 1;
    if !doc.check(
        "nn.stack_matches_small_cnn",
        rebuilt == net.get_params(),
        "layer stack rebuilt from public constructors has small_cnn's params",
    ) {
        doc.failed += 1;
        return;
    }
    let (train, _) = prototype_images(&cnn_task(seed));
    let idx: Vec<usize> = (0..32).collect();
    let (x, labels) = train.gather(&idx);

    let n = layers.len();
    let mut fwd = vec![Vec::new(); n];
    let mut bwd = vec![Vec::new(); n];
    let (mut loss_ms, mut step_ms, mut gaps) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch = Scratch::new();
    let mut grown_after_warmup = 0;
    for rep in 0..65 {
        let warm = rep >= 5;
        if rep == 5 {
            grown_after_warmup = net.scratch_grown();
        }
        // The stack, layer by layer, mirroring `Network::train_batch`.
        let mut h = x.clone();
        let mut sum = 0.0;
        for (i, layer) in layers.iter_mut().enumerate() {
            let t = Instant::now();
            h = layer.forward(h, true, &mut scratch);
            let d = ms(t);
            sum += d;
            if warm {
                fwd[i].push(d);
            }
        }
        let t = Instant::now();
        black_box(accuracy(&h, &labels));
        let (loss, mut g) = softmax_cross_entropy_scratch(&h, &labels, &mut scratch);
        scratch.recycle_tensor(h);
        let loss_d = ms(t);
        black_box(loss);
        sum += loss_d;
        for (i, layer) in layers.iter_mut().enumerate().rev() {
            let t = Instant::now();
            g = layer.backward(g, &mut scratch);
            let d = ms(t);
            sum += d;
            if warm {
                bwd[i].push(d);
            }
        }
        scratch.recycle_tensor(g);
        // The whole step through `Network`.
        let xb = x.clone();
        let t = Instant::now();
        black_box(net.train_batch(xb, &labels));
        let step = ms(t);
        if warm {
            loss_ms.push(loss_d);
            step_ms.push(step);
            gaps.push((sum - step) / step * 100.0);
        }
    }
    for (i, layer) in layers.iter().enumerate() {
        let name = layer.name();
        doc.metric(
            format!("nn.{name}.fwd_ms"),
            "wall_ms",
            Clock::Wall,
            CNN,
            &fwd[i],
        );
        doc.metric(
            format!("nn.{name}.bwd_ms"),
            "wall_ms",
            Clock::Wall,
            CNN,
            &bwd[i],
        );
    }
    doc.metric("nn.loss_ms", "wall_ms", Clock::Wall, CNN, &loss_ms);
    doc.metric("nn.train_step_ms", "wall_ms", Clock::Wall, CNN, &step_ms);
    doc.metric("nn.layer_sum_gap_pct", "pct", Clock::Wall, CNN, &gaps);
    let grown = (net.scratch_grown() - grown_after_warmup) as f64;
    doc.metric("nn.scratch_grown", "count", Clock::None, CNN, &[grown]);
    let gap = median(&gaps);
    if !doc.check(
        "nn.layer_sum_within_tolerance",
        gap.abs() <= LAYER_SUM_TOLERANCE_PCT,
        format!("sum of layers + loss differs from train_batch by {gap:.2}% (tolerance {LAYER_SUM_TOLERANCE_PCT}%)"),
    ) {
        doc.failed += 1;
    }
}

/// The proc path's frame codec on `mlp_proc`'s BSP exchange frame (the
/// 284,682-parameter gradient), and the per-request session classifier.
fn proc_codec(seed: u64, doc: &mut Doc) {
    let cfg = mlp_config(seed);
    let grad =
        mlp_classifier(cfg.task.input_dim, &cfg.hidden, cfg.task.num_classes, seed).get_params();
    let msg = Msg::BspExchange {
        round: 1,
        lr: 0.1,
        grad: grad.clone(),
    };
    let (mut enc, mut dec, mut crc, mut rt) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut intact = true;
    for rep in 0..33 {
        let t = Instant::now();
        let (ty, payload) = msg.encode();
        let e = ms(t);
        let t = Instant::now();
        let back = Msg::decode(ty, &payload);
        let d = ms(t);
        intact &= matches!(&back, Ok(Msg::BspExchange { grad: g, .. }) if *g == grad);
        let t = Instant::now();
        black_box(crc32(&[&payload]));
        let c = t.elapsed().as_secs_f64();
        let mut wire = Vec::with_capacity(payload.len() + 32);
        let t = Instant::now();
        let framed = write_frame(&mut wire, ty, 7, &payload)
            .and_then(|()| read_frame(&mut Cursor::new(&wire)));
        let r = ms(t);
        intact &= matches!(&framed, Ok((t2, 7, p)) if *t2 == ty && *p == payload);
        if rep >= 3 {
            enc.push(e);
            dec.push(d);
            crc.push(payload.len() as f64 / 1e6 / c);
            rt.push(r);
        }
    }
    doc.attempted += 1;
    if !doc.check(
        "proc.codec_round_trip",
        intact,
        "encode/decode and write_frame/read_frame return the frame unchanged",
    ) {
        doc.failed += 1;
    }
    doc.metric("proc.crc32_mbps", "MB/s", Clock::Wall, MLP, &crc);
    doc.metric("proc.encode_ms", "wall_ms", Clock::Wall, MLP, &enc);
    doc.metric("proc.decode_ms", "wall_ms", Clock::Wall, MLP, &dec);
    doc.metric("proc.frame_rt_ms", "wall_ms", Clock::Wall, MLP, &rt);

    const CALLS: u32 = 1_000_000;
    let mut classify = Vec::new();
    for _ in 0..7 {
        let mut s = Session::default();
        let t = Instant::now();
        for seq in 1..=CALLS {
            black_box(s.classify(black_box(seq)));
        }
        classify.push(t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS));
    }
    doc.metric(
        "proc.session_classify_ns",
        "wall_ns",
        Clock::Wall,
        MLP,
        &classify,
    );
}

/// Two simulated processes ping-pong a message through the public
/// `Simulation`/`Ctx` API: wall time per hand-off (one deliver + resume).
fn desim_handoff(doc: &mut Doc) {
    const ROUND_TRIPS: u64 = 20_000;
    let mut per = Vec::new();
    for _ in 0..5 {
        let mut sim: Simulation<u64> = Simulation::new();
        sim.spawn("ping", |ctx| {
            for i in 0..ROUND_TRIPS {
                ctx.send(Pid(1), SimTime::from_nanos(1), i);
                ctx.recv();
            }
        });
        sim.spawn("pong", |ctx| {
            for _ in 0..ROUND_TRIPS {
                let m = ctx.recv();
                ctx.send(Pid(0), SimTime::from_nanos(1), m);
            }
        });
        let t = Instant::now();
        let stats = sim.run();
        per.push(t.elapsed().as_secs_f64() * 1e6 / (2 * ROUND_TRIPS) as f64);
        black_box(stats);
    }
    doc.metric("desim.handoff_us", "wall_us", Clock::Wall, COLL, &per);
}

/// Wall time of one `NetModel::transfer_delay` call (1 MiB between
/// machines of `collective_sim`'s 8-machine cluster).
fn transfer_delay(seed: u64, doc: &mut Doc) {
    const CALLS: usize = 200_000;
    let cluster = collective_config(seed).cluster;
    let machines = cluster.machines;
    let mut per = Vec::new();
    for _ in 0..5 {
        let net = dtrain_cluster::NetModel::new(&cluster);
        let t = Instant::now();
        for i in 0..CALLS {
            black_box(net.transfer_delay(
                SimTime::from_micros(i as u64),
                NodeId(i % machines),
                NodeId((i + 1) % machines),
                1 << 20,
            ));
        }
        per.push(t.elapsed().as_secs_f64() * 1e9 / CALLS as f64);
    }
    doc.metric(
        "cluster.transfer_delay_ns",
        "wall_ns",
        Clock::Wall,
        COLL,
        &per,
    );
}

/// Generating every dataset the workloads train on: `cnn_threaded`'s
/// images plus the teacher tasks of `mlp_proc` and `ps_sim`.
fn data_gen(seed: u64, doc: &mut Doc) {
    let mlp = mlp_config(seed).task;
    let ps = match ps_config(seed).real.map(|r| r.task) {
        Some(dtrain_algos::SyntheticTask::Teacher(t)) => t,
        other => panic!("ps_sim trains on a teacher task, not {other:?}"),
    };
    let mut per = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        black_box(prototype_images(&cnn_task(seed)));
        black_box(teacher_task(&mlp));
        black_box(teacher_task(&ps));
        per.push(ms(t));
    }
    doc.metric("data.gen_ms", "wall_ms", Clock::Wall, CNN, &per);
}

/// Sum of complete `name` spans on worker tracks, in ms.
fn span_ms(events: &[Event], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| matches!(e.track, Track::Worker(_)))
        .map(|e| match e.kind {
            EventKind::Span { name: n, dur, .. } if n == name => dur,
            _ => 0,
        })
        .sum::<u64>() as f64
        / 1e6
}

/// Sum of `iter` Enter→Exit intervals on worker tracks, in ms.
fn iter_ms(events: &[Event]) -> f64 {
    let mut open: std::collections::BTreeMap<Track, u64> = Default::default();
    let mut total = 0u64;
    for e in events {
        if !matches!(e.track, Track::Worker(_)) {
            continue;
        }
        match e.kind {
            EventKind::Enter { name, .. } if name == names::ITER => {
                open.insert(e.track, e.ts);
            }
            EventKind::Exit { name } if name == names::ITER => {
                if let Some(t0) = open.remove(&e.track) {
                    total += e.ts - t0;
                }
            }
            _ => {}
        }
    }
    total as f64 / 1e6
}

/// `runtime`: the threaded path's phase split from its own spans, compute
/// share from per-worker busy time, and scaling against one worker.
pub fn threaded(seed: u64, doc: &mut Doc, dropped: &mut u64) {
    let sink = trace_sink();
    let Some(call) = checked_call(Workload::CnnThreaded, seed, &sink, None, doc) else {
        return;
    };
    *dropped += sink.dropped();
    let r = call.threaded.expect("threaded report");
    let events = sink.snapshot();
    let steps = r.total_iterations as f64;
    let busy: f64 = r.per_worker_busy.iter().map(|d| d.as_secs_f64()).sum();
    let share = busy / (r.per_worker_busy.len() as f64 * r.wall_time.as_secs_f64()) * 100.0;
    let compute = span_ms(&events, Phase::Compute.name());
    let local = span_ms(&events, names::COLL_INTRA_REDUCE);
    let global = (iter_ms(&events) - compute - local).max(0.0);
    doc.metric(
        "runtime.compute_share_pct",
        "pct",
        Clock::Wall,
        CNN,
        &[share],
    );
    for (phase, v) in [
        ("compute", compute),
        ("local_agg", local),
        ("global_agg", global),
        // Shared memory has no wire: the exchange is all aggregation wait.
        ("comm", 0.0),
    ] {
        doc.metric(
            format!("runtime.phase.{phase}_ms_per_step"),
            "wall_ms",
            Clock::Wall,
            CNN,
            &[v / steps],
        );
    }

    let (train, test) = prototype_images(&cnn_task(seed));
    let train = std::sync::Arc::new(train);
    let mut eff = Vec::new();
    for _ in 0..2 {
        let mut sps = [0.0; 2];
        for (slot, workers) in [(0, 1), (1, 2)] {
            let cfg = cnn_config(seed, workers);
            doc.attempted += 1;
            let t = Instant::now();
            let r = dtrain_runtime::train_threaded(|| cnn_model(seed), &train, &test, &cfg);
            sps[slot] = (r.total_iterations * cfg.batch as u64) as f64 / t.elapsed().as_secs_f64();
            // One worker runs the same 192 iterations over the unsplit data.
            let bad = verify(Workload::CnnThreaded, &threaded_outcome(&r), None);
            if !bad.is_empty() {
                doc.failed += 1;
                doc.check(
                    format!("cnn_threaded.{workers}_worker_call"),
                    false,
                    bad.join("; "),
                );
            }
        }
        eff.push(sps[1] / (2.0 * sps[0]) * 100.0);
    }
    doc.metric("runtime.scaling_eff_pct", "pct", Clock::Wall, CNN, &eff);
}

/// `proc`: launch time, the share of wall time workers spend outside local
/// work, and the transport's fault counters on a fault-free run.
pub fn proc_run(seed: u64, doc: &mut Doc, dropped: &mut u64) {
    let (mut launch, mut share) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..2 {
        let sink = trace_sink();
        let Some(call) = checked_call(Workload::MlpProc, seed, &sink, None, doc) else {
            continue;
        };
        *dropped += sink.dropped();
        let r = call.proc.expect("proc report");
        let busy: u64 = r.per_worker.iter().map(|w| w.busy_ms).sum();
        let wall = r.wall_time.as_secs_f64() * 1e3;
        launch.push(call.setup_s * 1e3);
        share.push((1.0 - busy as f64 / (r.per_worker.len() as f64 * wall)) * 100.0);
        last = Some(r);
    }
    let Some(r) = last else { return };
    doc.metric("proc.launch_ms", "wall_ms", Clock::Wall, MLP, &launch);
    doc.metric("proc.exchange_share_pct", "pct", Clock::Wall, MLP, &share);
    let logical: u64 = r.per_worker.iter().map(|w| w.logical_bytes).sum();
    for (name, v) in [
        ("proc.retries", r.retries as f64),
        ("proc.evictions", r.evictions as f64),
        ("proc.partial_rounds", r.partial_rounds as f64),
    ] {
        doc.metric(name, "count", Clock::None, MLP, &[v]);
    }
    doc.metric(
        "proc.logical_mb",
        "MB",
        Clock::None,
        MLP,
        &[logical as f64 / 1e6],
    );
}

/// `desim`, `cluster` and `algos` on the two simulator workloads: exact
/// event counts and virtual-time figures from a traced run, host cost per
/// event and per iteration from untraced ones.
pub fn sim(seed: u64, doc: &mut Doc, dropped: &mut u64) {
    let sink = trace_sink();
    let Some(call) = checked_call(Workload::CollectiveSim, seed, &sink, None, doc) else {
        return;
    };
    *dropped += sink.dropped();
    let mut kinds = [0u64; 4];
    for e in sink.snapshot() {
        if let (Track::Kernel, EventKind::Instant { name, .. }) = (e.track, e.kind) {
            let k = [
                names::K_RESUME,
                names::K_DELIVER,
                names::K_KILL,
                names::K_SPAWN,
            ]
            .iter()
            .position(|&n| n == name);
            if let Some(k) = k {
                kinds[k] += 1;
            }
        }
    }
    let events: u64 = kinds.iter().sum();
    let mut per_event = Vec::new();
    for _ in 0..5 {
        // Untraced calls must reproduce the traced one exactly.
        let plain = ObsSink::disabled();
        if let Some(c) = checked_call(
            Workload::CollectiveSim,
            seed,
            &plain,
            Some(&call.outcome),
            doc,
        ) {
            per_event.push(c.train_s * 1e6 / events as f64);
        }
    }
    doc.metric("desim.events", "count", Clock::None, COLL, &[events as f64]);
    doc.metric(
        "desim.resumes",
        "count",
        Clock::None,
        COLL,
        &[kinds[0] as f64],
    );
    doc.metric(
        "desim.delivers",
        "count",
        Clock::None,
        COLL,
        &[kinds[1] as f64],
    );
    if !per_event.is_empty() {
        doc.metric(
            "desim.us_per_event",
            "wall_us",
            Clock::Wall,
            COLL,
            &per_event,
        );
    }

    let o = call.sim.expect("simulator output");
    let b = &o.mean_breakdown;
    doc.metric(
        "cluster.virtual_s",
        "virtual_s",
        Clock::Virtual,
        COLL,
        &[o.end_time.as_secs_f64()],
    );
    doc.metric(
        "cluster.inter_mb",
        "MB",
        Clock::None,
        COLL,
        &[o.traffic.inter_bytes as f64 / 1e6],
    );
    doc.metric(
        "cluster.intra_mb",
        "MB",
        Clock::None,
        COLL,
        &[o.traffic.intra_bytes as f64 / 1e6],
    );
    for (phase, t) in [
        ("compute", b.compute),
        ("local_agg", b.local_agg),
        ("global_agg", b.global_agg),
        ("comm", b.comm),
    ] {
        doc.metric(
            format!("cluster.breakdown.{phase}_vms"),
            "virtual_ms",
            Clock::Virtual,
            COLL,
            &[t.as_secs_f64() * 1e3],
        );
    }

    let mut per_iter = Vec::new();
    let mut iterations = None;
    let mut reference = None;
    for _ in 0..3 {
        let plain = ObsSink::disabled();
        if let Some(c) = checked_call(Workload::PsSim, seed, &plain, reference.as_ref(), doc) {
            per_iter.push(c.train_s * 1e6 / c.outcome.iterations as f64);
            iterations = Some(c.outcome.iterations);
            reference.get_or_insert(c.outcome);
        }
    }
    if let Some(n) = iterations {
        doc.metric("algos.us_per_iter", "wall_us", Clock::Wall, PS, &per_iter);
        doc.metric("algos.iterations", "count", Clock::None, PS, &[n as f64]);
    }
}

/// `obs`: tracing overhead on workload `w` — alternating untraced and
/// traced calls for `seconds`, as the share of samples/s tracing costs.
pub fn overhead(w: Workload, seed: u64, seconds: f64, doc: &mut Doc, dropped: &mut u64) {
    let mut pct = Vec::new();
    let start = Instant::now();
    while pct.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let Some(plain) = checked_call(w, seed, &ObsSink::disabled(), None, doc) else {
            break;
        };
        // The traced call must reproduce the untraced one exactly: every
        // workload here is deterministic, and observation is passive.
        let sink = trace_sink();
        let Some(obs) = checked_call(w, seed, &sink, Some(&plain.outcome), doc) else {
            break;
        };
        *dropped += sink.dropped();
        let (u, t) = (plain.samples / plain.train_s, obs.samples / obs.train_s);
        pct.push((1.0 - t / u) * 100.0);
    }
    if !pct.is_empty() {
        doc.metric("obs.overhead_pct", "pct", Clock::Wall, w.name(), &pct);
    }
}
