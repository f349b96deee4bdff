//! What the four workloads share: the run environment, deadlines and
//! timers, the serial reference pipeline the oracles recompute answers
//! with, the sweep and pool probes, and the machine calibration spin.

use std::ops::Range;
use std::time::{Duration, Instant};

use tsubasa_core::error::Result;
use tsubasa_core::plan::CorrView;
use tsubasa_core::stats::tiled_pair_corrs_into;
use tsubasa_core::sweep::{sweep_run, CorrelationBounds, DEFAULT_TILE_PAIRS};
use tsubasa_core::{
    CorrSource, CorrelationMatrix, EdgeList, EdgeSink, PlanMethod, QueryPlan, StatsSink, TopK,
    TopKSink,
};
use tsubasa_parallel::WorkerPool;

use crate::data::DENSITY_RANGE;
use crate::metrics::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Pairs within this distance of θ are exempt from edge-set comparisons
/// against an independently computed correlation: the workspace's kernels
/// agree to 1e-10, not to the bit.
pub const THETA_EXEMPT: f64 = 1e-9;
/// Edges a top-k query asks for.
pub const TOP_K: usize = 100;

/// Input sizes: the committed benchmark, or a seconds-long smoke version of
/// the same code paths for `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// N ≈ 48, a few windows; every oracle still runs.
    Smoke,
}

/// Everything a workload is told.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// Workload seed; inputs are a function of it alone.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Available cores: worker-pool size, and the cap on load threads.
    pub nproc: usize,
}

/// A point in time a phase runs until.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    /// `seconds` from now.
    pub fn after(seconds: f64) -> Self {
        Self(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
    }

    /// Whether the deadline has passed.
    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Fail the run when the reference query's edge density leaves
/// [`DENSITY_RANGE`]: a network with every pair or no pair an edge measures
/// nothing.
pub fn check_density(workload: &str, density: f64, report: &mut Report) {
    report.check(
        (DENSITY_RANGE.0..=DENSITY_RANGE.1).contains(&density),
        || format!("{workload} edge density {density} outside {DENSITY_RANGE:?}"),
    );
}

/// Run `f`, returning its result and the milliseconds it took.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// The fastest of a few repetitions of one call, ms: what the call costs on
/// a quiet machine (interference only ever adds time). `NaN` when empty.
pub fn fastest(ms: &[f64]) -> f64 {
    ms.iter().copied().fold(f64::NAN, f64::min)
}

/// Seconds of repeated set-up after which [`repeat_setup`] stops early.
const SETUP_BUDGET_S: f64 = 3.0;

/// Set up at least three and at most fifteen times — stopping after three
/// once the repetitions have used [`SETUP_BUDGET_S`] — keeping only the last
/// result alive, and return it with each repetition's seconds. `setup_s` is
/// their median: the first repetition pays the process's cold page faults,
/// the rest do not, and a cheap set-up is repeated often enough for its
/// median to be steady.
pub fn repeat_setup<T>(mut f: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut seconds = Vec::new();
    let mut last = None;
    for rep in 0..15 {
        if rep >= 3 && started.elapsed().as_secs_f64() > SETUP_BUDGET_S {
            break;
        }
        drop(last.take());
        let t = Instant::now();
        last = Some(f(rep));
        seconds.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least three repetitions"), seconds)
}

/// What an op of a [`Replay`] round completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A query.
    Query,
    /// An update.
    Update,
    /// Loop time that completes neither (a push that fills no window, a
    /// read that rides along with an append); counted into the rates only.
    Other,
}

/// A closed loop that replays one fixed round of ops again and again. Every
/// position of the round is timed in every round, and its latency is the
/// **fastest of its repetitions**: interference on a shared box only ever
/// adds time, so the fastest repetition is what the op costs, and one quiet
/// repetition per position is enough — no whole round has to be quiet. That
/// needs short ops (tens of milliseconds at most, so some repetition fits
/// between two bursts) and many rounds spread over the run. Percentiles are
/// then taken over the positions of the round, and rates over the round's
/// summed latencies. A stream that never repeats its content (ticks, client
/// requests) still repeats its shape: position `i` of every round is the
/// same call on input of the same size.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    best: Vec<(Class, f64)>,
    position: usize,
    rounds: usize,
    walls_ms: Vec<f64>,
    open_ms: f64,
}

impl Replay {
    /// The op at the current position of the round took `ms`.
    pub fn record(&mut self, class: Class, ms: f64) {
        match self.best.get_mut(self.position) {
            Some(slot) => {
                debug_assert_eq!(slot.0, class, "rounds must replay the same ops");
                slot.1 = slot.1.min(ms);
            }
            None => self.best.push((class, ms)),
        }
        self.position += 1;
        self.open_ms += ms;
    }

    /// Position of the next op in its round.
    pub fn position(&self) -> usize {
        self.position
    }

    /// End a round; the next op is the round's first again. A round cut
    /// short (the run ended inside it) still counts for the positions it
    /// reached.
    pub fn end_round(&mut self) {
        self.position = 0;
        self.rounds += 1;
        self.walls_ms.push(std::mem::take(&mut self.open_ms));
    }

    /// Rounds completed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    fn of(&self, class: Class) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .best
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, ms)| *ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Executions of `class` ops over all rounds.
    pub fn samples(&self, class: Class) -> usize {
        self.of(class).len() * self.rounds.max(1)
    }

    /// The `p`-quantile of `class` latencies over the positions of the round.
    pub fn percentile(&self, class: Class, p: f64) -> f64 {
        percentile(&self.of(class), p)
    }

    /// `class` ops completed per second of the round's summed latencies.
    pub fn per_s(&self, class: Class) -> f64 {
        let wall_s = self.best.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3;
        self.of(class).len() as f64 / wall_s
    }

    /// One line for the run log: what each round took against the sum of
    /// the per-position fastest repetitions.
    pub fn describe_rounds(&self, what: &str) -> String {
        let walls: Vec<String> = self.walls_ms.iter().map(|ms| format!("{ms:.0}")).collect();
        format!(
            "{what}: round walls ms [{}], fastest repetitions sum to {:.0}",
            walls.join(", "),
            self.best.iter().map(|(_, ms)| ms).sum::<f64>()
        )
    }
}

/// The exact θ-network over `windows` of any source, through the public
/// steps only: `series_stats` → `QueryPlan::from_window_stats` →
/// `full_table` → `sweep_run` into an `EdgeSink` (unpruned, like every exact
/// network path) → `finish`. Serial; the answer every pooled or served
/// network must equal bit for bit.
pub fn serial_network<S: CorrSource + ?Sized>(
    source: &S,
    windows: Range<usize>,
    theta: f64,
) -> Result<EdgeList> {
    let n = source.series_count();
    let plan = QueryPlan::from_window_stats(&source.series_stats(windows.clone())?)?;
    let table = source
        .full_table(windows, PlanMethod::Exact)?
        .expect("ledger sources serve full tables");
    let mut sink = EdgeSink::new(theta);
    sweep_run(
        &plan,
        &table.view(),
        None,
        0..n * (n - 1) / 2,
        DEFAULT_TILE_PAIRS,
        &mut sink,
    );
    Ok(sink.finish(n))
}

/// The exact top-`k` over `windows` of any source, through the same public
/// steps with `CorrelationBounds` pruning and a `TopKSink`.
pub fn serial_top_k<S: CorrSource + ?Sized>(
    source: &S,
    windows: Range<usize>,
    k: usize,
) -> Result<TopK> {
    let n = source.series_count();
    let plan = QueryPlan::from_window_stats(&source.series_stats(windows.clone())?)?;
    let bounds = CorrelationBounds::from_plan(&plan);
    let table = source
        .full_table(windows, PlanMethod::Exact)?
        .expect("ledger sources serve full tables");
    let mut sink = TopKSink::new(k);
    sweep_run(
        &plan,
        &table.view(),
        Some(&bounds),
        0..n * (n - 1) / 2,
        DEFAULT_TILE_PAIRS,
        &mut sink,
    );
    Ok(sink.finish())
}

/// Check an edge list against independently computed correlations of the
/// first `truth.len()` series: every pair among them must be an edge exactly
/// when its correlation exceeds θ, pairs within [`THETA_EXEMPT`] of θ aside.
pub fn edges_match_matrix(
    edges: &EdgeList,
    truth: &CorrelationMatrix,
    theta: f64,
) -> std::result::Result<(), String> {
    let m = truth.len();
    let adjacency = edges.to_adjacency();
    for i in 0..m {
        for j in i + 1..m {
            let c = truth.get(i, j);
            if adjacency.has_edge(i, j) != (c > theta) && (c - theta).abs() >= THETA_EXEMPT {
                return Err(format!(
                    "pair ({i},{j}): edge={} but baseline correlation {c} vs theta {theta}",
                    adjacency.has_edge(i, j)
                ));
            }
        }
    }
    Ok(())
}

/// Per-layer numbers of the sweep over one plan and table.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepProbe {
    /// `sweep_run` into a `StatsSink`, no bounds: the bare kernel.
    pub kernel_ms: f64,
    /// `kernel_ms` per pair and window.
    pub ns_per_pair_window: f64,
    /// `EdgeSink` sweep minus the kernel.
    pub edge_sink_ms: f64,
    /// Bounds + `TopKSink` sweep.
    pub topk_ms: f64,
    /// Share of pairs the top-k sweep skipped without evaluating.
    pub skipped_pair_share: f64,
    /// Edges the network sweep returned.
    pub edges: usize,
    /// Repetitions behind each median.
    pub reps: usize,
}

/// Time the three sinks over the same plan and table, `reps` times each.
pub fn sweep_probe(plan: &QueryPlan, view: CorrView<'_>, theta: f64, reps: usize) -> SweepProbe {
    let n = plan.series_count();
    let pairs = n * (n - 1) / 2;
    let bounds = CorrelationBounds::from_plan(plan);
    let (mut kernel, mut edge, mut topk) = (Vec::new(), Vec::new(), Vec::new());
    let (mut edges, mut skipped) = (0, 0);
    for _ in 0..reps.max(1) {
        let (_, ms) = time_ms(|| {
            let mut sink = StatsSink::new();
            sweep_run(plan, &view, None, 0..pairs, DEFAULT_TILE_PAIRS, &mut sink);
            std::hint::black_box(sink.mean())
        });
        kernel.push(ms);
        let (found, ms) = time_ms(|| {
            let mut sink = EdgeSink::new(theta);
            sweep_run(plan, &view, None, 0..pairs, DEFAULT_TILE_PAIRS, &mut sink);
            sink.finish(n).edge_count()
        });
        edges = found;
        edge.push(ms);
        let (skip, ms) = time_ms(|| {
            let mut sink = TopKSink::new(TOP_K);
            sweep_run(
                plan,
                &view,
                Some(&bounds),
                0..pairs,
                DEFAULT_TILE_PAIRS,
                &mut sink,
            );
            let skip = sink.skipped_pairs();
            std::hint::black_box(sink.finish());
            skip
        });
        skipped = skip;
        topk.push(ms);
    }
    let kernel_ms = median(&kernel);
    SweepProbe {
        kernel_ms,
        ns_per_pair_window: kernel_ms * 1e6 / (pairs * plan.window_count()).max(1) as f64,
        edge_sink_ms: median(&edge) - kernel_ms,
        topk_ms: median(&topk),
        skipped_pair_share: skipped as f64 / pairs.max(1) as f64,
        edges,
        reps: reps.max(1),
    }
}

impl SweepProbe {
    /// Record the probe under the `core.sweep.*` names.
    pub fn record(&self, report: &mut Report) {
        report.set("core.sweep.kernel_ms", self.kernel_ms, self.reps);
        report.set(
            "core.sweep.ns_per_pair_window",
            self.ns_per_pair_window,
            self.reps,
        );
        report.set("core.sweep.edge_sink_ms", self.edge_sink_ms, self.reps);
        report.set("core.sweep.topk_ms", self.topk_ms, self.reps);
        report.set("core.sweep.skipped_pair_share", self.skipped_pair_share, 1);
        report.set("core.sweep.edges_per_query", self.edges as f64, 1);
    }
}

/// Median microseconds for `pool` to run one empty job per worker: the
/// hand-off cost every pooled query pays.
pub fn pool_dispatch_us(pool: &WorkerPool, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let jobs = (0..pool.size())
                .map(|_| Box::new(|| {}) as tsubasa_core::Job<'_>)
                .collect();
            time_ms(|| pool.run_jobs(jobs)).1 * 1e3
        })
        .collect();
    median(&samples)
}

/// A fixed amount of `tiled_pair_corrs_into` work (about 100 ms on the
/// reference box), timed. Run before and after a workload: a run whose two
/// readings disagree, or sit far from other runs', had a noisy neighbour.
pub fn calibrate() -> f64 {
    const N: usize = 256;
    const B: usize = 120;
    const REPS: usize = 48;
    let z: Vec<f64> = (0..N * B)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 50.0)
        .collect();
    let mut out = vec![0.0f64; N * (N - 1) / 2];
    time_ms(|| {
        for _ in 0..REPS {
            tiled_pair_corrs_into(std::hint::black_box(&z), N, B, &mut out);
        }
        std::hint::black_box(&out);
    })
    .1
}

/// Record the tracing-cost metrics from the same ops run opaque under a
/// span and without one, and from decomposed steps against the opaque call.
pub fn record_trace_cost(
    report: &mut Report,
    untraced_ms: f64,
    traced_ms: f64,
    decomposed_ms: f64,
    ops: usize,
) {
    if untraced_ms > 0.0 {
        report.set("trace.overhead_share", traced_ms / untraced_ms - 1.0, ops);
    }
    if traced_ms > 0.0 && decomposed_ms > 0.0 {
        report.set("trace.decomposed_ratio", decomposed_ms / traced_ms, ops);
    }
}

/// Write the trace file of a traced run next to the other results.
pub fn save_trace(workload: &str, tracer: &Tracer) {
    let path = crate::tmp::results_dir().join(format!("trace-{workload}.json"));
    if let Err(e) = crate::trace::write_trace(&path, workload, tracer.spans()) {
        eprintln!("ledger: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reports_each_position_at_its_fastest_repetition() {
        // A round of four ops replayed three times; a burst of interference
        // covers the whole second round and one op of the third.
        let rounds = [
            [
                (Class::Query, 1.0),
                (Class::Update, 5.0),
                (Class::Other, 0.5),
                (Class::Query, 3.0),
            ],
            [
                (Class::Query, 9.0),
                (Class::Update, 9.0),
                (Class::Other, 9.0),
                (Class::Query, 9.0),
            ],
            [
                (Class::Query, 1.5),
                (Class::Update, 4.0),
                (Class::Other, 0.5),
                (Class::Query, 8.0),
            ],
        ];
        let mut replay = Replay::default();
        for round in rounds {
            for (class, ms) in round {
                replay.record(class, ms);
            }
            replay.end_round();
        }
        assert_eq!(replay.rounds(), 3);
        assert_eq!(replay.samples(Class::Query), 6);
        assert_eq!(replay.percentile(Class::Query, 0.0), 1.0);
        assert_eq!(replay.percentile(Class::Query, 1.0), 3.0);
        assert_eq!(replay.percentile(Class::Update, 0.5), 4.0);
        // 2 queries, 1 update over 1 + 4 + 0.5 + 3 = 8.5 ms.
        assert!((replay.per_s(Class::Query) - 2.0 / 8.5e-3).abs() < 1e-9);
        assert!((replay.per_s(Class::Update) - 1.0 / 8.5e-3).abs() < 1e-9);
        // A round cut short counts for the positions it reached.
        replay.record(Class::Query, 0.25);
        replay.end_round();
        assert_eq!(replay.percentile(Class::Query, 0.0), 0.25);
        assert_eq!(replay.position(), 0);
    }
}
