//! Serial-vs-parallel capture benchmark: measures every household
//! sub-shard of the paper plan serially, then the whole plan at `--jobs`
//! 2/4/8/16, and writes `BENCH_parallel.json`.
//!
//! Wall-clock speedup is hardware-bound (a 1-core container runs the
//! parallel schedule no faster than serial), so next to the measured wall
//! times the report records the **schedule speedup**: the makespan of the
//! executor's greedy LPT schedule computed from the measured per-sub-shard
//! serial seconds. That figure is what the same run achieves on a machine
//! with at least `jobs` free cores, and it is hardware-independent.
//!
//! Before the per-household decomposition the schedule was limited by its
//! largest indivisible unit — a whole capture, ~46% of the total — to
//! ~2.15x regardless of worker count. With each capture cut into up to
//! [`workload::shard::DEFAULT_SUB_SHARDS`] household ranges, the largest
//! unit shrinks by an order of magnitude and the schedule scales
//! near-linearly through 8 workers.
//!
//! Knobs: `BENCH_PARALLEL_SCALE` (population scale, default 0.1).

use dropbox::FlowTruth;
use nettrace::FlowRecord;
use simcore::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{simulate_shards, simulate_shards_into, FaultPlan, ShardPlan, SpanFold};

/// Times each household range: a fold is created as its range starts, and
/// every record stamps the range's elapsed seconds. Merged folds keep one
/// `(seconds, records)` entry per range, in household order.
struct SpanTimer {
    started: Instant,
    spans: Vec<(f64, u64)>,
}

impl SpanFold for SpanTimer {
    fn accept(&mut self, _flow: FlowRecord, _truth: Option<FlowTruth>) {
        let span = &mut self.spans[0];
        span.0 = self.started.elapsed().as_secs_f64();
        span.1 += 1;
    }

    fn merge(&mut self, later: Self) {
        self.spans.extend(later.spans);
    }
}

/// Makespan of greedy list scheduling (claim-when-free, schedule order) —
/// exactly `simcore::par::fork_join`'s worker behaviour — over measured
/// per-sub-shard seconds.
fn schedule_makespan(sub_shard_secs: &[f64], jobs: usize) -> f64 {
    let mut free = vec![0.0f64; jobs.max(1)];
    for &secs in sub_shard_secs {
        let next = free
            .iter_mut()
            .min_by(|a, b| a.partial_cmp(b).expect("finite times"))
            .expect("at least one worker");
        *next += secs;
    }
    free.iter().fold(0.0f64, |acc, &t| acc.max(t))
}

fn main() {
    let scale: f64 = std::env::var("BENCH_PARALLEL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    let seed = 2012u64;
    let plan = ShardPlan::paper();
    let faults = FaultPlan::none();

    // Per-sub-shard serial seconds, in schedule (LPT) order. Their sum is
    // also the --jobs 1 wall time: the executor runs single-job plans
    // inline on the calling thread, and household-range spans partition
    // each capture exactly.
    let work = plan.household_shards(scale);
    let t_serial = Instant::now();
    let timed = simulate_shards_into(&plan, scale, seed, &faults, 1, |_| SpanTimer {
        started: Instant::now(),
        spans: vec![(0.0, 0)],
    });
    // Re-key each capture's ranges (household order) by range start.
    let mut by_range: BTreeMap<(usize, usize), (f64, u64)> = BTreeMap::new();
    for (ci, shard) in plan.shards.iter().enumerate() {
        let mut starts: Vec<usize> = work
            .iter()
            .filter(|hs| hs.capture == ci)
            .map(|hs| hs.households.start)
            .collect();
        starts.sort_unstable();
        let spans = &timed[shard.merge_slot].0.spans;
        for (start, &span) in starts.into_iter().zip(spans) {
            by_range.insert((ci, start), span);
        }
    }
    let mut sub_shard_secs: Vec<f64> = Vec::new();
    let mut sub_shard_rows: Vec<Json> = Vec::new();
    for hs in &work {
        let shard = &plan.shards[hs.capture];
        let (secs, flows) = by_range[&(hs.capture, hs.households.start)];
        sub_shard_secs.push(secs);
        sub_shard_rows.push(Json::obj([
            (
                "label",
                Json::Str(format!(
                    "{}[{}..{})",
                    shard.label, hs.households.start, hs.households.end
                )),
            ),
            ("weight", Json::U64(hs.weight)),
            ("serial_seconds", Json::F64(secs)),
            ("flows", Json::U64(flows)),
        ]));
    }
    let serial_secs = t_serial.elapsed().as_secs_f64();
    let max_unit = sub_shard_secs.iter().fold(0.0f64, |acc, &t| acc.max(t));
    eprintln!(
        "  {} sub-shards over {} captures; serial total {:.2}s, largest unit {:.2}s ({:.0}%)",
        work.len(),
        plan.shards.len(),
        serial_secs,
        max_unit,
        100.0 * max_unit / serial_secs.max(f64::MIN_POSITIVE)
    );

    let cores = simcore::par::available_jobs();
    let mut job_rows: Vec<Json> = vec![Json::obj([
        ("jobs", Json::U64(1)),
        ("wall_seconds", Json::F64(serial_secs)),
        (
            "schedule_seconds",
            Json::F64(schedule_makespan(&sub_shard_secs, 1)),
        ),
        ("schedule_speedup", Json::F64(1.0)),
    ])];
    println!(
        "\n{:<8}  {:>12}  {:>16}  {:>16}",
        "jobs", "wall", "schedule", "schedule speedup"
    );
    println!(
        "{:<8}  {:>11.2}s  {:>15.2}s  {:>16.2}",
        1, serial_secs, serial_secs, 1.0
    );
    for jobs in [2usize, 4, 8, 16] {
        let t = Instant::now();
        let outs = simulate_shards(&plan, scale, seed, &faults, jobs);
        let wall = t.elapsed().as_secs_f64();
        std::hint::black_box(&outs);
        let makespan = schedule_makespan(&sub_shard_secs, jobs);
        let speedup = serial_secs / makespan;
        println!("{jobs:<8}  {wall:>11.2}s  {makespan:>15.2}s  {speedup:>16.2}");
        job_rows.push(Json::obj([
            ("jobs", Json::U64(jobs as u64)),
            ("wall_seconds", Json::F64(wall)),
            ("schedule_seconds", Json::F64(makespan)),
            ("schedule_speedup", Json::F64(speedup)),
        ]));
    }

    let json = Json::obj([
        ("label", Json::Str("parallel".into())),
        ("scale", Json::F64(scale)),
        ("seed", Json::U64(seed)),
        ("sub_shards_per_capture", Json::U64(plan.sub_shards as u64)),
        ("cores_available", Json::U64(cores as u64)),
        (
            "note",
            Json::Str(
                "one measured run per configuration; outputs are byte-identical at every \
                 jobs and sub-shard value (tests/parallel_identity.rs). schedule_seconds is \
                 the greedy-LPT makespan over the measured per-household-sub-shard serial \
                 seconds — the wall time the same run achieves with >= jobs free cores; \
                 wall_seconds reflects this machine (cores_available may be 1)"
                    .into(),
            ),
        ),
        ("serial_seconds_total", Json::F64(serial_secs)),
        ("largest_unit_seconds", Json::F64(max_unit)),
        ("sub_shards", Json::Arr(sub_shard_rows)),
        ("jobs", Json::Arr(job_rows)),
    ]);
    std::fs::write("BENCH_parallel.json", json.dump() + "\n").expect("write benchmark results");
    println!("\nwrote BENCH_parallel.json");
}
