//! What every workload shares: the run's arguments, the rank count, the set-up and
//! timed-round loops, span recording, operation accounting and the result line.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

use chaos_bench::report::Json;
use mpsim::{MachineConfig, Rank, RunOutcome};

/// Rank threads every workload runs.  A host with fewer cores is refused (see `main`).
pub const RANKS: usize = 2;

/// Arguments of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad(&"must lie in (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// A number in [0, 1) drawn from `seed` and `k` (SplitMix64).
pub fn seeded_unit(seed: u64, k: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Median of `v` (which must be non-empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolation quantile of `v` at `q` in [0, 1] (`v` must be non-empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `n rounds, steps/s min / median / max` of per-round step rates, for the log.
pub fn describe_rates(rates: &[f64]) -> String {
    let (lo, hi) = (quantile(rates, 0.0), quantile(rates, 1.0));
    format!(
        "{} rounds at {lo:.2} / {:.2} / {hi:.2} steps/s (min / median / max)",
        rates.len(),
        median(rates)
    )
}

/// Mean of `v`, 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Run `f` `reps` times and return each run's wall seconds.
pub fn repeat_timed(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Call `round` until `budget` has passed (at least `min_rounds` times) and collect its
/// results.  Every round does the same work, so a longer budget only adds whole rounds.
pub fn rounds_for<R>(budget: Duration, min_rounds: usize, mut round: impl FnMut() -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds || start.elapsed() < budget {
        out.push(round());
    }
    out
}

/// One timed round as kept: its step rate, a digest of everything it output, and the
/// whole outcome for the first round of each phase only, so that memory (and with it
/// `peak_rss_mb`) does not grow with the number of rounds the budget allows.
pub struct Round<O> {
    pub rate: f64,
    pub digest: u64,
    pub kept: Option<O>,
}

/// The timed rounds of a run, as `(untraced, traced)`: the whole budget untraced, or for
/// a traced run half untraced and half traced, so the overhead of tracing is measured
/// in the same process.  `run(traced)` runs one round of `steps` steps and returns its
/// wall seconds and outcome.
pub fn timed_rounds<O>(
    args: &Args,
    steps: usize,
    mut run: impl FnMut(bool) -> (f64, O),
    digest: impl Fn(&O) -> u64,
) -> (Vec<Round<O>>, Vec<Round<O>>) {
    let mut seen = [false; 2];
    let mut round = |traced: bool| {
        let (wall, out) = run(traced);
        let first = !std::mem::replace(&mut seen[usize::from(traced)], true);
        Round {
            rate: steps as f64 / wall,
            digest: digest(&out),
            kept: first.then_some(out),
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        let untraced = rounds_for(budget / 2, 2, || round(false));
        (untraced, rounds_for(budget / 2, 2, || round(true)))
    } else {
        (rounds_for(budget, 2, || round(false)), Vec::new())
    }
}

/// One operation per round after the first: it must output exactly what the first
/// round, whose output is checked against the references, did.  Returns whether all did.
pub fn check_repeats<O>(
    ops: &mut Ops,
    what: &str,
    rounds: &[Round<O>],
    traced: &[Round<O>],
) -> bool {
    let first = rounds[0].digest;
    let mut all = true;
    for r in rounds[1..].iter().chain(traced) {
        let same = r.digest == first;
        all &= same;
        let result = if same {
            Ok(())
        } else {
            Err("output differs from the first round's".to_string())
        };
        ops.check(what, result);
    }
    all
}

/// A digest of `value` (SipHash with fixed keys, so it repeats across processes).
pub fn digest(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Wall-clock spans recorded around calls into the program's layers, kept in memory as
/// microsecond samples per span name.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Time `f` under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(name, t.elapsed());
        r
    }

    /// Time the collective call `f` under `name`, after a barrier: the span then holds
    /// the call's own cost, not the wait for a rank still busy with the previous phase.
    pub fn collective<R>(
        &mut self,
        rank: &mut Rank,
        name: &'static str,
        f: impl FnOnce(&mut Rank) -> R,
    ) -> R {
        rank.barrier();
        let t = Instant::now();
        let r = f(rank);
        self.record(name, t.elapsed());
        r
    }

    pub fn record(&mut self, name: &'static str, d: Duration) {
        self.samples
            .entry(name)
            .or_default()
            .push(d.as_secs_f64() * 1e6);
    }

    /// Samples of `name` in microseconds (empty if never recorded).
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median sample of `name` in microseconds (0 if never recorded).
    pub fn median_us(&self, name: &str) -> f64 {
        let s = self.get(name);
        if s.is_empty() {
            0.0
        } else {
            median(s)
        }
    }

    /// Sum of the samples of `name` in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// Combine the spans every rank recorded: sample `k` of a name becomes the slowest
    /// rank's sample `k`, since a collective step ends when its slowest rank does.
    pub fn slowest_of(per_rank: &[Spans]) -> Spans {
        let mut out = Spans::default();
        for spans in per_rank {
            for (&name, samples) in &spans.samples {
                let merged = out.samples.entry(name).or_default();
                for (k, &v) in samples.iter().enumerate() {
                    match merged.get_mut(k) {
                        Some(m) => *m = m.max(v),
                        None => merged.push(v),
                    }
                }
            }
        }
        out
    }
}

/// Operations attempted and failed: every output check is one operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one checked operation; a rejected check is a failed operation.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("check failed: {what}: {e}");
        }
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} twice"
        );
        self.0.push((name.to_string(), value, unit));
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug)]
pub struct Report {
    pub ops: Ops,
    /// Deterministic outputs (modeled time, counts) repeated exactly across rounds.
    pub repeatable: bool,
    pub metrics: Metrics,
}

impl Report {
    /// The result line: the last line of standard output.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            // A failed check is counted in `failed`; `correct` speaks of the rest.
            ("correct", Json::Bool(self.repeatable)),
            ("attempted", Json::uint(self.ops.attempted)),
            ("failed", Json::uint(self.ops.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The two-rank machine; traced runs switch on the collective ledger, which records
/// every collective a rank starts.
pub fn machine(traced: bool) -> MachineConfig {
    let config = MachineConfig::new(RANKS);
    if traced {
        config.with_ledger()
    } else {
        config
    }
}

/// Collectives this rank has started (barriers and the `Rank` collectives; exchange-engine
/// executions are counted as messages instead), read from the ledger; 0 when it is off.
pub fn collectives_started(rank: &Rank) -> usize {
    rank.ledger_trace().map_or(0, |t| {
        t.iter().filter(|e| !e.op.starts_with("exchange")).count()
    })
}

/// The largest of `f` over `items`, from microseconds to seconds: the slowest rank's
/// modeled time in a phase.
pub fn slowest_s<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).fold(0.0, f64::max) / 1e6
}

/// The modeled time no phase accounts for: the largest |rank total − sum of the
/// application's phase times| over ranks, in seconds.
pub fn put_unattributed(m: &mut Metrics, totals_and_phases: impl Iterator<Item = (f64, f64)>) {
    let worst = totals_and_phases
        .map(|(total, phases)| (total - phases).abs())
        .fold(0.0, f64::max);
    m.put("perfbench.modeled.unattributed_s", worst / 1e6, "s");
}

/// Slowest rank's wall seconds, where each rank reports its own.
pub fn slowest(walls: impl IntoIterator<Item = f64>) -> f64 {
    walls.into_iter().fold(0.0, f64::max)
}

/// Machine-wide message, collective, pool and cost-model figures every workload reports
/// per layer; `collectives_per_step` comes from the most any rank started (see
/// [`collectives_started`]).
pub fn put_cost_metrics<R>(
    m: &mut Metrics,
    out: &RunOutcome<R>,
    steps: usize,
    collectives_per_step: f64,
) {
    let total = out.machine_stats().total;
    let steps = steps.max(1) as f64;
    m.put(
        "mpsim.exchange.msgs_per_step",
        total.msgs_sent as f64 / steps,
        "msgs/step",
    );
    m.put(
        "mpsim.exchange.bytes_per_step",
        total.bytes_sent as f64 / steps,
        "B/step",
    );
    m.put(
        "mpsim.collectives.per_step",
        collectives_per_step,
        "count/step",
    );
    let pool = out.pool_totals();
    m.put(
        "mpsim.pool.reuse_ratio",
        ratio(pool.reuses, pool.requests()),
        "ratio",
    );
    m.put("mpsim.cost.comm_s", out.avg_comm_us() / 1e6, "s");
    m.put("mpsim.cost.compute_s", out.avg_compute_us() / 1e6, "s");
    m.put("mpsim.cost.lb_index", out.load_balance_index(), "ratio");
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric the benchmark defines, with its unit, in print order.  A
/// workload that does not run a layer reports 0 for it (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mpsim.exchange.msgs_per_step", "msgs/step"),
    ("mpsim.exchange.bytes_per_step", "B/step"),
    ("mpsim.exchange.wall_us", "us"),
    ("mpsim.collectives.per_step", "count/step"),
    ("mpsim.collectives.wall_us", "us"),
    ("mpsim.pool.steady_allocs", "count"),
    ("mpsim.pool.reuse_ratio", "ratio"),
    ("mpsim.cost.comm_s", "s"),
    ("mpsim.cost.compute_s", "s"),
    ("mpsim.cost.lb_index", "ratio"),
    ("chaos.inspector.builds", "count"),
    ("chaos.inspector.modeled_s", "s"),
    ("chaos.inspector.wall_ms", "ms"),
    ("chaos.cache.hits", "count"),
    ("chaos.cache.patches", "count"),
    ("chaos.cache.misses", "count"),
    ("chaos.cache.hit_ratio", "ratio"),
    ("chaos.maintained.patches", "count"),
    ("chaos.maintained.edits_per_step", "count/step"),
    ("chaos.maintained.modeled_s", "s"),
    ("chaos.maintained.wall_us", "us"),
    ("chaos.executor.modeled_s", "s"),
    ("chaos.executor.wall_us", "us"),
    ("chaos.partitioners.wall_ms", "ms"),
    ("chaos.remap.count", "count"),
    ("chaos.remap.migrated", "count"),
    ("chaos.remap.modeled_s", "s"),
    ("chaos.remap.wall_ms", "ms"),
    ("chaos.adapt.monitor_modeled_s", "s"),
    ("chaos.adapt.lb_index_mean", "ratio"),
    ("charmm.app.interactions_per_step", "count/step"),
    ("charmm.app.list_updates", "count"),
    ("charmm.app.list_wall_ms", "ms"),
    ("charmm.app.force_wall_ms", "ms"),
    ("dsmc.app.collisions_per_step", "count/step"),
    ("dsmc.app.migrations_per_step", "count/step"),
    ("dsmc.app.collide_modeled_s", "s"),
    ("dsmc.app.collide_wall_ms", "ms"),
    ("fortrand.compile.wall_ms", "ms"),
    ("fortrand.opt.hoist", "count"),
    ("fortrand.opt.fuse", "count"),
    ("fortrand.opt.overlap", "count"),
    ("fortrand.interp.setup_wall_ms", "ms"),
    ("fortrand.interp.loop_wall_ms_per_step", "ms"),
    ("fortrand.interp.inspector_modeled_s", "s"),
    ("fortrand.interp.executor_modeled_s", "s"),
    ("fortrand.interp.schedule_rebuilds", "count"),
    ("fortrand.interp.schedule_reuses", "count"),
    ("perfbench.modeled.unattributed_s", "s"),
    ("perfbench.trace.steps_per_s", "1/s"),
    ("perfbench.trace.untraced_steps_per_s", "1/s"),
    ("perfbench.trace.overhead_pct", "%"),
];

/// Arrange a workload's per-layer metrics in the fixed order, filling the layers it does
/// not run with 0.
pub fn complete_per_layer(measured: Metrics) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in PER_LAYER {
        let value = measured
            .0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v);
        out.put(name, value, unit);
    }
    for (name, _, _) in &measured.0 {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in PER_LAYER"
        );
    }
    out
}

/// The end-to-end metrics, in print order.
pub fn end_to_end(steps_per_s: f64, setup_s: f64, modeled_s: f64, peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put("steps_per_s", steps_per_s, "1/s");
    m.put("setup_s", setup_s, "s");
    m.put("modeled_s", modeled_s, "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m
}

/// Fill the tracing-overhead metrics from the untraced and traced round rates.
pub fn put_trace_overhead(m: &mut Metrics, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (median(untraced), median(traced));
    m.put("perfbench.trace.steps_per_s", t, "1/s");
    m.put("perfbench.trace.untraced_steps_per_s", u, "1/s");
    m.put("perfbench.trace.overhead_pct", (u - t) / u * 100.0, "%");
}
