//! `fortrand_md`: the CHARMM non-bonded template (`chaos_bench::compiler::
//! charmm_loop_source`) compiled by `fortrand::compile_optimized` and run by
//! `fortrand::Executor`.  The optimizer hoists the inspector into set-up and fuses the
//! three coordinate sweeps into one exchange per step, so the timed `DO` loop is almost
//! all interpreter time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chaos::prelude::*;
use chaos_bench::compiler::charmm_loop_source;
use charmm::nonbonded::{build_neighbor_list, NeighborList};
use charmm::{MolecularSystem, SystemConfig};
use fortrand::interp::FortranDPhases;
use fortrand::lower::ExecStep;
use fortrand::{LoweredProgram, OptReport};
use mpsim::{run, ExchangeStats, PackPoolStats, Rank, RankStats, RunOutcome, TimeSnapshot};

use crate::checks;
use crate::common::*;

/// A water box at the medium system's water density (2 700 water atoms in a 28 Å box)
/// with a third of its atoms and a shorter cutoff, so one interpreted `DO` step takes
/// about 0.09 s where the 3 400-atom medium list takes about a second.  Water only, so
/// the BLOCK-distributed atoms carry even work.
const WATER: SystemConfig = SystemConfig {
    protein_atoms: 0,
    water_molecules: 370,
    box_size: 20.8,
    cutoff: 6.0,
    seed: 1994,
};
/// Largest seeded displacement of an atom from its place in the fixed water box (Å).
const JITTER: f64 = 0.05;

/// Iterations of the `DO` time loop: one timed round.
const DO_STEPS: usize = 40;
const SWEEP_TOL: f64 = 1e-9;
const SETUP_REPS: usize = 9;

/// Everything the program is handed, generated from the seed: coordinates (the fixed
/// water box with every atom displaced by a seeded amount up to `JITTER`, a thermal
/// state of the same system) and their 1-based CSR neighbour list, plus the compiled
/// template.
struct Inputs {
    x: [Vec<f64>; 3],
    inblo: Vec<i64>,
    jnb: Vec<i64>,
    program: LoweredProgram,
    report: OptReport,
    compile_s: f64,
}

fn make_inputs(seed: u64) -> Inputs {
    let mut system = MolecularSystem::build(&WATER);
    for (i, p) in system.positions.iter_mut().enumerate() {
        for (k, x) in p.iter_mut().enumerate() {
            let d = (2.0 * seeded_unit(seed, (3 * i + k) as u64) - 1.0) * JITTER;
            *x = (*x + d).rem_euclid(WATER.box_size);
        }
    }
    let list = build_neighbor_list(&system.positions, system.box_size, system.cutoff);
    let (inblo, jnb) = balanced_csr(&list);
    let x = [0, 1, 2].map(|k| system.positions.iter().map(|p| p[k]).collect());
    let source = charmm_loop_source(system.natoms(), jnb.len(), DO_STEPS);
    let t = Instant::now();
    let (program, report) =
        fortrand::compile_optimized(&source).expect("the CHARMM template compiles");
    Inputs {
        x,
        inblo,
        jnb,
        program,
        report,
        compile_s: t.elapsed().as_secs_f64(),
    }
}

/// The neighbour pairs as a 1-based CSR list in which each pair sits in the row of the
/// atom the parity of `i + j` picks.  The template's loop is owner-computes over rows,
/// and a `j > i` half list would give the lower BLOCK half three times the pairs of the
/// upper one; this way both ranks carry the same work.
fn balanced_csr(list: &NeighborList) -> (Vec<i64>, Vec<i64>) {
    let mut rows: Vec<Vec<i64>> = vec![Vec::new(); list.natoms()];
    for i in 0..list.natoms() {
        for &j in list.partners_of(i) {
            let (row, partner) = if (i + j) % 2 == 0 { (i, j) } else { (j, i) };
            rows[row].push(partner as i64 + 1);
        }
    }
    let mut inblo = vec![1];
    for row in &rows {
        inblo.push(inblo.last().expect("starts with 1") + row.len() as i64);
    }
    (inblo, rows.concat())
}

/// What each rank hands back from one machine run.
struct RankRun {
    setup_s: f64,
    spans: Spans,
    round_walls: Vec<f64>,
    first: FirstRound,
    d: [Vec<f64>; 3],
    exchange: ExchangeStats,
    group: (u64, u64, u64),
    cache: CacheStats,
}

/// A rank's counters at the end of the first round: set-up plus `DO_STEPS` steps, the
/// same whatever number of rounds the budget allows.
#[derive(Default)]
struct FirstRound {
    stats: RankStats,
    time: TimeSnapshot,
    pool: PackPoolStats,
    phases: FortranDPhases,
    collectives: usize,
}

/// One machine run: set up the executor (every top-level step before the time loop),
/// then — unless `budget` is `None` — run the time loop in rounds until the budget is
/// spent.  A traced run runs with the collective ledger on.
fn machine_run(
    start: Instant,
    inputs: &Arc<Inputs>,
    budget: Option<Duration>,
    traced: bool,
) -> RunOutcome<RankRun> {
    let inputs = Arc::clone(inputs);
    run(machine(traced), move |rank| {
        rank_run(rank, start, &inputs, budget)
    })
}

fn rank_run(rank: &mut Rank, start: Instant, inputs: &Inputs, budget: Option<Duration>) -> RankRun {
    let mut spans = Spans::default();
    let program = &inputs.program;
    let t = Instant::now();
    let mut exec = fortrand::Executor::new(rank, program);
    exec.set_integer_array("INBLO", &inputs.inblo);
    exec.set_integer_array("JNB", &inputs.jnb);
    for (name, values) in ["X", "Y", "Z"].iter().zip(&inputs.x) {
        exec.set_real_array(name, values);
    }
    let natoms = inputs.x[0].len();
    for f in ["DX", "DY", "DZ"] {
        exec.set_real_array(f, &vec![0.0; natoms]);
    }
    let time_loop = program
        .steps
        .iter()
        .position(|s| matches!(s, ExecStep::TimeLoop { .. }))
        .expect("the template has a DO loop");
    for step in 0..time_loop {
        let name = match program.steps[step] {
            ExecStep::BuildSchedule { .. } => "build_schedule",
            _ => "pre_loop_step",
        };
        spans.time(name, || exec.run_step(rank, step));
    }
    spans.record("interp_setup", t.elapsed());
    let setup_s = start.elapsed().as_secs_f64();

    let mut round_walls = Vec::new();
    let mut first = FirstRound::default();
    if let Some(budget) = budget {
        let t0 = Instant::now();
        // Ranks agree on when to stop through one reduction before each round.
        let more = |rank: &mut Rank, rounds: usize| {
            let done = rounds >= 2 && t0.elapsed() >= budget;
            rank.all_reduce_max(f64::from(u8::from(done))) == 0.0
        };
        while more(rank, round_walls.len()) {
            let t = Instant::now();
            exec.run_step(rank, time_loop);
            round_walls.push(t.elapsed().as_secs_f64());
            if round_walls.len() == 1 {
                first = FirstRound {
                    stats: rank.stats(),
                    time: rank.modeled(),
                    pool: rank.pool_stats(),
                    phases: exec.phases(),
                    collectives: collectives_started(rank),
                };
            }
        }
    }
    let d = ["DX", "DY", "DZ"].map(|f| exec.get_real_array(rank, f));
    RankRun {
        setup_s,
        spans,
        round_walls,
        first,
        d,
        exchange: exec.exchange_stats(),
        group: exec.group_stats(0),
        cache: exec.group_cache_stats(0),
    }
}

pub fn run_workload(args: &Args) -> Report {
    let mut setup = Vec::new();
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        let out = machine_run(start, &Arc::new(make_inputs(args.seed)), None, false);
        setup.push(slowest(out.results.iter().map(|r| r.setup_s)));
    }
    let start = Instant::now();
    let inputs = Arc::new(make_inputs(args.seed));
    // A traced run spends half its time in an untraced machine run and half in a traced
    // one, so the overhead of tracing is measured in the same process.
    let budget = Duration::from_secs_f64(args.seconds);
    let out = machine_run(
        start,
        &inputs,
        Some(if args.trace { budget / 2 } else { budget }),
        false,
    );
    setup.push(slowest(out.results.iter().map(|r| r.setup_s)));
    let traced = args
        .trace
        .then(|| machine_run(Instant::now(), &inputs, Some(budget / 2), true));
    let peak_rss = peak_rss_mb();

    // Checks, outside the timed window.  Every round is checked through what it adds to
    // the forces and to the message count.
    let mut ops = Ops::default();
    for run in std::iter::once(&out).chain(&traced) {
        check_run(&mut ops, &inputs, run);
    }
    let rate = |out: &RunOutcome<RankRun>| -> Vec<f64> {
        let rounds = out.results[0].round_walls.len();
        (0..rounds)
            .map(|k| DO_STEPS as f64 / slowest(out.results.iter().map(|r| r.round_walls[k])))
            .collect()
    };
    eprintln!(
        "fortrand_md: {} atoms, {} list entries, {DO_STEPS} steps per round; {}",
        inputs.x[0].len(),
        inputs.jnb.len(),
        describe_rates(&rate(&out))
    );

    let metrics = match &traced {
        Some(traced) => per_layer(&inputs, traced, &rate(&out), &rate(traced)),
        None => {
            let modeled = slowest(out.results.iter().map(|r| r.first.time.total_us()));
            end_to_end(median(&rate(&out)), median(&setup), modeled / 1e6, peak_rss)
        }
    };
    Report {
        ops,
        repeatable: true,
        metrics,
    }
}

/// Steps the time loop ran in one machine run.
fn steps_run(out: &RunOutcome<RankRun>) -> usize {
    out.results[0].round_walls.len() * DO_STEPS
}

/// Check one machine run: the forces equal a plain loop times the steps run, and the
/// executor sent one fused gather and one fused scatter-add message per referencing
/// pair per step — the inspector was hoisted and its schedule reused every step.
fn check_run(ops: &mut Ops, inputs: &Inputs, out: &RunOutcome<RankRun>) {
    let steps = steps_run(out);
    for (k, name) in ["DX", "DY", "DZ"].iter().enumerate() {
        let per_step = checks::plain_pair_sweep(&inputs.x[k], &inputs.inblo, &inputs.jnb);
        ops.check(
            "fortrand_md forces against a plain loop",
            checks::scaled_sweep_matches(name, &out.results[0].d[k], &per_step, steps, SWEEP_TOL),
        );
    }
    let block = BlockDist::new(inputs.x[0].len(), RANKS);
    let pairs = checks::referencing_pairs(&inputs.inblo, &inputs.jnb, |g| block.owner(g));
    let msgs: u64 = out.results.iter().map(|r| r.exchange.msgs_sent).sum();
    ops.check(
        "fortrand_md executor messages",
        checks::executor_messages(msgs, pairs, steps),
    );
}

fn per_layer(
    inputs: &Inputs,
    out: &RunOutcome<RankRun>,
    untraced: &[f64],
    traced: &[f64],
) -> Metrics {
    let mut m = Metrics::default();
    // Counters as of the end of the first round, so they repeat whatever the number of
    // rounds; per step of that round.
    let first: Vec<&FirstRound> = out.results.iter().map(|r| &r.first).collect();
    let snapshot = RunOutcome {
        results: vec![(); first.len()],
        stats: first.iter().map(|f| f.stats).collect(),
        times: first.iter().map(|f| f.time).collect(),
        pool: first.iter().map(|f| f.pool).collect(),
    };
    let collectives = first.iter().map(|f| f.collectives).max().unwrap_or(0);
    put_cost_metrics(
        &mut m,
        &snapshot,
        DO_STEPS,
        collectives as f64 / DO_STEPS as f64,
    );
    let slowest_phase = |f: fn(&FortranDPhases) -> f64| slowest_s(&first, |r| f(&r.phases));
    let r0 = &out.results[0];
    let spans = Spans::slowest_of(
        &out.results
            .iter()
            .map(|r| r.spans.clone())
            .collect::<Vec<_>>(),
    );
    let (rebuilds, patches, reuses) = r0.group;
    let count = |rule: &str| {
        inputs
            .report
            .applied()
            .filter(|d| d.rule.name() == rule)
            .count()
    };

    m.put(
        "chaos.inspector.builds",
        (rebuilds + patches) as f64,
        "count",
    );
    m.put(
        "chaos.inspector.modeled_s",
        slowest_phase(|p| p.inspector.total_us()),
        "s",
    );
    m.put(
        "chaos.inspector.wall_ms",
        spans.total_us("build_schedule") / 1e3,
        "ms",
    );
    let cache = out
        .results
        .iter()
        .fold(CacheStats::default(), |a, r| CacheStats {
            hits: a.hits + r.cache.hits,
            misses: a.misses + r.cache.misses,
            patches: a.patches + r.cache.patches,
            evictions: a.evictions + r.cache.evictions,
        });
    m.put("chaos.cache.hits", cache.hits as f64, "count");
    m.put("chaos.cache.patches", cache.patches as f64, "count");
    m.put("chaos.cache.misses", cache.misses as f64, "count");
    m.put(
        "chaos.cache.hit_ratio",
        ratio(
            cache.hits + cache.patches,
            cache.hits + cache.patches + cache.misses,
        ),
        "ratio",
    );
    m.put(
        "chaos.executor.modeled_s",
        slowest_phase(|p| p.executor.total_us()),
        "s",
    );
    m.put("fortrand.compile.wall_ms", inputs.compile_s * 1e3, "ms");
    m.put("fortrand.opt.hoist", count("hoist") as f64, "count");
    m.put("fortrand.opt.fuse", count("fuse") as f64, "count");
    m.put("fortrand.opt.overlap", count("overlap") as f64, "count");
    m.put(
        "fortrand.interp.setup_wall_ms",
        spans.total_us("interp_setup") / 1e3,
        "ms",
    );
    m.put(
        "fortrand.interp.loop_wall_ms_per_step",
        1e3 / median(untraced),
        "ms",
    );
    m.put(
        "fortrand.interp.inspector_modeled_s",
        slowest_phase(|p| p.inspector.total_us()),
        "s",
    );
    m.put(
        "fortrand.interp.executor_modeled_s",
        slowest_phase(|p| p.executor.total_us()),
        "s",
    );
    m.put(
        "fortrand.interp.schedule_rebuilds",
        rebuilds as f64,
        "count",
    );
    m.put("fortrand.interp.schedule_reuses", reuses as f64, "count");
    put_unattributed(
        &mut m,
        first
            .iter()
            .map(|f| (f.time.total_us(), f.phases.total().total_us())),
    );
    put_trace_overhead(&mut m, untraced, traced);
    complete_per_layer(m)
}
