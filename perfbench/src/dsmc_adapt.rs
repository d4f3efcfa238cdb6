//! `dsmc_adapt`: the hand-parallelised 3-D DSMC loop (`dsmc::parallel::run_parallel`)
//! with directional flow, a maintained (patched) MOVE schedule and RCB remaps fired by
//! the measured cost-benefit policy.  Every step patches the schedule, migrates
//! molecules through `alltoallv` and all-gathers one load sample; dense compute is light.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use chaos::prelude::*;
use dsmc::collide::collide_cell;
use dsmc::grid::CellGrid;
use dsmc::parallel::{
    initial_owner_map, run_parallel, DsmcConfig, DsmcStats, MoveMode, RemapStrategy,
};
use dsmc::particles::{advance, seed_particles, FlowConfig, Particle};
use dsmc::sequential::SequentialDsmc;
use mpsim::{alltoallv, run, ExchangePlan, Rank, RunOutcome};

use crate::checks;
use crate::common::*;

const GRID: (usize, usize, usize) = (32, 16, 16);
const MOLECULES: usize = 128_000;
/// Time steps of one timed round.
const NSTEPS: usize = 150;
const DT: f64 = 0.4;
/// Remap-cost estimate the cost-benefit policy uses until the first remap is measured.
const ASSUMED_REMAP_US: f64 = 2_000.0;
const SETUP_REPS: usize = 9;

pub(crate) fn config(nsteps: usize, seed: u64) -> DsmcConfig {
    DsmcConfig {
        nsteps,
        dt: DT,
        move_mode: MoveMode::Patched {
            rebuild_every_step: false,
        },
        remap: RemapStrategy::RecursiveBisection,
        remap_interval: 0,
        policy: Some(RemapPolicy::CostBenefit {
            assumed_cost_us: ASSUMED_REMAP_US,
        }),
        monitor_group: None,
        seed,
    }
}

fn grid() -> CellGrid {
    CellGrid::new_3d(GRID.0, GRID.1, GRID.2)
}

fn inputs(seed: u64) -> Arc<Vec<Particle>> {
    Arc::new(seed_particles(
        &grid(),
        MOLECULES,
        &FlowConfig::directional(seed),
    ))
}

type Outcome = RunOutcome<(DsmcStats, f64, usize)>;

/// One `run_parallel` call of `nsteps` on two ranks; each rank reports its wall seconds
/// inside the call and, when traced, the collectives it started.
fn run_steps(
    particles: &Arc<Vec<Particle>>,
    nsteps: usize,
    seed: u64,
    traced: bool,
) -> (f64, Outcome) {
    let particles = Arc::clone(particles);
    let out = run(machine(traced), move |rank| {
        let t = Instant::now();
        let stats = run_parallel(rank, &grid(), &particles, &config(nsteps, seed));
        let wall = t.elapsed().as_secs_f64();
        (stats, wall, collectives_started(rank))
    });
    (slowest(out.results.iter().map(|r| r.1)), out)
}

/// Everything a round outputs: modeled time, work counts and the molecule fingerprint.
fn output_digest(out: &Outcome) -> u64 {
    let per_rank: Vec<_> = out
        .results
        .iter()
        .map(|(s, _, _)| {
            let counts = (
                s.collisions,
                s.migrations,
                s.remaps,
                s.schedule_upkeep.edits,
            );
            (counts, &s.fingerprint)
        })
        .collect();
    digest(&(out.max_total_us().to_bits(), per_rank))
}

pub fn run_workload(args: &Args) -> Report {
    let seed = args.seed;
    let setup = repeat_timed(SETUP_REPS, || {
        run_steps(&inputs(seed), 0, seed, false);
    });
    let particles = inputs(seed);

    let (rounds, traced) = timed_rounds(
        args,
        NSTEPS,
        |traced| run_steps(&particles, NSTEPS, seed, traced),
        output_digest,
    );
    let peak_rss = peak_rss_mb();

    // Checks, outside the timed window.
    let mut ops = Ops::default();
    let seq_t = Instant::now();
    let mut seq = SequentialDsmc::new(grid(), particles.to_vec(), DT, seed);
    seq.run(NSTEPS);
    let seq_wall = seq_t.elapsed().as_secs_f64();
    let reference = seq.fingerprint();
    let first = rounds[0].kept.as_ref().expect("the first round is kept");
    let per_rank: Vec<checks::Fingerprint> = first
        .results
        .iter()
        .map(|(s, _, _)| s.fingerprint.clone())
        .collect();
    ops.check(
        "dsmc_adapt against the sequential code",
        checks::dsmc_matches(&per_rank, &reference, MOLECULES),
    );
    let repeatable = check_repeats(&mut ops, "dsmc_adapt round repeats", &rounds, &traced);
    let rates: Vec<f64> = rounds.iter().map(|r| r.rate).collect();
    eprintln!(
        "dsmc_adapt: {MOLECULES} molecules, {NSTEPS} steps per round, {} remaps per round; {}; sequential reference {:.1} steps/s",
        first.results[0].0.remaps,
        describe_rates(&rates),
        NSTEPS as f64 / seq_wall
    );
    let metrics = if args.trace {
        let traced_rates: Vec<f64> = traced.iter().map(|r| r.rate).collect();
        let kept = traced[0]
            .kept
            .as_ref()
            .expect("the first traced round is kept");
        per_layer(&particles, seed, kept, &rates, &traced_rates)
    } else {
        end_to_end(
            median(&rates),
            median(&setup),
            first.max_total_us() / 1e6,
            peak_rss,
        )
    };
    Report {
        ops,
        repeatable,
        metrics,
    }
}

fn per_layer(
    particles: &Arc<Vec<Particle>>,
    seed: u64,
    out: &Outcome,
    untraced: &[f64],
    traced: &[f64],
) -> Metrics {
    let mut m = Metrics::default();
    let collectives = out.results.iter().map(|r| r.2).max().unwrap_or(0);
    put_cost_metrics(&mut m, out, NSTEPS, collectives as f64 / NSTEPS as f64);
    let stats: Vec<&DsmcStats> = out.results.iter().map(|r| &r.0).collect();
    let slowest_phase = |f: fn(&DsmcStats) -> f64| slowest_s(&stats, |s| f(s));
    let per_step = |f: &dyn Fn(&DsmcStats) -> usize| {
        stats.iter().map(|s| f(s)).sum::<usize>() as f64 / NSTEPS as f64
    };
    let s0 = stats[0];

    m.put(
        "chaos.inspector.builds",
        s0.schedule_upkeep.builds as f64,
        "count",
    );
    m.put(
        "chaos.inspector.modeled_s",
        slowest_phase(|s| s.phases.move_preprocess.total_us()),
        "s",
    );
    m.put(
        "chaos.maintained.patches",
        s0.schedule_upkeep.patches as f64,
        "count",
    );
    m.put(
        "chaos.maintained.edits_per_step",
        per_step(&|s| s.schedule_upkeep.edits),
        "count/step",
    );
    m.put(
        "chaos.maintained.modeled_s",
        slowest_phase(|s| s.phases.move_upkeep.total_us()),
        "s",
    );
    m.put(
        "chaos.executor.modeled_s",
        slowest_phase(|s| s.phases.move_data.total_us()),
        "s",
    );
    m.put("chaos.remap.count", s0.remaps as f64, "count");
    m.put(
        "chaos.remap.modeled_s",
        slowest_phase(|s| (s.phases.remap_partition + s.phases.remap_migrate).total_us()),
        "s",
    );
    m.put(
        "chaos.adapt.monitor_modeled_s",
        slowest_phase(|s| s.phases.monitor.total_us()),
        "s",
    );
    m.put(
        "chaos.adapt.lb_index_mean",
        mean(&s0.lb_trajectory),
        "ratio",
    );
    m.put(
        "dsmc.app.collisions_per_step",
        per_step(&|s| s.collisions),
        "count/step",
    );
    m.put(
        "dsmc.app.migrations_per_step",
        per_step(&|s| s.migrations),
        "count/step",
    );
    m.put(
        "dsmc.app.collide_modeled_s",
        slowest_phase(|s| s.phases.collide.total_us()),
        "s",
    );
    put_unattributed(
        &mut m,
        stats
            .iter()
            .zip(&out.times)
            .map(|(s, t)| (t.total_us(), s.phases.total().total_us())),
    );
    put_trace_overhead(&mut m, untraced, traced);

    // Wall time per layer: replay one remap period (the run's mean interval between
    // remaps) through the public entry points.
    let period = (NSTEPS / s0.remaps.max(1)).max(1);
    let particles = Arc::clone(particles);
    let replay = run(machine(false), move |rank| {
        replay_period(rank, &particles, seed, period)
    });
    let migrated: usize = replay.results.iter().map(|r| r.1).sum();
    let steady_allocs: u64 = replay.results.iter().map(|r| r.2).sum();
    let spans = Spans::slowest_of(
        &replay
            .results
            .iter()
            .map(|r| r.0.clone())
            .collect::<Vec<_>>(),
    );
    m.put("mpsim.exchange.wall_us", spans.median_us("alltoallv"), "us");
    m.put(
        "mpsim.collectives.wall_us",
        spans.median_us("all_gather_one"),
        "us",
    );
    m.put("mpsim.pool.steady_allocs", steady_allocs as f64, "count");
    m.put(
        "chaos.inspector.wall_ms",
        (spans.total_us("hash_indices") + spans.total_us("build_maintained")) / 1e3,
        "ms",
    );
    m.put(
        "chaos.maintained.wall_us",
        spans.median_us("sync_schedule"),
        "us",
    );
    m.put(
        "chaos.partitioners.wall_ms",
        spans.total_us("rcb_partition") / 1e3,
        "ms",
    );
    m.put("chaos.remap.migrated", migrated as f64, "count");
    m.put(
        "chaos.remap.wall_ms",
        spans.total_us("remap_migrate") / 1e3,
        "ms",
    );
    m.put(
        "dsmc.app.collide_wall_ms",
        spans.median_us("collide") / 1e3,
        "ms",
    );
    complete_per_layer(m)
}

const MOVE_STAMP: Stamp = Stamp::new(0);

/// Replay `period` steps of `run_parallel`'s patched MOVE path and one RCB remap through
/// the public entry points, timing each call: collisions, re-hashing the destination
/// cells and syncing the maintained schedule, the molecule exchange (`negotiate` +
/// `alltoallv`), the load-sample all-gather, then the partitioner and the migration to
/// the new owners.  Collective calls are timed after a barrier (see
/// [`Spans::collective`]).  Returns the spans, the molecules the remap moved off this rank and
/// the pack-pool allocations of the steady steps (all but the first).
fn replay_period(
    rank: &mut Rank,
    particles: &[Particle],
    seed: u64,
    period: usize,
) -> (Spans, usize, u64) {
    let mut sp = Spans::default();
    let (me, nprocs) = (rank.rank(), rank.nprocs());
    let grid = grid();
    let mut cell_owner = initial_owner_map(&grid, nprocs);
    let mut cells: HashMap<usize, Vec<Particle>> = (0..grid.ncells())
        .filter(|&c| cell_owner[c] == me)
        .map(|c| (c, Vec::new()))
        .collect();
    for p in particles {
        if let Some(list) = cells.get_mut(&grid.cell_of_position(p.pos)) {
            list.push(*p);
        }
    }
    let ttable = TranslationTable::replicated_from_full_map(&cell_owner, nprocs)
        .expect("cell owners are valid ranks");
    let mut inspector = Inspector::new(&ttable, me);
    let mut sched: Option<MaintainedSchedule> = None;
    let mut steady_allocs = 0;

    for step in 0..period {
        let pool = rank.pool_stats();
        let mut owned: Vec<usize> = cells.keys().copied().collect();
        owned.sort_unstable();
        let t = Instant::now();
        for &c in &owned {
            collide_cell(c, step, seed, cells.get_mut(&c).expect("owned cell"));
        }
        sp.record("collide", t.elapsed());

        // Molecules leaving their cell: to another rank, or to another cell of this one.
        let mut outgoing: Vec<Vec<Particle>> = vec![Vec::new(); nprocs];
        let mut arrivals: Vec<Particle> = Vec::new();
        let mut dest_cells = Vec::new();
        for &c in &owned {
            let list = cells.get_mut(&c).expect("owned cell");
            let mut stay = Vec::with_capacity(list.len());
            for mut p in list.drain(..) {
                advance(&mut p, &grid, DT);
                let to = grid.cell_of_position(p.pos);
                if to == c {
                    stay.push(p);
                } else if cell_owner[to] == me {
                    arrivals.push(p);
                } else {
                    dest_cells.push(to);
                    outgoing[cell_owner[to]].push(p);
                }
            }
            *list = stay;
        }

        inspector.clear_stamp(MOVE_STAMP);
        sp.time("hash_indices", || {
            inspector.hash_indices(rank, &dest_cells, MOVE_STAMP)
        });
        match sched.as_mut() {
            Some(ms) => {
                sp.collective(rank, "sync_schedule", |rank| {
                    inspector.sync_schedule(rank, ms)
                });
            }
            None => {
                let ms = sp.collective(rank, "build_maintained", |rank| {
                    inspector.build_maintained(rank, StampQuery::single(MOVE_STAMP))
                });
                sched = Some(ms);
            }
        }

        let counts: Vec<usize> = outgoing.iter().map(Vec::len).collect();
        sp.collective(rank, "alltoallv", |rank| {
            let plan = ExchangePlan::negotiate(rank, counts);
            alltoallv(rank, &plan, &outgoing, |_, placed| {
                arrivals.extend_from_slice(placed.as_slice())
            })
        });
        for p in arrivals {
            cells
                .get_mut(&grid.cell_of_position(p.pos))
                .expect("molecule delivered to its cell's owner")
                .push(p);
        }
        let load: usize = cells.values().map(Vec::len).sum();
        sp.collective(rank, "all_gather_one", |rank| {
            rank.all_gather_one(load as f64)
        });
        if step > 0 {
            let d = rank.pool_stats().since(&pool);
            steady_allocs += d.allocations + d.decode_allocations;
        }
    }

    // One remap: RCB over the owned cells weighted by their molecules, then migration.
    let mut owned: Vec<usize> = cells.keys().copied().collect();
    owned.sort_unstable();
    let weights: Vec<f64> = owned.iter().map(|c| 1.0 + cells[c].len() as f64).collect();
    let coords: Vec<[f64; 3]> = owned.iter().map(|&c| grid.cell_center(c)).collect();
    let parts = sp.collective(rank, "rcb_partition", |rank| {
        rcb_partition(rank, PartitionInput::new(&coords, &weights), nprocs)
    });
    rank.barrier();
    let t = Instant::now();
    let updates: Vec<(u64, u64)> = owned
        .iter()
        .zip(&parts)
        .map(|(&c, &p)| (c as u64, p as u64))
        .collect();
    for (c, p) in rank.all_gather(&updates).into_iter().flatten() {
        cell_owner[c as usize] = p as usize;
    }
    let (mut moving, mut dests) = (Vec::new(), Vec::new());
    for &c in &owned {
        if cell_owner[c] != me {
            let list = cells.remove(&c).expect("owned cell");
            dests.extend(std::iter::repeat_n(cell_owner[c], list.len()));
            moving.extend(list);
        }
    }
    let lw = LightweightSchedule::build(rank, &dests);
    let arrived = scatter_append(rank, &lw, &moving);
    sp.record("remap_migrate", t.elapsed());
    let held = cells.values().map(Vec::len).sum::<usize>() + arrived.len();
    assert_eq!(
        rank.all_reduce_sum_usize(held),
        particles.len(),
        "replay lost molecules"
    );
    (sp, moving.len(), steady_allocs)
}
