//! `charmm_md`: the hand-parallelised CHARMM loop (`charmm::parallel::run_parallel`) on
//! the 3 400-atom medium system — RCB partition, one merged schedule, list update every
//! 25 steps, no repartitioning.  The steady executor path (fused gather, force loops,
//! fused scatter-add) dominates; the inspector runs only at list updates.

use std::sync::Arc;
use std::time::Instant;

use chaos::prelude::*;
use chaos_bench::workloads::charmm_medium;
use charmm::integrate::integrate_atom;
use charmm::nonbonded::{build_neighbor_list, build_neighbor_list_for, pair_force};
use charmm::parallel::{run_parallel, CharmmStepStats, ParallelConfig};
use charmm::system::displacement_pbc;
use charmm::{MolecularSystem, SequentialCharmm};
use mpsim::{alltoallv, run, Rank, RunOutcome};

use crate::checks;
use crate::common::*;

/// Time steps of one timed round.
const NSTEPS: usize = 300;
/// Steps between non-bonded list updates (the paper's benchmark setting).
const LIST_UPDATE: usize = 25;
/// Steps of the run compared atom by atom with the sequential code: summation-order
/// differences grow chaotically (about 3e-9 at 25 steps, 8e-3 at 100).
const EXACT_STEPS: usize = 25;
const EXACT_TOL: f64 = 1e-6;
/// Allowed relative difference between the long run's pair count within the cutoff and
/// the sequential run's.
const PAIR_TOL: f64 = 0.03;
const SETUP_REPS: usize = 9;

/// The medium system (built with its own fixed seed) with velocities drawn from `seed`
/// in the ranges `MolecularSystem::build` uses (by atom kind, told apart by mass): a
/// thermal state of one molecule.  The positions, the partition and the work per step are
/// nearly the same for every seed, so the spread between seeds measures the host and
/// the program rather than the draw.
fn make_system(seed: u64) -> MolecularSystem {
    let mut system = MolecularSystem::build(&charmm_medium());
    for (i, (v, &mass)) in system.velocities.iter_mut().zip(&system.masses).enumerate() {
        let range = if mass >= 16.0 {
            0.1 // water oxygen
        } else if mass >= 12.0 {
            0.05 // protein
        } else {
            0.2 // water hydrogen
        };
        for (k, x) in v.iter_mut().enumerate() {
            *x = (2.0 * seeded_unit(seed, (3 * i + k) as u64) - 1.0) * range;
        }
    }
    system
}

type Outcome = RunOutcome<(CharmmStepStats, f64, usize)>;

/// One `run_parallel` call of `nsteps` on two ranks; each rank reports its wall seconds
/// inside the call and, when traced, the collectives it started.
fn run_steps(system: &Arc<MolecularSystem>, nsteps: usize, traced: bool) -> (f64, Outcome) {
    let sys = Arc::clone(system);
    let out = run(machine(traced), move |rank| {
        let t = Instant::now();
        let stats = run_parallel(rank, &sys, &ParallelConfig::paper_default(nsteps));
        let wall = t.elapsed().as_secs_f64();
        (stats, wall, collectives_started(rank))
    });
    (slowest(out.results.iter().map(|r| r.1)), out)
}

fn positions_of(out: &Outcome, natoms: usize) -> Result<Vec<[f64; 3]>, String> {
    let owned: Vec<_> = out
        .results
        .iter()
        .map(|r| r.0.owned_positions.clone())
        .collect();
    checks::assemble_owned(&owned, natoms)
}

/// Everything a round outputs: modeled time, work counts and final positions.
fn output_digest(out: &Outcome) -> u64 {
    let per_rank: Vec<_> = out
        .results
        .iter()
        .map(|(s, _, _)| {
            let positions: Vec<_> = s
                .owned_positions
                .iter()
                .map(|(g, p)| (*g, p.map(f64::to_bits)))
                .collect();
            let counts = (
                s.interactions,
                s.schedule_builds,
                s.executor_exchange.bytes_sent,
            );
            (counts, positions)
        })
        .collect();
    digest(&(out.max_total_us().to_bits(), per_rank))
}

pub fn run_workload(args: &Args) -> Report {
    let cfg = charmm_medium();
    let natoms = cfg.total_atoms();

    let setup = repeat_timed(SETUP_REPS, || {
        run_steps(&Arc::new(make_system(args.seed)), 0, false);
    });
    let system = Arc::new(make_system(args.seed));
    let (rounds, traced) = timed_rounds(
        args,
        NSTEPS,
        |traced| run_steps(&system, NSTEPS, traced),
        output_digest,
    );
    let peak_rss = peak_rss_mb();

    // Checks, outside the timed window.
    let mut ops = Ops::default();
    let seq_t = Instant::now();
    let mut seq = SequentialCharmm::new((*system).clone(), LIST_UPDATE);
    seq.run(NSTEPS);
    let seq_wall = seq_t.elapsed().as_secs_f64();
    let seq_pairs =
        build_neighbor_list(&seq.system.positions, cfg.box_size, cfg.cutoff).interaction_count();
    let first = rounds[0].kept.as_ref().expect("the first round is kept");
    let mut pairs = 0;
    ops.check(
        "charmm_md long run",
        positions_of(first, natoms).and_then(|p| {
            checks::inside_box(&p, cfg.box_size)?;
            pairs = build_neighbor_list(&p, cfg.box_size, cfg.cutoff).interaction_count();
            checks::pair_count_close(pairs, seq_pairs, PAIR_TOL)
        }),
    );
    let repeatable = check_repeats(&mut ops, "charmm_md round repeats", &rounds, &traced);
    let (_, short) = run_steps(&system, EXACT_STEPS, false);
    let mut seq_short = SequentialCharmm::new((*system).clone(), LIST_UPDATE);
    seq_short.run(EXACT_STEPS);
    let short = positions_of(&short, natoms);
    ops.check(
        "charmm_md 25 steps against the sequential code",
        short
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|p| checks::matches_sequential(p, &seq_short.system.positions, EXACT_TOL)),
    );
    let rates: Vec<f64> = rounds.iter().map(|r| r.rate).collect();
    eprintln!(
        "charmm_md: {natoms} atoms, {NSTEPS} steps per round; {}; sequential reference {:.1} steps/s; \
         {pairs} pairs within the cutoff after {NSTEPS} steps against {seq_pairs} sequentially; \
         {EXACT_STEPS}-step deviation {:.1e}",
        describe_rates(&rates),
        NSTEPS as f64 / seq_wall,
        short.map_or(f64::NAN, |p| checks::max_deviation(&p, &seq_short.system.positions))
    );
    let metrics = if args.trace {
        let traced_rates: Vec<f64> = traced.iter().map(|r| r.rate).collect();
        let kept = traced[0]
            .kept
            .as_ref()
            .expect("the first traced round is kept");
        per_layer(&system, kept, &rates, &traced_rates)
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
    system: &Arc<MolecularSystem>,
    out: &Outcome,
    untraced: &[f64],
    traced: &[f64],
) -> Metrics {
    let mut m = Metrics::default();
    let collectives = out.results.iter().map(|r| r.2).max().unwrap_or(0);
    put_cost_metrics(&mut m, out, NSTEPS, collectives as f64 / NSTEPS as f64);
    let stats: Vec<&CharmmStepStats> = out.results.iter().map(|r| &r.0).collect();
    let slowest_phase = |f: fn(&CharmmStepStats) -> f64| slowest_s(&stats, |s| f(s));
    let sum = |f: &dyn Fn(&CharmmStepStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>();
    let s0 = stats[0];

    m.put("chaos.inspector.builds", s0.schedule_builds as f64, "count");
    m.put(
        "chaos.inspector.modeled_s",
        slowest_phase(|s| {
            (s.phases.schedule_generation + s.phases.schedule_regeneration).total_us()
        }),
        "s",
    );
    let cache = |f: &dyn Fn(&CacheStats) -> u64| sum(&|s| f(&s.cache_stats));
    let (hits, patches, misses) = (
        cache(&|c| c.hits),
        cache(&|c| c.patches),
        cache(&|c| c.misses),
    );
    m.put("chaos.cache.hits", hits as f64, "count");
    m.put("chaos.cache.patches", patches as f64, "count");
    m.put("chaos.cache.misses", misses as f64, "count");
    m.put(
        "chaos.cache.hit_ratio",
        ratio(hits + patches, hits + patches + misses),
        "ratio",
    );
    m.put(
        "chaos.executor.modeled_s",
        slowest_phase(|s| s.phases.executor.total_us()),
        "s",
    );
    m.put("chaos.remap.count", 1.0, "count");
    m.put(
        "chaos.remap.modeled_s",
        slowest_phase(|s| s.phases.remap.total_us()),
        "s",
    );
    m.put(
        "charmm.app.interactions_per_step",
        sum(&|s| s.interactions as u64) as f64 / NSTEPS as f64,
        "count/step",
    );
    m.put("charmm.app.list_updates", s0.list_updates as f64, "count");
    put_unattributed(
        &mut m,
        stats
            .iter()
            .zip(&out.times)
            .map(|(s, t)| (t.total_us(), s.phases.total().total_us())),
    );
    put_trace_overhead(&mut m, untraced, traced);

    // Wall time per layer: replay one list-update period through the public entry points.
    let sys = Arc::clone(system);
    let replay = run(machine(false), move |rank| replay_period(rank, &sys));
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
        spans.median_us("all_gather"),
        "us",
    );
    m.put("mpsim.pool.steady_allocs", steady_allocs as f64, "count");
    m.put(
        "chaos.inspector.wall_ms",
        (spans.total_us("hash_indices") + spans.total_us("build_schedule")) / 1e3,
        "ms",
    );
    m.put(
        "chaos.executor.wall_us",
        spans.median_us("gather_multi") + spans.median_us("scatter_add_multi"),
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
        (spans.total_us("build_remap") + spans.total_us("remap_values")) / 1e3,
        "ms",
    );
    m.put(
        "charmm.app.list_wall_ms",
        spans.total_us("build_neighbor_list_for") / 1e3,
        "ms",
    );
    m.put(
        "charmm.app.force_wall_ms",
        spans.median_us("forces") / 1e3,
        "ms",
    );
    complete_per_layer(m)
}

const STAMP_NB: Stamp = Stamp::new(0);

/// Replay `run_parallel`'s set-up and one list-update period of its non-bonded path — block
/// distribution, RCB, remap, list build, inspector, then per step a fused gather, the
/// pair forces, a fused scatter-add and integration — timing each call.  The bonded loop
/// is left out: it is small and adds no layer.  Also times one bare `alltoallv` on the
/// gather plan per step (the engine without the executor's pack and place).  Collective
/// calls are timed after a barrier (see [`Spans::collective`]).  Returns the
/// spans, the atoms the initial remap moved off this rank, and the pack-pool
/// allocations of the steady steps (all but the first).
fn replay_period(rank: &mut Rank, system: &MolecularSystem) -> (Spans, usize, u64) {
    let mut sp = Spans::default();
    let (me, nprocs) = (rank.rank(), rank.nprocs());
    let (box_size, cutoff) = (system.box_size, system.cutoff);
    let block = BlockDist::new(system.natoms(), nprocs);
    let my_block: Vec<usize> = block.local_globals(me).collect();

    let list = sp.time("build_neighbor_list_for", || {
        build_neighbor_list_for(&my_block, &system.positions, box_size, cutoff)
    });
    let weights: Vec<f64> = (0..my_block.len())
        .map(|l| 1.0 + list.partners_of(l).len() as f64)
        .collect();
    let coords: Vec<[f64; 3]> = my_block.iter().map(|&g| system.positions[g]).collect();
    let parts = sp.collective(rank, "rcb_partition", |rank| {
        rcb_partition(rank, PartitionInput::new(&coords, &weights), nprocs)
    });
    let migrated = parts.iter().filter(|&&p| p != me).count();

    let mut ttable = TranslationTable::replicated_from_map(rank, &parts, &block)
        .expect("RCB returns valid owners");
    let plan = sp.collective(rank, "build_remap", |rank| {
        build_remap(rank, &my_block, &mut ttable)
    });
    let field = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { my_block.iter().map(|&g| f(g)).collect() };
    let mut remapped = Vec::new();
    for values in [
        field(&|g| system.positions[g][0]),
        field(&|g| system.positions[g][1]),
        field(&|g| system.positions[g][2]),
        field(&|g| system.velocities[g][0]),
        field(&|g| system.velocities[g][1]),
        field(&|g| system.velocities[g][2]),
        field(&|g| system.masses[g]),
    ] {
        remapped.push(sp.collective(rank, "remap_values", |rank| {
            remap_values(rank, &plan, &values, 0.0)
        }));
    }
    let [px, py, pz, mut vx, mut vy, mut vz, mass]: [Vec<f64>; 7] =
        remapped.try_into().expect("seven remapped arrays");
    let owned = ttable.owned_globals(rank);

    // List update: all-gather the positions, rebuild the list for the owned atoms.
    let packed: Vec<[f64; 4]> = owned
        .iter()
        .enumerate()
        .map(|(l, &g)| [g as f64, px[l], py[l], pz[l]])
        .collect();
    let gathered = sp.collective(rank, "all_gather", |rank| rank.all_gather(&packed));
    let mut global = system.positions.clone();
    for e in gathered.into_iter().flatten() {
        global[e[0] as usize] = [e[1], e[2], e[3]];
    }
    let list = sp.time("build_neighbor_list_for", || {
        build_neighbor_list_for(&owned, &global, box_size, cutoff)
    });

    // Inspector.
    let mut inspector = Inspector::new(&ttable, me);
    let refs: Vec<Vec<LocalRef>> = (0..list.natoms())
        .map(|l| {
            sp.time("hash_indices", || {
                inspector.hash_indices(rank, list.partners_of(l), STAMP_NB)
            })
        })
        .collect();
    let sched = sp.collective(rank, "build_schedule", |rank| {
        inspector.build_schedule(rank, StampQuery::single(STAMP_NB))
    });
    let ghost = inspector.ghost_len();
    let gather_plan = sched.gather_plan(me);
    let raw: Vec<Vec<f64>> = (0..nprocs)
        .map(|p| vec![0.0; gather_plan.send_count(p)])
        .collect();

    let n = owned.len();
    let [mut x, mut y, mut z] = [&px, &py, &pz].map(|v| DistArray::new(v.clone(), ghost));
    let mut f = [(); 3].map(|_| DistArray::<f64>::zeroed(n, ghost));
    let mut steady_allocs = 0;
    for step in 0..LIST_UPDATE {
        let pool = rank.pool_stats();
        for fk in &mut f {
            fk.owned_mut().fill(0.0);
            fk.clear_ghost();
        }
        sp.collective(rank, "gather_multi", |rank| {
            gather_multi(rank, &sched, [&mut x, &mut y, &mut z])
        });
        sp.time("forces", || {
            for (l, partners) in refs.iter().enumerate() {
                let ri = LocalRef(l);
                let a = [x[ri], y[ri], z[ri]];
                for &rj in partners {
                    let d = pair_force(displacement_pbc(a, [x[rj], y[rj], z[rj]], box_size));
                    for k in 0..3 {
                        f[k][ri] += d[k];
                        f[k][rj] -= d[k];
                    }
                }
            }
        });
        let [fx, fy, fz] = &mut f;
        sp.collective(rank, "scatter_add_multi", |rank| {
            scatter_add_multi(rank, &sched, [fx, fy, fz])
        });
        sp.collective(rank, "alltoallv", |rank| {
            alltoallv(rank, &gather_plan, &raw, |_, _| {})
        });
        for l in 0..n {
            let mut pos = [x.owned()[l], y.owned()[l], z.owned()[l]];
            let mut vel = [vx[l], vy[l], vz[l]];
            let force = [f[0].owned()[l], f[1].owned()[l], f[2].owned()[l]];
            integrate_atom(&mut pos, &mut vel, force, mass[l], box_size);
            x.owned_mut()[l] = pos[0];
            y.owned_mut()[l] = pos[1];
            z.owned_mut()[l] = pos[2];
            (vx[l], vy[l], vz[l]) = (vel[0], vel[1], vel[2]);
        }
        if step > 0 {
            let d = rank.pool_stats().since(&pool);
            steady_allocs += d.allocations + d.decode_allocations;
        }
    }
    (sp, migrated, steady_allocs)
}
