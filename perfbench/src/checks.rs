//! Output checks.  Each compares a workload's output with a computation that does not
//! share its code path (a sequential reference, a plain loop) or with a property the
//! output must have.  They are pure functions so the tests below can hand them
//! corrupted outputs.

/// Assemble per-rank `(global atom, position)` lists into one array, requiring every atom
/// to be owned by exactly one rank.
pub fn assemble_owned(
    per_rank: &[Vec<(usize, [f64; 3])>],
    natoms: usize,
) -> Result<Vec<[f64; 3]>, String> {
    let mut positions: Vec<Option<[f64; 3]>> = vec![None; natoms];
    for (r, owned) in per_rank.iter().enumerate() {
        for &(g, p) in owned {
            let slot = positions
                .get_mut(g)
                .ok_or_else(|| format!("rank {r} owns atom {g} of {natoms}"))?;
            if slot.replace(p).is_some() {
                return Err(format!("atom {g} is owned by two ranks"));
            }
        }
    }
    positions
        .into_iter()
        .enumerate()
        .map(|(g, p)| p.ok_or_else(|| format!("atom {g} is owned by no rank")))
        .collect()
}

/// Every coordinate finite and inside the periodic box `[0, box_size]`.
pub fn inside_box(positions: &[[f64; 3]], box_size: f64) -> Result<(), String> {
    for (g, p) in positions.iter().enumerate() {
        if p.iter()
            .any(|&x| !x.is_finite() || !(0.0..=box_size).contains(&x))
        {
            return Err(format!(
                "atom {g} at {p:?} is outside the box of side {box_size}"
            ));
        }
    }
    Ok(())
}

/// Largest coordinate difference between two position arrays.
pub fn max_deviation(a: &[[f64; 3]], b: &[[f64; 3]]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| (0..3).map(move |k| (x[k] - y[k]).abs()))
        .fold(
            0.0,
            |m, d| if d.is_nan() { f64::INFINITY } else { m.max(d) },
        )
}

/// Parallel positions within `tol` of the sequential reference.
pub fn matches_sequential(par: &[[f64; 3]], seq: &[[f64; 3]], tol: f64) -> Result<(), String> {
    if par.len() != seq.len() {
        return Err(format!(
            "{} atoms against {} in the reference",
            par.len(),
            seq.len()
        ));
    }
    let dev = max_deviation(par, seq);
    if dev <= tol {
        Ok(())
    } else {
        Err(format!("max |parallel - sequential| = {dev:e} > {tol:e}"))
    }
}

/// Pairs within the cutoff close to the reference count: long runs diverge chaotically
/// from the sequential trajectory, but the density structure must not.
pub fn pair_count_close(pairs: usize, reference: usize, rel_tol: f64) -> Result<(), String> {
    let rel = (pairs as f64 - reference as f64).abs() / reference.max(1) as f64;
    if rel <= rel_tol {
        Ok(())
    } else {
        Err(format!(
            "{pairs} pairs within the cutoff against {reference} sequentially ({:.2}% > {:.2}%)",
            rel * 100.0,
            rel_tol * 100.0
        ))
    }
}

/// A per-cell molecule-id fingerprint, sorted by cell.
pub type Fingerprint = Vec<(usize, Vec<u64>)>;

/// Merge the per-rank DSMC fingerprints and compare with the sequential one; the
/// molecule count must also equal the number seeded.
pub fn dsmc_matches(
    per_rank: &[Fingerprint],
    sequential: &Fingerprint,
    seeded: usize,
) -> Result<(), String> {
    let mut merged: Fingerprint = per_rank.iter().flatten().cloned().collect();
    merged.sort_unstable();
    let held: usize = merged.iter().map(|(_, ids)| ids.len()).sum();
    if held != seeded {
        return Err(format!("{held} molecules held, {seeded} seeded"));
    }
    if merged.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err("a cell is held by two ranks".to_string());
    }
    let mut reference = sequential.clone();
    reference.sort_unstable();
    match merged.iter().zip(&reference).position(|(a, b)| a != b) {
        None if merged.len() == reference.len() => Ok(()),
        None => Err(format!(
            "{} non-empty cells against {} sequentially",
            merged.len(),
            reference.len()
        )),
        Some(k) => Err(format!(
            "cell {} differs from the sequential run (ids {:?}… against {:?}…)",
            merged[k].0,
            &merged[k].1[..merged[k].1.len().min(4)],
            &reference[k].1[..reference[k].1.len().min(4)]
        )),
    }
}

/// One step of the compiled CHARMM template as a plain loop over the 1-based CSR list:
/// for every pair `(i, j)`, `d(j) += x(j) - x(i)` and `d(i) += x(i) - x(j)`.
pub fn plain_pair_sweep(x: &[f64], inblo: &[i64], jnb: &[i64]) -> Vec<f64> {
    let mut d = vec![0.0; x.len()];
    for i in 0..x.len() {
        for &j in &jnb[(inblo[i] - 1) as usize..(inblo[i + 1] - 1) as usize] {
            let j = (j - 1) as usize;
            d[j] += x[j] - x[i];
            d[i] += x[i] - x[j];
        }
    }
    d
}

/// `got` equals `per_step × steps` within `rel_tol` relative (against at least 1 in
/// magnitude, so entries that cancel to near zero are held to an absolute bound).
pub fn scaled_sweep_matches(
    name: &str,
    got: &[f64],
    per_step: &[f64],
    steps: usize,
    rel_tol: f64,
) -> Result<(), String> {
    if got.len() != per_step.len() {
        return Err(format!(
            "{name} has {} entries, expected {}",
            got.len(),
            per_step.len()
        ));
    }
    for (k, (&g, &p)) in got.iter().zip(per_step).enumerate() {
        let want = p * steps as f64;
        let err = (g - want).abs();
        if err.is_nan() || err > rel_tol * want.abs().max(1.0) {
            return Err(format!("{name}({}) = {g}, plain loop gives {want}", k + 1));
        }
    }
    Ok(())
}

/// Ordered pairs `(r, q)`, `r ≠ q`, where the iterations rank `r` executes (owner of `i`)
/// reference an element rank `q` owns.  One fused gather and one fused scatter-add per
/// step each send one message per such pair.
pub fn referencing_pairs(inblo: &[i64], jnb: &[i64], owner: impl Fn(usize) -> usize) -> usize {
    let mut pairs = std::collections::BTreeSet::new();
    for i in 0..inblo.len() - 1 {
        for &j in &jnb[(inblo[i] - 1) as usize..(inblo[i + 1] - 1) as usize] {
            let (r, q) = (owner(i), owner((j - 1) as usize));
            if r != q {
                pairs.insert((r, q));
            }
        }
    }
    pairs.len()
}

/// Executor messages equal one fused gather and one fused scatter-add per referencing
/// pair per step.
pub fn executor_messages(msgs: u64, pairs: usize, steps: usize) -> Result<(), String> {
    let want = 2 * pairs as u64 * steps as u64;
    if msgs == want {
        Ok(())
    } else {
        Err(format!(
            "{msgs} executor messages, expected {want} (2 × {pairs} pairs × {steps} steps)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(n: usize) -> Vec<[f64; 3]> {
        (0..n).map(|i| [i as f64, 1.0, 2.0]).collect()
    }

    #[test]
    fn ownership_rejects_duplicate_and_missing_atoms() {
        let good = vec![vec![(0, [0.0; 3]), (2, [2.0; 3])], vec![(1, [1.0; 3])]];
        assert_eq!(assemble_owned(&good, 3).unwrap()[2], [2.0; 3]);
        let twice = vec![vec![(0, [0.0; 3]), (1, [1.0; 3])], vec![(1, [1.0; 3])]];
        assert!(assemble_owned(&twice, 2).is_err());
        let missing = vec![vec![(0, [0.0; 3])], vec![]];
        assert!(assemble_owned(&missing, 2).is_err());
        let outside = vec![vec![(5, [0.0; 3])]];
        assert!(assemble_owned(&outside, 2).is_err());
    }

    #[test]
    fn box_check_rejects_escaped_and_non_finite_atoms() {
        let mut p = square(4);
        assert!(inside_box(&p, 10.0).is_ok());
        p[1][2] = 10.5;
        assert!(inside_box(&p, 10.0).is_err());
        p[1][2] = f64::NAN;
        assert!(inside_box(&p, 10.0).is_err());
        p[1][2] = -0.1;
        assert!(inside_box(&p, 10.0).is_err());
    }

    #[test]
    fn sequential_match_rejects_a_perturbed_atom() {
        let seq = square(5);
        let mut par = seq.clone();
        par[3][0] += 1e-9;
        assert!(matches_sequential(&par, &seq, 1e-6).is_ok());
        par[3][0] += 1e-5;
        assert!(matches_sequential(&par, &seq, 1e-6).is_err());
        par[3][0] = f64::NAN;
        assert!(matches_sequential(&par, &seq, 1e-6).is_err());
        assert!(matches_sequential(&par[..4], &seq, 1e-6).is_err());
    }

    #[test]
    fn pair_count_rejects_a_collapsed_or_expanded_system() {
        assert!(pair_count_close(10_100, 10_000, 0.03).is_ok());
        assert!(pair_count_close(14_000, 10_000, 0.03).is_err());
        assert!(pair_count_close(6_000, 10_000, 0.03).is_err());
    }

    #[test]
    fn dsmc_check_rejects_lost_moved_and_duplicated_molecules() {
        let seq: Fingerprint = vec![(0, vec![1, 2]), (3, vec![0]), (7, vec![3, 4])];
        let good = vec![vec![(0, vec![1, 2]), (7, vec![3, 4])], vec![(3, vec![0])]];
        assert!(dsmc_matches(&good, &seq, 5).is_ok());
        let lost = vec![vec![(0, vec![1, 2]), (7, vec![3])], vec![(3, vec![0])]];
        assert!(dsmc_matches(&lost, &seq, 5).is_err());
        let moved = vec![vec![(0, vec![1]), (7, vec![2, 3, 4])], vec![(3, vec![0])]];
        assert!(dsmc_matches(&moved, &seq, 5).is_err());
        let twice = vec![vec![(0, vec![1, 2]), (7, vec![3, 4])], vec![(0, vec![0])]];
        assert!(dsmc_matches(&twice, &seq, 5).is_err());
    }

    #[test]
    fn sweep_check_rejects_a_wrong_entry_and_a_wrong_step_count() {
        // Three atoms, pairs (1,2) and (1,3) in 1-based CSR form.
        let x = [0.5, 1.5, 4.0];
        let inblo = [1, 3, 3, 3];
        let jnb = [2, 3];
        let per_step = plain_pair_sweep(&x, &inblo, &jnb);
        assert_eq!(per_step, vec![-1.0 - 3.5, 1.0, 3.5]);
        let got: Vec<f64> = per_step.iter().map(|v| v * 20.0).collect();
        assert!(scaled_sweep_matches("DX", &got, &per_step, 20, 1e-9).is_ok());
        assert!(scaled_sweep_matches("DX", &got, &per_step, 19, 1e-9).is_err());
        let mut bad = got.clone();
        bad[1] *= 1.0 + 1e-6;
        assert!(scaled_sweep_matches("DX", &bad, &per_step, 20, 1e-9).is_err());
        bad[1] = f64::NAN;
        assert!(scaled_sweep_matches("DX", &bad, &per_step, 20, 1e-9).is_err());
    }

    #[test]
    fn message_check_rejects_extra_or_missing_messages() {
        let inblo = [1, 3, 3, 3];
        let jnb = [2, 3];
        // Atom 0 on rank 0, atoms 1 and 2 on rank 1: only rank 0 references rank 1.
        let pairs = referencing_pairs(&inblo, &jnb, |g| usize::from(g > 0));
        assert_eq!(pairs, 1);
        assert!(executor_messages(40, pairs, 20).is_ok());
        assert!(executor_messages(120, pairs, 20).is_err());
        assert!(executor_messages(39, pairs, 20).is_err());
    }

    /// The checks pass on real outputs of the three programs (small inputs) and reject
    /// the same outputs corrupted.
    mod real_outputs {
        use super::super::*;
        use chaos::prelude::*;
        use charmm::parallel::{run_parallel, ParallelConfig};
        use charmm::{MolecularSystem, SequentialCharmm, SystemConfig};
        use dsmc::grid::CellGrid;
        use dsmc::particles::{seed_particles, FlowConfig};
        use mpsim::{run, MachineConfig};

        #[test]
        fn charmm() {
            let system = MolecularSystem::build(&SystemConfig::small(3));
            let n = system.natoms();
            let sys = system.clone();
            let out = run(MachineConfig::new(2), move |rank| {
                run_parallel(rank, &sys, &ParallelConfig::paper_default(10)).owned_positions
            });
            let par = assemble_owned(&out.results, n).unwrap();
            let mut seq = SequentialCharmm::new(system.clone(), 25);
            seq.run(10);
            let seq = seq.system.positions;
            matches_sequential(&par, &seq, 1e-6).unwrap();
            inside_box(&par, system.box_size).unwrap();

            let mut moved = par.clone();
            moved[7][1] += 1e-3;
            assert!(matches_sequential(&moved, &seq, 1e-6).is_err());
            moved[7][1] = system.box_size + 1.0;
            assert!(inside_box(&moved, system.box_size).is_err());
            let mut twice = out.results.clone();
            let stolen = twice[0][0];
            twice[1].push(stolen);
            assert!(assemble_owned(&twice, n).is_err());
        }

        #[test]
        fn dsmc() {
            let grid = CellGrid::new_3d(4, 4, 4);
            let particles = seed_particles(&grid, 600, &FlowConfig::directional(5));
            let config = crate::dsmc_adapt::config(12, 5);
            let dt = config.dt;
            let input = particles.clone();
            let out = run(MachineConfig::new(2), move |rank| {
                dsmc::parallel::run_parallel(rank, &grid, &input, &config).fingerprint
            });
            let mut seq = dsmc::sequential::SequentialDsmc::new(grid, particles, dt, 5);
            seq.run(12);
            let reference = seq.fingerprint();
            dsmc_matches(&out.results, &reference, 600).unwrap();

            let mut moved = out.results.clone();
            let id = moved[0][0].1.pop().unwrap();
            moved[1][0].1.push(id);
            assert!(dsmc_matches(&moved, &reference, 600).is_err());
            let mut lost = out.results.clone();
            lost[1][0].1.pop();
            assert!(dsmc_matches(&lost, &reference, 600).is_err());
        }

        #[test]
        fn fortrand() {
            let system = MolecularSystem::build(&SystemConfig::small(4));
            let list = charmm::nonbonded::build_neighbor_list(
                &system.positions,
                system.box_size,
                system.cutoff,
            );
            let inblo: Vec<i64> = list.offsets.iter().map(|&o| o as i64 + 1).collect();
            let jnb: Vec<i64> = list.partners.iter().map(|&p| p as i64 + 1).collect();
            let x: Vec<f64> = system.positions.iter().map(|p| p[0]).collect();
            let source = chaos_bench::compiler::charmm_loop_source(x.len(), jnb.len(), 3);
            let (program, _) = fortrand::compile_optimized(&source).unwrap();
            let (xs, ib, jb) = (x.clone(), inblo.clone(), jnb.clone());
            let out = run(MachineConfig::new(2), move |rank| {
                let mut exec = fortrand::Executor::new(rank, &program);
                exec.set_integer_array("INBLO", &ib);
                exec.set_integer_array("JNB", &jb);
                for name in ["X", "Y", "Z"] {
                    exec.set_real_array(name, &xs);
                }
                for name in ["DX", "DY", "DZ"] {
                    exec.set_real_array(name, &vec![0.0; xs.len()]);
                }
                exec.run_all(rank);
                (
                    exec.get_real_array(rank, "DX"),
                    exec.exchange_stats().msgs_sent,
                )
            });
            let per_step = plain_pair_sweep(&x, &inblo, &jnb);
            let dx = &out.results[0].0;
            scaled_sweep_matches("DX", dx, &per_step, 3, 1e-9).unwrap();
            let block = BlockDist::new(x.len(), 2);
            let pairs = referencing_pairs(&inblo, &jnb, |g| block.owner(g));
            let msgs: u64 = out.results.iter().map(|r| r.1).sum();
            executor_messages(msgs, pairs, 3).unwrap();

            let mut bad = dx.clone();
            bad[5] += 1e-6 * bad[5].abs().max(1.0);
            assert!(scaled_sweep_matches("DX", &bad, &per_step, 3, 1e-9).is_err());
            assert!(executor_messages(msgs + 1, pairs, 3).is_err());
        }
    }
}
