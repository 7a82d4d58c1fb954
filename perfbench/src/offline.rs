//! `paper_offline`: the paper pipeline in-process, no sockets. One
//! operation is one pass of the behavioural simulation, compiled-RBD
//! Monte-Carlo, Table 2/3 and eq. (10) regeneration, and the pruned
//! improvement-budget allocation on a seed-generated 64-class model.

use std::collections::BTreeMap;
use std::time::Instant;

use hmdiv_core::decomposition::decompose;
use hmdiv_core::design::BudgetAllocation;
use hmdiv_core::design::{allocate_improvement_budget, allocate_improvement_budget_pruned};
use hmdiv_core::{paper, DemandProfile, SequentialModel};
use hmdiv_prob::Probability;
use hmdiv_rbd::monte_carlo::monte_carlo_failure_par;
use hmdiv_rbd::{Block, RbdError};
use hmdiv_sim::engine::{SimConfig, Simulation, World};

use crate::gen::{ModelSpec, ProfileSpec, Rng};

/// Worker threads of the parallel layers (the benchmark's `nproc`).
pub const THREADS: usize = 2;
/// Cases screened by one simulation.
pub const SIM_CASES: u64 = 10_000;
/// Component-state samples drawn by one RBD Monte-Carlo estimate.
pub const MC_SAMPLES: u64 = 50_000;
/// Classes of the design model.
pub const DESIGN_CLASSES: usize = 64;
/// Improvement units allocated per pass.
pub const BUDGET: usize = 1024;
/// Machine-failure improvement factor of one unit.
const STEP_FACTOR: f64 = 2.0;
/// Allowed distance of the Monte-Carlo estimate from the exact failure
/// probability, in binomial standard deviations.
const MC_SIGMAS: f64 = 6.0;

/// The steps of one pass, in order; also the names of their spans.
pub const STEPS: [&str; 4] = [
    "sim.engine",
    "rbd.monte_carlo",
    "paper.tables",
    "core.design",
];

/// Seed-generated inputs and the once-computed references every pass is
/// checked against.
#[derive(Debug)]
pub struct Offline {
    world: World,
    sim_seed: u64,
    block: Block,
    component_failure: BTreeMap<String, f64>,
    rbd_exact: f64,
    design_model: SequentialModel,
    design_profile: DemandProfile,
    decomp_model: SequentialModel,
    decomp_profile: DemandProfile,
    reference_sim: (u64, u64),
    reference_mc: u64,
    reference_allocation: BudgetAllocation,
}

/// What a pass reports besides its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    pub candidates: usize,
    pub evaluated: usize,
}

/// A 2-of-3 voting layer of human/machine pairs in series with a
/// classifier and a duplexed arbiter; every component distinct, so the
/// exact structure function is a product of independent terms.
fn rbd_system() -> Block {
    let stage = |i: usize| {
        Block::parallel(vec![
            Block::component(format!("h{i}")),
            Block::component(format!("m{i}")),
        ])
    };
    Block::series(vec![
        Block::k_of_n(2, vec![stage(0), stage(1), stage(2)]),
        Block::component("classify"),
        Block::parallel(vec![
            Block::component("arbiter"),
            Block::component("backup"),
        ]),
    ])
}

impl Offline {
    /// Generates the inputs and computes the references (the unpruned
    /// allocation among them) outside any timed region.
    pub fn generate(seed: u64) -> Result<Offline, String> {
        let text = |e: &dyn std::fmt::Display| e.to_string();
        let world = hmdiv_sim::scenario::trial_world().map_err(|e| text(&e))?;
        let block = rbd_system();
        let mut rng = Rng::new(seed, 3);
        let component_failure: BTreeMap<String, f64> = block
            .component_names()
            .into_iter()
            .map(|name| (name.to_owned(), rng.grid(0.02, 0.4)))
            .collect();
        let design_spec = ModelSpec::generate(&mut rng, "d", DESIGN_CLASSES);
        let design_profile = ProfileSpec::generate(&mut rng, &design_spec).profile();
        let decomp_spec = ModelSpec::generate(&mut rng, "q", 8);
        let decomp_profile = ProfileSpec::generate(&mut rng, &decomp_spec).profile();
        let mut offline = Offline {
            world,
            sim_seed: seed,
            rbd_exact: 0.0,
            block,
            component_failure,
            design_model: design_spec.model(),
            design_profile,
            decomp_model: decomp_spec.model(),
            decomp_profile,
            reference_sim: (0, 0),
            reference_mc: 0,
            reference_allocation: BudgetAllocation {
                allocation: Vec::new(),
                before: 0.0,
                after: 0.0,
                model: design_spec.model(),
            },
        };
        offline.rbd_exact =
            hmdiv_rbd::reliability::system_failure(&offline.block, offline.failure_of())
                .map_err(|e| text(&e))?
                .value();
        // References: the simulation on one thread (results are
        // bit-identical at any thread count), the Monte-Carlo estimate,
        // and the unpruned allocation the pruned one must equal.
        let report = offline.simulate(1)?;
        offline.reference_sim = report;
        offline.reference_mc = offline.monte_carlo()?.to_bits();
        offline.reference_allocation = allocate_improvement_budget(
            &offline.design_model,
            &offline.design_profile,
            BUDGET,
            STEP_FACTOR,
        )
        .map_err(|e| text(&e))?;
        Ok(offline)
    }

    fn failure_of(&self) -> impl FnMut(&str) -> Result<Probability, RbdError> + '_ {
        |name| {
            self.component_failure
                .get(name)
                .map(|p| Probability::clamped(*p))
                .ok_or_else(|| RbdError::UnknownComponent {
                    name: name.to_owned(),
                })
        }
    }

    /// `(total cases, fn-rate bits)` of one simulation run.
    fn simulate(&self, threads: usize) -> Result<(u64, u64), String> {
        let report = Simulation::new(
            self.world.clone(),
            SimConfig {
                cases: SIM_CASES,
                seed: self.sim_seed,
                threads,
            },
        )
        .run()
        .map_err(|e| e.to_string())?;
        let fn_rate = report.fn_rate().map_or(f64::NAN, Probability::value);
        Ok((report.total_cases(), fn_rate.to_bits()))
    }

    fn monte_carlo(&self) -> Result<f64, String> {
        let estimate = monte_carlo_failure_par(
            &self.block,
            self.failure_of(),
            MC_SAMPLES,
            self.sim_seed,
            THREADS,
        )
        .map_err(|e| e.to_string())?;
        let p = estimate.failure.value();
        let sigma = (self.rbd_exact * (1.0 - self.rbd_exact) / MC_SAMPLES as f64).sqrt();
        if (p - self.rbd_exact).abs() > MC_SIGMAS * sigma {
            return Err(format!(
                "monte-carlo estimate {p} is more than {MC_SIGMAS} sigma from the exact {}",
                self.rbd_exact
            ));
        }
        Ok(p)
    }

    fn tables(&self) -> Result<(), String> {
        let text = |e: hmdiv_core::ModelError| e.to_string();
        let rows = hmdiv_bench::table2_rows()
            .map_err(text)?
            .into_iter()
            .chain(hmdiv_bench::table3_rows().map_err(text)?);
        for row in rows {
            if !row.matches_print() {
                return Err(format!(
                    "{} regenerates {} against the paper's {}",
                    row.label, row.regenerated, row.paper
                ));
            }
        }
        let model = paper::example_model().map_err(text)?;
        for (m, profile) in [
            (&model, paper::trial_profile().map_err(text)?),
            (&model, paper::field_profile().map_err(text)?),
            (&self.decomp_model, self.decomp_profile.clone()),
        ] {
            if !decompose(m, &profile).map_err(text)?.reconciles(1e-12) {
                return Err("eq. (10) does not reconcile with eq. (8)".to_owned());
            }
        }
        Ok(())
    }

    fn design(&self) -> Result<PassStats, String> {
        let (allocation, stats) = allocate_improvement_budget_pruned(
            &self.design_model,
            &self.design_profile,
            BUDGET,
            STEP_FACTOR,
            THREADS,
        )
        .map_err(|e| e.to_string())?;
        let want = &self.reference_allocation;
        if allocation.allocation != want.allocation
            || allocation.before.to_bits() != want.before.to_bits()
            || allocation.after.to_bits() != want.after.to_bits()
        {
            return Err("pruned allocation differs from the unpruned one".to_owned());
        }
        Ok(PassStats {
            candidates: stats.candidates,
            evaluated: stats.evaluated,
        })
    }

    /// One pass with every output checked. Returns the allocation's
    /// pruning counts and the instants that bound each step (see
    /// [`STEPS`]): step `i` runs from `marks[i]` to `marks[i + 1]`.
    pub fn pass(&self) -> Result<(PassStats, [Instant; 5]), String> {
        let mut marks = [Instant::now(); 5];
        if self.simulate(THREADS)? != self.reference_sim {
            return Err("simulation differs from its one-thread reference".to_owned());
        }
        marks[1] = Instant::now();
        if self.monte_carlo()?.to_bits() != self.reference_mc {
            return Err("monte-carlo estimate is not deterministic".to_owned());
        }
        marks[2] = Instant::now();
        self.tables()?;
        marks[3] = Instant::now();
        let stats = self.design()?;
        marks[4] = Instant::now();
        Ok((stats, marks))
    }
}
