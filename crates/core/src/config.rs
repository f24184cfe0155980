//! The nine redundancy configurations of §3 and their end-to-end
//! evaluation: parameters → rebuild rates → Markov models → events per
//! PB-year.

use nsr_markov::BatchSolver;

use crate::internal_raid::InternalRaidSystem;
use crate::metrics::Reliability;
use crate::no_raid::NoRaidSystem;
use crate::params::Params;
use crate::raid::{ArrayModel, InternalRaid};
use crate::rebuild::{RebuildModel, RebuildRate};
use crate::units::Hours;
use crate::{Error, Result};

/// One of the paper's redundancy configurations: an internal RAID level
/// crossed with a cross-node erasure-code fault tolerance.
///
/// §3 studies the 3 × 3 grid with node fault tolerance 1–3
/// ([`Configuration::all_nine`]); higher tolerances are accepted as an
/// extension (§9 notes the closed forms have "broad utility").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Configuration {
    internal: InternalRaid,
    node_ft: u32,
}

impl Configuration {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Infeasible`] if `node_ft == 0` (some cross-node
    /// redundancy is required — a zero-tolerance system loses data on the
    /// first node failure and has no meaningful MTTDL model in the paper).
    pub fn new(internal: InternalRaid, node_ft: u32) -> Result<Configuration> {
        if node_ft == 0 {
            return Err(Error::infeasible("node fault tolerance must be at least 1"));
        }
        Ok(Configuration { internal, node_ft })
    }

    /// The internal RAID level.
    pub fn internal(&self) -> InternalRaid {
        self.internal
    }

    /// The cross-node fault tolerance `t`.
    pub fn node_fault_tolerance(&self) -> u32 {
        self.node_ft
    }

    /// The nine §3 configurations, grouped by fault tolerance then RAID
    /// level (the Figure 13 ordering).
    pub fn all_nine() -> Vec<Configuration> {
        let mut out = Vec::with_capacity(9);
        for ft in 1..=3 {
            for internal in InternalRaid::all() {
                out.push(Configuration {
                    internal,
                    node_ft: ft,
                });
            }
        }
        out
    }

    /// The three configurations the paper carries into the §7 sensitivity
    /// analyses: [FT2, no IR], [FT2, IR5], [FT3, no IR].
    pub fn sensitivity_set() -> [Configuration; 3] {
        [
            Configuration {
                internal: InternalRaid::None,
                node_ft: 2,
            },
            Configuration {
                internal: InternalRaid::Raid5,
                node_ft: 2,
            },
            Configuration {
                internal: InternalRaid::None,
                node_ft: 3,
            },
        ]
    }

    /// Evaluates this configuration under `params`, producing both the
    /// paper's closed-form reliability and the exact-CTMC reliability,
    /// along with the rebuild rates used.
    ///
    /// One-shot convenience over [`CachedEvaluator`]; sweep workloads
    /// that evaluate the same configuration at many parameter points
    /// should hold a [`CachedEvaluator`] instead, which compiles the
    /// chain's elimination program once and only loads new rates per
    /// point. Both paths produce identical values by construction.
    ///
    /// # Errors
    ///
    /// * Parameter-validation errors from [`Params::validate`].
    /// * [`Error::Infeasible`] if the fault tolerance does not fit the
    ///   redundancy set (`t >= R`), the node set is too small, or the node
    ///   has too few drives for its internal RAID level.
    pub fn evaluate(&self, params: &Params) -> Result<Evaluation> {
        CachedEvaluator::new(*self).evaluate(params)
    }

    /// Builds the exact CTMC underlying this configuration — the chain the
    /// `exact` numbers of [`Configuration::evaluate`] come from — and the
    /// id of its fully-operational root state. Useful for transient
    /// (mission-reliability) queries and for simulation estimators that
    /// want the chain itself.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Configuration::evaluate`].
    pub fn exact_chain(&self, params: &Params) -> Result<(nsr_markov::Ctmc, nsr_markov::StateId)> {
        let model = Model::build(*self, params)?;
        let ctmc = model.skeleton()?.with_rates(&model.rates())?;
        let root = ctmc
            .state_by_label(&model.root_label())
            .expect("root state exists");
        Ok((ctmc, root))
    }
}

/// The paper model of one configuration at one parameter point: the
/// single Configuration → model construction behind
/// [`CachedEvaluator::evaluate`], [`Configuration::exact_chain`] and
/// the planner. It supplies the closed form, the chain skeleton, the
/// skeleton's rates and the root state's label.
pub(crate) struct Model {
    system: System,
    /// The node rebuild rate `μ_N` used.
    node_rebuild: RebuildRate,
    /// The drive-level repair rate used: distributed drive rebuild for
    /// no-internal-RAID, re-stripe for internal RAID.
    drive_repair: RebuildRate,
}

/// The two paper models behind one face.
enum System {
    NoRaid(NoRaidSystem),
    Ir(InternalRaidSystem),
}

impl Model {
    /// Builds the model for `config` under `params`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Configuration::evaluate`].
    pub(crate) fn build(config: Configuration, params: &Params) -> Result<Model> {
        params.validate()?;
        let t = config.node_ft;
        let rebuild = RebuildModel::new(*params)?;
        let lambda_n = params.node.failure_rate();
        let lambda_d = params.drive.failure_rate();
        let c_her = params.drive.c_her();
        let (n, r, d) = (
            params.system.node_count,
            params.system.redundancy_set_size,
            params.node.drives_per_node,
        );
        let node_rebuild = rebuild.node_rebuild(t)?;
        let (system, drive_repair) = match config.internal {
            InternalRaid::None => {
                let drive_rebuild = rebuild.drive_rebuild(t)?;
                let sys = NoRaidSystem::new(
                    t,
                    n,
                    r,
                    d,
                    lambda_n,
                    lambda_d,
                    node_rebuild.rate,
                    drive_rebuild.rate,
                    c_her,
                )?;
                (System::NoRaid(sys), drive_rebuild)
            }
            raid => {
                let restripe = rebuild.restripe()?;
                let array = ArrayModel::new(raid, d, lambda_d, restripe.rate, c_her)?;
                let sys = InternalRaidSystem::new(
                    n,
                    r,
                    t,
                    lambda_n,
                    array.rates_paper(),
                    node_rebuild.rate,
                )?;
                (System::Ir(sys), restripe)
            }
        };
        Ok(Model {
            system,
            node_rebuild,
            drive_repair,
        })
    }

    /// The paper's closed-form MTTDL.
    pub(crate) fn closed_form_mttdl(&self) -> Hours {
        match &self.system {
            System::NoRaid(sys) => sys.mttdl_paper(),
            System::Ir(sys) => sys.mttdl_paper(),
        }
    }

    /// The exact chain's topology with placeholder rates.
    pub(crate) fn skeleton(&self) -> Result<nsr_markov::Ctmc> {
        match &self.system {
            System::NoRaid(sys) => sys.recursive().chain_skeleton(),
            System::Ir(sys) => sys.chain_skeleton(),
        }
    }

    /// The exact chain's rates, one per skeleton transition.
    pub(crate) fn rates(&self) -> Vec<f64> {
        match &self.system {
            System::NoRaid(sys) => sys.recursive().transition_rates(),
            System::Ir(sys) => sys.transition_rates(),
        }
    }

    /// Label of the fully-operational root state.
    pub(crate) fn root_label(&self) -> String {
        match &self.system {
            System::NoRaid(sys) => "0".repeat(sys.fault_tolerance() as usize),
            System::Ir(_) => "failed:0".to_string(),
        }
    }

    /// Compiles the exact chain's elimination program, rooted at the
    /// fully-operational state.
    pub(crate) fn compile(&self) -> Result<BatchSolver> {
        Ok(BatchSolver::from_label(
            &self.skeleton()?,
            &self.root_label(),
        )?)
    }
}

/// A reusable evaluator for sweep workloads: the configuration's chain
/// is compiled into a [`BatchSolver`] elimination program on the first
/// evaluation and cached; every later evaluation only computes a fresh
/// rate vector and runs the program on it. The program is bit-identical
/// to solving the chain rebuilt from scratch, so the cached path equals
/// the one-shot path by construction.
///
/// The cache key is the configuration alone: for every model in this
/// crate the topology depends only on the fault tolerance, never on the
/// swept parameters (node counts, rates and error probabilities all
/// enter as rates).
#[derive(Debug, Clone)]
pub struct CachedEvaluator {
    config: Configuration,
    solver: Option<BatchSolver>,
}

impl CachedEvaluator {
    /// Creates an evaluator for one configuration with an empty program
    /// cache.
    pub fn new(config: Configuration) -> CachedEvaluator {
        CachedEvaluator {
            config,
            solver: None,
        }
    }

    /// The configuration this evaluator serves.
    pub fn config(&self) -> Configuration {
        self.config
    }

    /// Evaluates the configuration at one parameter point (see
    /// [`Configuration::evaluate`] for the semantics and error
    /// conditions).
    ///
    /// # Errors
    ///
    /// Same as [`Configuration::evaluate`].
    pub fn evaluate(&mut self, params: &Params) -> Result<Evaluation> {
        params.validate()?;
        crate::obs::EVALS.inc();
        let mut span = nsr_obs::trace::Span::enter("core.evaluate");
        span.field("config", || nsr_obs::Json::Str(self.config.to_string()));
        let out = self.evaluate_inner(params);
        if let Ok(e) = &out {
            span.field("closed_form_mttdl_h", || {
                nsr_obs::Json::Num(e.closed_form.mttdl_hours)
            });
            span.field("exact_mttdl_h", || nsr_obs::Json::Num(e.exact.mttdl_hours));
        }
        out
    }

    /// Body of [`CachedEvaluator::evaluate`], split out so the tracing
    /// span can observe the result.
    fn evaluate_inner(&mut self, params: &Params) -> Result<Evaluation> {
        let model = Model::build(self.config, params)?;
        let solver = match &mut self.solver {
            Some(solver) => {
                crate::obs::SKELETON_REUSES.inc();
                solver
            }
            None => {
                crate::obs::SKELETON_BUILDS.inc();
                self.solver.insert(model.compile()?)
            }
        };
        let exact = {
            // The span name every exact absorbing-chain solve carries,
            // whichever entry point runs it.
            let mut span = nsr_obs::trace::Span::enter("markov.absorbing.solve");
            span.field("transient", || nsr_obs::Json::Num(solver.dim() as f64));
            span.field("fill", || nsr_obs::Json::Num(solver.fill() as f64));
            solver.solve_mtta(&model.rates())?
        };
        let capacity = params.logical_capacity(self.config.node_ft);
        Ok(Evaluation {
            config: self.config,
            closed_form: Reliability::from_mttdl(model.closed_form_mttdl(), capacity)?,
            exact: Reliability::from_mttdl(Hours(exact), capacity)?,
            node_rebuild: model.node_rebuild,
            drive_repair: model.drive_repair,
        })
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FT {}, {}", self.node_ft, self.internal)
    }
}

/// The result of evaluating one configuration at one parameter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The configuration evaluated.
    pub config: Configuration,
    /// Reliability from the paper's closed-form approximation.
    pub closed_form: Reliability,
    /// Reliability from the exact CTMC solution.
    pub exact: Reliability,
    /// The node rebuild rate `μ_N` (and its bottleneck) that was used.
    pub node_rebuild: RebuildRate,
    /// The drive-level repair rate used: distributed drive rebuild `μ_d`
    /// for no-internal-RAID, re-stripe rate for internal RAID.
    pub drive_repair: RebuildRate,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_enumerates_the_grid() {
        let all = Configuration::all_nine();
        assert_eq!(all.len(), 9);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 9);
        for c in &all {
            assert!(c.node_fault_tolerance() >= 1 && c.node_fault_tolerance() <= 3);
        }
    }

    #[test]
    fn display_matches_paper_naming() {
        let c = Configuration::new(InternalRaid::Raid5, 2).unwrap();
        assert_eq!(format!("{c}"), "FT 2, Internal RAID 5");
        let c = Configuration::new(InternalRaid::None, 3).unwrap();
        assert_eq!(format!("{c}"), "FT 3, No Internal RAID");
    }

    #[test]
    fn zero_ft_rejected() {
        assert!(Configuration::new(InternalRaid::None, 0).is_err());
    }

    #[test]
    fn evaluate_baseline_all_nine() {
        let params = Params::baseline();
        for config in Configuration::all_nine() {
            let eval = config.evaluate(&params).unwrap();
            assert!(eval.closed_form.mttdl_hours > 0.0, "{config}");
            assert!(eval.exact.mttdl_hours > 0.0, "{config}");
            // Closed form and exact agree to leading order. FT 1 is outside
            // the sector-error linearization's validity at baseline (h > 1,
            // saturated in the exact chains), hence the looser band there.
            let rel = (eval.closed_form.mttdl_hours - eval.exact.mttdl_hours).abs()
                / eval.exact.mttdl_hours;
            let tol = if config.node_fault_tolerance() == 1 {
                0.35
            } else {
                0.15
            };
            assert!(rel < tol, "{config}: rel diff {rel}");
        }
    }

    #[test]
    fn exact_and_closed_form_rank_configurations_identically() {
        let params = Params::baseline();
        let mut evals: Vec<Evaluation> = Configuration::all_nine()
            .into_iter()
            .map(|c| c.evaluate(&params).unwrap())
            .collect();
        let mut by_closed = evals.clone();
        evals.sort_by(|a, b| a.exact.mttdl_hours.total_cmp(&b.exact.mttdl_hours));
        by_closed.sort_by(|a, b| {
            a.closed_form
                .mttdl_hours
                .total_cmp(&b.closed_form.mttdl_hours)
        });
        let order_exact: Vec<_> = evals.iter().map(|e| e.config).collect();
        let order_closed: Vec<_> = by_closed.iter().map(|e| e.config).collect();
        assert_eq!(order_exact, order_closed);
    }

    #[test]
    fn sensitivity_set_matches_section_6_selection() {
        let set = Configuration::sensitivity_set();
        assert_eq!(format!("{}", set[0]), "FT 2, No Internal RAID");
        assert_eq!(format!("{}", set[1]), "FT 2, Internal RAID 5");
        assert_eq!(format!("{}", set[2]), "FT 3, No Internal RAID");
    }

    #[test]
    fn infeasible_combinations_rejected_at_evaluate() {
        let mut params = Params::baseline();
        params.system.redundancy_set_size = 3;
        // t = 3 with R = 3 cannot work.
        let c = Configuration::new(InternalRaid::None, 3).unwrap();
        assert!(c.evaluate(&params).is_err());

        // RAID 6 with 3 drives per node cannot re-stripe.
        let mut params = Params::baseline();
        params.node.drives_per_node = 3;
        let c = Configuration::new(InternalRaid::Raid6, 2).unwrap();
        assert!(c.evaluate(&params).is_err());
    }

    #[test]
    fn higher_ft_always_helps() {
        let params = Params::baseline();
        for internal in InternalRaid::all() {
            let m1 = Configuration::new(internal, 1)
                .unwrap()
                .evaluate(&params)
                .unwrap()
                .closed_form
                .mttdl_hours;
            let m2 = Configuration::new(internal, 2)
                .unwrap()
                .evaluate(&params)
                .unwrap()
                .closed_form
                .mttdl_hours;
            let m3 = Configuration::new(internal, 3)
                .unwrap()
                .evaluate(&params)
                .unwrap()
                .closed_form
                .mttdl_hours;
            assert!(m1 < m2 && m2 < m3, "{internal}: {m1:.2e} {m2:.2e} {m3:.2e}");
        }
    }

    #[test]
    fn ft4_extension_works() {
        // Beyond the paper's grid: FT 4 should evaluate and beat FT 3.
        let params = Params::baseline();
        let m3 = Configuration::new(InternalRaid::None, 3)
            .unwrap()
            .evaluate(&params)
            .unwrap()
            .closed_form
            .mttdl_hours;
        let m4 = Configuration::new(InternalRaid::None, 4)
            .unwrap()
            .evaluate(&params)
            .unwrap()
            .closed_form
            .mttdl_hours;
        assert!(m4 > m3);
    }
}
