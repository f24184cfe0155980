//! The exact-MTTDL contract: a sweep's compiled elimination program,
//! compiled once per configuration and re-rated per point, returns the
//! same bits as a fresh `AbsorbingAnalysis` of the chain built from
//! scratch at that point.

use nsr_core::config::{CachedEvaluator, Configuration};
use nsr_core::params::Params;
use nsr_core::units::Hours;
use nsr_markov::AbsorbingAnalysis;

#[test]
fn cached_evaluator_matches_absorbing_analysis_on_108_points() {
    let drive_mttfs = [100_000.0, 300_000.0, 750_000.0, 2_000_000.0];
    let node_mttfs = [200_000.0, 400_000.0, 1_500_000.0];
    let mut points = 0;
    for config in Configuration::all_nine() {
        let mut cached = CachedEvaluator::new(config);
        for drive in drive_mttfs {
            for node in node_mttfs {
                let mut params = Params::baseline();
                params.drive.mttf = Hours(drive);
                params.node.mttf = Hours(node);
                let got = cached.evaluate(&params).unwrap().exact.mttdl_hours;
                let (ctmc, root) = config.exact_chain(&params).unwrap();
                let want = AbsorbingAnalysis::new(&ctmc)
                    .unwrap()
                    .mean_time_to_absorption(root)
                    .unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{config} at drive MTTF {drive} h, node MTTF {node} h: {got} vs {want}"
                );
                points += 1;
            }
        }
    }
    assert_eq!(points, 108);
}
