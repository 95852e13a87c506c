//! Regenerate every table of the paper and the design-choice ablations
//! (A3 Step I measures, A4 linkage hierarchy and candidate pool, E4
//! feature subsets). The default run is scaled down; `--full` runs the
//! configurations EXPERIMENTS.md reports and `experiments_full.txt` pins.
//!
//! ```text
//! cargo run --release -p boe-eval --bin run_experiments -- --full
//! ```

use boe_eval::world::{World, WorldConfig};
use boe_eval::{
    exp_linkage_case, exp_linkage_precision, exp_polysemy, exp_relation, exp_sense_number,
    exp_table1, exp_table2, exp_term_measures,
};

fn main() {
    let full = std::env::args().any(|a| a == "--full");

    println!("=== E1: Table 1 — polysemy statistics =========================\n");
    let divisor = if full { 10 } else { 100 };
    let (umls, mesh) = exp_table1::run(divisor);
    println!("{}", exp_table1::render(&umls, &mesh));

    println!("=== E2: Table 2 — internal index semantics ====================\n");
    let t2 = exp_table2::run(&exp_table2::Table2Config::default());
    println!("{}", exp_table2::render(&t2));

    println!("=== E3: sense-number prediction (paper: 93.1%) ================\n");
    let sn_cfg = if full {
        exp_sense_number::SenseNumberConfig::default()
    } else {
        exp_sense_number::SenseNumberConfig::quick()
    };
    let sn_data = exp_sense_number::SenseNumberData::generate(&sn_cfg);
    let sn = exp_sense_number::run(&sn_cfg, &sn_data);
    println!("{}", exp_sense_number::render(&sn_cfg, &sn));
    let (purity, nmi, ari) = exp_sense_number::clustering_quality(
        &sn_cfg,
        &sn_data,
        boe_cluster::Algorithm::Rbr,
        boe_core::senses::Representation::BagOfWords,
    );
    println!(
        "clustering quality at gold k (rbr, bow): purity {purity:.3}  NMI {nmi:.3}  ARI {ari:.3}\n"
    );

    println!("=== E4: polysemy detection (paper: F-measure 98%) =============\n");
    let pd_cfg = if full {
        exp_polysemy::PolysemyExpConfig::default()
    } else {
        exp_polysemy::PolysemyExpConfig::quick()
    };
    let pd = exp_polysemy::run(&pd_cfg);
    println!("{}", exp_polysemy::render(&pd));
    let forest_cfg = exp_polysemy::PolysemyExpConfig {
        models: vec![boe_core::polysemy::detector::PolysemyModel::Forest],
        ..pd_cfg
    };
    let subsets: Vec<_> = [
        exp_polysemy::FeatureSubset::DirectOnly,
        exp_polysemy::FeatureSubset::GraphOnly,
    ]
    .into_iter()
    .flat_map(|subset| exp_polysemy::run_subset(&forest_cfg, subset))
    .collect();
    println!(
        "ablation — feature subsets (forest):\n{}",
        exp_polysemy::render_rows(&subsets)
    );

    println!("=== E5/E6: semantic linkage ===================================\n");
    let world_cfg = if full {
        WorldConfig::default()
    } else {
        WorldConfig {
            n_concepts: 120,
            n_holdout: 20,
            abstracts_per_concept: 5,
            ..Default::default()
        }
    };
    let world = World::generate(&world_cfg);
    let case = exp_linkage_case::run(&world, 0, 200);
    println!("{}", exp_linkage_case::render(&case));
    let precision = exp_linkage_precision::run(&world, 200, true);
    println!("{}", exp_linkage_precision::render(&precision));
    let no_hier = exp_linkage_precision::run(&world, 200, false);
    println!(
        "ablation — without hierarchy expansion: top-10 precision {:.3} (with: {:.3})\n",
        no_hier.at[3], precision.at[3]
    );
    for pool in [50, 150, 200] {
        let r = if pool == 200 {
            precision.clone()
        } else {
            exp_linkage_precision::run(&world, pool, true)
        };
        println!(
            "ablation — candidate pool {pool:>3}: P@1 {:.3}  P@2 {:.3}  P@5 {:.3}  P@10 {:.3}",
            r.at[0], r.at[1], r.at[2], r.at[3]
        );
    }
    println!();
    let measures = exp_term_measures::run(&world, 100);
    println!("{}", exp_term_measures::render(100, &measures));

    println!("=== E7: relation typing (future work, §4) =====================\n");
    let rel = exp_relation::run(&exp_relation::RelationExpConfig::default());
    println!("{}", exp_relation::render(&rel));
}
