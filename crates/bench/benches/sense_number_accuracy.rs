//! Bench E3 — §3(i): regenerates the full sense-number-prediction
//! accuracy matrix at paper scale (203 entities; paper's best: 93.1% with
//! max(f_k)), covering ablations A1 (index choice, incl. silhouette/CH
//! baselines) and A2 (bag-of-words vs graph representation), then times
//! the per-entity prediction kernel.

use boe_bench::harness::Criterion;
use boe_bench::{criterion_group, criterion_main};
use boe_cluster::{Algorithm, InternalIndex};
use boe_core::senses::{build_representation, Representation};
use boe_corpus::context::ContextScope;
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::synth::mshwsd::MshWsdDataset;
use boe_eval::exp_sense_number;
use boe_textkit::Language;

fn bench(c: &mut Criterion) {
    let cfg = boe_bench::bench_sense_number_config();
    let result = exp_sense_number::run(&cfg);
    println!("\n{}", exp_sense_number::render(&cfg, &result));

    // Kernel: one entity's full k-sweep with the default method.
    let data = MshWsdDataset::generate(Language::English, &cfg.dataset);
    let occ = OccurrenceIndex::build(&data.corpus);
    let entity = &data.entities[0];
    let sid = data
        .corpus
        .vocab()
        .get(entity.surface_text())
        .expect("interned");
    let mut ctxs = build_representation(
        &data.corpus,
        &occ,
        &[sid],
        Representation::BagOfWords,
        ContextScope::Document,
    );
    ctxs.truncate(cfg.max_contexts);
    c.bench_function("sense_number/k_sweep_direct_ek_one_entity", |b| {
        b.iter(|| {
            boe_cluster::kpredict::predict_k(
                &ctxs,
                boe_cluster::kpredict::KPredictConfig {
                    k_range: (2, 5),
                    algorithm: Algorithm::Direct,
                    index: InternalIndex::Ek,
                    seed: 7,
                },
            )
        })
    });
    c.bench_function("sense_number/context_build_one_entity", |b| {
        b.iter(|| {
            build_representation(
                &data.corpus,
                &occ,
                &[sid],
                Representation::BagOfWords,
                ContextScope::Document,
            )
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
