//! Allocation regression test of the memoised local encoding: a repeated
//! `score_at_topk` call over an unchanged timeline must not pay for
//! `encode_local` again. One test in its own binary, because the counting
//! allocator is process-wide and a test running beside it would add its
//! allocations to the count.

use hisres::config::HisResConfig;
use hisres::eval::{score_at_topk, ScoreCtx};
use hisres::model::HisRes;
use hisres_data::synthetic::{generate, SyntheticConfig};
use hisres_data::DatasetSplits;
use hisres_tensor::no_grad;
use hisres_util::alloc::CountingAlloc;
use hisres_util::pool::with_threads;
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOC.allocations();
    f();
    ALLOC.allocations() - before
}

#[test]
fn warm_topk_call_skips_the_local_encoding() {
    let cfg = SyntheticConfig {
        num_entities: 32,
        num_relations: 4,
        num_timestamps: 16,
        seed: 31,
        ..Default::default()
    };
    let data = DatasetSplits::from_tkg("memo-alloc-syn", "1 step", &generate(&cfg).tkg);
    let ctx = ScoreCtx::at_end_of(&data);
    let model = HisRes::new(
        &HisResConfig { dim: 16, conv_channels: 2, history_len: 6, ..Default::default() },
        32,
        4,
    );
    let queries = [(0u32, 0u32), (5, 1), (9, 6), (5, 1)];
    let window = ctx.window(model.cfg.history_len);
    let encode_local = || {
        no_grad(|| model.encode_local(window, ctx.t, false, &mut StdRng::seed_from_u64(0)));
    };

    with_threads(1, || {
        // Warm-up: one-time initialisation, scratch arenas, and the memo.
        encode_local();
        let warmup = score_at_topk(&model, &ctx, &queries, 10);

        let encode = allocations(encode_local);
        let mut warm_rows = None;
        let warm = allocations(|| warm_rows = Some(score_at_topk(&model, &ctx, &queries, 10)));
        // Rewriting the parameters (same values) invalidates the memo.
        model.store.import_flat(&model.store.export_flat()).unwrap();
        let cold = allocations(|| {
            score_at_topk(&model, &ctx, &queries, 10);
        });

        assert_eq!(warm_rows, Some(warmup));
        assert!(encode >= 100, "encode_local made only {encode} allocations");
        assert!(
            cold >= warm + encode,
            "a warm call ({warm} allocations) must save encode_local's {encode} \
             against a call that re-encodes ({cold})"
        );
    });
}
