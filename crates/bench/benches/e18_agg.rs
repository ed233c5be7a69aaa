//! E18 — the union Agg fold over k distinct GtoPdb citations.
//!
//! `fold` is one `CombineOp::fold` (a single `union_all` pass);
//! `pairwise` is the left fold of `CombineOp::apply` from `Null`,
//! which re-reads its accumulator at every step and so is run for
//! k ≤ 1,000 only. `cargo run -p fgc-bench --release -- e18` prints
//! the same sweep as a table and persists `BENCH_E18.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fgc_core::CombineOp;
use fgc_views::Json;
use std::hint::black_box;

const KS: [usize; 5] = [250, 500, 1_000, 2_000, 4_000];

fn bench_e18(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_agg");
    group.sample_size(10);

    let citations = fgc_bench::listing_citations(4_000, 4_000);
    for k in KS {
        let xs = &citations[..k];
        group.bench_with_input(BenchmarkId::new("fold", k), &k, |b, _| {
            b.iter(|| CombineOp::Union.fold(black_box(xs)))
        });
        if k <= 1_000 {
            group.bench_with_input(BenchmarkId::new("pairwise", k), &k, |b, _| {
                b.iter(|| {
                    black_box(xs)
                        .iter()
                        .fold(Json::Null, |acc, x| CombineOp::Union.apply(&acc, x))
                })
            });
        }
    }

    group.finish();
}

criterion_group!(benches, bench_e18);
criterion_main!(benches);
