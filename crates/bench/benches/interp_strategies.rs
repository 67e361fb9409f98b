//! Experiment F10 (Figure 10, §5.1): the cost of the diagonal evaluation
//! strategy — recomputing from scratch at every stage — versus memoised
//! sweeps that share work across stages. "Enumerating the elements of a
//! diagonalized stream is slow … it would be desirable to find an
//! incremental approach."

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lambda_join_core::bigstep::eval_fuel;
use lambda_join_core::builder::*;
use lambda_join_core::encodings;
use lambda_join_runtime::interp::diagonal_table;
use lambda_join_runtime::MemoEval;

fn bench_interp(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_interp_strategies");
    for stages in [8usize, 16, 24] {
        // Naive sweep: evaluate from scratch at every fuel level.
        group.bench_with_input(
            BenchmarkId::new("naive_sweep_evens", stages),
            &stages,
            |b, &stages| {
                let e = encodings::evens();
                b.iter(|| {
                    for n in 0..stages {
                        std::hint::black_box(eval_fuel(&e, n));
                    }
                })
            },
        );
        // Memoised sweep: the cache persists across fuel levels.
        group.bench_with_input(
            BenchmarkId::new("memo_sweep_evens", stages),
            &stages,
            |b, &stages| {
                let e = encodings::evens();
                b.iter(|| {
                    let mut m = MemoEval::new();
                    for n in 0..stages {
                        std::hint::black_box(m.eval_fuel(&e, n));
                    }
                })
            },
        );
        // The Figure 10 diagonal table itself.
        group.bench_with_input(
            BenchmarkId::new("diagonal_table_head_fromN", stages),
            &stages,
            |b, &stages| {
                let arg = app(encodings::from_n(), int(0));
                b.iter(|| std::hint::black_box(diagonal_table(&encodings::head(), &arg, stages)))
            },
        );
        // One plain evaluation at a single fuel level.
        group.bench_with_input(
            BenchmarkId::new("subst_eval_evens", stages),
            &stages,
            |b, &stages| {
                let e = encodings::evens();
                b.iter(|| std::hint::black_box(eval_fuel(&e, stages)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);
