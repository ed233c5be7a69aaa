//! Print all experiment tables (the `--print-tables` mode referenced
//! by DESIGN.md). Run with `--release`; pass experiment ids (e.g.
//! `e1 e3`) to restrict. The load-generator experiments (E10, E14),
//! the incremental-maintenance experiment (E13; pass `e13 full` for
//! the 1,000-commit long-history row), the observability-overhead
//! experiment (E15), the storage backend comparison (E16; pass
//! `e16 full` for the 100× sweep), and the Agg fold sweep (E18)
//! additionally persist their results as `BENCH_E10.json` /
//! `BENCH_E13.json` / `BENCH_E14.json` / `BENCH_E15.json` /
//! `BENCH_E16.json` / `BENCH_E18.json` in the working directory.

/// Persist a table as a machine-readable artifact next to the
/// printable rendering.
fn persist(path: &str, table: &fgc_bench::Table) {
    let body = format!("{}\n", table.to_json().to_pretty());
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: cannot write {path}: {e}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));
    println!("fgcite experiment tables (paper: CIDR 2017 fine-grained data citation)\n");
    if want("e1") {
        print!("{}", fgc_bench::e1_table(&[5, 8, 12, 16, 24]).render());
        println!();
    }
    if want("e2") {
        print!("{}", fgc_bench::e2_table(&[100, 1_000, 10_000]).render());
        println!();
    }
    if want("e3") {
        print!("{}", fgc_bench::e3_table().render());
        println!();
    }
    if want("e4") {
        print!("{}", fgc_bench::e4_table(1_000).render());
        println!();
    }
    if want("e5") {
        print!("{}", fgc_bench::e5_table(1_000).render());
        println!();
    }
    if want("e6") {
        print!("{}", fgc_bench::e6_table(1_000).render());
        println!();
    }
    if want("e7") {
        print!("{}", fgc_bench::e7_table(1_000).render());
        println!();
    }
    if want("e8") {
        print!("{}", fgc_bench::e8_table(&[4, 16, 64]).render());
        println!();
    }
    if want("e10") {
        let table = fgc_bench::e10_table(1_000, &[1, 2, 4, 8]);
        persist("BENCH_E10.json", &table);
        print!("{}", table.render());
        println!();
    }
    if want("e11") {
        print!("{}", fgc_bench::e11_table(1_000, &[1, 2, 4, 8]).render());
        println!();
    }
    if want("e12") {
        print!(
            "{}",
            fgc_bench::e12_table(&[100, 1_000, 10_000], 1_000).render()
        );
        println!();
    }
    if want("e13") {
        // `e13 full` appends the 1,000-commit long-history row the
        // structural-sharing (resident_kib) claim is demonstrated on —
        // its rebuild-per-version baseline walk takes a while
        let commits: &[usize] = if args.iter().any(|a| a.eq_ignore_ascii_case("full")) {
            &[4, 16, 64, 1_000]
        } else {
            &[4, 16, 64]
        };
        let table = fgc_bench::e13_table(1_000, commits);
        persist("BENCH_E13.json", &table);
        print!("{}", table.render());
        println!();
    }
    if want("e14") {
        let table = fgc_bench::e14_table(1_000, &[1, 2, 4]);
        persist("BENCH_E14.json", &table);
        print!("{}", table.render());
        println!();
    }
    if want("e15") {
        let table = fgc_bench::e15_table(1_000);
        persist("BENCH_E15.json", &table);
        print!("{}", table.render());
        println!();
    }
    if want("e16") {
        // the E10 serving scale by default; `e16 full` sweeps 10×
        // and 100× for the crud-bench-style backend comparison
        // figure (the generated ad-hoc workload has multi-second
        // cold joins at 10k+ families — budget minutes per backend)
        let scales: &[usize] = if args.iter().any(|a| a.eq_ignore_ascii_case("full")) {
            &[10_000, 100_000]
        } else {
            &[1_000]
        };
        let table = fgc_bench::e16_table(scales);
        persist("BENCH_E16.json", &table);
        print!("{}", table.render());
        println!();
    }
    if want("e18") {
        // the pairwise fold grows super-linearly; it is capped at
        // k = 1,000 so the sweep finishes in seconds
        let table = fgc_bench::e18_table(&[250, 500, 1_000, 2_000, 4_000], 1_000);
        persist("BENCH_E18.json", &table);
        print!("{}", table.render());
        println!();
    }
    if want("a1") || want("ablation") {
        print!("{}", fgc_bench::ablation_table(10_000).render());
        println!();
    }
}
