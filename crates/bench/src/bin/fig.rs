//! Regenerates one table or figure of the paper (see DESIGN.md's
//! experiment table and EXPERIMENTS.md).
//!
//! ```console
//! $ fig tables                 # Tables 1 and 2
//! $ fig fig13 --jobs 8         # one figure, fanned over 8 workers
//! $ fig fig13 --resume         # replay completed specs from the journal
//! ```
//!
//! Every id accepts the executor flags of [`photon_bench::cli`]. The
//! tables, `fig6` and `offline_tradeoff` parse them for a uniform CLI
//! but run sequentially: the tables print static configuration, `fig6`
//! is one recorded inference, and the offline pass consumes what the
//! online pass exports.

use photon_bench::cli::{parse_exec_options, usage};
use photon_bench::{figures, ExecOptions};

/// Regenerates one table or figure under the parsed executor flags.
type Regenerate = fn(&ExecOptions);

/// Every id `fig` accepts, in paper order, with what it regenerates.
const FIGURES: &[(&str, Regenerate)] = &[
    ("tables", |_| {
        figures::table1();
        figures::table2();
    }),
    ("fig1", |o| drop(figures::fig1(o))),
    ("fig2", |o| drop(figures::fig2(o))),
    ("fig3", |o| drop(figures::fig3(o))),
    ("fig4", |o| drop(figures::fig4(o))),
    ("fig6", |_| drop(figures::fig6())),
    ("fig8", |o| drop(figures::fig8(o))),
    ("fig11", |o| drop(figures::fig11(o))),
    ("fig13", |o| drop(figures::fig13(o))),
    ("fig14", |o| drop(figures::fig14(o))),
    ("fig15", |o| drop(figures::fig15(o))),
    ("fig16", |o| drop(figures::fig16(o))),
    ("fig17", |o| drop(figures::fig17(o))),
    ("offline_tradeoff", |_| {
        figures::offline_tradeoff();
    }),
];

fn exit_usage(msg: &str) -> ! {
    let ids: Vec<&str> = FIGURES.iter().map(|&(id, _)| id).collect();
    eprintln!(
        "{msg}\n{}\n  <id>: {}",
        usage("fig <id>", ""),
        ids.join(" | ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_exec_options(&mut args).unwrap_or_else(|e| exit_usage(&e));
    let [id] = args.as_slice() else {
        exit_usage(&format!("expected one figure id, got {args:?}"));
    };
    match FIGURES.iter().find(|&&(name, _)| name == id) {
        Some((_, run)) => run(&opts),
        None => exit_usage(&format!("unknown figure id {id}")),
    }
}
