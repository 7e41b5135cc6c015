//! Section 7, pruning statistics — "HyPE prunes, on average, 78.2% of the
//! element nodes, OptHyPE 88%, for our example queries."
//!
//! This target is a report rather than a timing benchmark (`harness = false`):
//! it prints, for every example query, the fraction of element nodes pruned
//! by HyPE and by OptHyPE/OptHyPE-C, the size of the candidate-answer DAG,
//! and the index sizes, then the averages the paper quotes.
//!
//! Run with: `cargo bench -p smoqe-bench --bench pruning_stats`

use smoqe_automata::compile_query;
use smoqe_bench::{ir, medium_document, pruning_queries, run_solo};
use smoqe_hype::ReachabilityIndex;
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xpath::parse_path;

fn main() {
    let doc = medium_document();
    let dtd = hospital_document_dtd();
    println!(
        "# Pruning statistics on a {}-node hospital document (≈{:.1} MB)",
        doc.len(),
        doc.approximate_byte_size() as f64 / 1_000_000.0
    );
    println!(
        "{:<110} {:>8} {:>8} {:>8} {:>10}",
        "query", "HyPE%", "Opt%", "OptC%", "cans size"
    );

    let mut hype_sum = 0.0;
    let mut opt_sum = 0.0;
    let mut optc_sum = 0.0;
    let mut count = 0.0;
    for query_text in pruning_queries() {
        let query = parse_path(query_text).unwrap();
        let mfa = compile_query(&query);
        let ir = ir(&mfa);
        let plain = run_solo(&doc, &ir, None, 1);
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let opt = run_solo(&doc, &ir, Some(&index), 1);
        let cindex = ReachabilityIndex::new_compressed(&mfa, &dtd, doc.labels());
        let optc = run_solo(&doc, &ir, Some(&cindex), 1);
        assert_eq!(plain.answers, opt.answers);
        assert_eq!(plain.answers, optc.answers);

        println!(
            "{:<110} {:>7.1}% {:>7.1}% {:>7.1}% {:>10}",
            query_text,
            100.0 * plain.stats.pruned_fraction(),
            100.0 * opt.stats.pruned_fraction(),
            100.0 * optc.stats.pruned_fraction(),
            plain.stats.cans_vertices,
        );
        println!(
            "{:<110} {:>8} {:>8} {:>8} {:>10}",
            "  (index bytes: plain vs compressed)",
            "",
            index.memory_bytes(),
            cindex.memory_bytes(),
            ""
        );
        hype_sum += plain.stats.pruned_fraction();
        opt_sum += opt.stats.pruned_fraction();
        optc_sum += optc.stats.pruned_fraction();
        count += 1.0;
    }
    println!();
    println!(
        "AVERAGE pruning  HyPE {:>5.1}%   OptHyPE {:>5.1}%   OptHyPE-C {:>5.1}%   (paper: 78.2% / 88% / 88%)",
        100.0 * hype_sum / count,
        100.0 * opt_sum / count,
        100.0 * optc_sum / count
    );
}
