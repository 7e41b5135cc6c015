//! `smoqed` end to end, in one process: spawn the multi-tenant TCP
//! server on a loopback port, register two tenants, serve queries over the
//! wire, and read the server's counters back.
//!
//! ```text
//! cargo run --example smoqed_demo
//! ```
//!
//! Load is measured elsewhere: perfbench's `serve_mix` workload drives a
//! loopback server with a hot/cold query mix and reports operations per
//! second and latency percentiles (see `BENCHMARK.json`).

use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_views::hospital_view;
use smoqe_xml::snapshot;
use smoqed::{EvaluationMode, Server, ServerConfig, SmoqedClient};

fn main() {
    // A real TCP server on an ephemeral loopback port: accept thread,
    // bounded admission queue, worker pool.
    let mut server =
        Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("loopback server spawns");
    println!("smoqed listening on {}", server.addr());

    // Two tenants (user classes), each with its own σ, caches and
    // document universe. Here both use the paper's σ₀; the registry keeps
    // them fully isolated regardless.
    let mut client = SmoqedClient::connect(server.addr()).expect("connect");
    for tenant in ["nurse", "auditor"] {
        let fingerprint = client
            .register_view(tenant, &hospital_view())
            .expect("view registers");
        println!("tenant {tenant:>8}: view fingerprint {fingerprint:#018x}");
    }

    // Documents travel as binary snapshots; ids are content-addressed and
    // tenant-scoped.
    let doc = generate_hospital(&HospitalConfig {
        patients: 60,
        departments: 3,
        heart_disease_fraction: 0.35,
        seed: 42,
        ..Default::default()
    });
    let bytes = snapshot::save(&doc);
    let nurse_doc = client.register_document("nurse", &bytes).expect("register");
    println!(
        "registered {} snapshot bytes as doc {nurse_doc:#x} for nurse",
        bytes.len()
    );

    // Queries over the wire, solo and batched.
    for query in ["patient", "(patient/parent)*/patient", "//diagnosis"] {
        let result = client
            .query("nurse", nurse_doc, EvaluationMode::HyPE, query)
            .expect("query answers");
        println!(
            "  {query:<28} -> {:>3} answers, {} nodes visited",
            result.answers.len(),
            result.stats.nodes_visited
        );
    }
    let (results, stats) = client
        .batch_query(
            "nurse",
            nurse_doc,
            EvaluationMode::HyPE,
            &["patient", "patient/record", "//diagnosis"],
        )
        .expect("batch answers");
    println!(
        "  batched x{}: {} answers total, one shared pass visiting {} of {} nodes",
        results.len(),
        results.iter().map(|r| r.answers.len()).sum::<usize>(),
        stats.nodes_visited,
        stats.nodes_total
    );

    // Tenant isolation: the auditor cannot see the nurse's document.
    let err = client
        .query("auditor", nurse_doc, EvaluationMode::HyPE, "patient")
        .expect_err("cross-tenant access must fail");
    println!("isolation: auditor querying nurse's doc -> {err}");

    // Server-side observability: counters plus the tenant's cache stats.
    let stats = client.stats(Some("nurse")).expect("stats");
    let service = stats.service.expect("tenant stats present");
    println!(
        "server: {} tenants, {} requests served, {} shed, queue {}/{}; nurse caches: \
         {} compiled hits / {} misses, {} index hits / {} misses",
        stats.tenants,
        stats.requests_total,
        stats.shed_total,
        stats.queue_depth,
        stats.queue_capacity,
        service.compiled_hits,
        service.compiled_misses,
        service.index_hits,
        service.index_misses
    );

    server.shutdown();
    println!("server drained and shut down cleanly");
}
