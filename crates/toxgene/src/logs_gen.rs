//! Generator for documents conforming to the log-archive DTD
//! (`smoqe_xml::domains::logs_document_dtd`) — the wide, flat,
//! label-exploded domain.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smoqe_xml::domains::{ERROR_LEVEL, LOG_KEYS};
use smoqe_xml::{XmlTree, XmlTreeBuilder};

/// Configuration of the logs document generator.
#[derive(Debug, Clone)]
pub struct LogsConfig {
    /// Number of shards (top-level fan-out, the sharding axis).
    pub shards: usize,
    /// Entries per shard (the breadth axis — documents are wide, not deep).
    pub entries_per_shard: usize,
    /// Fraction of entries at `error` level — the selectivity knob of the
    /// logs view's conditional rule. `0.0` produces an empty view.
    pub error_fraction: f64,
    /// Context blocks per entry.
    pub ctx_per_entry: usize,
    /// Context keys emitted per `ctx` block, drawn from the exploded
    /// vocabulary (including the alias labels `patient`, `part`,
    /// `diagnosis`, `type`). Large values are the label-alias explosion.
    pub keys_per_ctx: usize,
    /// RNG seed; the same configuration always generates the same document.
    pub seed: u64,
}

impl Default for LogsConfig {
    fn default() -> Self {
        LogsConfig {
            shards: 3,
            entries_per_shard: 20,
            error_fraction: 0.3,
            ctx_per_entry: 1,
            keys_per_ctx: 3,
            seed: 0x10c5_feed,
        }
    }
}

const LEVELS: &[&str] = &["info", "warn", "debug", "trace"];
const SERVICES: &[&str] = &["auth", "billing", "ingest", "search"];
const MESSAGES: &[&str] = &[
    "request completed",
    "connection reset",
    "cache miss",
    "retry scheduled",
    "heart disease", // alias *text* colliding with the hospital selector
];

/// Generates a logs document according to `config`.
pub fn generate_logs(config: &LogsConfig) -> XmlTree {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = XmlTreeBuilder::new();
    let root = b.root("logbook");
    let mut counter = 0usize;
    for s in 0..config.shards.max(1) {
        let shard = b.child(root, "shard");
        b.child_with_text(shard, "host", &format!("node-{s}"));
        for _ in 0..config.entries_per_shard {
            counter += 1;
            let entry = b.child(shard, "entry");
            b.child_with_text(
                entry,
                "ts",
                &format!("2026-08-{:02}T12:{:02}", counter % 28 + 1, counter % 60),
            );
            let level = if rng.gen_bool(config.error_fraction) {
                ERROR_LEVEL
            } else {
                LEVELS[counter % LEVELS.len()]
            };
            b.child_with_text(entry, "level", level);
            b.child_with_text(entry, "svc", SERVICES[counter % SERVICES.len()]);
            b.child_with_text(entry, "msg", MESSAGES[counter % MESSAGES.len()]);
            for _ in 0..config.ctx_per_entry {
                let ctx = b.child(entry, "ctx");
                // The content model is a sequence, so keys must appear in
                // vocabulary order: draw a multiset of key indices, sort it.
                let mut picks: Vec<usize> = (0..config.keys_per_ctx)
                    .map(|_| rng.gen_range(0..LOG_KEYS.len()))
                    .collect();
                picks.sort_unstable();
                for key_index in picks {
                    counter += 1;
                    b.child_with_text(ctx, LOG_KEYS[key_index], &format!("v{}", counter % 11));
                }
            }
        }
    }
    b.finish()
}

/// The label-alias explosion: every entry carries a `ctx` block holding
/// *every* key of the exploded vocabulary — including the alias labels —
/// so `//patient`, `//diagnosis` and friends face a forest of text leaves
/// whose names collide with other domains' structural elements.
pub fn generate_alias_explosion(entries: usize, seed: u64) -> XmlTree {
    generate_logs(&LogsConfig {
        shards: 1,
        entries_per_shard: entries.max(1),
        error_fraction: 0.5,
        ctx_per_entry: 2,
        keys_per_ctx: LOG_KEYS.len(),
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_xml::domains::logs_document_dtd;

    #[test]
    fn generated_documents_conform_to_the_dtd() {
        let doc = generate_logs(&LogsConfig::default());
        logs_document_dtd().validate(&doc).unwrap();
        doc.check_consistency().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_logs(&LogsConfig::default());
        let b = generate_logs(&LogsConfig::default());
        assert_eq!(smoqe_xml::to_xml_string(&a), smoqe_xml::to_xml_string(&b));
    }

    #[test]
    fn documents_are_wide_and_flat() {
        let doc = generate_logs(&LogsConfig {
            shards: 2,
            entries_per_shard: 100,
            ..Default::default()
        });
        assert!(doc.len() > 1000, "wide: {} nodes", doc.len());
        assert!(doc.max_depth() <= 5, "flat: depth {}", doc.max_depth());
    }

    #[test]
    fn alias_explosion_emits_alias_labels() {
        use smoqe_xpath::{evaluate, parse_path};
        let doc = generate_alias_explosion(10, 3);
        logs_document_dtd().validate(&doc).unwrap();
        for alias in ["patient", "part", "diagnosis", "type"] {
            let q = parse_path(&format!("//{alias}")).unwrap();
            assert!(
                !evaluate(&doc, doc.root(), &q).is_empty(),
                "alias `{alias}` appears"
            );
        }
    }

    #[test]
    fn zero_error_fraction_keeps_the_view_empty() {
        use smoqe_xpath::{evaluate, parse_path};
        let doc = generate_logs(&LogsConfig {
            error_fraction: 0.0,
            ..Default::default()
        });
        let q = parse_path(&format!("//level[text()='{ERROR_LEVEL}']")).unwrap();
        assert!(evaluate(&doc, doc.root(), &q).is_empty());
    }
}
