//! Document DTDs for the adversarial fuzz domains beyond the paper's
//! hospital running example.
//!
//! Each domain stresses a different axis of the pipeline:
//!
//! * **bom** — a bill-of-materials catalogue whose `part → assembly → part`
//!   cycle makes the *document* DTD deeply recursive: conforming documents
//!   can nest parts to arbitrary depth, the adversarial shape for
//!   stack-safety and for DTD-derived reachability pruning.
//! * **logs** — a wide, flat log archive. There is no recursion at all;
//!   instead the DTD carries a large vocabulary of context-key element
//!   types (`k00`–`k15`) *plus deliberate label aliases*: element names
//!   that collide with structural labels of the other domains (`patient`,
//!   `part`, `diagnosis`, `type`) but sit at completely different positions.
//!   Queries like `//patient` must not be confused by the alias nodes, and
//!   the exploded label set stresses interner- and bitset-indexed code.
//! * **social** — a member/friend network. The document DTD recursion is
//!   moderate (`member → friend → member`), but the interesting recursion
//!   lives in the *view definition* (see `smoqe_views`), whose annotations
//!   traverse the friend relation with Kleene closures.
//!
//! The view DTDs for bom and logs are *derived* from security
//! specifications (`smoqe_views::derive_view`); only the social domain has
//! a hand-written view DTD, defined here next to its document DTD.

use crate::dtd::{Child, ContentModel, Dtd};

/// The marker value of domestically sourced parts — the selectivity knob of
/// the bom domain (the role `heart disease` plays for the hospital).
pub const DOMESTIC: &str = "domestic";

/// The log level exposed by the logs security view.
pub const ERROR_LEVEL: &str = "error";

/// Builds the **bill-of-materials** document DTD.
///
/// ```text
/// catalog  → supplier*, product*
/// supplier → sname, region
/// product  → pid, assembly*
/// assembly → part*
/// part     → pnum, origin, cost, assembly*
/// sname, region, pid, pnum, origin, cost → str
/// ```
///
/// The DTD is recursive through `part → assembly → part`; conforming
/// documents nest sub-assemblies to arbitrary depth.
pub fn bom_document_dtd() -> Dtd {
    let mut d = Dtd::new("catalog");
    d.define(
        "catalog",
        ContentModel::Sequence(vec![Child::star("supplier"), Child::star("product")]),
    )
    .define(
        "supplier",
        ContentModel::Sequence(vec![Child::one("sname"), Child::one("region")]),
    )
    .define(
        "product",
        ContentModel::Sequence(vec![Child::one("pid"), Child::star("assembly")]),
    )
    .define(
        "assembly",
        ContentModel::Sequence(vec![Child::star("part")]),
    )
    .define(
        "part",
        ContentModel::Sequence(vec![
            Child::one("pnum"),
            Child::one("origin"),
            Child::one("cost"),
            Child::star("assembly"),
        ]),
    )
    .define("sname", ContentModel::Text)
    .define("region", ContentModel::Text)
    .define("pid", ContentModel::Text)
    .define("pnum", ContentModel::Text)
    .define("origin", ContentModel::Text)
    .define("cost", ContentModel::Text);
    d
}

/// The context-key element types of the logs DTD: a deliberately large,
/// flat vocabulary (the "label explosion"), including aliases of labels
/// that are structural in the *other* domains.
pub const LOG_KEYS: &[&str] = &[
    "k00",
    "k01",
    "k02",
    "k03",
    "k04",
    "k05",
    "k06",
    "k07",
    "k08",
    "k09",
    "k10",
    "k11",
    "k12",
    "k13",
    "k14",
    "k15", // aliases of other domains' structural labels:
    "patient",
    "part",
    "diagnosis",
    "type",
];

/// Builds the **log-archive** document DTD.
///
/// ```text
/// logbook → shard*
/// shard   → host, entry*
/// entry   → ts, level, svc, msg, ctx*
/// ctx     → k00*, …, k15*, patient*, part*, diagnosis*, type*
/// host, ts, level, svc, msg, k00…k15, patient, part, diagnosis, type → str
/// ```
///
/// Wide and completely flat (depth 5); breadth and label-vocabulary size
/// are the adversarial axes. The trailing four `ctx` children are **label
/// aliases**: text elements whose names collide with structural element
/// types of the hospital and bom domains.
pub fn logs_document_dtd() -> Dtd {
    let mut d = Dtd::new("logbook");
    d.define(
        "logbook",
        ContentModel::Sequence(vec![Child::star("shard")]),
    )
    .define(
        "shard",
        ContentModel::Sequence(vec![Child::one("host"), Child::star("entry")]),
    )
    .define(
        "entry",
        ContentModel::Sequence(vec![
            Child::one("ts"),
            Child::one("level"),
            Child::one("svc"),
            Child::one("msg"),
            Child::star("ctx"),
        ]),
    )
    .define(
        "ctx",
        ContentModel::Sequence(LOG_KEYS.iter().map(|k| Child::star(k)).collect()),
    )
    .define("host", ContentModel::Text)
    .define("ts", ContentModel::Text)
    .define("level", ContentModel::Text)
    .define("svc", ContentModel::Text)
    .define("msg", ContentModel::Text);
    for key in LOG_KEYS {
        d.define(key, ContentModel::Text);
    }
    d
}

/// Builds the **social-network** document DTD.
///
/// ```text
/// network → member*
/// member  → mid, handle, banned?, friend*, post*
/// friend  → member
/// post    → content, tag*
/// mid, handle, content, tag → str
/// banned  → ε
/// ```
///
/// Recursive through `member → friend → member`. The `banned` marker is an
/// *empty* element type — the only `ContentModel::Empty` in any document
/// DTD, exercised by the view's negated filters.
pub fn social_document_dtd() -> Dtd {
    let mut d = Dtd::new("network");
    d.define(
        "network",
        ContentModel::Sequence(vec![Child::star("member")]),
    )
    .define(
        "member",
        ContentModel::Sequence(vec![
            Child::one("mid"),
            Child::one("handle"),
            Child::star("banned"),
            Child::star("friend"),
            Child::star("post"),
        ]),
    )
    .define("friend", ContentModel::Sequence(vec![Child::one("member")]))
    .define(
        "post",
        ContentModel::Sequence(vec![Child::one("content"), Child::star("tag")]),
    )
    .define("mid", ContentModel::Text)
    .define("handle", ContentModel::Text)
    .define("content", ContentModel::Text)
    .define("tag", ContentModel::Text)
    .define("banned", ContentModel::Empty);
    d
}

/// Builds the hand-written **view** DTD of the social domain.
///
/// ```text
/// network → member*
/// member  → handle*, member*, post*
/// post    → content*
/// handle, content → str
/// ```
///
/// Recursive through `member → member` directly — the view flattens the
/// document's `friend` wrapper away, and its annotations (see
/// `smoqe_views`) traverse the friend relation with a Kleene closure.
pub fn social_view_dtd() -> Dtd {
    let mut d = Dtd::new("network");
    d.define(
        "network",
        ContentModel::Sequence(vec![Child::star("member")]),
    )
    .define(
        "member",
        ContentModel::Sequence(vec![
            Child::star("handle"),
            Child::star("member"),
            Child::star("post"),
        ]),
    )
    .define("post", ContentModel::Sequence(vec![Child::star("content")]))
    .define("handle", ContentModel::Text)
    .define("content", ContentModel::Text);
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_domain_dtds_are_well_formed() {
        for dtd in [
            bom_document_dtd(),
            logs_document_dtd(),
            social_document_dtd(),
            social_view_dtd(),
        ] {
            dtd.check_well_formed().unwrap();
        }
    }

    #[test]
    fn recursion_profile_matches_the_design() {
        assert!(bom_document_dtd().is_recursive(), "bom is deeply recursive");
        assert!(!logs_document_dtd().is_recursive(), "logs is flat");
        assert!(social_document_dtd().is_recursive());
        assert!(
            social_view_dtd().is_recursive(),
            "view recursion is the point"
        );
    }

    #[test]
    fn logs_vocabulary_is_exploded_and_aliased() {
        let dtd = logs_document_dtd();
        assert!(dtd.len() > 25, "label explosion: {} types", dtd.len());
        for alias in ["patient", "part", "diagnosis", "type"] {
            assert!(
                matches!(dtd.production(alias), Some(ContentModel::Text)),
                "alias `{alias}` is a text leaf in logs"
            );
        }
    }
}
