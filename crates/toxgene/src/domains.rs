//! The **domain registry**: every (document DTD, view definition, query
//! corpus, generator) tuple the differential suites and the fuzz campaign
//! iterate over.
//!
//! Before this registry the corpus-wide suites hardcoded the paper's
//! hospital pair; now they call [`all_domains`] and run the same
//! differential logic per domain. Each [`Domain`] bundles:
//!
//! * the [`ViewDefinition`] (which carries the document DTD),
//! * a *view* query corpus (posed on the view, answered through rewriting),
//! * a *document* query corpus (posed directly on the document),
//! * a deterministic generator covering the supported [`DocShape`]s.
//!
//! The hospital view-query corpus is the canonical copy here; the
//! `integration_tests` crate re-exports it and `smoqe_xpath`'s parser unit
//! tests pin a mirror of it (see `whole_view_query_corpus_parses_and_round_trips`).

use smoqe_views::{bom_view, hospital_view, logs_view, social_view, ViewDefinition};
use smoqe_xml::{Dtd, XmlTree};

use crate::bom_gen::{generate_bom, generate_deep_bom, BomConfig};
use crate::hospital_gen::{
    generate_deep_hospital, generate_hospital, generate_skewed_hospital, HospitalConfig,
};
use crate::logs_gen::{generate_alias_explosion, generate_logs, LogsConfig};
use crate::social_gen::{generate_deep_social, generate_social, SocialConfig};

/// The document shapes a domain generator can produce. Every shape is
/// deterministic in `(shape, scale, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocShape {
    /// The domain's ordinary mixed-content document.
    Standard,
    /// Pathological depth: a single chain driven through the DTD recursion
    /// (depth grows with `scale`). Not supported by flat domains.
    Deep,
    /// One dominant top-level subtree — skew composed with whatever
    /// recursion the domain has.
    Skewed,
    /// Label-dense documents: every element type of the DTD appears,
    /// including alias labels where the domain has them.
    AliasExplosion,
    /// A document whose security view materializes to just the view root
    /// ("no answers" everywhere for view queries below the root).
    EmptyView,
}

impl DocShape {
    /// All shapes, in a stable order.
    pub const ALL: [DocShape; 5] = [
        DocShape::Standard,
        DocShape::Deep,
        DocShape::Skewed,
        DocShape::AliasExplosion,
        DocShape::EmptyView,
    ];
}

/// One registered fuzz/differential domain.
pub struct Domain {
    /// Short stable name (`hospital`, `bom`, `logs`, `social`).
    pub name: &'static str,
    /// The domain's security view; its `document_dtd()` is the document
    /// schema all generated shapes conform to.
    pub view: ViewDefinition,
    /// Queries posed on the *view* (answered through rewriting).
    pub view_queries: &'static [&'static str],
    /// Queries posed directly on the *document*.
    pub document_queries: &'static [&'static str],
    /// The shapes `generate` supports for this domain.
    pub shapes: &'static [DocShape],
    generate: fn(DocShape, usize, u64) -> XmlTree,
}

impl Domain {
    /// The domain's document DTD.
    pub fn document_dtd(&self) -> &Dtd {
        self.view.document_dtd()
    }

    /// Generates a document of the given shape. `scale` multiplies the
    /// domain's base size (and, for [`DocShape::Deep`], its chain depth);
    /// the result is fully determined by `(shape, scale, seed)`.
    ///
    /// Unsupported shapes fall back to [`DocShape::Standard`] rather than
    /// panic, so shape-agnostic sweeps stay total.
    pub fn generate(&self, shape: DocShape, scale: usize, seed: u64) -> XmlTree {
        let shape = if self.shapes.contains(&shape) {
            shape
        } else {
            DocShape::Standard
        };
        (self.generate)(shape, scale.max(1), seed)
    }

    /// The deterministic "standard document" of the domain — the fixture
    /// the differential suites share (the role
    /// `standard_hospital_document()` played for the hospital pair).
    pub fn standard_document(&self) -> XmlTree {
        self.generate(DocShape::Standard, 1, STANDARD_SEED)
    }
}

/// Seed of the per-domain standard documents.
pub const STANDARD_SEED: u64 = 42;

/// The canonical σ₀ *view* query corpus (mirrored by `smoqe_xpath`'s parser
/// unit tests — update both together; `integration_tests` carries the
/// checksum drift-guard).
pub const HOSPITAL_VIEW_QUERIES: &[&str] = &[
    "patient",
    "patient/record",
    "patient/record/diagnosis",
    "patient/parent/patient",
    "patient/parent/patient/record/diagnosis",
    "(patient/parent)*/patient",
    "(patient/parent)*/patient[record]",
    "patient[*//record/diagnosis/text()='heart disease']",
    "patient[record/diagnosis/text()='heart disease' and parent]",
    "patient[not(parent)]",
    "patient[not(record/diagnosis/text()='heart disease')]",
    "patient/record/empty",
    "patient/(record | parent/patient/record)",
    "//diagnosis",
    "//record[diagnosis]",
    "patient//patient[record/empty]",
    "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
    "patient[parent/patient[not(record)]/parent/patient[record]]",
    "doctor",
    "patient/pname",
];

/// The canonical hospital *document* query corpus.
pub const HOSPITAL_DOCUMENT_QUERIES: &[&str] = &[
    "department/patient",
    "department/patient/pname",
    "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
    "department/patient[visit/treatment/test]/pname",
    "department/patient[visit/treatment/medication/diagnosis/text()='heart disease' \
     and not(visit/treatment/test)]",
    "//diagnosis",
    "//zip",
    "department/doctor[specialty/text()='cardiology']/dname",
    "department/patient/(parent/patient)*/visit/treatment/medication/diagnosis",
    "(department/patient/parent/patient)*",
    "department/patient[(parent/patient)*/visit/treatment/medication/diagnosis/text()='heart disease']",
];

/// Queries on the bom *view* (`catalog → product → part → part …`).
pub const BOM_VIEW_QUERIES: &[&str] = &[
    "product",
    "product/pid",
    "product/part",
    "product/part/part",
    "product/part/(part)*/pnum",
    "//pnum",
    "//part[origin]",
    "product[part/part]",
    "product/part[not(part)]",
    "product[not(part)]",
    "product/(pid | part/pnum)",
    "product/part[(part)*/origin/text()='domestic']",
];

/// Queries on the bom *document* (recursive `part → assembly → part`).
pub const BOM_DOCUMENT_QUERIES: &[&str] = &[
    "product/pid",
    "//part",
    "//part[origin/text()='domestic']",
    "product/assembly/part/(assembly/part)*",
    "//part[not(assembly)]",
    "supplier/region",
    "//assembly[part/origin/text()='domestic']/part/pnum",
    "product[assembly/part[(assembly/part)*/origin/text()='domestic']]",
];

/// Queries on the logs *view* (error entries promoted to the root; the
/// alias labels are reachable through `ctx`).
pub const LOGS_VIEW_QUERIES: &[&str] = &[
    "entry",
    "entry/msg",
    "entry/ctx/patient",
    "//diagnosis",
    "entry[ctx/k00]",
    "entry[svc/text()='auth']/msg",
    "entry[not(ctx)]",
    "//patient | //part",
    "entry/ctx/(k01 | k02 | type)",
    "entry[msg/text()='heart disease']",
];

/// Queries on the logs *document* (wide, flat, alias-labelled).
pub const LOGS_DOCUMENT_QUERIES: &[&str] = &[
    "shard/entry/level",
    "//entry[level/text()='error']",
    "shard[host]/entry[svc/text()='billing']/msg",
    "//patient",
    "//diagnosis",
    "shard/entry[not(ctx)]",
    "//ctx[patient]",
    "shard/entry/msg",
];

/// Queries on the social *view* (recursive `member → member`, posts pulled
/// through the Kleene-starred annotation).
pub const SOCIAL_VIEW_QUERIES: &[&str] = &[
    "member",
    "member/handle",
    "member/member",
    "member/(member)*/post/content",
    "//post",
    "member[post]",
    "member[not(member)]",
    "member[member/post]",
    "//member[handle]/post",
    "member/(handle | post/content)",
];

/// Queries on the social *document* (recursive `member → friend → member`).
pub const SOCIAL_DOCUMENT_QUERIES: &[&str] = &[
    "member/handle",
    "//member[banned]",
    "member/(friend/member)*/post",
    "//post[tag/text()='private']/content",
    "member[not(banned)]/friend/member",
    "//friend/member[not(friend)]",
    "member[(friend/member)*/post[tag/text()='music']]",
];

fn gen_hospital(shape: DocShape, scale: usize, seed: u64) -> XmlTree {
    let base = HospitalConfig {
        patients: 60 * scale,
        departments: 3,
        heart_disease_fraction: 0.35,
        max_ancestor_depth: 2,
        sibling_probability: 0.4,
        visits_per_patient: 2,
        test_visit_fraction: 0.3,
        seed,
    };
    match shape {
        DocShape::Standard => generate_hospital(&base),
        DocShape::Deep => generate_deep_hospital(200 * scale, seed),
        DocShape::Skewed => generate_skewed_hospital(&base, 0.85),
        DocShape::AliasExplosion => generate_hospital(&HospitalConfig {
            patients: 30 * scale,
            max_ancestor_depth: 3,
            sibling_probability: 0.8,
            test_visit_fraction: 0.5,
            ..base
        }),
        DocShape::EmptyView => generate_hospital(&HospitalConfig {
            patients: 20 * scale,
            heart_disease_fraction: 0.0,
            ..base
        }),
    }
}

fn gen_bom(shape: DocShape, scale: usize, seed: u64) -> XmlTree {
    let base = BomConfig {
        products: 6 * scale,
        suppliers: 3,
        max_assembly_depth: 4,
        parts_per_assembly: 3,
        domestic_fraction: 0.5,
        recursion_probability: 0.6,
        skew: 0.0,
        seed,
    };
    match shape {
        DocShape::Standard => generate_bom(&base),
        DocShape::Deep => generate_deep_bom(200 * scale, seed),
        DocShape::Skewed => generate_bom(&BomConfig {
            products: 2,
            max_assembly_depth: 6 + scale,
            parts_per_assembly: 4,
            recursion_probability: 1.0,
            skew: 0.9,
            ..base
        }),
        DocShape::AliasExplosion => generate_bom(&BomConfig {
            products: 4 * scale,
            parts_per_assembly: 5,
            recursion_probability: 0.8,
            ..base
        }),
        DocShape::EmptyView => generate_bom(&BomConfig {
            products: 0,
            suppliers: 4 * scale,
            ..base
        }),
    }
}

fn gen_logs(shape: DocShape, scale: usize, seed: u64) -> XmlTree {
    let base = LogsConfig {
        shards: 3,
        entries_per_shard: 25 * scale,
        error_fraction: 0.3,
        ctx_per_entry: 1,
        keys_per_ctx: 3,
        seed,
    };
    match shape {
        DocShape::Standard => generate_logs(&base),
        // Logs are flat by construction; Deep falls back via `Domain::generate`.
        DocShape::Deep => generate_logs(&base),
        DocShape::Skewed => generate_logs(&LogsConfig {
            shards: 1,
            entries_per_shard: 60 * scale,
            ..base
        }),
        DocShape::AliasExplosion => generate_alias_explosion(12 * scale, seed),
        DocShape::EmptyView => generate_logs(&LogsConfig {
            error_fraction: 0.0,
            entries_per_shard: 15 * scale,
            ..base
        }),
    }
}

fn gen_social(shape: DocShape, scale: usize, seed: u64) -> XmlTree {
    let base = SocialConfig {
        members: 5 * scale,
        friend_depth: 3,
        friends_per_member: 2,
        posts_per_member: 2,
        banned_fraction: 0.2,
        private_fraction: 0.3,
        seed,
    };
    match shape {
        DocShape::Standard => generate_social(&base),
        // The recursive *view* makes deep social chains quadratic to
        // materialize; keep the chain shorter than the other domains'.
        DocShape::Deep => generate_deep_social(40 * scale, seed),
        DocShape::Skewed => generate_social(&SocialConfig {
            members: 1,
            friend_depth: 5,
            friends_per_member: 3,
            ..base
        }),
        DocShape::AliasExplosion => generate_social(&SocialConfig {
            members: 4 * scale,
            posts_per_member: 4,
            banned_fraction: 0.4,
            private_fraction: 0.5,
            ..base
        }),
        DocShape::EmptyView => generate_social(&SocialConfig {
            members: 3 * scale,
            banned_fraction: 1.0,
            ..base
        }),
    }
}

/// All registered domains, hospital first (the paper's running example).
pub fn all_domains() -> Vec<Domain> {
    vec![
        Domain {
            name: "hospital",
            view: hospital_view(),
            view_queries: HOSPITAL_VIEW_QUERIES,
            document_queries: HOSPITAL_DOCUMENT_QUERIES,
            shapes: &[
                DocShape::Standard,
                DocShape::Deep,
                DocShape::Skewed,
                DocShape::AliasExplosion,
                DocShape::EmptyView,
            ],
            generate: gen_hospital,
        },
        Domain {
            name: "bom",
            view: bom_view(),
            view_queries: BOM_VIEW_QUERIES,
            document_queries: BOM_DOCUMENT_QUERIES,
            shapes: &[
                DocShape::Standard,
                DocShape::Deep,
                DocShape::Skewed,
                DocShape::AliasExplosion,
                DocShape::EmptyView,
            ],
            generate: gen_bom,
        },
        Domain {
            name: "logs",
            view: logs_view(),
            view_queries: LOGS_VIEW_QUERIES,
            document_queries: LOGS_DOCUMENT_QUERIES,
            shapes: &[
                DocShape::Standard,
                DocShape::Skewed,
                DocShape::AliasExplosion,
                DocShape::EmptyView,
            ],
            generate: gen_logs,
        },
        Domain {
            name: "social",
            view: social_view(),
            view_queries: SOCIAL_VIEW_QUERIES,
            document_queries: SOCIAL_DOCUMENT_QUERIES,
            shapes: &[
                DocShape::Standard,
                DocShape::Deep,
                DocShape::Skewed,
                DocShape::AliasExplosion,
                DocShape::EmptyView,
            ],
            generate: gen_social,
        },
    ]
}

/// Looks a domain up by name.
pub fn domain(name: &str) -> Option<Domain> {
    all_domains().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_of_every_domain_conforms_to_its_dtd() {
        for domain in all_domains() {
            let dtd = domain.document_dtd().clone();
            for &shape in domain.shapes {
                let doc = domain.generate(shape, 1, 7);
                dtd.validate(&doc).unwrap_or_else(|e| {
                    panic!("{}/{:?} violates the DTD: {e}", domain.name, shape)
                });
                doc.check_consistency().unwrap();
                let again = domain.generate(shape, 1, 7);
                assert_eq!(
                    smoqe_xml::to_xml_string(&doc),
                    smoqe_xml::to_xml_string(&again),
                    "{}/{:?} is deterministic",
                    domain.name,
                    shape
                );
            }
        }
    }

    #[test]
    fn every_query_of_every_corpus_parses() {
        for domain in all_domains() {
            for q in domain.view_queries.iter().chain(domain.document_queries) {
                smoqe_xpath::parse_path(q)
                    .unwrap_or_else(|e| panic!("{}: `{q}` fails to parse: {e}", domain.name));
            }
        }
    }

    #[test]
    fn empty_view_shapes_materialize_to_the_bare_root() {
        for domain in all_domains() {
            if !domain.shapes.contains(&DocShape::EmptyView) {
                continue;
            }
            let doc = domain.generate(DocShape::EmptyView, 1, 3);
            let mv = smoqe_views::materialize(&domain.view, &doc)
                .unwrap_or_else(|e| panic!("{}: {e}", domain.name));
            assert_eq!(
                mv.tree.len(),
                1,
                "{}: empty-view shape exposes only the view root",
                domain.name
            );
        }
    }

    #[test]
    fn views_are_recursive_where_designed() {
        assert!(domain("hospital").unwrap().view.is_recursive());
        assert!(domain("bom").unwrap().view.is_recursive());
        assert!(!domain("logs").unwrap().view.is_recursive());
        assert!(domain("social").unwrap().view.is_recursive());
    }
}
