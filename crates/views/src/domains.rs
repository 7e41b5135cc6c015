//! Security specifications and view definitions for the fuzz domains
//! (`smoqe_xml::domains`): bom, logs and social.
//!
//! The bom and logs views are **derived** from [`SecuritySpec`]s via
//! [`derive_view`] — exercising elide-and-promote (including
//! [`Access::Conditional`] filters) on DTDs other than the paper's hospital
//! example. The social view is **hand-written**, and is the domain whose
//! *view definition* is heavily recursive: its annotations traverse the
//! document's `friend → member` relation directly (`σ(member, member)`) and
//! with a Kleene closure (`σ(member, post)`), so rewriting must cope with
//! stars that arise from the view rather than from the query.

use smoqe_xml::domains::{
    bom_document_dtd, logs_document_dtd, social_document_dtd, social_view_dtd, DOMESTIC,
    ERROR_LEVEL,
};
use smoqe_xpath::{Path, Pred};

use crate::definition::ViewDefinition;
use crate::security::{derive_view, Access, SecuritySpec};

/// The security policy of the **bom** domain: suppliers and costs are trade
/// secrets, assemblies are elided, and only domestically sourced parts are
/// visible.
///
/// * `catalog → supplier` — denied (the whole supplier subtree vanishes);
/// * `product → assembly`, `part → assembly` — denied: assemblies are
///   elided, their parts are promoted to the enclosing product/part;
/// * `assembly → part` — conditional on `origin/text() = 'domestic'`;
/// * `part → cost` — denied everywhere.
pub fn bom_security_spec() -> SecuritySpec {
    let mut spec = SecuritySpec::new(bom_document_dtd());
    spec.annotate("catalog", "supplier", Access::Deny);
    spec.annotate("product", "assembly", Access::Deny);
    spec.annotate("part", "assembly", Access::Deny);
    spec.annotate(
        "assembly",
        "part",
        Access::Conditional(Pred::text_eq(Path::label("origin"), DOMESTIC)),
    );
    spec.deny_everywhere("cost");
    // The supplier subtree is gone with its parent, but its leaves must not
    // be promoted through the hidden region either.
    spec.deny_everywhere("sname");
    spec.deny_everywhere("region");
    spec
}

/// The derived **bom** view:
///
/// ```text
/// σ(catalog, product) = product
/// σ(product, pid)     = pid
/// σ(product, part)    = assembly/part[origin/text() = 'domestic']
/// σ(part, pnum)       = pnum
/// σ(part, origin)     = origin
/// σ(part, part)       = assembly/part[origin/text() = 'domestic']
/// ```
///
/// The view DTD is recursive (`part → part`), mirroring the document
/// recursion with the hidden `assembly` hop elided.
pub fn bom_view() -> ViewDefinition {
    let view = derive_view(&bom_security_spec()).expect("bom view derives");
    view.check().expect("bom view is complete");
    view
}

/// The security policy of the **logs** domain: shards (and their hosts) are
/// infrastructure detail, timestamps are hidden, and only `error`-level
/// entries are exposed.
///
/// * `logbook → shard` — denied: entries are promoted to the logbook root;
/// * `shard → entry` — conditional on `level/text() = 'error'`;
/// * `host`, `ts` — denied everywhere.
pub fn logs_security_spec() -> SecuritySpec {
    let mut spec = SecuritySpec::new(logs_document_dtd());
    spec.annotate("logbook", "shard", Access::Deny);
    spec.annotate(
        "shard",
        "entry",
        Access::Conditional(Pred::text_eq(Path::label("level"), ERROR_LEVEL)),
    );
    spec.deny_everywhere("host");
    spec.deny_everywhere("ts");
    spec
}

/// The derived **logs** view:
///
/// ```text
/// σ(logbook, entry) = shard/entry[level/text() = 'error']
/// σ(entry, level)   = level      σ(entry, svc) = svc     σ(entry, msg) = msg
/// σ(entry, ctx)     = ctx        σ(ctx, k00…)  = k00…
/// ```
///
/// Flat but wide: the view keeps the whole exploded context-key vocabulary
/// (including the alias labels), so view queries can probe `//patient` and
/// friends through the view.
pub fn logs_view() -> ViewDefinition {
    let view = derive_view(&logs_security_spec()).expect("logs view derives");
    view.check().expect("logs view is complete");
    view
}

/// The hand-written, heavily recursive **social** view:
///
/// ```text
/// σ(network, member) = member[not(banned)]
/// σ(member, handle)  = handle
/// σ(member, member)  = friend/member[not(banned)]
/// σ(member, post)    = (friend/member)*/post[not(tag/text() = 'private')]
/// σ(post, content)   = content
/// ```
///
/// Two annotations recurse through the document's friend relation: the view
/// `member → member` edge walks it one hop at a time, while `member → post`
/// closes over it with a Kleene star, exposing the posts of *all*
/// transitively reachable friends (public ones, for non-banned members).
pub fn social_view() -> ViewDefinition {
    let mut view = ViewDefinition::new(social_document_dtd(), social_view_dtd());
    view.annotate_str("network", "member", "member[not(banned)]")
        .expect("σ(network, member)");
    view.annotate_str("member", "handle", "handle")
        .expect("σ(member, handle)");
    view.annotate_str("member", "member", "friend/member[not(banned)]")
        .expect("σ(member, member)");
    view.annotate_str(
        "member",
        "post",
        "(friend/member)*/post[not(tag/text()='private')]",
    )
    .expect("σ(member, post)");
    view.annotate_str("post", "content", "content")
        .expect("σ(post, content)");
    view.check().expect("social view is complete");
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::materialize;
    use smoqe_xml::XmlTreeBuilder;
    use smoqe_xpath::{evaluate, parse_path};

    #[test]
    fn bom_view_derives_complete_and_recursive() {
        let view = bom_view();
        assert!(view.is_recursive(), "bom view keeps the part recursion");
        assert!(view.is_edge("catalog", "product"));
        assert!(view.is_edge("part", "part"));
        assert!(!view.is_edge("catalog", "supplier"), "suppliers are hidden");
        let promoted = view.annotation("product", "part").expect("promoted edge");
        let rendered = format!("{promoted}");
        assert!(
            rendered.contains("assembly") && rendered.contains(DOMESTIC),
            "σ(product, part) crosses the elided assembly with the condition: {rendered}"
        );
    }

    #[test]
    fn logs_view_promotes_error_entries_to_the_root() {
        let view = logs_view();
        assert!(!view.is_recursive(), "logs stays flat");
        assert!(
            view.is_edge("logbook", "entry"),
            "entries promote past shards"
        );
        assert!(!view.is_edge("entry", "ts"), "timestamps are hidden");
        let q = view.annotation("logbook", "entry").expect("promoted edge");
        assert!(format!("{q}").contains(ERROR_LEVEL));
    }

    #[test]
    fn social_view_materializes_transitive_friend_posts() {
        // alice —friend→ bob —friend→ carol(posts "deep"); bob is banned.
        let mut b = XmlTreeBuilder::new();
        let root = b.root("network");
        let alice = b.child(root, "member");
        b.child_with_text(alice, "mid", "1");
        b.child_with_text(alice, "handle", "alice");
        let f = b.child(alice, "friend");
        let bob = b.child(f, "member");
        b.child_with_text(bob, "mid", "2");
        b.child_with_text(bob, "handle", "bob");
        b.child(bob, "banned");
        let f2 = b.child(bob, "friend");
        let carol = b.child(f2, "member");
        b.child_with_text(carol, "mid", "3");
        b.child_with_text(carol, "handle", "carol");
        let post = b.child(carol, "post");
        b.child_with_text(post, "content", "deep");
        let doc = b.finish();
        social_document_dtd().validate(&doc).unwrap();

        let view = social_view();
        let mv = materialize(&view, &doc).unwrap();
        // Alice is visible; bob is banned so the member recursion stops at
        // him — but the starred post annotation still reaches carol's post.
        let members = evaluate(&mv.tree, mv.tree.root(), &parse_path("member").unwrap());
        assert_eq!(members.len(), 1, "only alice at the top level");
        let posts = evaluate(
            &mv.tree,
            mv.tree.root(),
            &parse_path("//post/content").unwrap(),
        );
        assert_eq!(
            posts.len(),
            1,
            "carol's post is reachable through the closure"
        );
        let origins = mv.origins_of(&posts);
        let texts: Vec<_> = origins.iter().map(|&n| doc.text(n).unwrap_or("")).collect();
        assert_eq!(texts, ["deep"]);
    }
}
