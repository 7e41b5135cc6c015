//! Generator for documents conforming to the social-network DTD
//! (`smoqe_xml::domains::social_document_dtd`) — the domain whose *view
//! definition* is heavily recursive.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smoqe_xml::{NodeId, XmlTree, XmlTreeBuilder};

/// Configuration of the social document generator.
#[derive(Debug, Clone)]
pub struct SocialConfig {
    /// Number of top-level members.
    pub members: usize,
    /// Maximum friend-nesting depth (the document recursion).
    pub friend_depth: usize,
    /// Friends per member at each level.
    pub friends_per_member: usize,
    /// Posts per member.
    pub posts_per_member: usize,
    /// Fraction of members carrying the `banned` marker — the knob of the
    /// view's negated filters. `1.0` produces an empty view.
    pub banned_fraction: f64,
    /// Fraction of posts tagged `private` (hidden by the view's post
    /// filter).
    pub private_fraction: f64,
    /// RNG seed; the same configuration always generates the same document.
    pub seed: u64,
}

impl Default for SocialConfig {
    fn default() -> Self {
        SocialConfig {
            members: 6,
            friend_depth: 3,
            friends_per_member: 2,
            posts_per_member: 2,
            banned_fraction: 0.2,
            private_fraction: 0.3,
            seed: 0x50c1_a175,
        }
    }
}

const TAGS: &[&str] = &["travel", "food", "music", "private"];

/// Generates a social document according to `config`.
pub fn generate_social(config: &SocialConfig) -> XmlTree {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = XmlTreeBuilder::new();
    let root = b.root("network");
    let mut counter = 0usize;
    for _ in 0..config.members.max(1) {
        emit_member(
            config,
            &mut rng,
            &mut b,
            &mut counter,
            root,
            config.friend_depth,
        );
    }
    b.finish()
}

/// Emits one member under `wrapper` (the network root or a `friend`
/// element), recursing into nested friends while the depth budget lasts.
fn emit_member(
    config: &SocialConfig,
    rng: &mut StdRng,
    b: &mut XmlTreeBuilder,
    counter: &mut usize,
    wrapper: NodeId,
    depth_left: usize,
) -> NodeId {
    *counter += 1;
    let id = *counter;
    let m = b.child(wrapper, "member");
    b.child_with_text(m, "mid", &format!("{id}"));
    b.child_with_text(m, "handle", &format!("user-{id}"));
    if rng.gen_bool(config.banned_fraction) {
        b.child(m, "banned");
    }
    if depth_left > 0 {
        for _ in 0..config.friends_per_member {
            let f = b.child(m, "friend");
            emit_member(config, rng, b, counter, f, depth_left - 1);
        }
    }
    for p in 0..config.posts_per_member {
        let post = b.child(m, "post");
        b.child_with_text(post, "content", &format!("post-{id}-{p}"));
        let tag = if rng.gen_bool(config.private_fraction) {
            "private"
        } else {
            TAGS[(id + p) % 3]
        };
        b.child_with_text(post, "tag", tag);
    }
    m
}

/// Generates a pathological-depth social document: one top-level member
/// with a single friend chain `depth` levels deep, each member posting
/// once. Built **iteratively** — the deep shape for the recursive *view*
/// annotations ((friend/member)* closes over the whole chain).
pub fn generate_deep_social(depth: usize, seed: u64) -> XmlTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = XmlTreeBuilder::new();
    let root = b.root("network");
    let mut wrapper = root;
    for level in 0..depth.max(1) {
        let m = b.child(wrapper, "member");
        b.child_with_text(m, "mid", &format!("{level}"));
        b.child_with_text(m, "handle", &format!("user-{level}"));
        // Banned members cut the view's member recursion but not the
        // document chain; keep them rare so the view stays deep too.
        if rng.gen_bool(0.02) {
            b.child(m, "banned");
        }
        // Content-model order: friends come before posts.
        wrapper = b.child(m, "friend");
        let post = b.child(m, "post");
        b.child_with_text(post, "content", &format!("post-{level}"));
        b.child_with_text(post, "tag", TAGS[level % 3]);
    }
    // The innermost friend wrapper needs its member to conform to the DTD.
    let last = b.child(wrapper, "member");
    b.child_with_text(last, "mid", "last");
    b.child_with_text(last, "handle", "user-last");
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_xml::domains::social_document_dtd;

    #[test]
    fn generated_documents_conform_to_the_dtd() {
        let doc = generate_social(&SocialConfig::default());
        social_document_dtd().validate(&doc).unwrap();
        doc.check_consistency().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_social(&SocialConfig::default());
        let b = generate_social(&SocialConfig::default());
        assert_eq!(smoqe_xml::to_xml_string(&a), smoqe_xml::to_xml_string(&b));
    }

    #[test]
    fn deep_generator_reaches_the_requested_depth() {
        let doc = generate_deep_social(150, 11);
        social_document_dtd().validate(&doc).unwrap();
        // Each level adds member/friend (2) to the spine.
        assert!(doc.max_depth() >= 300, "depth {}", doc.max_depth());
    }

    #[test]
    fn banned_everyone_empties_the_view_roots() {
        use smoqe_xpath::{evaluate, parse_path};
        let doc = generate_social(&SocialConfig {
            banned_fraction: 1.0,
            ..Default::default()
        });
        let q = parse_path("member[not(banned)]").unwrap();
        assert!(evaluate(&doc, doc.root(), &q).is_empty());
    }
}
