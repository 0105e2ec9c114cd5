//! Block placement policies.
//!
//! HOG's contribution is extending rack awareness to **site awareness**:
//! sites are common failure domains (whole-site outages, correlated
//! preemption bursts) and intra-site bandwidth dwarfs inter-site bandwidth,
//! so replicas must spread across sites exactly like stock HDFS spreads
//! them across racks. Three policies are provided:
//!
//! * [`SiteAwarePolicy`] — HOG §III-B.1: first replica local to the
//!   writer, the rest spread over the sites currently holding the fewest
//!   replicas of the block, preferring emptier nodes inside a site.
//! * [`RackAwarePolicy`] — stock Hadoop 0.20 default (writer, remote
//!   rack, same remote rack, then random); used on the dedicated cluster
//!   where racks are the failure domain.
//! * [`RackObliviousPolicy`] — uniform random placement, the ablation
//!   baseline showing what site awareness buys (experiment X7).
//!
//! Policies draw from [`Candidates`], a view of the namenode's
//! [`CandidateIndex`] (live datanodes by site, emptiest first), so a
//! site-aware pick never scans the datanode records.

use hog_net::{NodeId, NodeMap, SiteId};
use hog_sim_core::SimRng;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// A datanode eligible to receive a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The node.
    pub node: NodeId,
    /// Its site.
    pub site: SiteId,
    /// Free bytes on its HDFS partition.
    pub free: u64,
}

/// The namenode's placement index: every `Live` datanode, grouped by
/// site and ordered inside a site by `(free desc, NodeId asc)`. The
/// namenode re-files a node whenever its liveness or usage changes, so
/// the index is always current and a placement reads the emptiest nodes
/// of a site off its front instead of scanning every datanode record.
/// A zombie stays `Live`, so it stays filed: its heartbeats look healthy
/// and the namenode finds out when the write fails.
#[derive(Clone, Debug, Default)]
pub struct CandidateIndex {
    by_site: Vec<BTreeSet<(Reverse<u64>, NodeId)>>,
    /// Where each filed node sits: its site and the free bytes it is
    /// filed under.
    filed: NodeMap<(SiteId, u64)>,
}

impl CandidateIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// File `node` under `(site, free)`, or take it out with `None`.
    pub fn refile(&mut self, node: NodeId, entry: Option<(SiteId, u64)>) {
        let old = self.filed.get(node).copied();
        if old == entry {
            return;
        }
        if let Some((site, free)) = old {
            self.by_site[site.0 as usize].remove(&(Reverse(free), node));
            self.filed.remove(node);
        }
        if let Some((site, free)) = entry {
            let s = site.0 as usize;
            if self.by_site.len() <= s {
                self.by_site.resize_with(s + 1, BTreeSet::new);
            }
            self.by_site[s].insert((Reverse(free), node));
            self.filed.insert(node, (site, free));
        }
    }

    /// The filed nodes with their `(site, free)`, ascending by id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, (SiteId, u64))> + '_ {
        self.filed.iter().map(|(n, &e)| (n, e))
    }

    /// The candidates for a block of `size` bytes: filed nodes with at
    /// least that much free space, nothing excluded yet.
    pub fn view(&self, size: u64) -> Candidates<'_> {
        Candidates {
            index: self,
            size,
            excluded: &no_node,
            site_ok: &any_site,
        }
    }

    /// Structural check: the per-site sets hold exactly the filed
    /// entries. Returns the first violation found.
    pub(crate) fn check_invariant(&self) -> Result<(), String> {
        let mut members = 0;
        for (s, set) in self.by_site.iter().enumerate() {
            members += set.len();
            for &(Reverse(free), n) in set {
                if self.filed.get(n) != Some(&(SiteId(s as u16), free)) {
                    return Err(format!(
                        "node {} in site {s} at free {free} but filed as {:?}",
                        n.0,
                        self.filed.get(n)
                    ));
                }
            }
        }
        if members != self.filed.len() {
            return Err(format!(
                "{} nodes filed but the sites hold {members}",
                self.filed.len()
            ));
        }
        Ok(())
    }
}

fn no_node(_: NodeId) -> bool {
    false
}

fn any_site(_: SiteId) -> bool {
    true
}

/// A read-only view of a [`CandidateIndex`] for one placement: the
/// filed nodes with room for `size` bytes, on allowed sites, minus an
/// exclusion check (the block's replicas, in-flight targets, nodes a
/// client saw fail, stream-saturated sources).
#[derive(Clone, Copy)]
pub struct Candidates<'a> {
    index: &'a CandidateIndex,
    size: u64,
    excluded: &'a dyn Fn(NodeId) -> bool,
    site_ok: &'a dyn Fn(SiteId) -> bool,
}

impl<'a> Candidates<'a> {
    /// This view with `excluded` as its node exclusion check (replacing
    /// any earlier one).
    pub fn excluding(self, excluded: &'a dyn Fn(NodeId) -> bool) -> Self {
        Candidates { excluded, ..self }
    }

    /// This view restricted to the sites `site_ok` accepts (replacing
    /// any earlier site filter).
    pub fn in_sites(self, site_ok: &'a dyn Fn(SiteId) -> bool) -> Self {
        Candidates { site_ok, ..self }
    }

    /// [`Candidates::in_sites`] when any accepted site holds a candidate,
    /// else this view unchanged. Availability-boosted copies use it to
    /// prefer stable sites: an extra copy parked on a churn-prone site
    /// would be preempted before it earns its bytes, but durability
    /// comes before placement preference.
    pub fn prefer_sites(self, site_ok: &'a dyn Fn(SiteId) -> bool) -> Self {
        let narrowed = self.in_sites(site_ok);
        if narrowed.is_empty() {
            self
        } else {
            narrowed
        }
    }

    /// Whether the exclusion check rules `node` out.
    pub fn is_excluded(&self, node: NodeId) -> bool {
        (self.excluded)(node)
    }

    /// Whether the site filter accepts `site`.
    pub fn allows_site(&self, site: SiteId) -> bool {
        (self.site_ok)(site)
    }

    /// `node` as a candidate, if it is one.
    pub fn get(&self, node: NodeId) -> Option<Candidate> {
        let &(site, free) = self.index.filed.get(node)?;
        (free >= self.size && self.allows_site(site) && !self.is_excluded(node))
            .then_some(Candidate { node, site, free })
    }

    /// One past the largest site id the index has filed a node under.
    pub fn site_slots(&self) -> usize {
        self.index.by_site.len()
    }

    /// The candidates on `site`, emptiest first, ascending id among equal
    /// free space.
    pub fn in_site(&self, site: SiteId) -> impl Iterator<Item = Candidate> + '_ {
        let set = match self.index.by_site.get(site.0 as usize) {
            Some(set) if self.allows_site(site) => Some(set),
            _ => None,
        };
        set.into_iter()
            .flatten()
            .take_while(|&&(Reverse(free), _)| free >= self.size)
            .filter(|&&(_, node)| !self.is_excluded(node))
            .map(move |&(Reverse(free), node)| Candidate { node, site, free })
    }

    /// Whether no node is a candidate.
    pub fn is_empty(&self) -> bool {
        (0..self.site_slots()).all(|s| self.in_site(SiteId(s as u16)).next().is_none())
    }

    /// Every candidate in ascending node order: the slice the
    /// rack-aware and rack-oblivious ablations draw from.
    pub fn to_vec(&self) -> Vec<Candidate> {
        let mut all: Vec<Candidate> = (0..self.site_slots())
            .flat_map(|s| self.in_site(SiteId(s as u16)))
            .collect();
        all.sort_unstable_by_key(|c| c.node);
        all
    }
}

/// A replica-target chooser. Implementations must return distinct nodes
/// drawn from `candidates`, at most `n` of them; fewer when the cluster
/// cannot satisfy the request.
pub trait PlacementPolicy: Send {
    /// Human-readable policy name (report labelling).
    fn name(&self) -> &'static str;

    /// Choose up to `n` targets for a block.
    ///
    /// * `writer` — the datanode co-located with the writing client, if
    ///   any (map outputs written to HDFS, or a datanode-local upload).
    /// * `existing` — `(node, site)` of current replicas (non-empty for
    ///   re-replication).
    /// * `candidates` — eligible datanodes (live, enough free space, not
    ///   excluded); never contains nodes from `existing`.
    fn choose(
        &self,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &Candidates<'_>,
        rng: &mut SimRng,
    ) -> Vec<NodeId>;

    /// Clone this policy into a fresh box. Master checkpointing clones
    /// the whole Namenode, boxed policy included, through this hook.
    fn box_clone(&self) -> Box<dyn PlacementPolicy>;
}

impl Clone for Box<dyn PlacementPolicy> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// HOG's site-aware placement.
#[derive(Clone, Copy, Debug, Default)]
pub struct SiteAwarePolicy;

impl PlacementPolicy for SiteAwarePolicy {
    fn name(&self) -> &'static str {
        "site-aware"
    }

    fn choose(
        &self,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &Candidates<'_>,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
        if n == 0 {
            return chosen;
        }
        // This runs on every block allocation with n = the replication
        // factor (10 under the HOG preset), so it reads the index instead
        // of scanning: a pick costs O(sites + ties). Every selection
        // below is the unique minimum of a total order, so the pipeline
        // is the one a scan of every candidate would choose.
        let slots = existing
            .iter()
            .map(|&(_, s)| s.0 as usize + 1)
            .fold(candidates.site_slots(), usize::max);
        let mut site_count = vec![0u32; slots];
        for &(_, s) in existing {
            site_count[s.0 as usize] += 1;
        }
        // First replica: data locality — the writer's own datanode, when
        // it is a candidate and this is a fresh write.
        if existing.is_empty() {
            if let Some(c) = writer.and_then(|w| candidates.get(w)) {
                chosen.push(c.node);
                site_count[c.site.0 as usize] += 1;
            }
        }
        // Sites still holding an unchosen candidate. Only a pick can
        // close a site, so after a pick only its site is re-checked.
        let open = |site: SiteId, chosen: &[NodeId]| {
            candidates.in_site(site).any(|c| !chosen.contains(&c.node))
        };
        let mut is_open: Vec<bool> = (0..candidates.site_slots())
            .map(|s| open(SiteId(s as u16), &chosen))
            .collect();
        let mut ties: Vec<NodeId> = Vec::new();
        while chosen.len() < n {
            // Pick the open site with the fewest replicas so far; break
            // count ties by site id for determinism.
            let Some((_, s)) = (0..is_open.len())
                .filter(|&s| is_open[s])
                .map(|s| (site_count[s], s))
                .min()
            else {
                break;
            };
            let site = SiteId(s as u16);
            // Inside the site prefer the emptiest node, tie-broken
            // randomly under the run rng. The site is ordered by
            // `(free desc, node asc)`, so the ties are its front run in
            // ascending node id, the order the draw indexes.
            ties.clear();
            let mut top_free = 0;
            for c in candidates
                .in_site(site)
                .filter(|c| !chosen.contains(&c.node))
            {
                if !ties.is_empty() && c.free < top_free {
                    break;
                }
                top_free = c.free;
                ties.push(c.node);
            }
            chosen.push(ties[rng.index(ties.len())]);
            site_count[s] += 1;
            is_open[s] = open(site, &chosen);
        }
        chosen
    }

    fn box_clone(&self) -> Box<dyn PlacementPolicy> {
        Box::new(*self)
    }
}

/// Stock Hadoop 0.20 rack-aware placement (racks == our sites).
#[derive(Clone, Copy, Debug, Default)]
pub struct RackAwarePolicy;

impl PlacementPolicy for RackAwarePolicy {
    fn name(&self) -> &'static str {
        "rack-aware"
    }

    fn choose(
        &self,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &Candidates<'_>,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let candidates = candidates.to_vec();
        let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
        let mut remaining: Vec<&Candidate> = candidates.iter().collect();
        let site_of = |node: NodeId, cands: &[Candidate]| {
            cands.iter().find(|c| c.node == node).map(|c| c.site)
        };
        let take = |pred: &dyn Fn(&Candidate) -> bool,
                    remaining: &mut Vec<&Candidate>,
                    rng: &mut SimRng|
         -> Option<NodeId> {
            let idxs: Vec<usize> = remaining
                .iter()
                .enumerate()
                .filter(|(_, c)| pred(c))
                .map(|(i, _)| i)
                .collect();
            if idxs.is_empty() {
                return None;
            }
            let i = idxs[rng.index(idxs.len())];
            Some(remaining.swap_remove(i).node)
        };

        // Replica 1: the writer's node, else random.
        if chosen.len() < n && existing.is_empty() {
            let first = writer
                .and_then(|w| take(&|c: &Candidate| c.node == w, &mut remaining, rng))
                .or_else(|| take(&|_| true, &mut remaining, rng));
            if let Some(f) = first {
                chosen.push(f);
            }
        }
        // Replica 2: a different rack/site than replica 1 (or than any
        // existing replica, for re-replication).
        if chosen.len() < n {
            let first_site = chosen
                .first()
                .and_then(|&f| site_of(f, &candidates))
                .or_else(|| existing.first().map(|&(_, s)| s));
            let second = match first_site {
                Some(fs) => take(&|c: &Candidate| c.site != fs, &mut remaining, rng)
                    .or_else(|| take(&|_| true, &mut remaining, rng)),
                None => take(&|_| true, &mut remaining, rng),
            };
            if let Some(s) = second {
                chosen.push(s);
            }
        }
        // Replica 3: same rack as replica 2, different node.
        if chosen.len() < n {
            let second_site = chosen.last().and_then(|&s| site_of(s, &candidates));
            let third = match second_site {
                Some(ss) => take(&|c: &Candidate| c.site == ss, &mut remaining, rng)
                    .or_else(|| take(&|_| true, &mut remaining, rng)),
                None => take(&|_| true, &mut remaining, rng),
            };
            if let Some(t) = third {
                chosen.push(t);
            }
        }
        // The rest: random.
        while chosen.len() < n {
            match take(&|_| true, &mut remaining, rng) {
                Some(x) => chosen.push(x),
                None => break,
            }
        }
        chosen
    }

    fn box_clone(&self) -> Box<dyn PlacementPolicy> {
        Box::new(*self)
    }
}

/// MOON-style anchor placement: the first replica is pinned to a
/// dedicated *anchor* site (nodes that are never preempted), the rest
/// spread site-aware over the opportunistic pool. Models Lin et al.'s
/// MOON, which the paper contrasts with HOG in §V: data durability comes
/// from the anchor, so the opportunistic replication factor can stay low,
/// but the anchor's capacity and bandwidth bound the system.
#[derive(Clone, Copy, Debug)]
pub struct AnchorFirstPolicy {
    /// The dedicated anchor site.
    pub anchor: SiteId,
}

impl PlacementPolicy for AnchorFirstPolicy {
    fn name(&self) -> &'static str {
        "anchor-first"
    }

    fn choose(
        &self,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &Candidates<'_>,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        if n == 0 || candidates.is_empty() {
            return Vec::new();
        }
        let mut chosen = Vec::with_capacity(n);
        let anchor_has_replica = existing.iter().any(|&(_, s)| s == self.anchor);
        if !anchor_has_replica {
            // Pin one replica to the emptiest anchor node.
            if let Some(a) = candidates.in_site(self.anchor).next() {
                chosen.push(a.node);
            }
        }
        // Remaining replicas: site-aware spread over non-anchor nodes.
        let mut existing_rest: Vec<(NodeId, SiteId)> = existing.to_vec();
        for &c in &chosen {
            existing_rest.push((c, self.anchor));
        }
        let off_anchor = |s: SiteId| s != self.anchor && candidates.allows_site(s);
        let untaken = |node: NodeId| candidates.is_excluded(node) || chosen.contains(&node);
        let rest = candidates.in_sites(&off_anchor).excluding(&untaken);
        let more = SiteAwarePolicy.choose(
            writer,
            n.saturating_sub(chosen.len()),
            &existing_rest,
            &rest,
            rng,
        );
        chosen.extend(more);
        chosen.truncate(n);
        chosen
    }

    fn box_clone(&self) -> Box<dyn PlacementPolicy> {
        Box::new(*self)
    }
}

/// Uniform random placement, ignoring topology entirely (ablation).
#[derive(Clone, Copy, Debug, Default)]
pub struct RackObliviousPolicy;

impl PlacementPolicy for RackObliviousPolicy {
    fn name(&self) -> &'static str {
        "rack-oblivious"
    }

    fn choose(
        &self,
        _writer: Option<NodeId>,
        n: usize,
        _existing: &[(NodeId, SiteId)],
        candidates: &Candidates<'_>,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> = candidates.to_vec().iter().map(|c| c.node).collect();
        rng.shuffle(&mut pool);
        pool.truncate(n);
        pool
    }

    fn box_clone(&self) -> Box<dyn PlacementPolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `sites` nodes spread round-robin over `n_sites` sites.
    fn cluster(n_nodes: u32, n_sites: u16) -> Vec<Candidate> {
        (0..n_nodes)
            .map(|i| Candidate {
                node: NodeId(i),
                site: SiteId((i % n_sites as u32) as u16),
                free: 1_000_000,
            })
            .collect()
    }

    /// An index filing exactly `cands`.
    fn index_of(cands: &[Candidate]) -> CandidateIndex {
        let mut index = CandidateIndex::new();
        for c in cands {
            index.refile(c.node, Some((c.site, c.free)));
        }
        index
    }

    /// `policy.choose` over an index holding exactly `cands`.
    fn choose(
        policy: &dyn PlacementPolicy,
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        cands: &[Candidate],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        policy.choose(writer, n, existing, &index_of(cands).view(0), rng)
    }

    fn sites_of(chosen: &[NodeId], cands: &[Candidate]) -> Vec<SiteId> {
        chosen
            .iter()
            .map(|&n| cands.iter().find(|c| c.node == n).unwrap().site)
            .collect()
    }

    /// The slice-scanning site-aware policy the index replaced, kept as
    /// the oracle the index-backed one must match draw for draw.
    fn site_aware_oracle(
        writer: Option<NodeId>,
        n: usize,
        existing: &[(NodeId, SiteId)],
        candidates: &[Candidate],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
        if n == 0 || candidates.is_empty() {
            return chosen;
        }
        let max_site = candidates
            .iter()
            .map(|c| c.site.0)
            .chain(existing.iter().map(|&(_, s)| s.0))
            .max()
            .unwrap_or(0) as usize;
        let mut site_count = vec![0u32; max_site + 1];
        for &(_, s) in existing {
            site_count[s.0 as usize] += 1;
        }
        let mut taken = vec![false; candidates.len()];
        if existing.is_empty() {
            if let Some(w) = writer {
                if let Some(i) = candidates.iter().position(|c| c.node == w) {
                    chosen.push(w);
                    taken[i] = true;
                    site_count[candidates[i].site.0 as usize] += 1;
                }
            }
        }
        let mut ties: Vec<usize> = Vec::new();
        while chosen.len() < n {
            let mut best: Option<(u32, SiteId)> = None;
            for (i, c) in candidates.iter().enumerate() {
                if taken[i] {
                    continue;
                }
                let key = (site_count[c.site.0 as usize], c.site);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let Some((_, site)) = best else { break };
            let mut top_free = 0u64;
            ties.clear();
            for (i, c) in candidates.iter().enumerate() {
                if taken[i] || c.site != site {
                    continue;
                }
                if ties.is_empty() || c.free > top_free {
                    top_free = c.free;
                    ties.clear();
                    ties.push(i);
                } else if c.free == top_free {
                    ties.push(i);
                }
            }
            ties.sort_unstable_by_key(|&i| candidates[i].node);
            let pick = ties[rng.index(ties.len())];
            taken[pick] = true;
            site_count[site.0 as usize] += 1;
            chosen.push(candidates[pick].node);
        }
        chosen
    }

    #[test]
    fn site_aware_prefers_writer_first() {
        let cands = cluster(20, 5);
        let mut rng = SimRng::seed_from_u64(1);
        let chosen = choose(&SiteAwarePolicy, Some(NodeId(7)), 3, &[], &cands, &mut rng);
        assert_eq!(chosen[0], NodeId(7));
        assert_eq!(chosen.len(), 3);
    }

    #[test]
    fn site_aware_spreads_across_sites() {
        let cands = cluster(25, 5);
        let mut rng = SimRng::seed_from_u64(2);
        let chosen = choose(&SiteAwarePolicy, None, 5, &[], &cands, &mut rng);
        let mut sites = sites_of(&chosen, &cands);
        sites.sort();
        sites.dedup();
        assert_eq!(sites.len(), 5, "5 replicas over 5 sites must use all 5");
    }

    #[test]
    fn site_aware_ten_replicas_balance_sites() {
        // Replication 10 over 5 sites: exactly 2 per site.
        let cands = cluster(50, 5);
        let mut rng = SimRng::seed_from_u64(3);
        let chosen = choose(&SiteAwarePolicy, None, 10, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 10);
        let sites = sites_of(&chosen, &cands);
        for s in 0..5u16 {
            let k = sites.iter().filter(|&&x| x == SiteId(s)).count();
            assert_eq!(k, 2, "site {s} should hold 2 of 10 replicas");
        }
    }

    #[test]
    fn site_aware_rereplication_avoids_loaded_sites() {
        let cands: Vec<Candidate> = cluster(20, 4)
            .into_iter()
            .filter(|c| c.node != NodeId(0))
            .collect();
        // Existing replicas pile on sites 0 and 1.
        let existing = vec![
            (NodeId(0), SiteId(0)),
            (NodeId(100), SiteId(0)),
            (NodeId(101), SiteId(1)),
        ];
        let mut rng = SimRng::seed_from_u64(4);
        let chosen = choose(&SiteAwarePolicy, None, 2, &existing, &cands, &mut rng);
        let sites = sites_of(&chosen, &cands);
        assert!(sites.contains(&SiteId(2)));
        assert!(sites.contains(&SiteId(3)));
    }

    #[test]
    fn site_aware_prefers_empty_nodes_within_site() {
        let mut cands = cluster(10, 1);
        for (i, c) in cands.iter_mut().enumerate() {
            c.free = (i as u64) * 100; // node 9 is emptiest
        }
        let mut rng = SimRng::seed_from_u64(5);
        let chosen = choose(&SiteAwarePolicy, None, 1, &[], &cands, &mut rng);
        assert_eq!(chosen, vec![NodeId(9)]);
    }

    #[test]
    fn rack_aware_classic_pattern() {
        let cands = cluster(30, 3);
        let mut rng = SimRng::seed_from_u64(6);
        let chosen = choose(&RackAwarePolicy, Some(NodeId(0)), 3, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 3);
        assert_eq!(chosen[0], NodeId(0));
        let s = sites_of(&chosen, &cands);
        assert_ne!(s[0], s[1], "replica 2 on a different rack");
        assert_eq!(s[1], s[2], "replica 3 on the same rack as replica 2");
        assert_ne!(chosen[1], chosen[2]);
    }

    #[test]
    fn rack_aware_single_site_degenerates_gracefully() {
        let cands = cluster(10, 1);
        let mut rng = SimRng::seed_from_u64(7);
        let chosen = choose(&RackAwarePolicy, Some(NodeId(2)), 3, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 3);
        let mut c = chosen.clone();
        c.dedup();
        assert_eq!(c.len(), 3, "distinct nodes even in one rack");
    }

    #[test]
    fn anchor_first_pins_one_replica() {
        let cands = cluster(20, 4); // site 0 is the anchor
        let policy = AnchorFirstPolicy { anchor: SiteId(0) };
        let mut rng = SimRng::seed_from_u64(17);
        let chosen = choose(&policy, None, 3, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 3);
        let sites = sites_of(&chosen, &cands);
        assert_eq!(
            sites.iter().filter(|&&s| s == SiteId(0)).count(),
            1,
            "exactly one anchor replica: {sites:?}"
        );
    }

    #[test]
    fn anchor_first_skips_anchor_when_already_covered() {
        let cands: Vec<Candidate> = cluster(20, 4)
            .into_iter()
            .filter(|c| c.site != SiteId(0))
            .collect();
        let policy = AnchorFirstPolicy { anchor: SiteId(0) };
        let mut rng = SimRng::seed_from_u64(18);
        // Re-replication with the anchor already holding a copy.
        let existing = vec![(NodeId(100), SiteId(0))];
        let chosen = choose(&policy, None, 2, &existing, &cands, &mut rng);
        assert_eq!(chosen.len(), 2);
        let sites = sites_of(&chosen, &cands);
        assert!(sites.iter().all(|&s| s != SiteId(0)));
    }

    #[test]
    fn anchor_first_survives_empty_anchor() {
        // No anchor nodes available: all replicas go opportunistic.
        let cands: Vec<Candidate> = cluster(12, 3)
            .into_iter()
            .map(|mut c| {
                c.site = SiteId(c.site.0 + 1); // sites 1..3, no site 0
                c
            })
            .collect();
        let policy = AnchorFirstPolicy { anchor: SiteId(0) };
        let mut rng = SimRng::seed_from_u64(19);
        let chosen = choose(&policy, None, 3, &[], &cands, &mut rng);
        assert_eq!(chosen.len(), 3);
    }

    #[test]
    fn oblivious_ignores_writer() {
        let cands = cluster(100, 5);
        let mut hits = 0;
        for seed in 0..50 {
            let mut rng = SimRng::seed_from_u64(seed);
            let chosen = choose(
                &RackObliviousPolicy,
                Some(NodeId(3)),
                1,
                &[],
                &cands,
                &mut rng,
            );
            if chosen[0] == NodeId(3) {
                hits += 1;
            }
        }
        assert!(hits <= 5, "writer shouldn't be systematically preferred");
    }

    #[test]
    fn all_policies_handle_tiny_clusters() {
        let cands = cluster(2, 1);
        let mut rng = SimRng::seed_from_u64(8);
        for policy in [
            &SiteAwarePolicy as &dyn PlacementPolicy,
            &RackAwarePolicy,
            &RackObliviousPolicy,
        ] {
            let chosen = choose(policy, None, 10, &[], &cands, &mut rng);
            assert_eq!(chosen.len(), 2, "{}: give what exists", policy.name());
            assert_ne!(chosen[0], chosen[1]);
        }
    }

    #[test]
    fn empty_candidates_yield_empty() {
        let mut rng = SimRng::seed_from_u64(9);
        for policy in [
            &SiteAwarePolicy as &dyn PlacementPolicy,
            &RackAwarePolicy,
            &RackObliviousPolicy,
        ] {
            assert!(choose(policy, None, 3, &[], &[], &mut rng).is_empty());
        }
    }

    #[test]
    fn index_refiles_and_views_filter() {
        let mut index = index_of(&cluster(12, 4)); // sites 0..4, 3 nodes each
        index.refile(NodeId(5), Some((SiteId(1), 10)));
        index.refile(NodeId(9), None);
        assert!(index.check_invariant().is_ok());
        assert_eq!(index.iter().count(), 11);
        // Size filters by free space; the site front is emptiest first.
        let view = index.view(100);
        assert!(view.get(NodeId(5)).is_none() && view.get(NodeId(9)).is_none());
        let front: Vec<NodeId> = index.view(0).in_site(SiteId(1)).map(|c| c.node).collect();
        assert_eq!(front, vec![NodeId(1), NodeId(5)]);
        // The slice view is node-ordered and honours exclusions.
        let odd = |n: NodeId| n.0 % 2 == 1;
        let ids: Vec<u32> = view
            .excluding(&odd)
            .to_vec()
            .iter()
            .map(|c| c.node.0)
            .collect();
        assert_eq!(ids, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn prefer_sites_filters_and_falls_back() {
        let index = index_of(&cluster(12, 4)); // sites 0..4, 3 nodes each
                                               // Sites 1 and 3 stable: only their nodes survive.
        let stable = |s: SiteId| s.0 % 2 == 1;
        let filtered = index.view(0).prefer_sites(&stable).to_vec();
        assert_eq!(filtered.len(), 6);
        assert!(filtered.iter().all(|c| c.site.0 % 2 == 1));
        // No stable site at all: the full set.
        let none = |_: SiteId| false;
        assert_eq!(index.view(0).prefer_sites(&none).to_vec().len(), 12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every policy returns distinct nodes drawn from the candidates,
        /// never more than requested or available.
        #[test]
        fn prop_policies_return_valid_sets(
            n_nodes in 1u32..60,
            n_sites in 1u16..6,
            want in 0usize..15,
            seed in 0u64..1000,
            which in 0u8..3,
        ) {
            let cands = cluster(n_nodes, n_sites);
            let mut rng = SimRng::seed_from_u64(seed);
            let policy: &dyn PlacementPolicy = match which {
                0 => &SiteAwarePolicy,
                1 => &RackAwarePolicy,
                _ => &RackObliviousPolicy,
            };
            let chosen = choose(policy, Some(NodeId(0)), want, &[], &cands, &mut rng);
            prop_assert!(chosen.len() <= want);
            prop_assert!(chosen.len() <= cands.len());
            if want > 0 && !cands.is_empty() {
                prop_assert!(!chosen.is_empty(), "{} returned nothing", policy.name());
            }
            let mut uniq = chosen.clone();
            uniq.sort();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), chosen.len(), "duplicates returned");
            for c in &chosen {
                prop_assert!(cands.iter().any(|x| x.node == *c));
            }
        }

        /// Site-aware invariant: replica counts across sites never differ
        /// by more than one when every site has spare nodes.
        #[test]
        fn prop_site_aware_balances(
            per_site in 3u32..8,
            n_sites in 2u16..6,
            want in 1usize..12,
            seed in 0u64..500,
        ) {
            let n_nodes = per_site * n_sites as u32;
            let cands = cluster(n_nodes, n_sites);
            let want = want.min(n_nodes as usize);
            let mut rng = SimRng::seed_from_u64(seed);
            let chosen = choose(&SiteAwarePolicy, None, want, &[], &cands, &mut rng);
            let sites = sites_of(&chosen, &cands);
            let mut counts = vec![0usize; n_sites as usize];
            for s in sites { counts[s.0 as usize] += 1; }
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            // Only enforce when no site ran out of candidate nodes.
            if max <= per_site as usize {
                prop_assert!(max - min <= 1, "unbalanced: {counts:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The index-backed site-aware policy picks exactly what the
        /// slice-scanning oracle picks from the same candidates — and
        /// leaves the rng in the same state — across random sites,
        /// unequal free space, writers, existing replicas, exclusions,
        /// saturated streams and a stable-site restriction.
        #[test]
        fn prop_index_matches_slice_oracle(
            nodes in proptest::collection::vec((0u16..7, 0u64..5, 0u8..8), 1..70),
            size in 0u64..3,
            (writer, n, seed) in (0usize..80, 0usize..13, 0u64..1000),
            (existing_mask, excluded_mask, saturated_mask) in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            (stable_mask, restrict) in (0u8..128, proptest::bool::ANY),
        ) {
            // Node i: site, free (in coarse steps, so ties are common) and
            // whether it is live (filed) at all.
            let bit = |mask: u64, i: usize| mask >> (i % 64) & 1 == 1;
            let mut index = CandidateIndex::new();
            let mut existing: Vec<(NodeId, SiteId)> = Vec::new();
            for (i, &(site, free, live)) in nodes.iter().enumerate() {
                let (node, site) = (NodeId(i as u32), SiteId(site));
                if live > 0 {
                    index.refile(node, Some((site, free)));
                }
                if bit(existing_mask, i * 7) && existing.len() < 4 {
                    existing.push((node, site));
                }
            }
            // On fresh writes (every fourth case) there are no replicas.
            if seed % 4 == 0 {
                existing.clear();
            }
            prop_assert!(index.check_invariant().is_ok());
            let excluded = |node: NodeId| {
                let i = node.0 as usize;
                existing.iter().any(|&(e, _)| e == node)
                    || bit(excluded_mask, i * 5 + 1)
                    || bit(saturated_mask, i * 3 + 2)
            };
            let stable = |s: SiteId| stable_mask >> s.0 & 1 == 1;
            let mut view = index.view(size).excluding(&excluded);
            if restrict {
                view = view.prefer_sites(&stable);
            }
            // The oracle's slice: a scan of every record, ascending id.
            let mut slice: Vec<Candidate> = nodes
                .iter()
                .enumerate()
                .filter(|&(i, &(_, free, live))| {
                    live > 0 && free >= size && !excluded(NodeId(i as u32))
                })
                .map(|(i, &(site, free, _))| Candidate {
                    node: NodeId(i as u32),
                    site: SiteId(site),
                    free,
                })
                .collect();
            if restrict && slice.iter().any(|c| stable(c.site)) {
                slice.retain(|c| stable(c.site));
            }
            prop_assert_eq!(view.to_vec(), slice.clone());
            let writer = (writer < nodes.len() + 10).then_some(NodeId(writer as u32));
            let mut rng_index = SimRng::seed_from_u64(seed);
            let mut rng_oracle = SimRng::seed_from_u64(seed);
            let got = SiteAwarePolicy.choose(writer, n, &existing, &view, &mut rng_index);
            let want = site_aware_oracle(writer, n, &existing, &slice, &mut rng_oracle);
            prop_assert_eq!(got, want);
            prop_assert_eq!(rng_index.next_u64(), rng_oracle.next_u64());
        }
    }
}
