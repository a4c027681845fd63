//! The consistent-hash ring: deterministic `StreamId → node` placement
//! shared, byte for byte, by every server and client in the cluster.
//!
//! Each node contributes `vnodes` points on a 64-bit circle; a stream is
//! owned by the node holding the first point at or after the stream's
//! hash. Virtual nodes smooth the per-node share; placement depends only
//! on the ring blob, so two parties holding the same blob always agree on
//! an owner without talking to each other.
//!
//! Membership changes never rehash the circle. Draining or losing a node
//! adds an *inheritance* edge (`from → to`): `from`'s points stay on the
//! circle but resolve through the edge to `to`. A failover therefore
//! moves exactly the dead node's range — to its ring successor, the one
//! peer that has been receiving its warm-standby feed — and every other
//! stream stays put.
//!
//! Rings are versioned; nodes refuse installs that do not increase the
//! version, so the newest ring wins everywhere regardless of delivery
//! order. The codec frames the blob with a magic and a CRC-32 trailer.

use store::codec::{self, Reader};

use crate::ClusterError;

/// Ring blob magic ("LARPRING").
pub const RING_MAGIC: &[u8; 8] = b"LARPRING";

/// Ring blob format version.
pub const RING_FORMAT: u8 = 1;

/// Largest member list a decoded ring may carry.
const MAX_NODES: usize = 4096;

/// Largest circle (`members × vnodes` points) a decoded ring may rebuild:
/// 16 MiB of points.
const MAX_POINTS: u64 = 1 << 20;

/// How a node's range moved to its heir — the distinction decides whether
/// installing the ring must materialize state on the heir.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffKind {
    /// A live drain: every stream was moved ahead of the ring flip via
    /// `MigrateOut`/`MigrateIn`, so the heir already holds the state and
    /// must not touch the loser's WAL.
    Drained,
    /// A failover: the node died in place. Installing the ring makes the
    /// heir materialize its streams from the warm-standby feed plus the
    /// dead node's on-disk WAL tail.
    Failed,
}

/// One cluster member: the name is its identity (hash input, sort key),
/// the addr is its netserve protocol endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Stable node name; placement hashes this, so renaming a node moves
    /// its entire range.
    pub name: String,
    /// Protocol address (`host:port`) clients and peers dial.
    pub addr: String,
}

/// The consistent-hash ring. Construct with [`Ring::new`], mutate through
/// [`Ring::reassign`]/[`Ring::fail_over`] (each bumps the version), ship
/// with [`Ring::encode`]/[`Ring::decode`].
#[derive(Debug, Clone, PartialEq)]
pub struct Ring {
    version: u64,
    vnodes: u32,
    /// Members sorted by name; dead/drained members stay listed so their
    /// points keep resolving through `inherited`.
    nodes: Vec<NodeInfo>,
    /// Inheritance edges `from → to` with the handoff kind, sorted by
    /// `from`. A node appearing as a `from` is dead or drained; its range
    /// resolves to `to`.
    inherited: Vec<(String, String, HandoffKind)>,
    /// Hashed points `(point, node index)`, sorted — rebuilt, never
    /// encoded.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// Builds a ring over `nodes` (any order; sorted internally).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Ring`] for an empty member list, zero
    /// vnodes, or duplicate/empty node names.
    pub fn new(version: u64, vnodes: u32, mut nodes: Vec<NodeInfo>) -> Result<Ring, ClusterError> {
        if nodes.is_empty() {
            return Err(ClusterError::Ring("a ring needs at least one node".into()));
        }
        if vnodes == 0 {
            return Err(ClusterError::Ring("vnodes must be at least 1".into()));
        }
        nodes.sort_by(|a, b| a.name.cmp(&b.name));
        for pair in nodes.windows(2) {
            if pair[0].name == pair[1].name {
                return Err(ClusterError::Ring(format!("duplicate node name {:?}", pair[0].name)));
            }
        }
        if nodes.iter().any(|n| n.name.is_empty() || n.addr.is_empty()) {
            return Err(ClusterError::Ring("node names and addrs must be non-empty".into()));
        }
        let mut ring = Ring { version, vnodes, nodes, inherited: Vec::new(), points: Vec::new() };
        ring.rebuild_points();
        Ok(ring)
    }

    fn rebuild_points(&mut self) {
        self.points.clear();
        self.points.reserve(self.nodes.len() * self.vnodes as usize);
        for (i, node) in self.nodes.iter().enumerate() {
            for v in 0..self.vnodes {
                self.points.push((point_hash(&node.name, v), i as u32));
            }
        }
        self.points.sort_unstable();
    }

    /// The ring version (monotonic; mutators bump it).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Every member, sorted by name — including dead/drained ones whose
    /// ranges resolve through inheritance.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// The inheritance edges (`from → to` + handoff kind), sorted by
    /// `from`.
    pub fn inherited(&self) -> &[(String, String, HandoffKind)] {
        &self.inherited
    }

    /// Looks a member up by name.
    pub fn node(&self, name: &str) -> Option<&NodeInfo> {
        self.nodes.binary_search_by(|n| n.name.as_str().cmp(name)).ok().map(|i| &self.nodes[i])
    }

    /// Whether `name` is a live member (listed and not inherited-from).
    pub fn is_alive(&self, name: &str) -> bool {
        self.node(name).is_some() && !self.inherited.iter().any(|(from, _, _)| from == name)
    }

    /// Live members, in name order.
    pub fn alive(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.iter().filter(|n| self.is_alive(&n.name))
    }

    /// The node owning `stream`: first point at or after the stream's
    /// hash (wrapping), resolved through inheritance edges.
    pub fn owner_of(&self, stream: u64) -> &NodeInfo {
        let h = stream_hash(stream);
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, idx) = self.points[if i == self.points.len() { 0 } else { i }];
        let mut name = self.nodes[idx as usize].name.as_str();
        // Chase inheritance; edges always target a node live at insertion
        // time, but guard against pathological blobs anyway.
        for _ in 0..self.nodes.len() {
            match self.inherited.iter().find(|(from, _, _)| from == name) {
                Some((_, to, _)) => name = to.as_str(),
                None => break,
            }
        }
        self.node(name).expect("inheritance edges stay within the member list")
    }

    /// The next live member after `name` in name order (cyclic) — the
    /// warm-standby heir. `None` when `name` is the only live member (or
    /// unknown).
    pub fn successor(&self, name: &str) -> Option<&NodeInfo> {
        self.node(name)?;
        let start = self.nodes.iter().position(|n| n.name == name).expect("node checked above");
        (1..self.nodes.len())
            .map(|step| &self.nodes[(start + step) % self.nodes.len()])
            .find(|n| self.is_alive(&n.name))
    }

    /// Routes `from`'s entire range to `to` after a live drain (state
    /// already migrated stream by stream) and bumps the version. Heirs
    /// installing the ring will *not* materialize anything for this edge.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Ring`] when either node is unknown, `from`
    /// is already inherited-from, or `to` is not live.
    pub fn reassign(&mut self, from: &str, to: &str) -> Result<(), ClusterError> {
        self.route(from, to, HandoffKind::Drained)
    }

    fn route(&mut self, from: &str, to: &str, kind: HandoffKind) -> Result<(), ClusterError> {
        if self.node(from).is_none() || self.node(to).is_none() {
            return Err(ClusterError::Ring(format!("unknown node in reassign {from:?} -> {to:?}")));
        }
        if from == to {
            return Err(ClusterError::Ring(format!("cannot reassign {from:?} to itself")));
        }
        if !self.is_alive(from) {
            return Err(ClusterError::Ring(format!("{from:?} is already reassigned")));
        }
        if !self.is_alive(to) {
            return Err(ClusterError::Ring(format!("heir {to:?} is not live")));
        }
        self.inherited.push((from.to_string(), to.to_string(), kind));
        self.inherited.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        self.version += 1;
        Ok(())
    }

    /// Declares `dead` failed: its range moves to its ring successor (the
    /// peer holding its warm-standby state), flagged so the heir
    /// materializes the dead node's streams when it installs the ring.
    /// Returns the heir's name.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Ring`] when `dead` is unknown, already
    /// reassigned, or has no live successor.
    pub fn fail_over(&mut self, dead: &str) -> Result<String, ClusterError> {
        let heir = self
            .successor(dead)
            .ok_or_else(|| ClusterError::Ring(format!("no live successor for {dead:?}")))?
            .name
            .clone();
        self.route(dead, &heir, HandoffKind::Failed)?;
        Ok(heir)
    }

    /// Encodes the ring: magic, format byte, version, vnodes, members,
    /// inheritance edges, CRC-32 trailer. Points are rebuilt on decode.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.nodes.len() * 32);
        out.extend_from_slice(RING_MAGIC);
        out.push(RING_FORMAT);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.vnodes.to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        for n in &self.nodes {
            codec::put_str(&mut out, &n.name);
            codec::put_str(&mut out, &n.addr);
        }
        out.extend_from_slice(&(self.inherited.len() as u32).to_le_bytes());
        for (from, to, kind) in &self.inherited {
            codec::put_str(&mut out, from);
            codec::put_str(&mut out, to);
            out.push(match kind {
                HandoffKind::Drained => 0,
                HandoffKind::Failed => 1,
            });
        }
        codec::seal(&mut out);
        out
    }

    /// Decodes a ring blob, validating magic, format, CRC and membership
    /// invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Ring`] for truncation, a bad magic or CRC,
    /// implausible member or vnode counts, or inheritance edges naming
    /// unknown nodes.
    pub fn decode(bytes: &[u8]) -> Result<Ring, ClusterError> {
        if bytes.len() < RING_MAGIC.len() + 1 + 8 + 4 + 4 + 4 + codec::CRC_LEN {
            return Err(ClusterError::Ring("ring blob truncated".into()));
        }
        let body = codec::unseal(bytes)
            .ok_or_else(|| ClusterError::Ring("ring blob CRC mismatch".into()))?;
        let mut r = Reader::new(body);
        let malformed = |e: codec::Error| ClusterError::Ring(format!("ring blob {e}"));
        if r.bytes(RING_MAGIC.len()).map_err(malformed)? != RING_MAGIC {
            return Err(ClusterError::Ring("bad ring magic".into()));
        }
        let format = r.u8().map_err(malformed)?;
        if format != RING_FORMAT {
            return Err(ClusterError::Ring(format!("unsupported ring format {format}")));
        }
        let version = r.u64().map_err(malformed)?;
        let vnodes = r.u32().map_err(malformed)?;
        // A member is at least two string lengths (4 bytes).
        let node_count = r.len(4).map_err(malformed)?;
        if node_count > MAX_NODES {
            return Err(ClusterError::Ring(format!("implausible node count {node_count}")));
        }
        // The circle is rebuilt from `node_count × vnodes` points: bound it
        // before `Ring::new` reserves them.
        if node_count as u64 * vnodes as u64 > MAX_POINTS {
            return Err(ClusterError::Ring(format!("implausible vnode count {vnodes}")));
        }
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let name = r.str().map_err(malformed)?.to_owned();
            let addr = r.str().map_err(malformed)?.to_owned();
            nodes.push(NodeInfo { name, addr });
        }
        let mut ring = Ring::new(version, vnodes, nodes)?;
        // An edge is two string lengths and a kind byte (5 bytes).
        let edge_count = r.len(5).map_err(malformed)?;
        if edge_count > node_count {
            return Err(ClusterError::Ring(format!("implausible edge count {edge_count}")));
        }
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            let from = r.str().map_err(malformed)?.to_owned();
            let to = r.str().map_err(malformed)?.to_owned();
            let kind = match r.u8().map_err(malformed)? {
                0 => HandoffKind::Drained,
                1 => HandoffKind::Failed,
                other => {
                    return Err(ClusterError::Ring(format!("unknown handoff kind {other}")));
                }
            };
            if ring.node(&from).is_none() || ring.node(&to).is_none() {
                return Err(ClusterError::Ring(format!(
                    "inheritance edge {from:?} -> {to:?} names an unknown node"
                )));
            }
            edges.push((from, to, kind));
        }
        edges.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        ring.inherited = edges;
        r.finish().map_err(malformed)?;
        Ok(ring)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a fold of a node name.
fn fnv(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Position of one virtual node on the circle.
fn point_hash(name: &str, vnode: u32) -> u64 {
    splitmix(fnv(name) ^ (vnode as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Position of a stream on the circle.
fn stream_hash(stream: u64) -> u64 {
    splitmix(stream ^ 0x5851_F42D_4C95_7F2D)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> Ring {
        Ring::new(
            1,
            64,
            vec![
                NodeInfo { name: "a".into(), addr: "127.0.0.1:7001".into() },
                NodeInfo { name: "b".into(), addr: "127.0.0.1:7002".into() },
                NodeInfo { name: "c".into(), addr: "127.0.0.1:7003".into() },
            ],
        )
        .expect("ring")
    }

    #[test]
    fn placement_is_deterministic_and_roughly_balanced() {
        let ring = three();
        let mut counts = std::collections::HashMap::new();
        for id in 0..3000u64 {
            let owner = ring.owner_of(id).name.clone();
            assert_eq!(owner, ring.owner_of(id).name, "placement is a pure function");
            *counts.entry(owner).or_insert(0u64) += 1;
        }
        for name in ["a", "b", "c"] {
            let share = counts[name] as f64 / 3000.0;
            assert!(
                (0.15..=0.55).contains(&share),
                "node {name} owns {share:.2} of the keyspace — vnodes are not smoothing"
            );
        }
    }

    #[test]
    fn codec_round_trips_and_rejects_corruption() {
        let mut ring = three();
        ring.reassign("a", "c").expect("drain a");
        ring.fail_over("b").expect("fail over b");
        assert_eq!(
            ring.inherited(),
            &[
                ("a".into(), "c".into(), HandoffKind::Drained),
                ("b".into(), "c".into(), HandoffKind::Failed),
            ],
            "drain and failover edges carry their handoff kind"
        );
        let blob = ring.encode();
        let back = Ring::decode(&blob).expect("decode");
        assert_eq!(back, ring);
        for id in 0..500u64 {
            assert_eq!(back.owner_of(id), ring.owner_of(id));
        }

        let mut bad = blob.clone();
        bad[12] ^= 0xFF;
        assert!(matches!(Ring::decode(&bad), Err(ClusterError::Ring(_))), "CRC must catch flips");
        assert!(matches!(Ring::decode(&blob[..blob.len() - 3]), Err(ClusterError::Ring(_))));
    }

    #[test]
    fn membership_growth_moves_a_bounded_share() {
        let ring3 = three();
        let mut nodes: Vec<NodeInfo> = ring3.nodes().to_vec();
        nodes.push(NodeInfo { name: "d".into(), addr: "127.0.0.1:7004".into() });
        let ring4 = Ring::new(2, 64, nodes).expect("ring of four");
        let moved = (0..4000u64)
            .filter(|&id| ring3.owner_of(id).name != ring4.owner_of(id).name)
            .count() as f64
            / 4000.0;
        // Consistent hashing: a join relocates about 1/N of the keys, not
        // a wholesale reshuffle.
        assert!(moved < 0.40, "a 3→4 join moved {moved:.2} of the keyspace");
        assert!(moved > 0.05, "a join that moves nothing placed no keys on the new node");
    }

    #[test]
    fn fail_over_moves_exactly_the_dead_range_to_the_successor() {
        let mut ring = three();
        let before: Vec<(u64, String)> =
            (0..2000u64).map(|id| (id, ring.owner_of(id).name.clone())).collect();
        let heir = ring.fail_over("b").expect("fail over b");
        assert_eq!(heir, "c", "successor of b in name order among {{a, c}}");
        assert_eq!(ring.version(), 2, "mutation bumps the version");
        assert!(!ring.is_alive("b"));
        for (id, owner) in before {
            let now = ring.owner_of(id).name.clone();
            if owner == "b" {
                assert_eq!(now, "c", "stream {id}: dead range goes to the heir");
            } else {
                assert_eq!(now, owner, "stream {id}: live ranges must not move");
            }
        }

        // Chained failure: c dies next, a inherits both ranges.
        let heir = ring.fail_over("c").expect("fail over c");
        assert_eq!(heir, "a");
        for id in 0..500u64 {
            assert_eq!(ring.owner_of(id).name, "a");
        }
        assert!(ring.fail_over("a").is_err(), "the last node has no successor");
    }

    #[test]
    fn successor_cycles_in_name_order_over_live_nodes() {
        let mut ring = three();
        assert_eq!(ring.successor("a").expect("succ").name, "b");
        assert_eq!(ring.successor("c").expect("succ wraps").name, "a");
        ring.reassign("b", "c").expect("drain b");
        assert_eq!(ring.successor("a").expect("skips drained b").name, "c");
        assert_eq!(ring.successor("missing"), None);
    }

    #[test]
    fn invalid_construction_and_mutation_are_refused() {
        assert!(Ring::new(1, 0, three().nodes().to_vec()).is_err(), "zero vnodes");
        assert!(Ring::new(1, 8, Vec::new()).is_err(), "empty membership");
        let dup = vec![
            NodeInfo { name: "a".into(), addr: "x:1".into() },
            NodeInfo { name: "a".into(), addr: "x:2".into() },
        ];
        assert!(Ring::new(1, 8, dup).is_err(), "duplicate names");

        let mut ring = three();
        assert!(ring.reassign("a", "a").is_err());
        assert!(ring.reassign("a", "nope").is_err());
        ring.reassign("a", "b").expect("drain a");
        assert!(ring.reassign("a", "c").is_err(), "already reassigned");
        assert!(ring.reassign("c", "a").is_err(), "heir must be live");
    }
}
