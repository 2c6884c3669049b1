//! Shard and cluster manifests: the on-disk description of how a dataset
//! is partitioned across a serving cluster.
//!
//! A *shard* owns one contiguous interval of dimension-0 leaf ids. Every
//! shard directory is a complete single-node dataset (the full CSVs — the
//! allocation step is global over imprecise facts, so each shard builds
//! the identical Extended Database deterministically) plus a `shard.json`
//! manifest naming its interval and the *fence box*: the bounding box of
//! the built EDB entries clipped to the interval. The router prunes whole
//! shards against a query box with the fence, exactly the way Theorem 12's
//! contrapositive already prunes pages inside a segment — one level up.
//!
//! The cluster directory carries `cluster.json` (every shard's manifest in
//! index order plus the shared dataset fingerprint) so the router can load
//! the topology without touching the shard directories.

use crate::region::RegionBox;
use crate::MAX_DIMS;
use iolap_obs::json::{self, Json};
use std::path::Path;

/// The hash the manifests' `fingerprint` fields are written with.
pub use iolap_storage::Fnv1a64Legacy as FingerprintHasher;

/// One shard's slice of the partitioned dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// This shard's position in the cluster's deterministic merge order.
    pub index: usize,
    /// Total number of shards in the cluster.
    pub shards: usize,
    /// Dimensionality of the dataset.
    pub k: usize,
    /// Start (inclusive) of the owned dimension-0 leaf interval.
    pub lo: u32,
    /// End (exclusive) of the owned dimension-0 leaf interval.
    pub hi: u32,
    /// Bounding box of the built EDB entries clipped to the interval;
    /// `None` when the interval holds no entries (the shard still serves —
    /// it answers every overlapping query with zero chunks).
    pub fence: Option<RegionBox>,
    /// Number of EDB entries inside the interval at partition time.
    pub entries: u64,
    /// Fingerprint of the source dataset (shared by every shard built from
    /// the same partition run; the router refuses to mix fingerprints).
    pub fingerprint: u64,
}

/// The cluster topology: every shard's manifest in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterManifest {
    /// Dimensionality of the dataset.
    pub k: usize,
    /// The shared dataset fingerprint.
    pub fingerprint: u64,
    /// Shard manifests, ordered by `index` — the merge order.
    pub shards: Vec<ShardManifest>,
}

/// Serialize a region box as `{"k":K,"lo":[…],"hi":[…]}` (first `k`
/// coordinates only).
pub fn region_to_json(r: &RegionBox) -> String {
    let k = r.k as usize;
    let fmt = |v: &[u32]| v.iter().take(k).map(|x| x.to_string()).collect::<Vec<_>>().join(",");
    format!("{{\"k\":{},\"lo\":[{}],\"hi\":[{}]}}", k, fmt(&r.lo), fmt(&r.hi))
}

/// Parse a region box serialized by [`region_to_json`].
pub fn region_from_json(v: &Json) -> Result<RegionBox, String> {
    let k = v.get("k").and_then(Json::as_u64).ok_or("region: missing k")? as usize;
    if k == 0 || k > MAX_DIMS {
        return Err(format!("region: k={k} out of range"));
    }
    let axis = |name: &str| -> Result<[u32; MAX_DIMS], String> {
        let arr = v
            .get(name)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("region: missing {name}"))?;
        if arr.len() != k {
            return Err(format!("region: {name} has {} coordinates, want {k}", arr.len()));
        }
        let mut out = [0u32; MAX_DIMS];
        for (d, x) in arr.iter().enumerate() {
            let n = x.as_u64().ok_or_else(|| format!("region: bad {name}[{d}]"))?;
            out[d] = u32::try_from(n).map_err(|_| format!("region: {name}[{d}] overflows u32"))?;
        }
        Ok(out)
    };
    Ok(RegionBox { lo: axis("lo")?, hi: axis("hi")?, k: k as u8 })
}

impl ShardManifest {
    /// Serialize as one JSON object.
    pub fn to_json(&self) -> String {
        let fence = match &self.fence {
            Some(f) => region_to_json(f),
            None => "null".into(),
        };
        format!(
            "{{\"index\":{},\"shards\":{},\"k\":{},\"lo\":{},\"hi\":{},\
             \"fence\":{},\"entries\":{},\"fingerprint\":\"{:016x}\"}}",
            self.index,
            self.shards,
            self.k,
            self.lo,
            self.hi,
            fence,
            self.entries,
            self.fingerprint
        )
    }

    fn from_value(v: &Json) -> Result<Self, String> {
        let u = |name: &str| {
            v.get(name).and_then(Json::as_u64).ok_or_else(|| format!("shard: missing {name}"))
        };
        let fence = match v.get("fence") {
            None | Some(Json::Null) => None,
            Some(f) => Some(region_from_json(f)?),
        };
        let fp = v
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("shard: missing fingerprint")
            .and_then(|s| u64::from_str_radix(s, 16).map_err(|_| "shard: bad fingerprint"))?;
        Ok(ShardManifest {
            index: u("index")? as usize,
            shards: u("shards")? as usize,
            k: u("k")? as usize,
            lo: u("lo")? as u32,
            hi: u("hi")? as u32,
            fence,
            entries: u("entries")?,
            fingerprint: fp,
        })
    }

    /// Parse a manifest serialized by [`ShardManifest::to_json`].
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_value(&json::parse(text)?)
    }

    /// Write the manifest as `shard.json` inside `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::write(dir.join("shard.json"), self.to_json())
    }

    /// Load `shard.json` from `dir`.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join("shard.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// True when the shard's interval (and fence, if any) can contain
    /// cells of `q` — the router's shard-level prune. A shard with no
    /// entries never overlaps.
    pub fn overlaps(&self, q: &RegionBox) -> bool {
        if self.lo.max(q.lo[0]) >= self.hi.min(q.hi[0]) {
            return false;
        }
        match &self.fence {
            Some(f) => f.overlaps(q),
            None => false,
        }
    }
}

impl ClusterManifest {
    /// Serialize as one JSON object.
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self.shards.iter().map(ShardManifest::to_json).collect();
        format!(
            "{{\"k\":{},\"fingerprint\":\"{:016x}\",\"shards\":[{}]}}",
            self.k,
            self.fingerprint,
            shards.join(",")
        )
    }

    /// Parse a manifest serialized by [`ClusterManifest::to_json`],
    /// validating that shard indexes are dense, in order, and agree on
    /// `shards`/`k`/`fingerprint`, and that the intervals are disjoint and
    /// ascending.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let k = v.get("k").and_then(Json::as_u64).ok_or("cluster: missing k")? as usize;
        let fp = v
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("cluster: missing fingerprint")
            .and_then(|s| u64::from_str_radix(s, 16).map_err(|_| "cluster: bad fingerprint"))?;
        let arr = v.get("shards").and_then(Json::as_array).ok_or("cluster: missing shards")?;
        if arr.is_empty() {
            return Err("cluster: no shards".into());
        }
        let mut shards = Vec::with_capacity(arr.len());
        for (i, s) in arr.iter().enumerate() {
            let m = ShardManifest::from_value(s)?;
            if m.index != i || m.shards != arr.len() || m.k != k || m.fingerprint != fp {
                return Err(format!("cluster: shard {i} manifest is inconsistent"));
            }
            if let Some(prev) = shards.last() {
                let prev: &ShardManifest = prev;
                if m.lo < prev.hi {
                    return Err(format!("cluster: shard {i} interval overlaps shard {}", i - 1));
                }
            }
            shards.push(m);
        }
        Ok(ClusterManifest { k, fingerprint: fp, shards })
    }

    /// Write the manifest as `cluster.json` inside `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::write(dir.join("cluster.json"), self.to_json())
    }

    /// Load `cluster.json` from `dir`.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join("cluster.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx(lo: &[u32], hi: &[u32]) -> RegionBox {
        let mut l = [0u32; MAX_DIMS];
        let mut h = [0u32; MAX_DIMS];
        l[..lo.len()].copy_from_slice(lo);
        h[..hi.len()].copy_from_slice(hi);
        RegionBox { lo: l, hi: h, k: lo.len() as u8 }
    }

    fn shard(i: usize, lo: u32, hi: u32) -> ShardManifest {
        ShardManifest {
            index: i,
            shards: 2,
            k: 2,
            lo,
            hi,
            fence: Some(bx(&[lo, 0], &[hi, 7])),
            entries: 10,
            fingerprint: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn shard_manifest_round_trips() {
        let m = shard(1, 3, 9);
        let back = ShardManifest::parse(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // No-entry shards serialize a null fence.
        let empty = ShardManifest { fence: None, entries: 0, ..m };
        let back = ShardManifest::parse(&empty.to_json()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn cluster_manifest_round_trips_and_validates() {
        let c = ClusterManifest {
            k: 2,
            fingerprint: 0xdead_beef_cafe_f00d,
            shards: vec![shard(0, 0, 3), shard(1, 3, 9)],
        };
        let back = ClusterManifest::parse(&c.to_json()).unwrap();
        assert_eq!(back, c);
        // Overlapping intervals are rejected.
        let bad = ClusterManifest { shards: vec![shard(0, 0, 4), shard(1, 3, 9)], ..c.clone() };
        assert!(ClusterManifest::parse(&bad.to_json()).is_err());
        // Mixed fingerprints are rejected.
        let mut mixed = c.clone();
        mixed.shards[1].fingerprint = 1;
        assert!(ClusterManifest::parse(&mixed.to_json()).is_err());
    }

    #[test]
    fn shard_overlap_prunes_by_interval_and_fence() {
        let m = shard(0, 2, 5);
        assert!(m.overlaps(&bx(&[4, 0], &[9, 9])));
        assert!(!m.overlaps(&bx(&[5, 0], &[9, 9])), "interval is half-open");
        assert!(!m.overlaps(&bx(&[0, 0], &[2, 9])));
        // Inside the interval but outside the fence's other dims.
        assert!(!m.overlaps(&bx(&[2, 7], &[5, 9])));
        // A shard with no entries overlaps nothing.
        let empty = ShardManifest { fence: None, ..m };
        assert!(!empty.overlaps(&bx(&[0, 0], &[9, 9])));
    }

    #[test]
    fn region_json_round_trips() {
        let r = bx(&[1, 2, 3], &[4, 5, 6]);
        let back = region_from_json(&json::parse(&region_to_json(&r)).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
