//! A miniature replicated block store — the HDFS stand-in.
//!
//! The VCD's offline mode stages inputs on "a distributed file system
//! (we currently support HDFS)" (§3.2). MiniDfs reproduces HDFS's
//! essential shape in-process: a namenode (file → ordered block list,
//! block → datanode replica set) over N datanodes holding fixed-size
//! blocks, with round-robin placement, configurable replication,
//! datanode failure, and replica failover on read.

use std::collections::HashMap;
use vr_base::fault::{self, IoOp};
use vr_base::sync::RwLock;
use vr_base::{Error, Result, SharedBuf};

/// Globally-unique block id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BlockId(u64);

#[derive(Debug, Default)]
struct DataNode {
    alive: bool,
    blocks: HashMap<u64, Vec<u8>>,
}

#[derive(Debug)]
struct NameNode {
    /// file name → ordered blocks.
    files: HashMap<String, Vec<BlockId>>,
    /// block → datanodes holding a replica.
    replicas: HashMap<u64, Vec<usize>>,
    next_block: u64,
    next_node: usize,
}

/// The mini distributed file system.
pub struct MiniDfs {
    block_size: usize,
    replication: usize,
    name: RwLock<NameNode>,
    nodes: Vec<RwLock<DataNode>>,
}

impl MiniDfs {
    /// Create a cluster of `datanodes` nodes with `replication`
    /// replicas per block.
    pub fn new(datanodes: usize, replication: usize, block_size: usize) -> Result<Self> {
        if datanodes == 0 || replication == 0 || replication > datanodes || block_size == 0 {
            return Err(Error::InvalidConfig(format!(
                "bad cluster: {datanodes} nodes, replication {replication}, block {block_size}"
            )));
        }
        Ok(Self {
            block_size,
            replication,
            name: RwLock::new(NameNode {
                files: HashMap::new(),
                replicas: HashMap::new(),
                next_block: 0,
                next_node: 0,
            }),
            nodes: (0..datanodes)
                .map(|_| RwLock::new(DataNode { alive: true, blocks: HashMap::new() }))
                .collect(),
        })
    }

    /// Store a file, splitting it into replicated blocks.
    pub fn put(&self, name: &str, data: &[u8]) -> Result<()> {
        let _span = vr_base::obs::trace::span("storage", "dfs.put");
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![&[][..]]
        } else {
            data.chunks(self.block_size).collect()
        };
        let mut nn = self.name.write();
        let mut blocks = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let id = nn.next_block;
            nn.next_block += 1;
            // Round-robin placement over live nodes.
            let mut placed = Vec::with_capacity(self.replication);
            let mut scanned = 0;
            while placed.len() < self.replication && scanned < self.nodes.len() * 2 {
                let node_idx = nn.next_node % self.nodes.len();
                nn.next_node += 1;
                scanned += 1;
                if placed.contains(&node_idx) {
                    continue;
                }
                let mut node = self.nodes[node_idx].write();
                if node.alive {
                    node.blocks.insert(id, chunk.to_vec());
                    placed.push(node_idx);
                }
            }
            if placed.len() < self.replication {
                return Err(Error::ResourceExhausted(format!(
                    "only {} live datanodes for replication {}",
                    placed.len(),
                    self.replication
                )));
            }
            nn.replicas.insert(id, placed);
            blocks.push(BlockId(id));
        }
        nn.files.insert(name.to_string(), blocks);
        Ok(())
    }

    /// Read a file back into a [`SharedBuf`], failing over dead
    /// replicas. The result is preallocated from the summed block
    /// sizes (one allocation, no growth) and shared zero-copy with
    /// downstream consumers. Transient I/O failures (injected or real)
    /// are retried with bounded, seeded backoff before the error
    /// surfaces.
    pub fn get(&self, name: &str) -> Result<SharedBuf> {
        let _span = vr_base::obs::trace::span("storage", "dfs.get");
        fault::with_retry_io("dfs.get", IoOp::Read, name, 0, || self.get_inner(name))
    }

    fn get_inner(&self, name: &str) -> Result<SharedBuf> {
        let nn = self.name.read();
        let blocks = nn
            .files
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("dfs file {name}")))?;
        // Pass 1: resolve a live replica per block and sum sizes, so
        // the assembly buffer is allocated exactly once.
        let mut picked = Vec::with_capacity(blocks.len());
        let mut total = 0usize;
        for b in blocks {
            let holders = nn
                .replicas
                .get(&b.0)
                .ok_or_else(|| Error::Corrupt(format!("dangling block {}", b.0)))?;
            let mut found = None;
            for &h in holders {
                let node = self.nodes[h].read();
                if node.alive {
                    if let Some(data) = node.blocks.get(&b.0) {
                        total += data.len();
                        found = Some(h);
                        break;
                    }
                }
            }
            match found {
                Some(h) => picked.push((b.0, h)),
                None => {
                    return Err(Error::ResourceExhausted(format!(
                        "all replicas of block {} are unavailable",
                        b.0
                    )))
                }
            }
        }
        // Pass 2: copy block contents into the presized buffer. A
        // replica can die between passes; treat that as unavailable.
        let mut out = Vec::with_capacity(total);
        for (id, h) in picked {
            let node = self.nodes[h].read();
            match node.blocks.get(&id) {
                Some(data) if node.alive => out.extend_from_slice(data),
                _ => {
                    return Err(Error::ResourceExhausted(format!(
                        "all replicas of block {id} are unavailable"
                    )))
                }
            }
        }
        Ok(SharedBuf::from_vec(out))
    }

    /// Mark a datanode dead (its blocks become unreadable).
    pub fn kill_datanode(&self, idx: usize) {
        if let Some(node) = self.nodes.get(idx) {
            node.write().alive = false;
        }
    }

    /// Total number of stored files.
    pub fn file_count(&self) -> usize {
        self.name.read().files.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_clusters() {
        assert!(MiniDfs::new(0, 1, 1024).is_err());
        assert!(MiniDfs::new(3, 0, 1024).is_err());
        assert!(MiniDfs::new(2, 3, 1024).is_err());
        assert!(MiniDfs::new(2, 2, 0).is_err());
    }

    #[test]
    fn put_get_round_trip_multi_block() {
        let dfs = MiniDfs::new(4, 2, 128).unwrap();
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        dfs.put("video.vrmf", &data).unwrap();
        assert_eq!(dfs.get("video.vrmf").unwrap(), data);
        assert_eq!(dfs.file_count(), 1);
    }

    #[test]
    fn empty_file_round_trips() {
        let dfs = MiniDfs::new(2, 1, 128).unwrap();
        dfs.put("empty", &[]).unwrap();
        assert_eq!(dfs.get("empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn survives_single_datanode_failure() {
        let dfs = MiniDfs::new(3, 2, 64).unwrap();
        let data = vec![7u8; 500];
        dfs.put("f", &data).unwrap();
        dfs.kill_datanode(0);
        assert_eq!(dfs.get("f").unwrap(), data, "replication should cover one failure");
    }

    #[test]
    fn unreplicated_cluster_loses_data_on_failure() {
        let dfs = MiniDfs::new(2, 1, 64).unwrap();
        dfs.put("f", &vec![1u8; 200]).unwrap();
        dfs.kill_datanode(0);
        dfs.kill_datanode(1);
        assert!(dfs.get("f").is_err());
    }

    #[test]
    fn put_fails_without_enough_live_nodes() {
        let dfs = MiniDfs::new(2, 2, 64).unwrap();
        dfs.kill_datanode(1);
        assert!(dfs.put("f", &[1, 2, 3]).is_err());
    }

    #[test]
    fn missing_file_is_not_found() {
        let dfs = MiniDfs::new(2, 1, 64).unwrap();
        match dfs.get("ghost") {
            Err(Error::NotFound(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overwrite_replaces_content() {
        let dfs = MiniDfs::new(2, 1, 64).unwrap();
        dfs.put("f", b"old").unwrap();
        dfs.put("f", b"new content").unwrap();
        assert_eq!(dfs.get("f").unwrap(), b"new content");
        assert_eq!(dfs.file_count(), 1);
    }
}
