//! Offline autotuner, `results/tuning/<preset>.json`: sweep every
//! collective operation over a ladder of communicator sizes and
//! power-of-two byte sizes, rank the registered algorithms with the
//! `simnet` closed-form cost model, and persist the winners as a
//! per-cluster [`TuningTable`]. The check re-reads the file through the
//! table schema, the one `SelectionPolicy::Table` loads.

use collectives::json::Json;
use collectives::{
    flavor_key, CollectiveOp, CommCase, SelectionPolicy, TableEntry, Tuning, TuningTable,
};
use simnet::CostModel;

use crate::cli::Flags;

pub const FLAGS: Flags = &[
    ("--cluster", "cray_aries|nec_infiniband"),
    ("--out", "PATH"),
    ("--verify", "PATH"),
];

/// Processes per node assumed when mapping a communicator size to a node
/// count — the paper's 24-core nodes, same as `machines::cluster_for`.
const PPN: usize = 24;

/// Communicator sizes swept (the paper's scales: intra-node up to one
/// 24-core node, then multi-node up to 64 nodes).
const COMM_LADDER: &[usize] = &[2, 4, 6, 8, 12, 16, 24, 48, 96, 192, 384, 768, 1536];

/// Largest power-of-two byte size swept (16 MiB).
const MAX_BYTES_LOG2: u32 = 24;

/// Build the tuning table for one cost-model preset: for every op, comm
/// size, and size bucket, record the offline autotune winner, merging
/// adjacent byte ranges that share a winner into one row. Rows are
/// emitted smallest-first, so the table's first-match-wins lookup
/// reproduces the sweep exactly.
fn build_table(cluster: &str, cost: &CostModel, tuning: &Tuning) -> TuningTable {
    let policy = SelectionPolicy::autotune(tuning.clone());
    let mut table = TuningTable::new(cluster);
    table.flavor = Some(tuning.flavor);
    for op in CollectiveOp::all() {
        if matches!(op, CollectiveOp::Sync | CollectiveOp::Barrier) {
            // Zero-byte ops: one decision per communicator size.
            for (i, &p) in COMM_LADDER.iter().enumerate() {
                let nodes = p.div_ceil(PPN);
                let algo = policy.choose_offline(cost, &CommCase::new(op, p, nodes, 0));
                let comm_le = if i + 1 == COMM_LADDER.len() {
                    usize::MAX
                } else {
                    p
                };
                let last = table
                    .entries
                    .last_mut()
                    .filter(|e| e.op == op && e.algo == algo);
                match last {
                    Some(e) => e.comm_le = comm_le,
                    None => table.entries.push(TableEntry {
                        op,
                        comm_le,
                        bytes_le: usize::MAX,
                        algo: algo.to_string(),
                    }),
                }
            }
            continue;
        }
        for (i, &p) in COMM_LADDER.iter().enumerate() {
            let nodes = p.div_ceil(PPN);
            let comm_le = if i + 1 == COMM_LADDER.len() {
                usize::MAX
            } else {
                p
            };
            let mut rows: Vec<TableEntry> = Vec::new();
            for k in 0..=MAX_BYTES_LOG2 {
                let bytes = 1usize << k;
                let algo = policy.choose_offline(cost, &CommCase::new(op, p, nodes, bytes));
                let bytes_le = if k == MAX_BYTES_LOG2 {
                    usize::MAX
                } else {
                    bytes
                };
                match rows.last_mut().filter(|e| e.algo == algo) {
                    Some(e) => e.bytes_le = bytes_le,
                    None => rows.push(TableEntry {
                        op,
                        comm_le,
                        bytes_le,
                        algo: algo.to_string(),
                    }),
                }
            }
            // A comm tier identical to the previous tier collapses into it.
            let prev_len = table
                .entries
                .iter()
                .rev()
                .take_while(|e| e.op == op)
                .count();
            let prev = &table.entries[table.entries.len() - prev_len..];
            let same = prev.len() == rows.len()
                && prev
                    .iter()
                    .zip(&rows)
                    .all(|(a, b)| a.bytes_le == b.bytes_le && a.algo == b.algo);
            if same {
                let start = table.entries.len() - prev_len;
                for e in &mut table.entries[start..] {
                    e.comm_le = comm_le;
                }
            } else {
                table.entries.extend(rows);
            }
        }
    }
    table
}

/// The table for one preset (the artifact's file stem), as its file
/// text.
pub fn build(cluster: &str) -> Result<String, String> {
    let (cost, tuning) = match cluster {
        "cray_aries" => (CostModel::cray_aries(), Tuning::cray_mpich()),
        "nec_infiniband" => (CostModel::nec_infiniband(), Tuning::open_mpi()),
        other => unreachable!("no tuning preset {other:?}"),
    };
    let table = build_table(cluster, &cost, &tuning);
    if table.entries.is_empty() {
        return Err(format!("sweep produced an empty table for {cluster}"));
    }
    println!(
        "tune: {} entries for cluster '{}' (flavor {})",
        table.entries.len(),
        table.cluster,
        table.flavor.map(flavor_key).unwrap_or("none"),
    );
    Ok(format!("{}\n", table.pretty()))
}

/// The document must load as a [`TuningTable`] and serialize back to
/// itself.
pub fn check(doc: &Json) -> Result<String, String> {
    let table = TuningTable::from_json(doc)?;
    if table.to_json() != *doc {
        return Err("does not round-trip the tuning-table schema".into());
    }
    Ok(format!(
        "{} entries, cluster '{}'",
        table.entries.len(),
        table.cluster
    ))
}
