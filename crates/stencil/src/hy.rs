//! Hybrid MPI+MPI Jacobi: node-shared double-buffered tiles, direct
//! loads between on-node neighbors (no halo copies, no messages),
//! light-weight flag-pair synchronization (paper §6), and messages only
//! across node boundaries.

use hmpi::HybridComm;
use msim::{Communicator, Ctx, DataMode, Payload, SharedWindow};

use crate::decomp::{Decomp, Tile};
use crate::{boundary_value, initial_value, StencilReport, StencilSpec, FLOPS_PER_CELL};

const TAG_UP: u32 = 0x2100;
const TAG_DOWN: u32 = 0x2101;
const TAG_LEFT: u32 = 0x2102;
const TAG_RIGHT: u32 = 0x2103;
const TAG_READY: u32 = 0x2104;

/// Where a neighbor's boundary values come from.
enum Source {
    /// No neighbor: the global boundary condition.
    Boundary,
    /// On-node neighbor: direct loads from its window region.
    Window {
        /// Its shm-local index (for flag addressing).
        shm_local: usize,
        /// Element offset of its region in the node window.
        region: usize,
        /// Its tile.
        tile: Tile,
    },
    /// Remote neighbor: a private halo strip refreshed by messages.
    Remote {
        /// The neighbor's world rank.
        rank: usize,
        /// The halo strip (length = shared edge length).
        halo: Vec<f64>,
    },
}

/// Run the hybrid variant. Ranks beyond the process grid idle (they
/// still participate in the node-window setup collectives).
pub fn hy_jacobi(ctx: &mut Ctx, spec: &StencilSpec) -> StencilReport {
    run_hy_jacobi(ctx, spec, false)
}

/// The hybrid variant with communication/computation overlap: remote
/// halo strips are posted, on-node flags waited, and the tile's
/// *interior* (every cell not adjacent to a remote edge) updates while
/// the strips are still in flight; only the remote-edge cells wait for
/// the messages. Arithmetic is bit-identical to [`hy_jacobi`].
pub fn hy_jacobi_overlap(ctx: &mut Ctx, spec: &StencilSpec) -> StencilReport {
    run_hy_jacobi(ctx, spec, true)
}

fn run_hy_jacobi(ctx: &mut Ctx, spec: &StencilSpec, overlap: bool) -> StencilReport {
    let world = ctx.world();
    let d = Decomp::new(spec.n, world.size());
    let me = world.rank();
    let n = spec.n;
    let real = ctx.mode() == DataMode::Real;

    // All ranks (active or idle) must join the hierarchy + window setup.
    let hc = HybridComm::new(ctx, &world, collectives::Tuning::cray_mpich());
    let h = hc.hierarchy().clone();
    let active = me < d.nranks();
    let t = if active {
        d.tile(me)
    } else {
        Tile {
            r0: 0,
            r1: 0,
            c0: 0,
            c1: 0,
        }
    };
    let (rows, cols) = (t.rows(), t.cols());

    // Node window: per local rank, two rows*cols buffers (no halo ring).
    let my_len = 2 * rows * cols;
    let win = SharedWindow::<f64>::allocate(ctx, &h.shm, my_len);
    let my_region = win.base_of(h.shm.rank());
    let tile_at = |buf_parity: usize, region: usize, tile: &Tile| -> usize {
        region + buf_parity * tile.rows() * tile.cols()
    };

    // All ranks take part in the active/idle split; idle ranks leave
    // after the collective setup (no rank ever flags or messages them).
    let grid_comm = world.split(ctx, active.then_some(0), 0);
    if !active {
        return StencilReport {
            elapsed_us: 0.0,
            tile: None,
        };
    }
    let grid_comm = grid_comm.expect("active ranks have a grid communicator");

    // Initialize buffer 0 (and 1 for fixed boundary cells).
    if real {
        for li in 0..rows {
            for lj in 0..cols {
                let (gi, gj) = (t.r0 + li, t.c0 + lj);
                let v = if gi == 0 || gi == n - 1 || gj == 0 || gj == n - 1 {
                    boundary_value(gi, gj, n)
                } else {
                    initial_value(gi, gj)
                };
                win.write(tile_at(0, my_region, &t) + li * cols + lj, v);
                win.write(tile_at(1, my_region, &t) + li * cols + lj, v);
            }
        }
    }

    // Classify the four neighbors.
    let classify = |nb: Option<usize>, edge_len: usize| -> Source {
        match nb {
            None => Source::Boundary,
            Some(rank) => {
                let (nb_group, shm_local) = h.locate(rank);
                if nb_group == h.node_index {
                    Source::Window {
                        shm_local,
                        region: win.base_of(shm_local),
                        tile: d.tile(rank),
                    }
                } else {
                    Source::Remote {
                        rank,
                        halo: vec![0.0; edge_len],
                    }
                }
            }
        }
    };
    let [nb_up, nb_down, nb_left, nb_right] = d.neighbors(me);
    let mut up = classify(nb_up, cols);
    let mut down = classify(nb_down, cols);
    let mut left = classify(nb_left, rows);
    let mut right = classify(nb_right, rows);

    collectives::barrier::tuned(ctx, &grid_comm);
    // Initial "buffer 0 is ready" flags toward on-node neighbors.
    post_ready_flags(ctx, &h.shm, [&up, &down, &left, &right]);

    let t0 = ctx.now();
    let mut parity = 0usize; // current buffer
    let remote_edge = [
        matches!(up, Source::Remote { .. }),
        matches!(down, Source::Remote { .. }),
        matches!(left, Source::Remote { .. }),
        matches!(right, Source::Remote { .. }),
    ];
    for _ in 0..spec.iters {
        // --- Remote exchanges (strips carry the current iterate) ---
        let pending = post_remote(
            ctx,
            &world,
            &win,
            &t,
            my_region,
            parity,
            [&up, &down, &left, &right],
        );
        if !overlap {
            finish_remote(
                ctx,
                pending,
                real,
                [&mut up, &mut down, &mut left, &mut right],
            );
            // --- Wait for on-node neighbors' current buffers ---
            wait_ready_flags(ctx, &h.shm, [&up, &down, &left, &right]);
            // --- Update ---
            update_pass(
                ctx,
                &win,
                &t,
                n,
                my_region,
                parity,
                real,
                [&up, &down, &left, &right],
                &|_, _| true,
            );
        } else {
            // On-node buffers become readable first; the interior (every
            // cell that reads no remote halo) updates while the strips
            // are still in flight, then the remote-edge cells finish.
            wait_ready_flags(ctx, &h.shm, [&up, &down, &left, &right]);
            let edge = |li: usize, lj: usize| {
                (li == 0 && remote_edge[0])
                    || (li + 1 == rows && remote_edge[1])
                    || (lj == 0 && remote_edge[2])
                    || (lj + 1 == cols && remote_edge[3])
            };
            update_pass(
                ctx,
                &win,
                &t,
                n,
                my_region,
                parity,
                real,
                [&up, &down, &left, &right],
                &|li, lj| !edge(li, lj),
            );
            finish_remote(
                ctx,
                pending,
                real,
                [&mut up, &mut down, &mut left, &mut right],
            );
            update_pass(
                ctx,
                &win,
                &t,
                n,
                my_region,
                parity,
                real,
                [&up, &down, &left, &right],
                &edge,
            );
        }
        parity = 1 - parity;
        // --- Announce the freshly written buffer to on-node neighbors ---
        post_ready_flags(ctx, &h.shm, [&up, &down, &left, &right]);
    }
    let elapsed_us = ctx.now() - t0;

    let tile_out = real.then(|| {
        let mut out = vec![0.0f64; rows * cols];
        win.read_into(tile_at(parity, my_region, &t), &mut out);
        out
    });
    StencilReport {
        elapsed_us,
        tile: tile_out,
    }
}

/// Post "my current buffer is ready" flags to every on-node neighbor.
fn post_ready_flags(ctx: &mut Ctx, shm: &Communicator, sources: [&Source; 4]) {
    for s in sources {
        if let Source::Window { shm_local, .. } = s {
            ctx.post_flag(shm, *shm_local, TAG_READY);
        }
    }
}

/// Wait for every on-node neighbor's readiness flag.
fn wait_ready_flags(ctx: &mut Ctx, shm: &Communicator, sources: [&Source; 4]) {
    for s in sources {
        if let Source::Window { shm_local, .. } = s {
            ctx.wait_flag(shm, *shm_local, TAG_READY);
        }
    }
}

/// Post the boundary-strip exchange with remote neighbors: sends go out
/// eagerly, receives are posted nonblocking (messages only cross node
/// boundaries in the hybrid version). Returns the pending receives,
/// each tagged with its direction index (up/down/left/right = 0..3).
fn post_remote(
    ctx: &mut Ctx,
    world: &Communicator,
    win: &SharedWindow<f64>,
    t: &Tile,
    my_region: usize,
    parity: usize,
    sources: [&Source; 4],
) -> Vec<(msim::RecvRequest, usize)> {
    let (rows, cols) = (t.rows(), t.cols());
    let cur = my_region + parity * rows * cols;
    let [up, down, left, right] = sources;

    // Build outgoing strips as derived datatypes: rows are contiguous
    // (free), columns are strided vectors (packing charged, as real MPI
    // pays via MPI_Type_vector).
    let mut pending = Vec::new();
    let send_strip = |ctx: &mut Ctx, dirtag: u32, rank: usize, strip: (usize, usize, bool)| {
        let (off, len, is_col) = strip;
        let layout = if is_col {
            msim::Layout::Vector {
                count: len,
                block_len: 1,
                stride: cols,
            }
        } else {
            msim::Layout::Contiguous { count: len }
        };
        let payload: Payload = layout.pack_window(ctx, win, off);
        ctx.send(world, rank, dirtag, payload);
    };

    if let Source::Remote { rank, .. } = up {
        send_strip(ctx, TAG_UP, *rank, (cur, cols, false));
        pending.push((ctx.irecv(world, *rank, TAG_DOWN), 0));
    }
    if let Source::Remote { rank, .. } = down {
        send_strip(ctx, TAG_DOWN, *rank, (cur + (rows - 1) * cols, cols, false));
        pending.push((ctx.irecv(world, *rank, TAG_UP), 1));
    }
    if let Source::Remote { rank, .. } = left {
        send_strip(ctx, TAG_LEFT, *rank, (cur, rows, true));
        pending.push((ctx.irecv(world, *rank, TAG_RIGHT), 2));
    }
    if let Source::Remote { rank, .. } = right {
        send_strip(ctx, TAG_RIGHT, *rank, (cur + cols - 1, rows, true));
        pending.push((ctx.irecv(world, *rank, TAG_LEFT), 3));
    }
    pending
}

/// Complete a posted exchange: wait for every strip (in posting order),
/// charge column unpacks, and refresh the remote halos.
fn finish_remote(
    ctx: &mut Ctx,
    pending: Vec<(msim::RecvRequest, usize)>,
    real: bool,
    sources: [&mut Source; 4],
) {
    let mut halos: [Option<Vec<f64>>; 4] = [None, None, None, None];
    for (req, dir) in pending {
        let payload = req.wait(ctx);
        if dir == 2 || dir == 3 {
            ctx.charge_copy(payload.len()); // unpack the column
        }
        if real {
            let bytes = payload.bytes();
            let mut vals = vec![0.0f64; bytes.len() / 8];
            msim::elem::bytes_to_slice(bytes, &mut vals);
            halos[dir] = Some(vals);
        }
    }
    for (dir, src) in sources.into_iter().enumerate() {
        if let (Source::Remote { halo, .. }, Some(vals)) = (src, halos[dir].take()) {
            *halo = vals;
        }
    }
}

/// One Jacobi sweep over the cells of `t` selected by `keep` (local
/// coordinates): charges flops for exactly the selected cells, then (in
/// real mode) writes those cells of the next buffer.
#[allow(clippy::too_many_arguments)]
fn update_pass(
    ctx: &mut Ctx,
    win: &SharedWindow<f64>,
    t: &Tile,
    n: usize,
    my_region: usize,
    parity: usize,
    real: bool,
    sources: [&Source; 4],
    keep: &dyn Fn(usize, usize) -> bool,
) {
    let (rows, cols) = (t.rows(), t.cols());
    let [up, down, left, right] = sources;
    let tile_at = |buf_parity: usize, region: usize, tile: &Tile| -> usize {
        region + buf_parity * tile.rows() * tile.cols()
    };

    let mut selected = 0usize;
    for gi in t.r0.max(1)..t.r1.min(n - 1) {
        for gj in t.c0.max(1)..t.c1.min(n - 1) {
            if keep(gi - t.r0, gj - t.c0) {
                selected += 1;
            }
        }
    }
    ctx.compute(selected as f64 * FLOPS_PER_CELL);
    if real {
        let read_cell = |src: &Source, gi: usize, gj: usize| -> f64 {
            match src {
                Source::Boundary => boundary_value(gi, gj, n),
                Source::Window { region, tile, .. } => win.read(
                    tile_at(parity, *region, tile) + (gi - tile.r0) * tile.cols() + (gj - tile.c0),
                ),
                Source::Remote { halo, .. } => {
                    // Strip index along the shared edge.
                    if gi < t.r0 || gi >= t.r1 {
                        halo[gj - t.c0]
                    } else {
                        halo[gi - t.r0]
                    }
                }
            }
        };
        let cur = tile_at(parity, my_region, t);
        let nxt = tile_at(1 - parity, my_region, t);
        for gi in t.r0.max(1)..t.r1.min(n - 1) {
            for gj in t.c0.max(1)..t.c1.min(n - 1) {
                let (li, lj) = (gi - t.r0, gj - t.c0);
                if !keep(li, lj) {
                    continue;
                }
                let v_up = if li > 0 {
                    win.read(cur + (li - 1) * cols + lj)
                } else {
                    read_cell(up, gi - 1, gj)
                };
                let v_down = if li + 1 < rows {
                    win.read(cur + (li + 1) * cols + lj)
                } else {
                    read_cell(down, gi + 1, gj)
                };
                let v_left = if lj > 0 {
                    win.read(cur + li * cols + lj - 1)
                } else {
                    read_cell(left, gi, gj - 1)
                };
                let v_right = if lj + 1 < cols {
                    win.read(cur + li * cols + lj + 1)
                } else {
                    read_cell(right, gi, gj + 1)
                };
                win.write(
                    nxt + li * cols + lj,
                    0.25 * (v_up + v_down + v_left + v_right),
                );
            }
        }
    }
}
