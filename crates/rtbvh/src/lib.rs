//! BVH substrate for the treelet-rt GPU ray-tracing simulator.
//!
//! Builds the acceleration structure exactly the way the paper's toolchain
//! does, at the level of detail the simulator needs:
//!
//! 1. a **binned-SAH BVH2** ([`build2`]) over the scene triangles,
//! 2. **collapsed into a 4-wide BVH** ([`Bvh4Node`]) — the paper uses a
//!    4-wide Embree BVH repacked into the compressed-leaf format of
//!    Benthin et al.; our flat `#[repr(C)]` SoA nodes store the four child
//!    boxes inline as `[min_x[4], min_y[4], …]` planes (tested four lanes
//!    at a time by [`aabb4_intersect`]) and leaves store their triangles
//!    inline, matching that layout's memory behaviour — the
//!    [`WideTree`], all a traversal reads,
//! 3. **treelet partitioning** ([`treelet`]) — greedy surface-area-ordered
//!    growth under a byte budget (default: half the L1, per §5 of the
//!    paper),
//! 4. a **byte-addressed flat layout** in which nodes of the same treelet
//!    are contiguous ("treelets can be packed together in memory", §6.5),
//!    so the simulator can model every cache line a traversal touches.
//!
//! Steps 1–2 are [`WideTree::build`] and steps 3–4 (with the optional
//! quantized node format) [`Bvh::lay_out`] over its output; [`Bvh::build`]
//! is the two in a row. One tree can be laid out several ways.
//!
//! # Example
//!
//! ```
//! use rtbvh::{Bvh, BvhConfig};
//! use rtscene::lumibench::{self, SceneId};
//!
//! let scene = lumibench::build_scaled(SceneId::Bunny, 64);
//! let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
//! assert!(bvh.validate(scene.triangles()).is_ok());
//! assert!(bvh.total_bytes() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build2;
mod bvh;
mod config;
mod layout;
pub mod lbvh;
mod qnode;
pub mod treelet;
mod wide;

pub use bvh::{brute_force_intersect, Builder, Bvh, BvhStats, PrimHit, ValidateError, WideTree};
pub use config::{BvhConfig, NodeFormat, NodeLayout};
pub use layout::{NodeAddr, NodeId};
pub use qnode::{quantize, QBvh4Node};
pub use treelet::{TreeletId, TreeletPartition};
pub use wide::{aabb4_intersect, Bvh4Node, INVALID_LANE, WIDE_WIDTH};
