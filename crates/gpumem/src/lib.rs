//! Memory-hierarchy substrate for the treelet-rt GPU simulator.
//!
//! Models the part of the GPU the paper's results hinge on: per-SM L1
//! caches, a shared L2, a reserved L2 ray-data region, and DRAM with both
//! latency and bandwidth (a global service queue). The RT-unit simulator
//! calls [`MemorySystem::access`] for every byte range a traversal touches
//! and receives the completion cycle back; hit/miss counts are kept per
//! [`AccessKind`] so experiments can report *BVH-only* L1 miss rates
//! (paper Figures 1a and 11) separately from ray-data and CTA-state
//! traffic.
//!
//! # Example
//!
//! ```
//! use gpumem::{AccessKind, CachePolicy, MemConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(&MemConfig::default());
//! let done = mem.access(0, 0x1000, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
//! assert!(done > 0); // a cold access takes DRAM latency
//! let again = mem.access(0, 0x1000, 128, AccessKind::Bvh, CachePolicy::L1AndL2, done);
//! assert_eq!(again - done, mem.config().l1.latency as u64); // now an L1 hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod heap;
mod mshr;
mod stats;
mod system;

pub use cache::{Assoc, Cache, CacheConfig, CacheStats, LineState};
pub use stats::{AccessKind, KindStats, MemStats, WindowPoint};
pub use system::{CachePolicy, CacheSnapshot, MemConfig, MemFaults, MemSnapshot, MemorySystem};
