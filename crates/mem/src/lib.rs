#![warn(missing_docs)]
//! # sim-mem — memory hierarchy with built-in ACE interval tracking
//!
//! Set-associative, write-back caches and TLBs matching Table 1 of the
//! paper, instrumented for AVF analysis:
//!
//! * **Data arrays** are tracked at 8-byte-word granularity: the interval
//!   from one access to the next *read* of a word is ACE; words overwritten
//!   without an intervening read were un-ACE over that interval; dirty lines
//!   are written back whole, so every word of a dirty line stays ACE until
//!   the write-back. This produces the paper's observation that only the
//!   accessed portion of a block is vulnerable (clean lines dominate).
//! * **Tag arrays** are ACE from a line's fill to its last hit (and to the
//!   write-back for dirty lines): every hit exercises *all* of the tag bits
//!   ("all of the tag bits are used to check for a match"), whereas a data
//!   access touches only the referenced words — which is why the paper
//!   finds the DL1 tag more vulnerable than the DL1 data array.
//! * **TLB entries** are ACE between their fill and their last use.
//!
//! Timing model: accesses return a latency; concurrent misses overlap
//! freely (effectively infinite MSHRs) and write-backs are accounted for
//! vulnerability but add no latency — standard performance-model
//! simplifications that do not affect the paper's residency-driven AVF
//! trends (see DESIGN.md).
//!
//! ```
//! use sim_mem::MemoryHierarchy;
//! use sim_model::{MachineConfig, ThreadId};
//! use avf_core::AvfEngine;
//!
//! let cfg = MachineConfig::ispass07_baseline();
//! let mut mem = MemoryHierarchy::new(&cfg);
//! let mut avf = AvfEngine::new(1);
//! mem.configure_avf(&mut avf);
//! let r = mem.data_read(ThreadId(0), 0x1000, 8, 0, true, &mut avf);
//! assert!(r.latency >= 1);
//! ```

pub mod cache;
pub mod hierarchy;
pub mod tlb;

pub use cache::{AccessKind, Cache, CacheEvent, CacheStats, TagStrike};
pub use hierarchy::{AccessResult, MemoryHierarchy};
pub use tlb::{Tlb, TlbEvent, TlbStats};
