//! # pscc-storage
//!
//! The storage-manager substrate of the PSCC page-server OODBMS: slotted
//! pages with a real byte-level layout, availability masks (the
//! per-object "available"/"unavailable" bits of paper §4.1), volumes and
//! files with page/object allocation, page snapshots for shipping between
//! peers, forwarding for size-growing updates (paper §4.4), and
//! SHORE-style large objects stored as private page trees (paper §4.4).
//!
//! Pages live entirely in memory; *timing* of disk accesses is modeled by
//! the simulation harness, which charges I/O latency whenever the engine
//! touches a page that is not resident in a buffer pool.
//!
//! # Examples
//!
//! ```
//! use pscc_storage::Volume;
//! use pscc_common::{VolId, SystemConfig};
//!
//! let cfg = SystemConfig::small();
//! let mut vol = Volume::create_database(VolId(0), &cfg);
//! let file = vol.files()[0];
//! let first = vol.file_pages(file).next().unwrap();
//! let obj = pscc_common::Oid::new(first, 0);
//! assert!(vol.read_object(obj).is_some());
//! # let _ = &mut vol;
//! ```

mod avail;
mod large;
mod page;
mod snapshot;
mod volume;

pub use avail::AvailMask;
pub use large::{LargeHeader, LargeObjectRef, LargeObjectStore};
pub use page::{PageSlice, SlottedPage, HEADER_SIZE, SLOT_SIZE};
pub use snapshot::PageSnapshot;
pub use volume::{forward_target, Volume};
