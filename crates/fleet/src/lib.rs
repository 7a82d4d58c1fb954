//! `hmdiv-fleet`: a replicated, sharded serving tier over `hmdiv-serve`.
//!
//! One `hmdiv-serve` replica is a single point of failure for long
//! cohort sweeps. This crate turns N replicas into one service without
//! adding any external dependency, in three pieces that lean on the
//! serve core's existing guarantees:
//!
//! * **Registry sync** ([`sync`]) — replicas expose their
//!   content-hash-addressed registries over two new verbs: `manifest`
//!   (every artifact's id and kind) and `fetch` (the original
//!   load-verb wire shape for one id). Because ids are content hashes,
//!   a diff by id is a complete diff: the reconciler ships each missing
//!   artifact and the receiver replays it through its own load path, so
//!   every transfer is re-hashed (the recomputed id must match the
//!   advertised one) and re-gated through the `hmdiv-analyze` admission
//!   check. A corrupt transfer cannot be admitted.
//!
//! * **Consistent-hash routing** ([`ring`], [`router`]) — a thin
//!   nonblocking front [`Router`] spreads client connections across the
//!   replicas on a vnode hash ring, so membership changes move only
//!   ~1/N of the keys. Stateless verbs follow the ring; the
//!   registry-mutating verbs (`load`, `load_cohort`, `save`, `restore`)
//!   broadcast so replicas stay converged; a replica whose leg fails
//!   while its peers succeed is ejected until it re-syncs. The router
//!   classifies each line with the replicas' own request decoder, so
//!   both sides agree on what every line means, and forwards request
//!   and reply lines *verbatim* — the fleet preserves the serve core's
//!   bit-identical evaluation guarantee.
//!
//! * **Failover** ([`health`]) — a prober pings each replica on a
//!   cadence, ejects after consecutive failures, and re-admits only
//!   after recovery probes *plus* a registry sync from a healthy peer.
//!   Requests in flight on a lost replica are answered with the typed
//!   `backend_unavailable` wire error; later requests re-hash to the
//!   survivors.
//!
//! The fleet is wired into the `repro` binary as `repro serve --fleet
//! N` (N replica child processes plus the router in-process) and the
//! standalone `repro route` subcommand for externally-managed replicas.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod health;
pub mod process;
pub mod ring;
pub mod router;
pub mod sync;

pub use health::{BackendHealth, BackendSnapshot, FleetState, HealthPolicy, ProbeVerdict};
pub use process::ReplicaSet;
pub use ring::{mix64, HashRing};
pub use router::{Router, RouterConfig};
pub use sync::{diff_manifests, manifest_rows, reconcile, ManifestRow, SyncReport};
