//! # horse-bgp — a sans-IO BGP-4 speaker
//!
//! Horse emulates the control plane with *real protocol implementations*:
//! the paper runs Quagga daemons; this crate is the equivalent substrate, a
//! from-scratch BGP-4 speaker that exchanges byte-exact RFC 4271 messages.
//! It is written sans-IO (in the style of smoltcp): the speaker is a pure
//! state machine fed with bytes, transport events and a clock, and it emits
//! bytes and route events. The Connection Manager runs one speaker per
//! emulated router — on real threads over real byte streams in emulation
//! mode, or deterministically inside the simulation loop in virtual mode.
//!
//! Layout:
//!
//! * [`msg`] — RFC 4271 message codec (OPEN / UPDATE / NOTIFICATION /
//!   KEEPALIVE, path attributes, capabilities).
//! * [`session`] — the per-peer finite state machine with connect-retry,
//!   hold and keepalive timers.
//! * [`rib`] — Adj-RIB-In / Loc-RIB and the decision process, with ECMP
//!   multipath relaxation (equal local-pref, AS-path length, origin and
//!   MED routes form a multipath set, as `maximum-paths` does in real
//!   routers — the demo's "BGP + ECMP" scenario depends on this). The RIB
//!   is built around path attributes and prefixes interned in per-run
//!   pools ([`rib::AttrPool`], [`horse_net::intern::PrefixPool`]) and
//!   copy-on-write candidate sets shared by prefixes, each with its own
//!   memoized decision — the route-churn fast path.
//! * [`policy`] — per-peer import/export route-maps (prefix / community /
//!   AS-path regex-lite matches; local-pref / MED / community / prepend
//!   sets) and the Gao-Rexford role compiler. Evaluated at exactly two
//!   choke points: RIB ingest and speaker export.
//! * [`naive`] — the pre-index RIB, the one reference model for
//!   [`rib::LocRib`]: the differential proptest and the `rib_churn` bench
//!   baseline.
//! * [`speaker`] — ties sessions and RIBs together: originates local
//!   networks, floods UPDATEs with split-horizon and AS-path loop
//!   prevention, and reports effective next-hop sets per prefix.

pub mod msg;
pub mod naive;
pub mod policy;
pub mod rib;
pub mod session;
pub mod speaker;

pub use msg::{Capability, Message, Notification, OpenMsg, Origin, PathAttributes, UpdateMsg};
pub use policy::{
    gao_rexford_policy, AsPathRegex, PeerPolicy, PeerRole, PolicyAction, PolicyVerdict,
    PrefixMatch, RouteMap, RouteMapClause, RouteMapMatch, RouteMapSet,
};
pub use rib::{AttrId, AttrPool, Decision, LocRib, RibStats, RouteInfo};
pub use session::{PeerConfig, Session, SessionState};
pub use speaker::{BgpConfig, BgpSpeaker, SpeakerOutput};
