//! RFC 4271 message codec.
//!
//! Encodes and decodes the four BGP-4 message types with the path
//! attributes the experiments exercise (ORIGIN, AS_PATH, NEXT_HOP, MED,
//! LOCAL_PREF) and OPEN capabilities. Unknown optional attributes are
//! carried opaquely; malformed input yields typed errors, never panics —
//! the decode path is fuzzed by property tests.
//!
//! AS numbers are 16-bit on the wire (the classic RFC 4271 encoding); the
//! experiments use private 16-bit ASNs per RFC 7938-style data-center
//! designs, so 4-octet AS support is advertised as a capability but not
//! required.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use horse_net::addr::Ipv4Prefix;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// BGP version implemented.
pub const BGP_VERSION: u8 = 4;
/// Fixed header size: 16-byte marker + 2-byte length + 1-byte type.
pub const HEADER_LEN: usize = 19;
/// Maximum message size permitted by RFC 4271.
pub const MAX_MESSAGE_LEN: usize = 4096;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Message shorter than its declared or minimum length.
    Truncated(&'static str),
    /// The 16-byte marker was not all-ones.
    BadMarker,
    /// Declared length out of the legal range.
    BadLength(u16),
    /// Unknown message type code.
    BadType(u8),
    /// A field violated the spec.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated(w) => write!(f, "truncated {w}"),
            CodecError::BadMarker => write!(f, "bad marker"),
            CodecError::BadLength(l) => write!(f, "bad message length {l}"),
            CodecError::BadType(t) => write!(f, "bad message type {t}"),
            CodecError::Malformed(w) => write!(f, "malformed {w}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Route origin attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// Interior (IGP).
    Igp,
    /// Exterior (EGP).
    Egp,
    /// Incomplete.
    Incomplete,
}

impl Origin {
    fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    fn from_code(c: u8) -> Result<Origin, CodecError> {
        match c {
            0 => Ok(Origin::Igp),
            1 => Ok(Origin::Egp),
            2 => Ok(Origin::Incomplete),
            _ => Err(CodecError::Malformed("origin code")),
        }
    }
}

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsPathSegment {
    /// Ordered sequence of ASNs.
    Sequence(Vec<u16>),
    /// Unordered set (from aggregation).
    Set(Vec<u16>),
}

impl AsPathSegment {
    /// How many ASNs this segment contributes to path length (a set counts
    /// as one, per RFC 4271 §9.1.2.2).
    pub fn path_len(&self) -> usize {
        match self {
            AsPathSegment::Sequence(v) => v.len(),
            AsPathSegment::Set(_) => 1,
        }
    }
}

/// The path attributes the model understands, plus opaque unknown ones.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathAttributes {
    /// ORIGIN (well-known mandatory).
    pub origin: Origin,
    /// AS_PATH segments (well-known mandatory).
    pub as_path: Vec<AsPathSegment>,
    /// NEXT_HOP (well-known mandatory).
    pub next_hop: Ipv4Addr,
    /// MULTI_EXIT_DISC (optional).
    pub med: Option<u32>,
    /// LOCAL_PREF (well-known for iBGP).
    pub local_pref: Option<u32>,
    /// COMMUNITIES (RFC 1997, optional transitive). Kept sorted and
    /// deduplicated so equal community sets intern to one attr entry; an
    /// empty list is not encoded, keeping policy-free wire bytes identical
    /// to the pre-communities codec.
    pub communities: Vec<u32>,
    /// Unrecognized transitive attributes, carried verbatim as
    /// `(flags, type, value)`.
    pub unknown: Vec<(u8, u8, Vec<u8>)>,
}

impl PathAttributes {
    /// Attributes for a locally originated route.
    pub fn originated(next_hop: Ipv4Addr) -> PathAttributes {
        PathAttributes {
            origin: Origin::Igp,
            as_path: vec![AsPathSegment::Sequence(vec![])],
            next_hop,
            med: None,
            local_pref: None,
            communities: Vec::new(),
            unknown: Vec::new(),
        }
    }

    /// True if the RFC 1997 community `c` is attached.
    pub fn has_community(&self, c: u32) -> bool {
        // `communities` is kept sorted by every construction path.
        self.communities.binary_search(&c).is_ok()
    }

    /// Total AS-path length (sets count 1).
    pub fn as_path_len(&self) -> usize {
        self.as_path.iter().map(|s| s.path_len()).sum()
    }

    /// All ASNs appearing anywhere in the path.
    pub fn as_path_asns(&self) -> impl Iterator<Item = u16> + '_ {
        self.as_path.iter().flat_map(|s| match s {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v.iter().copied(),
        })
    }

    /// True if `asn` appears in the AS path (loop detection).
    pub fn contains_asn(&self, asn: u16) -> bool {
        self.as_path_asns().any(|a| a == asn)
    }

    /// Returns a copy with `asn` prepended to the leading sequence (eBGP
    /// export).
    pub fn prepended(&self, asn: u16) -> PathAttributes {
        let mut out = self.clone();
        match out.as_path.first_mut() {
            Some(AsPathSegment::Sequence(seq)) => seq.insert(0, asn),
            _ => out.as_path.insert(0, AsPathSegment::Sequence(vec![asn])),
        }
        out
    }

    /// The neighboring (first) AS on the path, if any.
    pub fn neighbor_as(&self) -> Option<u16> {
        match self.as_path.first() {
            Some(AsPathSegment::Sequence(v)) => v.first().copied(),
            Some(AsPathSegment::Set(v)) => v.first().copied(),
            None => None,
        }
    }
}

/// OPEN-message capabilities (RFC 5492 TLVs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Multiprotocol extensions (AFI, SAFI).
    Multiprotocol {
        /// Address family identifier (1 = IPv4).
        afi: u16,
        /// Subsequent AFI (1 = unicast).
        safi: u8,
    },
    /// Four-octet AS numbers (RFC 6793).
    FourOctetAs(u32),
    /// Anything else, carried opaquely.
    Unknown(u8, Vec<u8>),
}

/// An OPEN message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMsg {
    /// Protocol version (always 4).
    pub version: u8,
    /// Sender's AS number.
    pub my_as: u16,
    /// Proposed hold time in seconds (0 or ≥ 3).
    pub hold_time: u16,
    /// Sender's BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// Capabilities advertised.
    pub capabilities: Vec<Capability>,
}

/// An UPDATE message.
///
/// Attributes ride behind an [`Arc`] so a message built from an interned
/// attribute set (see [`crate::rib::AttrPool`]) shares the canonical
/// allocation instead of deep-cloning the nested AS-path vectors; the wire
/// encoding is unchanged.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateMsg {
    /// Prefixes withdrawn.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// Attributes for the announced NLRI (None when only withdrawing).
    pub attrs: Option<Arc<PathAttributes>>,
    /// Prefixes announced with `attrs`.
    pub nlri: Vec<Ipv4Prefix>,
}

impl UpdateMsg {
    /// Fixed per-UPDATE overhead: header plus the withdrawn-routes-length
    /// and total-path-attribute-length fields.
    const FIXED_LEN: usize = HEADER_LEN + 4;

    /// Encoded wire length including the RFC 4271 header (exact mirror of
    /// [`Message::encode`]).
    pub fn wire_len(&self) -> usize {
        Self::FIXED_LEN
            + self.attrs.as_deref().map_or(0, attrs_wire_len)
            + self.withdrawn.iter().map(prefix_wire_len).sum::<usize>()
            + self.nlri.iter().map(prefix_wire_len).sum::<usize>()
    }

    /// Splits this UPDATE into a sequence of UPDATEs that each fit within
    /// [`MAX_MESSAGE_LEN`], preserving prefix order. An UPDATE that already
    /// fits is returned as-is, so in-range messages keep byte-identical
    /// encodings; oversized ones emit withdraw-only chunks first, then NLRI
    /// chunks that each repeat the shared attributes (RFC 4271 §9.2).
    pub fn split_to_fit(self) -> Vec<UpdateMsg> {
        if self.wire_len() <= MAX_MESSAGE_LEN {
            return vec![self];
        }
        let UpdateMsg {
            withdrawn,
            attrs,
            nlri,
        } = self;
        let mut out = Vec::new();
        // Withdrawals carry no attributes, so they pack densely.
        let mut batch = Vec::new();
        let mut used = Self::FIXED_LEN;
        for p in withdrawn {
            let w = prefix_wire_len(&p);
            if used + w > MAX_MESSAGE_LEN {
                out.push(UpdateMsg {
                    withdrawn: std::mem::take(&mut batch),
                    attrs: None,
                    nlri: vec![],
                });
                used = Self::FIXED_LEN;
            }
            used += w;
            batch.push(p);
        }
        if !batch.is_empty() {
            out.push(UpdateMsg {
                withdrawn: batch,
                attrs: None,
                nlri: vec![],
            });
        }
        if !nlri.is_empty() {
            let attrs = attrs.expect("NLRI without attributes");
            let base = Self::FIXED_LEN + attrs_wire_len(&attrs);
            assert!(
                base + 5 <= MAX_MESSAGE_LEN,
                "path attributes ({} bytes) leave no room for NLRI",
                base - Self::FIXED_LEN
            );
            let mut batch = Vec::new();
            let mut used = base;
            for p in nlri {
                let w = prefix_wire_len(&p);
                if used + w > MAX_MESSAGE_LEN {
                    out.push(UpdateMsg {
                        withdrawn: vec![],
                        attrs: Some(attrs.clone()),
                        nlri: std::mem::take(&mut batch),
                    });
                    used = base;
                }
                used += w;
                batch.push(p);
            }
            out.push(UpdateMsg {
                withdrawn: vec![],
                attrs: Some(attrs),
                nlri: batch,
            });
        }
        out
    }
}

/// A NOTIFICATION message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Major error code.
    pub code: u8,
    /// Error subcode.
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Vec<u8>,
}

impl Notification {
    /// Hold-timer-expired notification (code 4).
    pub fn hold_timer_expired() -> Notification {
        Notification {
            code: 4,
            subcode: 0,
            data: Vec::new(),
        }
    }

    /// Cease (code 6).
    pub fn cease() -> Notification {
        Notification {
            code: 6,
            subcode: 0,
            data: Vec::new(),
        }
    }

    /// OPEN error with subcode (code 2).
    pub fn open_error(subcode: u8) -> Notification {
        Notification {
            code: 2,
            subcode,
            data: Vec::new(),
        }
    }
}

/// A BGP message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Session establishment offer.
    Open(OpenMsg),
    /// Route announcement/withdrawal.
    Update(UpdateMsg),
    /// Error report; sender closes the session.
    Notification(Notification),
    /// Liveness.
    Keepalive,
}

impl Message {
    /// Serializes the message with its RFC 4271 header.
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        let msg_type = match self {
            Message::Open(o) => {
                encode_open(o, &mut body);
                1
            }
            Message::Update(u) => {
                encode_update(u, &mut body);
                2
            }
            Message::Notification(n) => {
                body.put_u8(n.code);
                body.put_u8(n.subcode);
                body.put_slice(&n.data);
                3
            }
            Message::Keepalive => 4,
        };
        let mut out = BytesMut::with_capacity(HEADER_LEN + body.len());
        out.put_slice(&[0xff; 16]);
        out.put_u16((HEADER_LEN + body.len()) as u16);
        out.put_u8(msg_type);
        out.put_slice(&body);
        out.freeze()
    }

    /// Decodes one message from `buf` if a complete one is present.
    /// Returns `(message, bytes_consumed)`.
    pub fn decode(buf: &[u8]) -> Result<Option<(Message, usize)>, CodecError> {
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        if buf[..16].iter().any(|b| *b != 0xff) {
            return Err(CodecError::BadMarker);
        }
        let len = u16::from_be_bytes([buf[16], buf[17]]) as usize;
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&len) {
            return Err(CodecError::BadLength(len as u16));
        }
        if buf.len() < len {
            return Ok(None);
        }
        let msg_type = buf[18];
        let mut body = &buf[HEADER_LEN..len];
        let msg = match msg_type {
            1 => Message::Open(decode_open(&mut body)?),
            2 => Message::Update(decode_update(&mut body)?),
            3 => {
                if body.len() < 2 {
                    return Err(CodecError::Truncated("notification"));
                }
                let code = body.get_u8();
                let subcode = body.get_u8();
                Message::Notification(Notification {
                    code,
                    subcode,
                    data: body.to_vec(),
                })
            }
            4 => {
                if !body.is_empty() {
                    return Err(CodecError::Malformed("keepalive body"));
                }
                Message::Keepalive
            }
            t => return Err(CodecError::BadType(t)),
        };
        Ok(Some((msg, len)))
    }
}

fn encode_open(o: &OpenMsg, buf: &mut BytesMut) {
    buf.put_u8(o.version);
    buf.put_u16(o.my_as);
    buf.put_u16(o.hold_time);
    buf.put_slice(&o.bgp_id.octets());
    // Optional parameters: one parameter of type 2 (capabilities).
    let mut caps = BytesMut::new();
    for c in &o.capabilities {
        match c {
            Capability::Multiprotocol { afi, safi } => {
                caps.put_u8(1);
                caps.put_u8(4);
                caps.put_u16(*afi);
                caps.put_u8(0);
                caps.put_u8(*safi);
            }
            Capability::FourOctetAs(asn) => {
                caps.put_u8(65);
                caps.put_u8(4);
                caps.put_u32(*asn);
            }
            Capability::Unknown(code, data) => {
                caps.put_u8(*code);
                caps.put_u8(data.len() as u8);
                caps.put_slice(data);
            }
        }
    }
    if caps.is_empty() {
        buf.put_u8(0);
    } else {
        buf.put_u8((caps.len() + 2) as u8); // opt param len
        buf.put_u8(2); // param type: capabilities
        buf.put_u8(caps.len() as u8);
        buf.put_slice(&caps);
    }
}

fn decode_open(buf: &mut &[u8]) -> Result<OpenMsg, CodecError> {
    if buf.len() < 10 {
        return Err(CodecError::Truncated("open"));
    }
    let version = buf.get_u8();
    if version != BGP_VERSION {
        return Err(CodecError::Malformed("open version"));
    }
    let my_as = buf.get_u16();
    let hold_time = buf.get_u16();
    if hold_time == 1 || hold_time == 2 {
        return Err(CodecError::Malformed("open hold time"));
    }
    let mut id = [0u8; 4];
    buf.copy_to_slice(&mut id);
    let opt_len = buf.get_u8() as usize;
    if buf.len() < opt_len {
        return Err(CodecError::Truncated("open optional parameters"));
    }
    let mut params = &buf[..opt_len];
    buf.advance(opt_len);
    let mut capabilities = Vec::new();
    while params.len() >= 2 {
        let ptype = params.get_u8();
        let plen = params.get_u8() as usize;
        if params.len() < plen {
            return Err(CodecError::Truncated("open parameter"));
        }
        let mut pval = &params[..plen];
        params.advance(plen);
        if ptype != 2 {
            continue; // ignore non-capability parameters
        }
        while pval.len() >= 2 {
            let code = pval.get_u8();
            let clen = pval.get_u8() as usize;
            if pval.len() < clen {
                return Err(CodecError::Truncated("capability"));
            }
            let cval = &pval[..clen];
            pval.advance(clen);
            capabilities.push(match (code, clen) {
                (1, 4) => Capability::Multiprotocol {
                    afi: u16::from_be_bytes([cval[0], cval[1]]),
                    safi: cval[3],
                },
                (65, 4) => Capability::FourOctetAs(u32::from_be_bytes([
                    cval[0], cval[1], cval[2], cval[3],
                ])),
                _ => Capability::Unknown(code, cval.to_vec()),
            });
        }
    }
    if !params.is_empty() {
        return Err(CodecError::Malformed("open parameter padding"));
    }
    Ok(OpenMsg {
        version,
        my_as,
        hold_time,
        bgp_id: Ipv4Addr::from(id),
        capabilities,
    })
}

fn encode_prefix(p: &Ipv4Prefix, buf: &mut BytesMut) {
    buf.put_u8(p.len());
    let octets = p.network().octets();
    let nbytes = p.len().div_ceil(8) as usize;
    buf.put_slice(&octets[..nbytes]);
}

/// Wire size of one prefix in withdrawn-routes / NLRI encoding.
fn prefix_wire_len(p: &Ipv4Prefix) -> usize {
    1 + p.len().div_ceil(8) as usize
}

fn decode_prefix(buf: &mut &[u8]) -> Result<Ipv4Prefix, CodecError> {
    if buf.is_empty() {
        return Err(CodecError::Truncated("prefix length"));
    }
    let len = buf.get_u8();
    if len > 32 {
        return Err(CodecError::Malformed("prefix length"));
    }
    let nbytes = len.div_ceil(8) as usize;
    if buf.len() < nbytes {
        return Err(CodecError::Truncated("prefix bytes"));
    }
    let mut octets = [0u8; 4];
    octets[..nbytes].copy_from_slice(&buf[..nbytes]);
    buf.advance(nbytes);
    Ok(Ipv4Prefix::new(Ipv4Addr::from(octets), len))
}

const ATTR_FLAG_OPTIONAL: u8 = 0x80;
const ATTR_FLAG_TRANSITIVE: u8 = 0x40;
const ATTR_FLAG_EXTENDED: u8 = 0x10;

fn put_attr(buf: &mut BytesMut, flags: u8, type_code: u8, value: &[u8]) {
    if value.len() > 255 {
        buf.put_u8(flags | ATTR_FLAG_EXTENDED);
        buf.put_u8(type_code);
        buf.put_u16(value.len() as u16);
    } else {
        buf.put_u8(flags);
        buf.put_u8(type_code);
        buf.put_u8(value.len() as u8);
    }
    buf.put_slice(value);
}

fn encode_attrs(a: &PathAttributes, buf: &mut BytesMut) {
    put_attr(buf, ATTR_FLAG_TRANSITIVE, 1, &[a.origin.code()]);
    let mut path = BytesMut::new();
    for seg in &a.as_path {
        let (code, asns) = match seg {
            AsPathSegment::Set(v) => (1u8, v),
            AsPathSegment::Sequence(v) => (2u8, v),
        };
        path.put_u8(code);
        path.put_u8(asns.len() as u8);
        for asn in asns {
            path.put_u16(*asn);
        }
    }
    put_attr(buf, ATTR_FLAG_TRANSITIVE, 2, &path);
    put_attr(buf, ATTR_FLAG_TRANSITIVE, 3, &a.next_hop.octets());
    if let Some(med) = a.med {
        put_attr(buf, ATTR_FLAG_OPTIONAL, 4, &med.to_be_bytes());
    }
    if let Some(lp) = a.local_pref {
        put_attr(buf, ATTR_FLAG_TRANSITIVE, 5, &lp.to_be_bytes());
    }
    if !a.communities.is_empty() {
        let mut val = BytesMut::with_capacity(4 * a.communities.len());
        for c in &a.communities {
            val.put_u32(*c);
        }
        put_attr(buf, ATTR_FLAG_OPTIONAL | ATTR_FLAG_TRANSITIVE, 8, &val);
    }
    for (flags, code, data) in &a.unknown {
        put_attr(buf, *flags, *code, data);
    }
}

/// Wire size of the encoded path attributes (exact mirror of
/// [`encode_attrs`]).
fn attrs_wire_len(a: &PathAttributes) -> usize {
    // Type+flags+length header: 3 bytes, or 4 with the extended-length flag.
    fn attr_len(value_len: usize) -> usize {
        value_len + if value_len > 255 { 4 } else { 3 }
    }
    let path_len: usize = a
        .as_path
        .iter()
        .map(|seg| {
            let asns = match seg {
                AsPathSegment::Set(v) | AsPathSegment::Sequence(v) => v,
            };
            2 + 2 * asns.len()
        })
        .sum();
    let mut n = attr_len(1) + attr_len(path_len) + attr_len(4); // origin, as_path, next_hop
    if a.med.is_some() {
        n += attr_len(4);
    }
    if a.local_pref.is_some() {
        n += attr_len(4);
    }
    if !a.communities.is_empty() {
        n += attr_len(4 * a.communities.len());
    }
    for (_, _, data) in &a.unknown {
        n += attr_len(data.len());
    }
    n
}

fn decode_attrs(mut buf: &[u8]) -> Result<PathAttributes, CodecError> {
    let mut origin = None;
    let mut as_path = None;
    let mut next_hop = None;
    let mut med = None;
    let mut local_pref = None;
    let mut communities = Vec::new();
    let mut unknown = Vec::new();
    while !buf.is_empty() {
        if buf.len() < 3 {
            return Err(CodecError::Truncated("attribute header"));
        }
        let flags = buf.get_u8();
        let type_code = buf.get_u8();
        let len = if flags & ATTR_FLAG_EXTENDED != 0 {
            if buf.len() < 2 {
                return Err(CodecError::Truncated("attribute extended length"));
            }
            buf.get_u16() as usize
        } else {
            buf.get_u8() as usize
        };
        if buf.len() < len {
            return Err(CodecError::Truncated("attribute value"));
        }
        let mut val = &buf[..len];
        buf.advance(len);
        match type_code {
            1 => {
                if val.len() != 1 {
                    return Err(CodecError::Malformed("origin length"));
                }
                origin = Some(Origin::from_code(val[0])?);
            }
            2 => {
                let mut segs = Vec::new();
                while !val.is_empty() {
                    if val.len() < 2 {
                        return Err(CodecError::Truncated("as_path segment header"));
                    }
                    let seg_type = val.get_u8();
                    let count = val.get_u8() as usize;
                    if val.len() < count * 2 {
                        return Err(CodecError::Truncated("as_path asns"));
                    }
                    let mut asns = Vec::with_capacity(count);
                    for _ in 0..count {
                        asns.push(val.get_u16());
                    }
                    segs.push(match seg_type {
                        1 => AsPathSegment::Set(asns),
                        2 => AsPathSegment::Sequence(asns),
                        _ => return Err(CodecError::Malformed("as_path segment type")),
                    });
                }
                as_path = Some(segs);
            }
            3 => {
                if val.len() != 4 {
                    return Err(CodecError::Malformed("next_hop length"));
                }
                next_hop = Some(Ipv4Addr::new(val[0], val[1], val[2], val[3]));
            }
            4 => {
                if val.len() != 4 {
                    return Err(CodecError::Malformed("med length"));
                }
                med = Some(u32::from_be_bytes([val[0], val[1], val[2], val[3]]));
            }
            5 => {
                if val.len() != 4 {
                    return Err(CodecError::Malformed("local_pref length"));
                }
                local_pref = Some(u32::from_be_bytes([val[0], val[1], val[2], val[3]]));
            }
            8 => {
                if !val.len().is_multiple_of(4) {
                    return Err(CodecError::Malformed("communities length"));
                }
                while !val.is_empty() {
                    communities.push(val.get_u32());
                }
                // Canonicalize on ingest so equal sets compare (and intern)
                // equal regardless of sender ordering.
                communities.sort_unstable();
                communities.dedup();
            }
            _ => unknown.push((flags, type_code, val.to_vec())),
        }
    }
    Ok(PathAttributes {
        origin: origin.ok_or(CodecError::Malformed("missing origin"))?,
        as_path: as_path.ok_or(CodecError::Malformed("missing as_path"))?,
        next_hop: next_hop.ok_or(CodecError::Malformed("missing next_hop"))?,
        med,
        local_pref,
        communities,
        unknown,
    })
}

fn encode_update(u: &UpdateMsg, buf: &mut BytesMut) {
    let mut withdrawn = BytesMut::new();
    for p in &u.withdrawn {
        encode_prefix(p, &mut withdrawn);
    }
    buf.put_u16(withdrawn.len() as u16);
    buf.put_slice(&withdrawn);
    let mut attrs = BytesMut::new();
    if let Some(a) = &u.attrs {
        encode_attrs(a, &mut attrs);
    }
    buf.put_u16(attrs.len() as u16);
    buf.put_slice(&attrs);
    for p in &u.nlri {
        encode_prefix(p, buf);
    }
}

fn decode_update(buf: &mut &[u8]) -> Result<UpdateMsg, CodecError> {
    if buf.len() < 2 {
        return Err(CodecError::Truncated("update withdrawn length"));
    }
    let wlen = buf.get_u16() as usize;
    if buf.len() < wlen {
        return Err(CodecError::Truncated("update withdrawn routes"));
    }
    let mut wbuf = &buf[..wlen];
    buf.advance(wlen);
    let mut withdrawn = Vec::new();
    while !wbuf.is_empty() {
        withdrawn.push(decode_prefix(&mut wbuf)?);
    }
    if buf.len() < 2 {
        return Err(CodecError::Truncated("update attribute length"));
    }
    let alen = buf.get_u16() as usize;
    if buf.len() < alen {
        return Err(CodecError::Truncated("update attributes"));
    }
    let abuf = &buf[..alen];
    buf.advance(alen);
    let attrs = if alen == 0 {
        None
    } else {
        Some(Arc::new(decode_attrs(abuf)?))
    };
    let mut nlri = Vec::new();
    let mut nbuf = *buf;
    while !nbuf.is_empty() {
        nlri.push(decode_prefix(&mut nbuf)?);
    }
    *buf = nbuf;
    if attrs.is_none() && !nlri.is_empty() {
        return Err(CodecError::Malformed("nlri without attributes"));
    }
    Ok(UpdateMsg {
        withdrawn,
        attrs,
        nlri,
    })
}

/// A streaming decoder that accumulates bytes and yields complete messages
/// (BGP rides a byte stream; message boundaries are internal).
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
}

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> StreamDecoder {
        StreamDecoder::default()
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete message, if any. After an error the stream is
    /// unrecoverable (the session should send a NOTIFICATION and close).
    // Fallible Result<Option<_>> pull, not an Iterator — decode errors must
    // reach the session so it can emit a NOTIFICATION before closing.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Message>, CodecError> {
        match Message::decode(&self.buf)? {
            Some((msg, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(msg))
            }
            None => Ok(None),
        }
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn sample_attrs() -> PathAttributes {
        PathAttributes {
            origin: Origin::Igp,
            as_path: vec![AsPathSegment::Sequence(vec![64512, 64513])],
            next_hop: Ipv4Addr::new(10, 0, 0, 1),
            med: Some(100),
            local_pref: Some(200),
            communities: vec![],
            unknown: vec![],
        }
    }

    fn roundtrip(msg: Message) -> Message {
        let bytes = msg.encode();
        let (decoded, consumed) = Message::decode(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        decoded
    }

    #[test]
    fn keepalive_roundtrip() {
        assert_eq!(roundtrip(Message::Keepalive), Message::Keepalive);
    }

    #[test]
    fn open_roundtrip_with_capabilities() {
        let open = OpenMsg {
            version: 4,
            my_as: 64512,
            hold_time: 90,
            bgp_id: Ipv4Addr::new(1, 1, 1, 1),
            capabilities: vec![
                Capability::Multiprotocol { afi: 1, safi: 1 },
                Capability::FourOctetAs(64512),
                Capability::Unknown(99, vec![1, 2, 3]),
            ],
        };
        assert_eq!(roundtrip(Message::Open(open.clone())), Message::Open(open));
    }

    #[test]
    fn open_roundtrip_no_capabilities() {
        let open = OpenMsg {
            version: 4,
            my_as: 1,
            hold_time: 0,
            bgp_id: Ipv4Addr::new(9, 9, 9, 9),
            capabilities: vec![],
        };
        assert_eq!(roundtrip(Message::Open(open.clone())), Message::Open(open));
    }

    #[test]
    fn update_roundtrip_announce() {
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(sample_attrs())),
            nlri: vec![pfx("10.1.0.0/16"), pfx("10.2.3.0/24"), pfx("0.0.0.0/0")],
        };
        assert_eq!(roundtrip(Message::Update(u.clone())), Message::Update(u));
    }

    #[test]
    fn update_roundtrip_withdraw_only() {
        let u = UpdateMsg {
            withdrawn: vec![pfx("10.1.0.0/16"), pfx("192.168.1.128/25")],
            attrs: None,
            nlri: vec![],
        };
        assert_eq!(roundtrip(Message::Update(u.clone())), Message::Update(u));
    }

    #[test]
    fn wire_len_matches_encoding() {
        let cases = [
            UpdateMsg {
                withdrawn: vec![pfx("10.1.0.0/16"), pfx("0.0.0.0/0")],
                attrs: None,
                nlri: vec![],
            },
            UpdateMsg {
                withdrawn: vec![pfx("192.168.1.128/25")],
                attrs: Some(Arc::new(sample_attrs())),
                nlri: vec![pfx("10.2.3.0/24"), pfx("10.0.0.1/32")],
            },
            UpdateMsg {
                withdrawn: vec![],
                attrs: Some(Arc::new(PathAttributes {
                    // 200 ASNs forces the extended-length attribute form.
                    as_path: vec![AsPathSegment::Sequence(vec![64512; 200])],
                    med: None,
                    unknown: vec![(0xc0, 99, vec![0u8; 300])],
                    ..sample_attrs()
                })),
                nlri: vec![pfx("10.9.0.0/16")],
            },
        ];
        for u in cases {
            assert_eq!(u.wire_len(), Message::Update(u.clone()).encode().len());
        }
    }

    #[test]
    fn split_to_fit_keeps_small_updates_intact() {
        let u = UpdateMsg {
            withdrawn: vec![pfx("10.1.0.0/16")],
            attrs: Some(Arc::new(sample_attrs())),
            nlri: vec![pfx("10.2.3.0/24")],
        };
        assert_eq!(u.clone().split_to_fit(), vec![u]);
    }

    #[test]
    fn split_to_fit_chunks_oversized_updates() {
        // 1500 /24s (4 wire bytes each) blows well past 4096 in both the
        // withdrawn and NLRI sections.
        let many: Vec<Ipv4Prefix> = (0u32..1500)
            .map(|g| Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 | (g << 8)), 24))
            .collect();
        let u = UpdateMsg {
            withdrawn: many.clone(),
            attrs: Some(Arc::new(sample_attrs())),
            nlri: many.clone(),
        };
        let chunks = u.split_to_fit();
        assert!(
            chunks.len() >= 4,
            "expected several chunks, got {}",
            chunks.len()
        );
        let mut withdrawn = Vec::new();
        let mut nlri = Vec::new();
        for c in &chunks {
            assert!(c.wire_len() <= MAX_MESSAGE_LEN);
            // Each chunk must survive a codec roundtrip.
            assert_eq!(
                roundtrip(Message::Update(c.clone())),
                Message::Update(c.clone())
            );
            assert!(c.withdrawn.is_empty() || c.nlri.is_empty());
            if c.nlri.is_empty() {
                assert!(c.attrs.is_none());
            } else {
                assert_eq!(c.attrs.as_deref(), Some(&sample_attrs()));
            }
            withdrawn.extend(c.withdrawn.iter().copied());
            nlri.extend(c.nlri.iter().copied());
        }
        // Order and content preserved exactly.
        assert_eq!(withdrawn, many);
        assert_eq!(nlri, many);
    }

    #[test]
    fn notification_roundtrip() {
        let n = Notification {
            code: 6,
            subcode: 2,
            data: vec![0xde, 0xad],
        };
        assert_eq!(
            roundtrip(Message::Notification(n.clone())),
            Message::Notification(n)
        );
    }

    #[test]
    fn incomplete_buffer_returns_none() {
        let bytes = Message::Keepalive.encode();
        for cut in 0..bytes.len() {
            assert_eq!(Message::decode(&bytes[..cut]).unwrap(), None, "cut={cut}");
        }
    }

    #[test]
    fn bad_marker_rejected() {
        let mut bytes = Message::Keepalive.encode().to_vec();
        bytes[3] = 0;
        assert_eq!(Message::decode(&bytes), Err(CodecError::BadMarker));
    }

    #[test]
    fn bad_length_rejected() {
        let mut bytes = Message::Keepalive.encode().to_vec();
        bytes[16] = 0xff;
        bytes[17] = 0xff; // 65535 > 4096
        assert!(matches!(
            Message::decode(&bytes),
            Err(CodecError::BadLength(_))
        ));
        bytes[16] = 0;
        bytes[17] = 5; // 5 < 19
        assert!(matches!(
            Message::decode(&bytes),
            Err(CodecError::BadType(_)) | Err(CodecError::BadLength(_))
        ));
    }

    #[test]
    fn bad_type_rejected() {
        let mut bytes = Message::Keepalive.encode().to_vec();
        bytes[18] = 42;
        assert_eq!(Message::decode(&bytes), Err(CodecError::BadType(42)));
    }

    #[test]
    fn nlri_without_attrs_rejected() {
        // Hand-craft: empty withdrawn, empty attrs, one NLRI prefix.
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(0);
        body.put_u8(8);
        body.put_u8(10);
        let mut out = BytesMut::new();
        out.put_slice(&[0xff; 16]);
        out.put_u16((HEADER_LEN + body.len()) as u16);
        out.put_u8(2);
        out.put_slice(&body);
        assert!(matches!(
            Message::decode(&out),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn as_path_helpers() {
        let a = sample_attrs();
        assert_eq!(a.as_path_len(), 2);
        assert!(a.contains_asn(64513));
        assert!(!a.contains_asn(7));
        assert_eq!(a.neighbor_as(), Some(64512));
        let b = a.prepended(65000);
        assert_eq!(b.neighbor_as(), Some(65000));
        assert_eq!(b.as_path_len(), 3);
    }

    #[test]
    fn prepend_onto_set_creates_sequence() {
        let mut a = sample_attrs();
        a.as_path = vec![AsPathSegment::Set(vec![1, 2])];
        let b = a.prepended(9);
        assert_eq!(
            b.as_path,
            vec![
                AsPathSegment::Sequence(vec![9]),
                AsPathSegment::Set(vec![1, 2])
            ]
        );
        assert_eq!(b.as_path_len(), 2, "set counts once");
    }

    #[test]
    fn communities_roundtrip() {
        let mut a = sample_attrs();
        a.communities = vec![0x0001_0002, 0xff00_0001, 0xffff_ff01];
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(a.clone())),
            nlri: vec![pfx("10.0.0.0/8")],
        };
        assert_eq!(u.wire_len(), Message::Update(u.clone()).encode().len());
        match roundtrip(Message::Update(u)) {
            Message::Update(got) => {
                let ga = got.attrs.unwrap();
                assert_eq!(ga.communities, a.communities);
                assert!(ga.has_community(0xff00_0001));
                assert!(!ga.has_community(0xff00_0002));
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn empty_communities_are_not_encoded() {
        // Byte-compat with the pre-communities codec: an empty list adds
        // zero wire bytes and no type-8 attribute appears in the encoding.
        let without = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(sample_attrs())),
            nlri: vec![pfx("10.0.0.0/8")],
        })
        .encode();
        let mut a = sample_attrs();
        a.communities = vec![0xff00_0001];
        let with = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(a)),
            nlri: vec![pfx("10.0.0.0/8")],
        })
        .encode();
        // One community = 3-byte attr header + 4-byte value.
        assert_eq!(with.len(), without.len() + 7);
    }

    #[test]
    fn decoded_communities_are_canonicalized() {
        // Hand-craft a type-8 attr with unsorted duplicates; the decoder
        // must sort + dedup so equal sets intern identically.
        let mut a = sample_attrs();
        a.communities = vec![5, 5, 3, 9, 3];
        let bytes = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(a)),
            nlri: vec![pfx("10.0.0.0/8")],
        })
        .encode();
        let (decoded, _) = Message::decode(&bytes).unwrap().unwrap();
        match decoded {
            Message::Update(u) => assert_eq!(u.attrs.unwrap().communities, vec![3, 5, 9]),
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn originated_attrs_have_empty_path() {
        let a = PathAttributes::originated(Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(a.as_path_len(), 0);
        assert_eq!(a.neighbor_as(), None);
    }

    #[test]
    fn stream_decoder_reassembles() {
        let mut dec = StreamDecoder::new();
        let m1 = Message::Keepalive.encode();
        let m2 = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(sample_attrs())),
            nlri: vec![pfx("10.0.0.0/8")],
        })
        .encode();
        let all = [m1.as_ref(), m2.as_ref()].concat();
        // Feed one byte at a time.
        let mut got = Vec::new();
        for b in all {
            dec.push(&[b]);
            while let Some(m) = dec.next().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], Message::Keepalive);
        assert!(matches!(got[1], Message::Update(_)));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn hold_time_1_or_2_rejected() {
        let open = OpenMsg {
            version: 4,
            my_as: 1,
            hold_time: 90,
            bgp_id: Ipv4Addr::new(1, 1, 1, 1),
            capabilities: vec![],
        };
        let mut bytes = Message::Open(open).encode().to_vec();
        bytes[HEADER_LEN + 3] = 0;
        bytes[HEADER_LEN + 4] = 1; // hold time 1
        assert!(matches!(
            Message::decode(&bytes),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_attrs_survive_roundtrip() {
        let mut a = sample_attrs();
        a.unknown = vec![(ATTR_FLAG_OPTIONAL | ATTR_FLAG_TRANSITIVE, 16, vec![0; 300])];
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(a.clone())),
            nlri: vec![pfx("10.0.0.0/8")],
        };
        // 300-byte value exercises the extended-length flag path.
        match roundtrip(Message::Update(u)) {
            Message::Update(got) => {
                let ga = got.attrs.unwrap();
                assert_eq!(ga.unknown.len(), 1);
                assert_eq!(ga.unknown[0].2.len(), 300);
                assert_ne!(ga.unknown[0].0 & ATTR_FLAG_EXTENDED, 0);
            }
            other => panic!("expected update, got {other:?}"),
        }
    }
}
