//! Compact binary serialization of a PAG.
//!
//! The paper's "space cost" (Table 1) is the storage size of PAGs on disk.
//! This module implements a self-describing length-prefixed binary format
//! with no external dependencies. Strings are deduplicated through a string
//! table so that parallel views — where every process replicates the same
//! vertex names — stay compact.
//!
//! The wire format is **`PAG2`**: vertex/edge records carry only labels,
//! names and string properties; numeric metrics are written as *columnar
//! sections* mirroring the in-memory [`MetricColumns`] layout — per key: a
//! presence bitmap plus the packed present values. Sparse metrics therefore
//! cost one bit per absent row instead of a keyed entry per vertex.
//!
//! [`decode`] rejects input with bytes left over after a well-formed
//! payload ([`DecodeError::TrailingBytes`]) so torn or concatenated
//! snapshots fail loudly instead of silently dropping data. Length prefixes
//! are never trusted for pre-allocation: every reservation is capped by
//! what the remaining bytes could actually hold.

use std::collections::HashMap;
use std::sync::Arc;

use crate::graph::{EdgeData, Pag, VertexData};
use crate::ids::{EdgeId, VertexId};
use crate::label::{CallKind, CommKind, EdgeLabel, VertexLabel};
use crate::metric::{KeyId, MetricColumns};
use crate::props::{PropMap, PropValue};
use crate::ViewKind;

const MAGIC: &[u8; 4] = b"PAG2";

/// Errors produced while decoding a serialized PAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input does not start with the `PAG2` magic.
    BadMagic,
    /// Input ended before the structure was complete.
    Truncated,
    /// An enum tag byte had no defined meaning.
    BadTag(u8),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A string-table, vertex or row index was out of range.
    BadIndex,
    /// Input continued after a well-formed payload (torn or concatenated
    /// snapshot).
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic (not a PAG file)"),
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 string"),
            DecodeError::BadIndex => write!(f, "index out of range"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------- encoding

struct Encoder {
    buf: Vec<u8>,
    strings: Vec<Arc<str>>,
    string_ids: HashMap<Arc<str>, u32>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            buf: Vec::with_capacity(4096),
            strings: Vec::new(),
            string_ids: HashMap::new(),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.string_ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        let s: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&s));
        self.string_ids.insert(s, id);
        id
    }

    fn str_ref(&mut self, s: &str) {
        let id = self.intern(s);
        self.u32(id);
    }

    fn props(&mut self, map: &PropMap) {
        self.u32(map.len() as u32);
        for (k, v) in map.iter() {
            self.str_ref(k);
            match v {
                PropValue::Int(i) => {
                    self.u8(0);
                    self.u64(*i as u64);
                }
                PropValue::Float(f) => {
                    self.u8(1);
                    self.f64(*f);
                }
                PropValue::Str(s) => {
                    self.u8(2);
                    self.str_ref(s);
                }
                PropValue::VecF64(xs) => {
                    self.u8(3);
                    self.u32(xs.len() as u32);
                    for x in xs.iter() {
                        self.f64(*x);
                    }
                }
            }
        }
    }

    /// One columnar metric section (vertex or edge metrics).
    fn columns(&mut self, pag: &Pag, cols: &MetricColumns) {
        // Group present values per key, in key order (for_each_* visit in
        // key-major, row-ascending order).
        type ScalarCol = (KeyId, bool, Vec<(u32, f64)>);
        let mut scalars: Vec<ScalarCol> = Vec::new();
        cols.for_each_scalar(|k, is_int, row, x| match scalars.last_mut() {
            Some((lk, _, vs)) if *lk == k => vs.push((row as u32, x)),
            _ => scalars.push((k, is_int, vec![(row as u32, x)])),
        });
        self.u32(scalars.len() as u32);
        for (k, is_int, vs) in scalars {
            self.str_ref(pag.key_name(k));
            self.u8(is_int as u8);
            let rows_used = vs.last().map(|&(r, _)| r + 1).unwrap_or(0);
            self.u32(rows_used);
            let mut bitmap = vec![0u8; rows_used.div_ceil(8) as usize];
            for &(r, _) in &vs {
                bitmap[(r / 8) as usize] |= 1 << (r % 8);
            }
            self.buf.extend_from_slice(&bitmap);
            for &(_, x) in &vs {
                self.f64(x);
            }
        }
        type VecCol = (KeyId, Vec<(u32, Arc<[f64]>)>);
        let mut vecs: Vec<VecCol> = Vec::new();
        cols.for_each_vec(|k, row, xs| match vecs.last_mut() {
            Some((lk, vs)) if *lk == k => vs.push((row as u32, xs.clone())),
            _ => vecs.push((k, vec![(row as u32, xs.clone())])),
        });
        self.u32(vecs.len() as u32);
        for (k, vs) in vecs {
            self.str_ref(pag.key_name(k));
            self.u32(vs.len() as u32);
            for (r, xs) in vs {
                self.u32(r);
                self.u32(xs.len() as u32);
                for x in xs.iter() {
                    self.f64(*x);
                }
            }
        }
    }

    fn assemble(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + 1024);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.strings.len() as u32).to_le_bytes());
        for s in &self.strings {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&self.buf);
        out
    }
}

fn vertex_label_tag(l: VertexLabel) -> u8 {
    match l {
        VertexLabel::Root => 0,
        VertexLabel::Function => 1,
        VertexLabel::Loop => 2,
        VertexLabel::Branch => 3,
        VertexLabel::Compute => 4,
        VertexLabel::Instruction => 5,
        VertexLabel::Call(CallKind::User) => 10,
        VertexLabel::Call(CallKind::Comm) => 11,
        VertexLabel::Call(CallKind::External) => 12,
        VertexLabel::Call(CallKind::Recursive) => 13,
        VertexLabel::Call(CallKind::Indirect) => 14,
        VertexLabel::Call(CallKind::ThreadSpawn) => 15,
        VertexLabel::Call(CallKind::Lock) => 16,
    }
}

fn vertex_label_from_tag(t: u8) -> Result<VertexLabel, DecodeError> {
    Ok(match t {
        0 => VertexLabel::Root,
        1 => VertexLabel::Function,
        2 => VertexLabel::Loop,
        3 => VertexLabel::Branch,
        4 => VertexLabel::Compute,
        5 => VertexLabel::Instruction,
        10 => VertexLabel::Call(CallKind::User),
        11 => VertexLabel::Call(CallKind::Comm),
        12 => VertexLabel::Call(CallKind::External),
        13 => VertexLabel::Call(CallKind::Recursive),
        14 => VertexLabel::Call(CallKind::Indirect),
        15 => VertexLabel::Call(CallKind::ThreadSpawn),
        16 => VertexLabel::Call(CallKind::Lock),
        t => return Err(DecodeError::BadTag(t)),
    })
}

fn edge_label_tag(l: EdgeLabel) -> u8 {
    match l {
        EdgeLabel::IntraProc => 0,
        EdgeLabel::InterProc => 1,
        EdgeLabel::InterThread => 2,
        EdgeLabel::InterProcess(CommKind::P2pSync) => 3,
        EdgeLabel::InterProcess(CommKind::P2pAsync) => 4,
        EdgeLabel::InterProcess(CommKind::Collective) => 5,
    }
}

fn edge_label_from_tag(t: u8) -> Result<EdgeLabel, DecodeError> {
    Ok(match t {
        0 => EdgeLabel::IntraProc,
        1 => EdgeLabel::InterProc,
        2 => EdgeLabel::InterThread,
        3 => EdgeLabel::InterProcess(CommKind::P2pSync),
        4 => EdgeLabel::InterProcess(CommKind::P2pAsync),
        5 => EdgeLabel::InterProcess(CommKind::Collective),
        t => return Err(DecodeError::BadTag(t)),
    })
}

/// Serialize a PAG into the `PAG2` (columnar) wire format.
pub fn encode(pag: &Pag) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(match pag.view() {
        ViewKind::TopDown => 0,
        ViewKind::Parallel => 1,
    });
    enc.str_ref(pag.name());
    enc.u32(pag.num_procs());
    enc.u32(pag.threads_per_proc());
    match pag.root() {
        Some(r) => {
            enc.u8(1);
            enc.u32(r.0);
        }
        None => enc.u8(0),
    }
    enc.u32(pag.num_vertices() as u32);
    for v in pag.vertex_ids() {
        let data: &VertexData = pag.vertex(v);
        enc.u8(vertex_label_tag(data.label));
        enc.str_ref(&data.name);
        enc.props(&data.sprops);
    }
    enc.u32(pag.num_edges() as u32);
    for e in pag.edge_ids() {
        let data: &EdgeData = pag.edge(e);
        enc.u32(data.src.0);
        enc.u32(data.dst.0);
        enc.u8(edge_label_tag(data.label));
        enc.props(&data.sprops);
    }
    enc.columns(pag, pag.vmetric_columns());
    enc.columns(pag, pag.emetric_columns());
    enc.assemble()
}

// ---------------------------------------------------------------- decoding

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    strings: Vec<Arc<str>>,
}

impl<'a> Decoder<'a> {
    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str_ref(&mut self) -> Result<Arc<str>, DecodeError> {
        let id = self.u32()? as usize;
        self.strings.get(id).cloned().ok_or(DecodeError::BadIndex)
    }
    fn props(&mut self) -> Result<PropMap, DecodeError> {
        let n = self.u32()?;
        let mut map = PropMap::new();
        for _ in 0..n {
            let key = self.str_ref()?;
            let tag = self.u8()?;
            let value = match tag {
                0 => PropValue::Int(self.u64()? as i64),
                1 => PropValue::Float(self.f64()?),
                2 => PropValue::Str(self.str_ref()?),
                3 => PropValue::VecF64(self.f64_vec()?),
                t => return Err(DecodeError::BadTag(t)),
            };
            map.set(&key, value);
        }
        Ok(map)
    }

    /// A length-prefixed `f64` vector. The reservation is capped by what
    /// the remaining input can hold, so a hostile length prefix cannot
    /// force a huge allocation before the truncation is noticed.
    fn f64_vec(&mut self) -> Result<Arc<[f64]>, DecodeError> {
        let len = self.u32()? as usize;
        let mut xs = Vec::with_capacity(len.min(self.remaining() / 8));
        for _ in 0..len {
            xs.push(self.f64()?);
        }
        Ok(Arc::from(xs.into_boxed_slice()))
    }

    fn string_table(&mut self) -> Result<(), DecodeError> {
        let nstrings = self.u32()?;
        for _ in 0..nstrings {
            let len = self.u32()? as usize;
            let raw = self.take(len)?;
            let s = std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
            self.strings.push(Arc::from(s));
        }
        Ok(())
    }

    /// One columnar metric section; `edges` selects edge vs vertex columns.
    fn columns(&mut self, pag: &mut Pag, edges: bool, rows: usize) -> Result<(), DecodeError> {
        let nscalar = self.u32()?;
        for _ in 0..nscalar {
            let name = self.str_ref()?;
            let is_int = match self.u8()? {
                0 => false,
                1 => true,
                t => return Err(DecodeError::BadTag(t)),
            };
            let rows_used = self.u32()? as usize;
            if rows_used > rows {
                return Err(DecodeError::BadIndex);
            }
            let bitmap = self.take(rows_used.div_ceil(8))?.to_vec();
            let key = pag.intern_key(&name);
            for row in 0..rows_used {
                if bitmap[row / 8] & (1 << (row % 8)) != 0 {
                    let x = self.f64()?;
                    if edges {
                        pag.emetrics_mut().set(key, row, x, is_int);
                    } else {
                        pag.vmetrics_mut().set(key, row, x, is_int);
                    }
                }
            }
        }
        let nvec = self.u32()?;
        for _ in 0..nvec {
            let name = self.str_ref()?;
            let key = pag.intern_key(&name);
            let nentries = self.u32()?;
            for _ in 0..nentries {
                let row = self.u32()? as usize;
                if row >= rows {
                    return Err(DecodeError::BadIndex);
                }
                let xs = self.f64_vec()?;
                if edges {
                    pag.emetrics_mut().set_vec(key, row, xs);
                } else {
                    pag.vmetrics_mut().set_vec(key, row, xs);
                }
            }
        }
        Ok(())
    }
}

/// Deserialize a PAG from bytes produced by [`encode`]. Rejects any other
/// magic and trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<Pag, DecodeError> {
    if bytes.get(..4) != Some(&MAGIC[..]) {
        return Err(DecodeError::BadMagic);
    }
    let mut dec = Decoder {
        buf: bytes,
        pos: 4,
        strings: Vec::new(),
    };
    dec.string_table()?;

    let view = match dec.u8()? {
        0 => ViewKind::TopDown,
        1 => ViewKind::Parallel,
        t => return Err(DecodeError::BadTag(t)),
    };
    let name = dec.str_ref()?;
    let num_procs = dec.u32()?;
    let threads = dec.u32()?;
    let root = match dec.u8()? {
        0 => None,
        1 => Some(VertexId(dec.u32()?)),
        t => return Err(DecodeError::BadTag(t)),
    };

    // A vertex record is at least 9 bytes (tag, name ref, property count).
    let nv = dec.u32()? as usize;
    let mut pag = Pag::with_capacity(view, name.as_ref(), nv.min(dec.remaining() / 9), 0);
    pag.set_num_procs(num_procs);
    pag.set_threads_per_proc(threads);
    for _ in 0..nv {
        let label = vertex_label_from_tag(dec.u8()?)?;
        let vname = dec.str_ref()?;
        let v = pag.add_vertex(label, vname);
        pag.vertex_mut(v).sprops = dec.props()?;
    }
    let ne = dec.u32()? as usize;
    for _ in 0..ne {
        let src = VertexId(dec.u32()?);
        let dst = VertexId(dec.u32()?);
        if src.index() >= nv || dst.index() >= nv {
            return Err(DecodeError::BadIndex);
        }
        let label = edge_label_from_tag(dec.u8()?)?;
        let e: EdgeId = pag.add_edge(src, dst, label);
        pag.edge_mut(e).sprops = dec.props()?;
    }
    dec.columns(&mut pag, false, nv)?;
    dec.columns(&mut pag, true, ne)?;
    if let Some(r) = root {
        if r.index() >= nv {
            return Err(DecodeError::BadIndex);
        }
        pag.set_root(r);
    }
    if dec.pos != bytes.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(pag)
}

/// Serialized size in bytes — the paper's "space cost" metric.
pub fn space_cost(pag: &Pag) -> usize {
    encode(pag).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mkeys;
    use crate::props::keys;

    fn sample() -> Pag {
        let mut g = Pag::new(ViewKind::Parallel, "ser-sample");
        g.set_num_procs(4);
        g.set_threads_per_proc(2);
        let a = g.add_vertex(VertexLabel::Function, "main");
        let b = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Send");
        let e = g.add_edge(a, b, EdgeLabel::InterProcess(CommKind::P2pSync));
        g.set_root(a);
        g.set_metric(a, mkeys::TIME, 3.25);
        g.set_metric_i64(a, mkeys::COUNT, 7);
        g.set_vstr(b, keys::DEBUG_INFO, "main.c:42");
        g.set_metric_vec(b, mkeys::TIME_PER_PROC, vec![1.0, 2.0, 3.0, 4.0]);
        g.set_emetric_i64(e, mkeys::COMM_BYTES, 4096);
        g
    }

    fn check_sample(h: &Pag) {
        assert_eq!(h.view(), ViewKind::Parallel);
        assert_eq!(h.name(), "ser-sample");
        assert_eq!(h.num_procs(), 4);
        assert_eq!(h.threads_per_proc(), 2);
        assert_eq!(h.root(), Some(VertexId(0)));
        assert_eq!(h.num_vertices(), 2);
        assert_eq!(h.num_edges(), 1);
        assert_eq!(h.vertex(VertexId(0)).label, VertexLabel::Function);
        assert_eq!(
            h.vertex(VertexId(1)).label,
            VertexLabel::Call(CallKind::Comm)
        );
        assert_eq!(h.vertex_time(VertexId(0)), 3.25);
        assert_eq!(h.metric_i64(VertexId(0), mkeys::COUNT), Some(7));
        assert_eq!(h.vstr(VertexId(1), keys::DEBUG_INFO), Some("main.c:42"));
        assert_eq!(
            h.metric_vec(VertexId(1), mkeys::TIME_PER_PROC),
            Some(&[1.0, 2.0, 3.0, 4.0][..])
        );
        let e = h.edge(EdgeId(0));
        assert_eq!(e.label, EdgeLabel::InterProcess(CommKind::P2pSync));
        assert_eq!(h.emetric_i64(EdgeId(0), mkeys::COMM_BYTES), Some(4096));
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let bytes = encode(&g);
        assert_eq!(&bytes[..4], MAGIC);
        check_sample(&decode(&bytes).unwrap());
    }

    #[test]
    fn nan_and_inf_survive_both_formats() {
        // Both column formats: scalar columns and vector columns.
        let mut g = Pag::new(ViewKind::TopDown, "nan");
        let v = g.add_vertex(VertexLabel::Compute, "k");
        g.set_metric(v, mkeys::TIME, f64::NAN);
        g.set_metric(v, mkeys::WAIT_TIME, f64::NEG_INFINITY);
        g.set_metric_vec(v, mkeys::TIME_PER_PROC, vec![f64::INFINITY, f64::NAN]);
        let h = decode(&encode(&g)).unwrap();
        assert!(h.vertex_time(VertexId(0)).is_nan());
        assert_eq!(
            h.metric(VertexId(0), mkeys::WAIT_TIME),
            Some(f64::NEG_INFINITY)
        );
        let xs = h.metric_vec(VertexId(0), mkeys::TIME_PER_PROC).unwrap();
        assert_eq!(xs[0], f64::INFINITY);
        assert!(xs[1].is_nan());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(decode(b"nope"), Err(DecodeError::BadMagic)));
        assert!(matches!(decode(b""), Err(DecodeError::BadMagic)));
        // The retired row-wise `PAG1` format is just another bad magic.
        let mut pag1 = encode(&sample());
        pag1[..4].copy_from_slice(b"PAG1");
        assert!(matches!(decode(&pag1), Err(DecodeError::BadMagic)));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(&sample());
        for cut in [5, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated | DecodeError::BadIndex),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(DecodeError::TrailingBytes)));
        // Two concatenated snapshots are not one snapshot.
        let mut twice = encode(&sample());
        twice.extend_from_slice(&encode(&sample()));
        assert!(matches!(decode(&twice), Err(DecodeError::TrailingBytes)));
    }

    #[test]
    fn string_dedup_keeps_replicas_compact() {
        // Two graphs: one with 100 distinct names, one with 100 copies of
        // the same name. The latter must serialize much smaller.
        let mut distinct = Pag::new(ViewKind::TopDown, "d");
        let mut repeated = Pag::new(ViewKind::TopDown, "r");
        for i in 0..100 {
            distinct.add_vertex(
                VertexLabel::Compute,
                format!("some_rather_long_vertex_name_{i}").as_str(),
            );
            repeated.add_vertex(VertexLabel::Compute, "some_rather_long_vertex_name_0");
        }
        assert!(space_cost(&repeated) < space_cost(&distinct) / 2);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Pag::new(ViewKind::TopDown, "empty");
        let h = decode(&encode(&g)).unwrap();
        assert_eq!(h.num_vertices(), 0);
        assert_eq!(h.num_edges(), 0);
        assert_eq!(h.root(), None);
    }
}
