//! Canonical Huffman codes: length-limited construction from symbol
//! frequencies (encoder side) and canonical decoding tables (decoder side).
//!
//! DEFLATE transmits only the *code lengths*; both sides then derive the same
//! canonical codes (RFC 1951 §3.2.2). Codes are written MSB-first into the
//! LSB-first bit stream, so the encoder stores each code pre-reversed.

use crate::bitio::{BitReader, BitWriter};
use crate::{DeflateError, Result};

/// Maximum code length DEFLATE permits for literal/length/distance codes.
pub const MAX_BITS: usize = 15;

/// Compute length-limited Huffman code lengths for the given frequencies.
///
/// Builds an optimal Huffman tree, then (rarely) flattens any code deeper
/// than `max_bits` while keeping the Kraft inequality tight. Symbols with
/// zero frequency get length 0 (absent). If only one symbol is present it
/// gets length 1, as DEFLATE requires at least one bit per coded symbol.
pub fn build_code_lengths(freqs: &[u64], max_bits: usize) -> Vec<u8> {
    let n = freqs.len();
    let mut lengths = vec![0u8; n];
    let used: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match used.len() {
        0 => return lengths,
        1 => {
            lengths[used[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Heap-based Huffman tree; node = (freq, tie-break id, index).
    // Leaves are 0..n, internal nodes n..; `parent` chains let us read off
    // depths at the end.
    #[derive(PartialEq, Eq)]
    struct Node {
        freq: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap on freq, then id for determinism.
            other.freq.cmp(&self.freq).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = std::collections::BinaryHeap::new();
    let mut parent = vec![usize::MAX; 2 * used.len()];
    // Map heap ids to tree slots: first used.len() slots are leaves.
    for (slot, &sym) in used.iter().enumerate() {
        heap.push(Node {
            freq: freqs[sym],
            id: slot,
        });
    }
    let mut next_id = used.len();
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        parent[a.id] = next_id;
        parent[b.id] = next_id;
        heap.push(Node {
            freq: a.freq.saturating_add(b.freq),
            id: next_id,
        });
        next_id += 1;
    }

    // Depth of each leaf = number of parent hops to the root.
    let root = heap.pop().unwrap().id;
    for (slot, &sym) in used.iter().enumerate() {
        let mut depth = 0u32;
        let mut node = slot;
        while node != root {
            node = parent[node];
            depth += 1;
        }
        lengths[sym] = depth.min(255) as u8;
    }

    limit_lengths(&mut lengths, max_bits);
    lengths
}

/// Enforce `max_bits` on a set of Huffman code lengths while keeping the
/// Kraft sum exactly 1 (a complete code). Standard clamp-and-repair.
///
/// If `max_bits` cannot represent the number of used symbols at all
/// (`used > 2^max_bits`), the limit is raised to the smallest feasible
/// depth — callers with hard format limits (DEFLATE: 15 bits for ≤288
/// symbols) can never trigger this, but large open alphabets (e.g. SZ
/// quantization codes) can.
fn limit_lengths(lengths: &mut [u8], max_bits: usize) {
    let used = lengths.iter().filter(|&&l| l > 0).count();
    let feasible = usize::BITS - used.next_power_of_two().leading_zeros() - 1;
    let max_bits = max_bits.max(feasible as usize) as u8;
    if lengths.iter().all(|&l| l <= max_bits) {
        return;
    }
    for l in lengths.iter_mut() {
        if *l > max_bits {
            *l = max_bits;
        }
    }
    // Kraft sum in units of 2^-max_bits.
    let unit = |l: u8| 1u64 << (max_bits - l);
    let budget = 1u64 << max_bits;
    let mut kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit(l)).sum();
    // Overfull: deepen the shallowest over-contributing symbols.
    while kraft > budget {
        // Pick the deepest symbol shallower than max_bits and push it down;
        // this reduces the sum by unit(l) / 2.
        #[allow(clippy::unwrap_or_default)]
        let idx = (0..lengths.len())
            .filter(|&i| lengths[i] > 0 && lengths[i] < max_bits)
            .max_by_key(|&i| lengths[i])
            .expect("kraft overfull but all codes already at max length");
        kraft -= unit(lengths[idx]) / 2;
        lengths[idx] += 1;
    }
    // Underfull (possible after the clamp): raise the deepest codes back up.
    while let Some(idx) = (0..lengths.len())
        .filter(|&i| lengths[i] > 1)
        .max_by_key(|&i| lengths[i])
    {
        let gain = unit(lengths[idx]); // moving up one level adds `gain`
        if kraft + gain > budget {
            break;
        }
        kraft += gain;
        lengths[idx] -= 1;
    }
}

/// Reverse the low `len` bits of `code`.
#[inline]
fn reverse_bits(code: u32, len: u8) -> u32 {
    let mut v = code;
    let mut out = 0u32;
    for _ in 0..len {
        out = (out << 1) | (v & 1);
        v >>= 1;
    }
    out
}

/// Encoder-side canonical Huffman code table.
#[derive(Debug, Clone)]
pub struct Encoder {
    /// Pre-reversed code bits per symbol (ready for the LSB-first writer).
    codes: Vec<u32>,
    lengths: Vec<u8>,
}

impl Encoder {
    /// Derive canonical codes from code lengths (RFC 1951 §3.2.2).
    pub fn from_lengths(lengths: &[u8]) -> Encoder {
        let max_len = lengths.iter().cloned().max().unwrap_or(0) as usize;
        let mut bl_count = vec![0u32; max_len + 1];
        for &l in lengths {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        let mut next_code = vec![0u32; max_len + 2];
        let mut code = 0u32;
        for bits in 1..=max_len {
            code = (code + bl_count[bits - 1]) << 1;
            next_code[bits] = code;
        }
        let mut codes = vec![0u32; lengths.len()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                codes[sym] = reverse_bits(next_code[l as usize], l);
                next_code[l as usize] += 1;
            }
        }
        Encoder {
            codes,
            lengths: lengths.to_vec(),
        }
    }

    /// Emit symbol `sym` into the bit stream.
    #[inline]
    pub fn write(&self, w: &mut BitWriter, sym: usize) {
        let len = self.lengths[sym];
        debug_assert!(len > 0, "writing symbol {sym} with no code");
        w.write_bits(self.codes[sym], len as u32);
    }

    /// Code length of `sym` in bits (0 = absent).
    #[inline]
    pub fn length(&self, sym: usize) -> u8 {
        self.lengths[sym]
    }

    /// The code lengths backing this table.
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }
}

/// Decoder-side canonical Huffman table. Decodes one symbol at a time by
/// walking the canonical first-code/offset arrays per bit — simple and
/// allocation-free after construction. It is the reference the table
/// decoder ([`LutDecoder`]) is tested against, and the validation and
/// long-code walk that decoder builds on; decode paths use [`LutDecoder`].
#[derive(Debug, Clone)]
pub struct Decoder {
    /// `first_code[l]`: smallest canonical code of length `l` (MSB-first).
    first_code: Vec<u32>,
    /// `first_index[l]`: index into `symbols` of that code.
    first_index: Vec<u32>,
    /// Count of codes at each length.
    counts: Vec<u32>,
    /// Symbols sorted by (length, symbol) — canonical order.
    symbols: Vec<u16>,
    max_len: usize,
}

impl Decoder {
    /// Build a decoding table from code lengths. Rejects over-subscribed
    /// codes (Kraft sum > 1); incomplete codes are accepted (some encoders
    /// emit them for degenerate alphabets).
    pub fn from_lengths(lengths: &[u8]) -> Result<Decoder> {
        let max_len = lengths.iter().cloned().max().unwrap_or(0) as usize;
        if max_len == 0 {
            return Ok(Decoder {
                first_code: vec![],
                first_index: vec![],
                counts: vec![],
                symbols: vec![],
                max_len: 0,
            });
        }
        let mut counts = vec![0u32; max_len + 1];
        for &l in lengths {
            if l > 0 {
                counts[l as usize] += 1;
            }
        }
        // Kraft check.
        let mut left = 1i64;
        for &count in counts.iter().take(max_len + 1).skip(1) {
            left <<= 1;
            left -= count as i64;
            if left < 0 {
                return Err(DeflateError::Corrupt("oversubscribed huffman code"));
            }
        }
        let mut first_code = vec![0u32; max_len + 1];
        let mut first_index = vec![0u32; max_len + 1];
        let mut code = 0u32;
        let mut index = 0u32;
        for bits in 1..=max_len {
            first_code[bits] = code;
            first_index[bits] = index;
            code = (code + counts[bits]) << 1;
            index += counts[bits];
        }
        // Canonical symbol order.
        let mut symbols = vec![0u16; index as usize];
        let mut next = first_index.clone();
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                symbols[next[l as usize] as usize] = sym as u16;
                next[l as usize] += 1;
            }
        }
        Ok(Decoder {
            first_code,
            first_index,
            counts,
            symbols,
            max_len,
        })
    }

    /// Decode the next symbol from the bit stream.
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<u16> {
        if self.max_len == 0 {
            return Err(DeflateError::Corrupt("decode with empty huffman table"));
        }
        let mut code = 0u32;
        for bits in 1..=self.max_len {
            code = (code << 1) | r.read_bit()?;
            let count = self.counts[bits];
            let first = self.first_code[bits];
            if count != 0 && code < first + count {
                let idx = self.first_index[bits] + (code - first);
                return Ok(self.symbols[idx as usize]);
            }
        }
        Err(DeflateError::Corrupt("invalid huffman code"))
    }

    /// Match the code at the front of `bits` (stream order, as peeked) the
    /// way [`Decoder::read`] walks it: the symbol and the code length, or
    /// `None` when no code of up to `max_len` bits matches.
    fn match_peeked(&self, bits: u32) -> Option<(u16, u32)> {
        let mut code = 0u32;
        for len in 1..=self.max_len {
            code = (code << 1) | ((bits >> (len - 1)) & 1);
            let count = self.counts[len];
            let first = self.first_code[len];
            if count != 0 && code < first + count {
                let idx = self.first_index[len] + (code - first);
                return Some((self.symbols[idx as usize], len as u32));
            }
        }
        None
    }
}

/// Number of stream bits indexing the primary lookup table. Codes no longer
/// than this decode with a single probe; longer codes chase one subtable
/// pointer. 10 bits covers every code of the DEFLATE dynamic tables on
/// typical data (lengths beyond 10 are rare tails).
pub const LUT_BITS: u32 = 10;

/// Index width cap of one subtable. Codes of up to `LUT_BITS + SUB_BITS` = 15
/// bits (DEFLATE's limit) resolve in two probes. A prefix with deeper codes
/// (SZ's alphabets reach 24 bits) still gets a subtable of `2^SUB_BITS`
/// entries, and those codes finish with the canonical walk. So the tables
/// hold at most `2^LUT_BITS · (1 + 2^SUB_BITS)` entries for any alphabet.
const SUB_BITS: u32 = 5;

/// Longest code the table decoder accepts: SZ's depth limit.
const MAX_CODE_BITS: usize = 24;

const LUT_MASK: u64 = (1 << LUT_BITS) - 1;
const LEN_SHIFT: u32 = 16;
const LEN_MASK: u32 = 0x1F;
/// Bits 21..28 of an entry belong to the caller's symbol map (see
/// [`LutDecoder::from_lengths_mapped`]); bits 21..25 hold the count of
/// extra bits that follow the code.
pub(crate) const EXTRA_SHIFT: u32 = 21;
const EXTRA_MASK: u32 = 0xF;
const MAP_MASK: u32 = 0xFFFF | (0x7F << EXTRA_SHIFT);
pub(crate) const DOUBLE: u32 = 1 << 28;
const SUBTABLE: u32 = 1 << 29;
pub(crate) const LONG: u32 = 1 << 30;

/// Table-driven canonical Huffman decoder: the next [`LUT_BITS`] stream bits
/// index a flat table whose entries carry the decoded symbol *and* the code
/// length, replacing the [`Decoder`]'s bit-at-a-time walk with one probe.
///
/// Three further entry kinds accelerate and complete the scheme:
///
/// * **double-literal** entries (built when `pack_pairs` is set) hold two
///   literal symbols whose codes together fit in the primary index, so runs
///   of short literal codes decode two symbols per probe;
/// * **subtable** entries cover codes longer than [`LUT_BITS`] — the primary
///   entry points at a dense subtable indexed by the code's next bits, at
///   most `SUB_BITS` = 5 of them;
/// * **long** entries mark subtable slots whose codes are longer still; the
///   canonical walk finishes those from the code's first bit.
///
/// Entry layout (`u32`): value in bits 0..16 (the symbol or the caller's
/// mapped value, `lit1 | lit2 << 8` for doubles, a subtable start for
/// pointers), code length in 16..21 (0 marks an undefined code; a pointer
/// stores its subtable's index width there), the symbol map's bits in
/// 21..28, flags in 28..31.
#[derive(Debug, Clone)]
pub struct LutDecoder {
    table: Box<[u32; 1 << LUT_BITS]>,
    sub: Vec<u32>,
    /// Longest code length; 0 for an empty code.
    max_len: u32,
    /// The canonical walk for codes deeper than `LUT_BITS + SUB_BITS`;
    /// `None` when the code has none.
    long: Option<Decoder>,
}

impl LutDecoder {
    /// Build the lookup tables from code lengths. Same validation as
    /// [`Decoder::from_lengths`]: over-subscribed codes are rejected,
    /// incomplete codes leave undefined entries that fail at decode time.
    /// Codes longer than 24 bits are rejected.
    pub fn from_lengths(lengths: &[u8], pack_pairs: bool) -> Result<LutDecoder> {
        Self::build(lengths, pack_pairs, None)
    }

    /// [`LutDecoder::from_lengths`] whose entries carry `map(symbol)` in
    /// place of the symbol, so a decode hands back what the caller would
    /// have looked up next (inflate: a match length's base and extra-bit
    /// count). `map` may set bits 0..16 and 21..28 only. Pairs still pack
    /// symbols below 256 as literal bytes.
    pub(crate) fn from_lengths_mapped(
        lengths: &[u8],
        pack_pairs: bool,
        map: fn(usize) -> u32,
    ) -> Result<LutDecoder> {
        Self::build(lengths, pack_pairs, Some(map))
    }

    fn build(
        lengths: &[u8],
        pack_pairs: bool,
        map: Option<fn(usize) -> u32>,
    ) -> Result<LutDecoder> {
        if lengths.iter().any(|&l| usize::from(l) > MAX_CODE_BITS) {
            return Err(DeflateError::Corrupt("huffman code longer than 24 bits"));
        }
        // The walk validates the code and orders it canonically; the tables
        // are filled from its arrays.
        let walk = Decoder::from_lengths(lengths)?;
        let max_len = walk.max_len;
        let lut_bits = LUT_BITS as usize;
        let mut table = Box::new([0u32; 1 << LUT_BITS]);
        let mut sub = Vec::new();
        // Canonical codes of length `l` are `first_code[l] + j`, MSB-first;
        // the stream presents them bit-reversed.
        let codes = |l: usize| {
            let first = walk.first_code[l];
            (first..first + walk.counts[l]).map(move |code| code.reverse_bits() >> (32 - l))
        };
        // Subtable widths: the deepest code under each primary prefix,
        // capped at SUB_BITS.
        let mut width = [0u32; 1 << LUT_BITS];
        for l in lut_bits + 1..=max_len {
            let w = ((l - lut_bits) as u32).min(SUB_BITS);
            for pat in codes(l) {
                let p = pat as usize & (table.len() - 1);
                width[p] = width[p].max(w);
            }
        }
        for (p, &w) in width.iter().enumerate() {
            if w > 0 {
                table[p] = sub.len() as u32 | (w << LEN_SHIFT) | SUBTABLE;
                sub.resize(sub.len() + (1 << w), 0);
            }
        }
        // Fill: every index whose low `l` bits match the pattern decodes sym.
        for l in 1..=max_len {
            let first_index = walk.first_index[l] as usize;
            for (j, pat) in codes(l).enumerate() {
                let sym = u32::from(walk.symbols[first_index + j]);
                let entry = sym | ((l as u32) << LEN_SHIFT);
                let pat = pat as usize;
                if l <= lut_bits {
                    for slot in table.iter_mut().skip(pat).step_by(1 << l) {
                        *slot = entry;
                    }
                    continue;
                }
                let p = pat & (table.len() - 1);
                let start = (table[p] & 0xFFFF) as usize;
                let w = width[p] as usize;
                let slots = &mut sub[start..start + (1 << w)];
                if l - lut_bits <= w {
                    for slot in slots
                        .iter_mut()
                        .skip(pat >> lut_bits)
                        .step_by(1 << (l - lut_bits))
                    {
                        *slot = entry;
                    }
                } else {
                    slots[(pat >> lut_bits) & ((1 << w) - 1)] = LONG;
                }
            }
        }
        if pack_pairs {
            // Second probe-free literal: where a literal's code leaves room
            // in the primary index and the following bits complete another
            // literal, merge both into one entry. Work from a snapshot so
            // pairs never chain into triples.
            let singles = table.clone();
            for (i, slot) in table.iter_mut().enumerate() {
                let e1 = singles[i];
                let l1 = (e1 >> LEN_SHIFT) & LEN_MASK;
                if e1 & SUBTABLE != 0 || l1 == 0 || l1 >= LUT_BITS || e1 & 0xFFFF > 255 {
                    continue;
                }
                let e2 = singles[i >> l1];
                let l2 = (e2 >> LEN_SHIFT) & LEN_MASK;
                if e2 & SUBTABLE != 0 || l2 == 0 || l1 + l2 > LUT_BITS || e2 & 0xFFFF > 255 {
                    continue;
                }
                *slot = (e1 & 0xFF) | ((e2 & 0xFF) << 8) | ((l1 + l2) << LEN_SHIFT) | DOUBLE;
            }
        }
        if let Some(map) = map {
            for e in table.iter_mut().chain(sub.iter_mut()) {
                let len = *e & (LEN_MASK << LEN_SHIFT);
                if *e & (DOUBLE | SUBTABLE | LONG) == 0 && len != 0 {
                    let value = map((*e & 0xFFFF) as usize);
                    debug_assert_eq!(value & !MAP_MASK, 0, "symbol map writes reserved bits");
                    *e = (value & MAP_MASK) | len;
                }
            }
        }
        let long = (max_len > lut_bits + SUB_BITS as usize).then_some(walk);
        Ok(LutDecoder {
            table,
            sub,
            max_len: max_len as u32,
            long,
        })
    }

    /// The entry for the code at the front of `bits` (stream order): one
    /// primary probe, plus one subtable probe for long codes. Undefined and
    /// long entries come back as they are.
    #[inline(always)]
    pub(crate) fn lookup(&self, bits: u64) -> u32 {
        let e = self.table[(bits & LUT_MASK) as usize];
        if e & SUBTABLE == 0 {
            return e;
        }
        let w = (e >> LEN_SHIFT) & LEN_MASK;
        let i = (e & 0xFFFF) as usize + ((bits >> LUT_BITS) as usize & ((1 << w) - 1));
        self.sub[i]
    }

    /// Decode the next entry, consuming its bits. Returns the raw entry so
    /// the caller can branch on [`LutEntry::second_literal`] for packed
    /// pairs. Fails on undefined codes and on codes that would need bits
    /// past the end of the stream.
    #[inline]
    pub fn read_entry(&self, r: &mut BitReader<'_>) -> Result<LutEntry> {
        let mut e = self.lookup(u64::from(r.peek_bits(LUT_BITS + SUB_BITS)));
        if e & LONG != 0 {
            let walk = self.long.as_ref().expect("long entries come with the walk");
            e = match walk.match_peeked(r.peek_bits(self.max_len)) {
                Some((sym, len)) => u32::from(sym) | (len << LEN_SHIFT),
                None => 0,
            };
        }
        let consumed = entry_len(e);
        if consumed == 0 {
            return Err(DeflateError::Corrupt("invalid huffman code"));
        }
        if consumed > r.bits_available() {
            return Err(DeflateError::UnexpectedEof);
        }
        r.consume(consumed);
        Ok(LutEntry(e))
    }

    /// Decode one symbol (double-literal entries are never built for plain
    /// symbol streams; this panics in debug if one shows up). Returns
    /// exactly what [`Decoder::read`] returns on the same bits, errors
    /// included.
    #[inline]
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let e = self.lookup(u64::from(r.peek_bits(LUT_BITS + SUB_BITS)));
        debug_assert_eq!(e & DOUBLE, 0, "pairs in a symbol stream");
        let len = entry_len(e);
        if e & LONG == 0 && len != 0 && len <= r.bits_available() {
            r.consume(len);
            return Ok(e as u16);
        }
        self.read_slow(r, e)
    }

    /// [`LutDecoder::read`] past the tables: deep codes, undefined codes and
    /// the end of the stream, reported the way the bit walk reports them.
    #[cold]
    fn read_slow(&self, r: &mut BitReader<'_>, e: u32) -> Result<u16> {
        if self.max_len == 0 {
            return Err(DeflateError::Corrupt("decode with empty huffman table"));
        }
        // Buffer as much of the longest code as the stream still holds.
        let bits = r.peek_bits(self.max_len);
        let found = match &self.long {
            Some(walk) if e & LONG != 0 => walk.match_peeked(bits),
            _ => (entry_len(e) != 0).then(|| (e as u16, entry_len(e))),
        };
        match found {
            Some((sym, len)) if len <= r.bits_available() => {
                r.consume(len);
                Ok(sym)
            }
            // The walk runs out of input before it can complete the code.
            Some(_) => Err(DeflateError::UnexpectedEof),
            None if r.bits_available() < self.max_len => Err(DeflateError::UnexpectedEof),
            None => Err(DeflateError::Corrupt("invalid huffman code")),
        }
    }
}

/// Code bits an entry consumes (0 for an undefined code).
#[inline(always)]
pub(crate) fn entry_len(e: u32) -> u32 {
    (e >> LEN_SHIFT) & LEN_MASK
}

/// Extra bits a mapped entry says follow its code.
#[inline(always)]
pub(crate) fn entry_extra(e: u32) -> u32 {
    (e >> EXTRA_SHIFT) & EXTRA_MASK
}

/// One decoded [`LutDecoder`] entry: a symbol, or a pair of literals.
#[derive(Debug, Clone, Copy)]
pub struct LutEntry(u32);

impl LutEntry {
    /// The whole table entry, for callers that read mapped values.
    #[inline(always)]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// The decoded symbol (for pairs, the first literal).
    #[inline]
    pub fn symbol(self) -> u16 {
        if self.0 & DOUBLE != 0 {
            (self.0 & 0xFF) as u16
        } else {
            (self.0 & 0xFFFF) as u16
        }
    }

    /// The second packed literal, when this entry carries a pair.
    #[inline]
    pub fn second_literal(self) -> Option<u8> {
        if self.0 & DOUBLE != 0 {
            Some(((self.0 >> 8) & 0xFF) as u8)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kraft_ok(lengths: &[u8]) -> bool {
        let max = *lengths.iter().max().unwrap_or(&0) as u32;
        if max == 0 {
            return true;
        }
        let sum: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max - l as u32))
            .sum();
        sum <= 1u64 << max
    }

    #[test]
    fn lengths_for_skewed_freqs() {
        // Very skewed distribution: frequent symbol gets a short code.
        let freqs = [1000u64, 10, 10, 1];
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        assert_eq!(lengths[0], 1);
        assert!(lengths[3] >= lengths[1]);
        assert!(kraft_ok(&lengths));
    }

    #[test]
    fn zero_freq_symbols_are_absent() {
        let freqs = [5u64, 0, 7, 0, 3];
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        assert_eq!(lengths[1], 0);
        assert_eq!(lengths[3], 0);
        assert!(lengths[0] > 0 && lengths[2] > 0 && lengths[4] > 0);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let freqs = [0u64, 42, 0];
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        assert_eq!(lengths, vec![0, 1, 0]);
    }

    #[test]
    fn empty_frequencies() {
        assert_eq!(build_code_lengths(&[0, 0, 0], MAX_BITS), vec![0, 0, 0]);
    }

    #[test]
    fn length_limiting_kicks_in() {
        // Fibonacci-ish frequencies force a degenerate deep tree.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        assert!(lengths.iter().all(|&l| l as usize <= MAX_BITS));
        assert!(kraft_ok(&lengths));
    }

    #[test]
    fn complete_code_after_limiting() {
        // The repaired code should be complete (Kraft sum == 1) so the
        // decoder accepts every bit pattern prefix.
        let mut freqs = vec![0u64; 30];
        let (mut a, mut b) = (1u64, 2u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        let max = *lengths.iter().max().unwrap() as u32;
        let sum: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max - l as u32))
            .sum();
        assert_eq!(sum, 1u64 << max, "limited code should stay complete");
    }

    #[test]
    fn encode_decode_round_trip() {
        let freqs: Vec<u64> = (1..=20).map(|i| i * i).collect();
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        let enc = Encoder::from_lengths(&lengths);
        let dec = Decoder::from_lengths(&lengths).unwrap();

        let msg: Vec<usize> = (0..2000).map(|i| (i * 7 + i / 3) % 20).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.read(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn canonical_codes_match_rfc_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) yield codes
        // 010,011,100,101,110,00,1110,1111.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let enc = Encoder::from_lengths(&lengths);
        let expected = [0b010u32, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111];
        for (sym, &code) in expected.iter().enumerate() {
            let len = lengths[sym];
            assert_eq!(enc.codes[sym], reverse_bits(code, len), "symbol {sym}");
        }
    }

    #[test]
    fn decoder_rejects_oversubscribed() {
        // Three codes of length 1 cannot exist.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn decoder_rejects_garbage_bits_for_incomplete_code() {
        // Single 1-bit code: pattern `1` is undefined.
        let dec = Decoder::from_lengths(&[1, 0]).unwrap();
        let data = [0xFFu8];
        let mut r = BitReader::new(&data);
        assert!(dec.read(&mut r).is_err());
    }

    #[test]
    fn lut_decoder_matches_bitwalk_decoder() {
        // Skewed frequencies force a mix of short and long (> LUT_BITS)
        // codes; both decoders must read identical symbol streams.
        let mut freqs = vec![0u64; 80];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        assert!(
            *lengths.iter().max().unwrap() as u32 > LUT_BITS,
            "test needs codes longer than the primary table"
        );
        let enc = Encoder::from_lengths(&lengths);
        let walk = Decoder::from_lengths(&lengths).unwrap();
        let lut = LutDecoder::from_lengths(&lengths, false).unwrap();

        let msg: Vec<usize> = (0..5000).map(|i| (i * 31 + i / 7) % 80).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r1 = BitReader::new(&bytes);
        let mut r2 = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(walk.read(&mut r1).unwrap() as usize, s);
            assert_eq!(lut.read(&mut r2).unwrap() as usize, s);
        }
    }

    #[test]
    fn lut_pair_packing_decodes_two_literals() {
        // A flat literal alphabet gets short codes; pairs must pack and the
        // packed stream must decode to the same sequence.
        let freqs = vec![10u64; 16];
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        let enc = Encoder::from_lengths(&lengths);
        let lut = LutDecoder::from_lengths(&lengths, true).unwrap();
        let msg: Vec<usize> = (0..1000).map(|i| (i * 5) % 16).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut got = Vec::new();
        let mut saw_pair = false;
        while got.len() < msg.len() {
            let e = lut.read_entry(&mut r).unwrap();
            got.push(e.symbol() as usize);
            if let Some(second) = e.second_literal() {
                saw_pair = true;
                got.push(second as usize);
            }
        }
        assert_eq!(got, msg);
        assert!(saw_pair, "short codes should produce packed pairs");
    }

    #[test]
    fn lut_rejects_oversubscribed_and_undefined() {
        assert!(LutDecoder::from_lengths(&[1, 1, 1], false).is_err());
        let lut = LutDecoder::from_lengths(&[1, 0], false).unwrap();
        let data = [0xFFu8];
        let mut r = BitReader::new(&data);
        assert!(lut.read(&mut r).is_err());
    }

    #[test]
    fn entropy_optimality_sanity() {
        // Average code length must be within one bit of the entropy.
        let freqs: Vec<u64> = vec![900, 50, 25, 15, 7, 2, 1];
        let total: u64 = freqs.iter().sum();
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        let avg: f64 = freqs
            .iter()
            .zip(&lengths)
            .map(|(&f, &l)| f as f64 * l as f64)
            .sum::<f64>()
            / total as f64;
        let entropy: f64 = freqs
            .iter()
            .filter(|&&f| f > 0)
            .map(|&f| {
                let p = f as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        assert!(avg < entropy + 1.0, "avg {avg} vs entropy {entropy}");
    }
}
