//! Embedded bit-plane codec and the ZFP container.
//!
//! Transformed coefficients are mapped to **negabinary** (so sign
//! information lives in high-order bits and truncation rounds toward zero),
//! then emitted plane by plane from the most significant bit down, using
//! ZFP's adaptive group testing: the codec tracks how many leading
//! (sequency-ordered) coefficients have become significant and spends one
//! test bit per plane on the insignificant tail, so smooth blocks cost very
//! few bits per plane.

use crate::block::BlockLayout;
use crate::transform::{
    from_fixed, fwd_transform, inv_transform, max_exponent, sequency_order, to_fixed,
};
use crate::{ZfpError, ZfpMode};
use dpz_deflate::bitio::{BitReader, BitWriter};

const MAGIC: &[u8; 4] = b"ZFR1";
/// Bits in the integer coefficient representation.
const INTPREC: u32 = 32;
/// Negabinary mask.
const NBMASK: u32 = 0xAAAA_AAAA;
/// Bias added to block exponents in the header.
const EXP_BIAS: i32 = 16384;

/// Map a two's-complement coefficient to negabinary.
#[inline]
fn int2uint(x: i64) -> u32 {
    let x = x as i32;
    (x.wrapping_add(NBMASK as i32) as u32) ^ NBMASK
}

/// Map negabinary back to two's complement.
#[inline]
fn uint2int(u: u32) -> i64 {
    i64::from(((u ^ NBMASK) as i32).wrapping_sub(NBMASK as i32))
}

/// Write the low `count` bits of `x` (count <= 64); higher bits are ignored.
fn write_bits64(w: &mut BitWriter, x: u64, count: usize) {
    let x = if count >= 64 {
        x
    } else {
        x & ((1u64 << count) - 1)
    };
    if count <= 32 {
        w.write_bits(x as u32, count as u32);
    } else {
        w.write_bits((x & 0xFFFF_FFFF) as u32, 32);
        w.write_bits((x >> 32) as u32, (count - 32) as u32);
    }
}

/// Read `count` bits into a u64 (count <= 64).
fn read_bits64(r: &mut BitReader<'_>, count: usize) -> Result<u64, ZfpError> {
    let map = |_e| ZfpError::Corrupt("bitstream truncated");
    if count <= 32 {
        Ok(u64::from(r.read_bits(count as u32).map_err(map)?))
    } else {
        let lo = u64::from(r.read_bits(32).map_err(map)?);
        let hi = u64::from(r.read_bits((count - 32) as u32).map_err(map)?);
        Ok(lo | (hi << 32))
    }
}

/// Encode one block of negabinary coefficients (already in sequency order)
/// keeping the top `maxprec` bit planes, spending at most `budget` bits
/// (pass `u64::MAX` for unbounded). Returns bits written.
fn encode_ints(w: &mut BitWriter, ublock: &[u32], maxprec: u32, budget: u64) -> u64 {
    let size = ublock.len();
    debug_assert!(size <= 64);
    let kmin = INTPREC.saturating_sub(maxprec);
    let mut left = budget;
    let mut n = 0usize;
    for k in (kmin..INTPREC).rev() {
        if left == 0 {
            break;
        }
        // Gather bit plane k across the block.
        let mut x: u64 = 0;
        for (i, &v) in ublock.iter().enumerate() {
            x |= u64::from((v >> k) & 1) << i;
        }
        // Verbatim bits for coefficients already significant (truncated to
        // the remaining budget, exactly like zfp's stream_write_bits).
        let m = n.min(left as usize);
        write_bits64(w, x, m);
        left -= m as u64;
        x = if n >= 64 { 0 } else { x >> n };
        // Adaptive group testing over the insignificant tail (mirrors zfp's
        // encode_ints loop structure exactly — the decoder depends on it).
        let mut i = n;
        while i < size && left > 0 {
            // Group test: any set bit at position >= i?
            let any = x != 0;
            left -= 1;
            w.write_bits(u32::from(any), 1);
            if !any {
                break;
            }
            // Emit zero bits up to the next set bit; the set bit itself is
            // written when not at the final position, implied otherwise.
            while i < size - 1 && left > 0 {
                let bit = (x & 1) as u32;
                left -= 1;
                w.write_bits(bit, 1);
                if bit != 0 {
                    break;
                }
                x >>= 1;
                i += 1;
            }
            // Consume the significant position (explicit or implied).
            x >>= 1;
            i += 1;
        }
        n = n.max(i.min(size));
    }
    budget - left
}

/// Decode one block of negabinary coefficients (sequency order) into
/// `ublock`, consuming at most `budget` bits. Returns the bits consumed.
///
/// Reads what [`encode_ints`] writes a run at a time: each group test's
/// zero run up to the next significant coefficient resolves with one peek
/// and a trailing-zero count, and each plane deposits only its set bits.
fn decode_ints(
    r: &mut BitReader<'_>,
    ublock: &mut [u32],
    maxprec: u32,
    budget: u64,
) -> Result<u64, ZfpError> {
    let size = ublock.len();
    debug_assert!(size <= 64);
    let truncated = ZfpError::Corrupt("bitstream truncated");
    let kmin = INTPREC.saturating_sub(maxprec);
    ublock.fill(0);
    let mut left = budget;
    let mut n = 0usize;
    for k in (kmin..INTPREC).rev() {
        if left == 0 {
            break;
        }
        let m = n.min(left as usize);
        let mut x = read_bits64(r, m)?;
        left -= m as u64;
        let mut i = n;
        while i < size && left > 0 {
            left -= 1;
            if read_bits64(r, 1)? == 0 {
                break;
            }
            // Zero bits up to the next set bit, which is written unless the
            // run reaches the last position or the budget runs out. Peeked
            // bits past the end of the stream read as zero, so only an
            // all-zero peek can overrun it.
            let mut run = ((size - 1 - i) as u64).min(left);
            while run > 0 {
                let count = run.min(32) as u32;
                let bits = r.peek_bits(count);
                let take = if bits != 0 {
                    bits.trailing_zeros() + 1
                } else {
                    count
                };
                if take > r.bits_available() {
                    return Err(truncated);
                }
                r.consume(take);
                left -= u64::from(take);
                if bits != 0 {
                    i += take as usize - 1;
                    break;
                }
                i += take as usize;
                run -= u64::from(take);
            }
            // Significant bit at position i (explicit or implied at the end).
            x |= 1u64 << i;
            i += 1;
        }
        n = n.max(i.min(size));
        // Deposit the plane.
        while x != 0 {
            ublock[x.trailing_zeros() as usize] |= 1 << k;
            x &= x - 1;
        }
    }
    Ok(budget - left)
}

/// Per-block precision for a mode given the block exponent.
fn block_precision(mode: ZfpMode, e: i32, ndims: usize) -> u32 {
    match mode {
        ZfpMode::FixedPrecision(p) => p.clamp(1, INTPREC),
        ZfpMode::FixedAccuracy(tol) => {
            let emin = tol.max(f64::MIN_POSITIVE).log2().floor() as i32;
            let guard = 2 * (ndims as i32 + 1);
            (e - emin + guard).clamp(0, INTPREC as i32) as u32
        }
        // Fixed rate: the bit budget does the truncation, not the plane cap.
        ZfpMode::FixedRate(_) => INTPREC,
    }
}

/// Per-block header cost in bits: zero flag + biased exponent.
const BLOCK_HEADER_BITS: u64 = 17;

/// Total per-block bit budget for a fixed-rate mode, if any.
fn block_bit_budget(mode: ZfpMode, block_len: usize) -> Option<u64> {
    match mode {
        ZfpMode::FixedRate(rate) => {
            let bits = (rate * block_len as f64).round() as u64;
            // Room for at least the header plus a few payload bits.
            Some(bits.max(BLOCK_HEADER_BITS + 7))
        }
        _ => None,
    }
}

/// Compress `data` with shape `dims` under `mode`.
pub fn compress(data: &[f32], dims: &[usize], mode: ZfpMode) -> Vec<u8> {
    let _span = dpz_telemetry::span!("zfp.compress");
    let layout = BlockLayout::new(dims);
    assert_eq!(
        layout.n_values(),
        data.len(),
        "dims do not match data length"
    );
    match mode {
        ZfpMode::FixedAccuracy(tol) => {
            assert!(tol > 0.0 && tol.is_finite(), "tolerance must be positive")
        }
        ZfpMode::FixedRate(rate) => {
            assert!(rate > 0.0 && rate.is_finite(), "rate must be positive")
        }
        ZfpMode::FixedPrecision(_) => {}
    }
    let ndims = layout.ndims();
    let order = sequency_order(ndims);
    let bl = layout.block_len();

    let mut w = BitWriter::new();
    let mut fblock = vec![0.0f64; bl];
    let mut iblock = vec![0i64; bl];
    let rate_budget = block_bit_budget(mode, bl);
    for b in 0..layout.n_blocks() {
        layout.gather(data, b, &mut fblock);
        let mut pad = 0u64;
        match max_exponent(&fblock) {
            None => {
                w.write_bits(0, 1); // all-zero block
                if let Some(total) = rate_budget {
                    pad = total - 1;
                }
            }
            Some(e) => {
                let maxprec = block_precision(mode, e, ndims);
                if maxprec == 0 {
                    // Below tolerance: code as zero.
                    w.write_bits(0, 1);
                    if let Some(total) = rate_budget {
                        pad = total - 1;
                    }
                } else {
                    w.write_bits(1, 1);
                    w.write_bits((e + EXP_BIAS) as u32, 16);
                    to_fixed(&fblock, e, &mut iblock);
                    fwd_transform(&mut iblock, ndims);
                    let ublock: Vec<u32> = order.iter().map(|&i| int2uint(iblock[i])).collect();
                    let payload_budget = rate_budget.map_or(u64::MAX, |t| t - BLOCK_HEADER_BITS);
                    let used = encode_ints(&mut w, &ublock, maxprec, payload_budget);
                    if let Some(total) = rate_budget {
                        pad = total - BLOCK_HEADER_BITS - used;
                    }
                }
            }
        }
        // Fixed-rate blocks are zero-padded to exactly the budget so random
        // access by block index would be possible, as in the reference zfp.
        let mut left = pad;
        while left > 0 {
            let chunk = left.min(32) as u32;
            w.write_bits(0, chunk);
            left -= u64::from(chunk);
        }
    }
    let bitstream = w.finish();

    let mut out = Vec::with_capacity(bitstream.len() + 64);
    out.extend_from_slice(MAGIC);
    out.push(ndims as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    match mode {
        ZfpMode::FixedPrecision(p) => {
            out.push(0);
            out.extend_from_slice(&u64::from(p).to_le_bytes());
        }
        ZfpMode::FixedAccuracy(tol) => {
            out.push(1);
            out.extend_from_slice(&tol.to_le_bytes());
        }
        ZfpMode::FixedRate(rate) => {
            out.push(2);
            out.extend_from_slice(&rate.to_le_bytes());
        }
    }
    out.extend_from_slice(&(bitstream.len() as u64).to_le_bytes());
    out.extend_from_slice(&bitstream);

    let reg = dpz_telemetry::global();
    let labels = [("codec", "zfp"), ("op", "compress")];
    reg.counter_with("dpz_bytes_in_total", &labels)
        .add(data.len() as u64 * 4);
    reg.counter_with("dpz_bytes_out_total", &labels)
        .add(out.len() as u64);
    reg.counter_with("dpz_blocks_total", &[("codec", "zfp")])
        .add(layout.n_blocks() as u64);
    out
}

/// Decompress a ZFP stream, returning values and dimensions.
pub fn decompress(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>), ZfpError> {
    let _span = dpz_telemetry::span!("zfp.decompress");
    let result = decompress_inner(bytes);
    if result.is_err() {
        dpz_telemetry::global()
            .counter_with("dpz_decode_rejects_total", &[("codec", "zfp")])
            .inc();
    }
    result
}

fn decompress_inner(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>), ZfpError> {
    decode_stream(bytes, decode_ints)
}

/// Decode a whole stream with `decode_block` as the per-block coefficient
/// decoder (tests pass the bit-at-a-time reference).
fn decode_stream<D>(bytes: &[u8], decode_block: D) -> Result<(Vec<f32>, Vec<usize>), ZfpError>
where
    D: Fn(&mut BitReader<'_>, &mut [u32], u32, u64) -> Result<u64, ZfpError>,
{
    let need = |ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(ZfpError::Corrupt("truncated header"))
        }
    };
    need(bytes.len() >= 5)?;
    if &bytes[..4] != MAGIC {
        return Err(ZfpError::Corrupt("bad magic"));
    }
    let ndims = bytes[4] as usize;
    if !(1..=3).contains(&ndims) {
        return Err(ZfpError::Corrupt("unsupported dimensionality"));
    }
    let mut pos = 5;
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        need(bytes.len() >= pos + 8)?;
        dims.push(u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize);
        pos += 8;
    }
    if dims.contains(&0) {
        return Err(ZfpError::Corrupt("zero dimension"));
    }
    need(bytes.len() >= pos + 9)?;
    let mode_byte = bytes[pos];
    pos += 1;
    let param = &bytes[pos..pos + 8];
    pos += 8;
    let mode = match mode_byte {
        0 => {
            let p = u64::from_le_bytes(param.try_into().unwrap());
            if !(1..=u64::from(INTPREC)).contains(&p) {
                return Err(ZfpError::Corrupt("invalid precision"));
            }
            ZfpMode::FixedPrecision(p as u32)
        }
        1 => {
            let tol = f64::from_le_bytes(param.try_into().unwrap());
            // `!(tol > 0.0)` also rejects NaN tolerances.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(tol > 0.0) || !tol.is_finite() {
                return Err(ZfpError::Corrupt("invalid tolerance"));
            }
            ZfpMode::FixedAccuracy(tol)
        }
        2 => {
            let rate = f64::from_le_bytes(param.try_into().unwrap());
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // also rejects NaN
            if !(rate > 0.0) || !rate.is_finite() {
                return Err(ZfpError::Corrupt("invalid rate"));
            }
            ZfpMode::FixedRate(rate)
        }
        _ => return Err(ZfpError::Corrupt("unknown mode")),
    };
    need(bytes.len() >= pos + 8)?;
    let bits_len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    let bits_len =
        usize::try_from(bits_len).map_err(|_| ZfpError::Corrupt("bitstream length overflow"))?;
    pos += 8;
    // Checked: a near-usize::MAX declared length must not wrap `pos + len`.
    let bits_end = pos
        .checked_add(bits_len)
        .ok_or(ZfpError::Corrupt("bitstream length overflow"))?;
    need(bytes.len() >= bits_end)?;
    let bitstream = &bytes[pos..bits_end];

    // Sanity-check the claimed dimensions against the payload before
    // allocating: every block consumes at least one bit (its nonzero flag),
    // so a header whose block count exceeds the bitstream's bit count is
    // corrupt. Checked arithmetic also rejects dims whose product overflows.
    let n_values = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(ZfpError::Corrupt("implausible dimensions"))?;
    let n_blocks = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d.div_ceil(4)))
        .ok_or(ZfpError::Corrupt("implausible dimensions"))?;
    if n_blocks > bitstream.len().saturating_mul(8) {
        return Err(ZfpError::Corrupt("dimensions exceed bitstream capacity"));
    }

    let layout = BlockLayout::new(&dims);
    let order = sequency_order(ndims);
    let bl = layout.block_len();
    let mut r = BitReader::new(bitstream);
    let mut out = vec![0.0f32; n_values];
    let mut fblock = vec![0.0f64; bl];
    let mut iblock = vec![0i64; bl];
    let mut ublock = vec![0u32; bl];
    let rate_budget = block_bit_budget(mode, bl);
    for b in 0..layout.n_blocks() {
        let nonzero = read_bits64(&mut r, 1)? != 0;
        let mut pad = 0u64;
        if !nonzero {
            fblock.iter_mut().for_each(|v| *v = 0.0);
            if let Some(total) = rate_budget {
                pad = total - 1;
            }
        } else {
            let e = read_bits64(&mut r, 16)? as i32 - EXP_BIAS;
            if !(-1200..=1024).contains(&e) {
                return Err(ZfpError::Corrupt("implausible block exponent"));
            }
            let maxprec = block_precision(mode, e, ndims);
            let payload_budget = rate_budget.map_or(u64::MAX, |t| t - BLOCK_HEADER_BITS);
            let used = decode_block(&mut r, &mut ublock, maxprec, payload_budget)?;
            if let Some(total) = rate_budget {
                pad = total - BLOCK_HEADER_BITS - used;
            }
            for (slot, &src) in order.iter().zip(&ublock) {
                iblock[*slot] = uint2int(src);
            }
            inv_transform(&mut iblock, ndims);
            from_fixed(&iblock, e, &mut fblock);
        }
        // Skip fixed-rate padding.
        let mut left = pad;
        while left > 0 {
            let chunk = left.min(32) as usize;
            read_bits64(&mut r, chunk)?;
            left -= chunk as u64;
        }
        layout.scatter(&fblock, b, &mut out);
    }
    let reg = dpz_telemetry::global();
    let labels = [("codec", "zfp"), ("op", "decompress")];
    reg.counter_with("dpz_bytes_in_total", &labels)
        .add(bytes.len() as u64);
    reg.counter_with("dpz_bytes_out_total", &labels)
        .add(out.len() as u64 * 4);
    Ok((out, dims))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time block decoder [`decode_ints`] replaced, kept as
    /// its reference: one call per group-test bit, a fresh block per call.
    fn reference_decode_ints(
        r: &mut BitReader<'_>,
        size: usize,
        maxprec: u32,
        budget: u64,
    ) -> Result<(Vec<u32>, u64), ZfpError> {
        let kmin = INTPREC.saturating_sub(maxprec);
        let mut ublock = vec![0u32; size];
        let mut left = budget;
        let mut n = 0usize;
        for k in (kmin..INTPREC).rev() {
            if left == 0 {
                break;
            }
            let m = n.min(left as usize);
            let mut x = read_bits64(r, m)?;
            left -= m as u64;
            let mut i = n;
            while i < size && left > 0 {
                left -= 1;
                let any = read_bits64(r, 1)? != 0;
                if !any {
                    break;
                }
                while i < size - 1 && left > 0 {
                    left -= 1;
                    let bit = read_bits64(r, 1)?;
                    if bit != 0 {
                        break;
                    }
                    i += 1;
                }
                x |= 1u64 << i;
                i += 1;
            }
            n = n.max(i.min(size));
            let mut bits = x;
            let mut idx = 0usize;
            while bits != 0 {
                if bits & 1 != 0 {
                    ublock[idx] |= 1 << k;
                }
                bits >>= 1;
                idx += 1;
            }
        }
        Ok((ublock, budget - left))
    }

    /// The reference in [`decode_stream`]'s block-decoder shape.
    fn reference_block(
        r: &mut BitReader<'_>,
        ublock: &mut [u32],
        maxprec: u32,
        budget: u64,
    ) -> Result<u64, ZfpError> {
        let (block, used) = reference_decode_ints(r, ublock.len(), maxprec, budget)?;
        ublock.copy_from_slice(&block);
        Ok(used)
    }

    /// `decode_ints` in the reference's return shape.
    fn fast_block(
        r: &mut BitReader<'_>,
        size: usize,
        maxprec: u32,
        budget: u64,
    ) -> Result<(Vec<u32>, u64), ZfpError> {
        let mut block = vec![0u32; size];
        let used = decode_ints(r, &mut block, maxprec, budget)?;
        Ok((block, used))
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Whole-stream decodes with `decode_ints` and with the reference agree
    /// on valid streams in every mode and dimensionality, on every
    /// truncation, and on single-bit flips: the same values or the same
    /// error.
    #[test]
    fn block_decoder_matches_the_bitwise_reference_on_streams() {
        let mut s = 0x2F0C_u64;
        let (mut checked, mut truncated_errors) = (0usize, 0usize);
        for dims in [vec![301usize], vec![23, 17], vec![9, 7, 6]] {
            let n: usize = dims.iter().product();
            let data: Vec<f32> = (0..n)
                .map(|i| {
                    let noise = (xorshift(&mut s) >> 40) as f32 / (1u32 << 24) as f32;
                    (i as f32 * 0.07).sin() * 30.0 + noise * if i % 5 == 0 { 1e3 } else { 1.0 }
                })
                .collect();
            for mode in [
                ZfpMode::FixedPrecision(7),
                ZfpMode::FixedPrecision(32),
                ZfpMode::FixedAccuracy(1e-3),
                ZfpMode::FixedAccuracy(10.0),
                ZfpMode::FixedRate(3.0),
                ZfpMode::FixedRate(17.5),
            ] {
                let packed = compress(&data, &dims, mode);
                let expect = decode_stream(&packed, reference_block);
                assert!(expect.is_ok(), "{dims:?} {mode:?}");
                assert_eq!(decompress_inner(&packed), expect, "{dims:?} {mode:?}");
                // Truncate the bitstream and declare the shorter length, so
                // the block decoders, not the header check, meet its end.
                let len_at = 4 + 1 + 8 * dims.len() + 9;
                let header = len_at + 8;
                for cut in (header..packed.len()).step_by(3) {
                    let mut part = packed[..cut].to_vec();
                    part[len_at..header].copy_from_slice(&((cut - header) as u64).to_le_bytes());
                    let got = decompress_inner(&part);
                    assert_eq!(
                        got,
                        decode_stream(&part, reference_block),
                        "{dims:?} {mode:?} cut {cut}"
                    );
                    truncated_errors += usize::from(got.is_err());
                    checked += 1;
                }
                for _ in 0..64 {
                    let mut flipped = packed.clone();
                    let bit = (xorshift(&mut s) % (8 * packed.len() as u64)) as usize;
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    assert_eq!(
                        decompress_inner(&flipped),
                        decode_stream(&flipped, reference_block),
                        "{dims:?} {mode:?} flip {bit}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 1000, "{checked} corrupt streams checked");
        assert!(
            truncated_errors > checked / 4,
            "only {truncated_errors} truncations reached an error"
        );
    }

    /// Block by block, on random and sparse coefficients at every budget
    /// shape, including budgets that end mid-run.
    #[test]
    fn block_decoder_matches_the_bitwise_reference_on_blocks() {
        let mut s = 0xB10C_u64;
        for case in 0..400 {
            let size = [4usize, 16, 64][case % 3];
            let sparsity = 1 + case % 7;
            let block: Vec<u32> = (0..size)
                .map(|_| {
                    let r = xorshift(&mut s);
                    if r.is_multiple_of(sparsity as u64) {
                        (r >> 32) as u32 >> (r % 31)
                    } else {
                        0
                    }
                })
                .collect();
            let maxprec = 1 + (xorshift(&mut s) % 32) as u32;
            let budget = match case % 4 {
                0 => u64::MAX,
                _ => xorshift(&mut s) % (40 * size as u64),
            };
            let mut w = BitWriter::new();
            encode_ints(&mut w, &block, maxprec, budget);
            let bytes = w.finish();
            for cut in [bytes.len(), bytes.len().saturating_sub(1), bytes.len() / 2] {
                let (mut r1, mut r2) =
                    (BitReader::new(&bytes[..cut]), BitReader::new(&bytes[..cut]));
                let got = fast_block(&mut r1, size, maxprec, budget);
                let want = reference_decode_ints(&mut r2, size, maxprec, budget);
                assert_eq!(got, want, "case {case} cut {cut}");
                if got.is_ok() {
                    assert_eq!(r1.peek_bits(32), r2.peek_bits(32), "case {case}: position");
                }
            }
        }
    }

    #[test]
    fn negabinary_round_trip() {
        for x in [-5i64, -1, 0, 1, 7, 1 << 20, -(1 << 20), i32::MAX as i64 / 2] {
            assert_eq!(uint2int(int2uint(x)), x, "{x}");
        }
    }

    #[test]
    fn negabinary_small_values_have_small_codes() {
        // Negabinary keeps small magnitudes in low bits so high planes are
        // all zero — the property embedded coding exploits.
        for x in [-4i64, -1, 0, 1, 4] {
            assert!(int2uint(x) < 64, "code for {x} is {}", int2uint(x));
        }
    }

    #[test]
    fn encode_decode_ints_full_precision() {
        let mut s = 5u64;
        let block: Vec<u32> = (0..64)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 33) as u32
            })
            .collect();
        let mut w = BitWriter::new();
        encode_ints(&mut w, &block, 32, u64::MAX);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let (got, _) = fast_block(&mut r, 64, 32, u64::MAX).unwrap();
        assert_eq!(got, block);
    }

    #[test]
    fn encode_decode_partial_precision_truncates_low_bits() {
        let block: Vec<u32> = (0..16).map(|i| 0x0F0F_0F0F ^ (i * 77)).collect();
        let mut w = BitWriter::new();
        encode_ints(&mut w, &block, 16, u64::MAX);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let (got, _) = fast_block(&mut r, 16, 16, u64::MAX).unwrap();
        for (g, b) in got.iter().zip(&block) {
            assert_eq!(g >> 16, b >> 16, "high planes must survive");
            assert_eq!(g & 0xFFFF, 0, "low planes must be dropped");
        }
    }

    #[test]
    fn sparse_plane_coding_is_compact() {
        // One significant coefficient: bits should be far below 64*32.
        let mut block = vec![0u32; 64];
        block[0] = 0x8000_0000;
        let mut w = BitWriter::new();
        encode_ints(&mut w, &block, 32, u64::MAX);
        let bytes = w.finish();
        assert!(bytes.len() < 40, "sparse block took {} bytes", bytes.len());
        let mut r = BitReader::new(&bytes);
        assert_eq!(fast_block(&mut r, 64, 32, u64::MAX).unwrap().0, block);
    }

    #[test]
    fn all_zero_data_is_tiny() {
        let data = vec![0.0f32; 4096];
        let packed = compress(&data, &[16, 16, 16], ZfpMode::FixedPrecision(16));
        assert!(packed.len() < 128, "zero field took {} bytes", packed.len());
        let (out, _) = decompress(&packed).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(decompress(b"???").is_err());
        assert!(decompress(b"ZFR1\x07").is_err());
    }

    #[test]
    fn rejects_truncation() {
        let data: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let packed = compress(&data, &[16, 16], ZfpMode::FixedPrecision(20));
        for cut in [4, 12, packed.len() - 3] {
            assert!(decompress(&packed[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn one_dimensional_data() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).cos()).collect();
        let packed = compress(&data, &[1000], ZfpMode::FixedPrecision(28));
        let (out, dims) = decompress(&packed).unwrap();
        assert_eq!(dims, vec![1000]);
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
