//! Structure-of-arrays storage for tie embeddings.
//!
//! [`TieStore`] keeps the embedding block (and the optional connection
//! block) as contiguous `f32` rows inside one 64-byte-aligned allocation,
//! so the scoring hot path streams cache-resident rows straight into the
//! unrolled kernels of [`dd_linalg::kernels`]. It is built by copying
//! (training) or adopted zero-copy from a validated `.ddm` buffer (the
//! block stays where the file bytes were read).

use dd_linalg::bytes::{self, AlignedBuf, BLOCK_ALIGN};

/// Rounds `n` up to the next multiple of [`BLOCK_ALIGN`].
pub(crate) fn align_up(n: usize) -> usize {
    n.div_ceil(BLOCK_ALIGN) * BLOCK_ALIGN
}

/// Contiguous row-major embedding storage, one row per universe tie, with
/// every block starting on a cache-line boundary.
#[derive(Debug, Clone)]
pub struct TieStore {
    buf: AlignedBuf,
    dim: usize,
    rows: usize,
    emb_off: usize,
    ctx_off: Option<usize>,
}

impl TieStore {
    /// Builds a store by copying `emb` (and optionally `ctx`), each of which
    /// must hold exactly `rows × dim` values.
    pub fn from_parts(
        dim: usize,
        rows: usize,
        emb: &[f32],
        ctx: Option<&[f32]>,
    ) -> Result<TieStore, String> {
        let want = rows.checked_mul(dim).ok_or("embedding shape overflows")?;
        if emb.len() != want {
            return Err(format!(
                "embedding block holds {} values, expected {rows} rows × {dim} dims = {want}",
                emb.len()
            ));
        }
        if let Some(c) = ctx {
            if c.len() != want {
                return Err(format!(
                    "context block holds {} values, expected {rows} rows × {dim} dims = {want}",
                    c.len()
                ));
            }
        }
        let emb_bytes = want * std::mem::size_of::<f32>();
        let ctx_off = ctx.map(|_| align_up(emb_bytes));
        let total = ctx_off.map_or(emb_bytes, |o| o + emb_bytes);
        let mut buf = AlignedBuf::zeroed(total);
        buf.as_mut_bytes()[..emb_bytes].copy_from_slice(bytes::f32_bytes(emb));
        if let (Some(c), Some(off)) = (ctx, ctx_off) {
            buf.as_mut_bytes()[off..off + emb_bytes].copy_from_slice(bytes::f32_bytes(c));
        }
        Ok(TieStore { buf, dim, rows, emb_off: 0, ctx_off })
    }

    /// Adopts an already-validated buffer zero-copy: the embedding block
    /// lives at `emb_off..emb_off + rows×dim×4` inside `buf` (likewise
    /// `ctx_off`). Offsets must be [`BLOCK_ALIGN`]-aligned and in bounds —
    /// the binary loader guarantees this before calling.
    pub(crate) fn adopt(
        buf: AlignedBuf,
        dim: usize,
        rows: usize,
        emb_off: usize,
        ctx_off: Option<usize>,
    ) -> Result<TieStore, String> {
        let block = rows
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(std::mem::size_of::<f32>()))
            .ok_or("embedding shape overflows")?;
        for off in std::iter::once(emb_off).chain(ctx_off) {
            if off % BLOCK_ALIGN != 0 {
                return Err(format!("block offset {off} is not {BLOCK_ALIGN}-byte aligned"));
            }
            let end = off.checked_add(block).ok_or("block extends past the buffer")?;
            if end > buf.len() {
                return Err(format!(
                    "block {off}..{end} extends past the {}-byte buffer",
                    buf.len()
                ));
            }
            // Alignment + in-bounds established; prove the cast works now so
            // accessors can rely on it.
            bytes::f32_slice(&buf.as_bytes()[off..end]).map_err(|e| e.to_string())?;
        }
        Ok(TieStore { buf, dim, rows, emb_off, ctx_off })
    }

    /// Embedding dimension `d` (columns per row).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of embedded rows (ties).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether a connection (context) block is present.
    pub fn has_contexts(&self) -> bool {
        self.ctx_off.is_some()
    }

    fn block(&self, off: usize) -> &[f32] {
        let len = self.rows * self.dim * std::mem::size_of::<f32>();
        bytes::f32_slice(&self.buf.as_bytes()[off..off + len])
            .expect("TieStore invariant: blocks are aligned and sized (checked at construction)")
    }

    /// The whole embedding block, row-major.
    pub fn embeddings(&self) -> &[f32] {
        self.block(self.emb_off)
    }

    /// The whole context block, row-major, if present.
    pub fn contexts(&self) -> Option<&[f32]> {
        self.ctx_off.map(|off| self.block(off))
    }

    /// Embedding row `r`.
    pub fn embedding_row(&self, r: usize) -> &[f32] {
        &self.embeddings()[r * self.dim..(r + 1) * self.dim]
    }

    /// Context row `r`, if the store carries contexts.
    pub fn context_row(&self, r: usize) -> Option<&[f32]> {
        self.contexts().map(|c| &c[r * self.dim..(r + 1) * self.dim])
    }

    /// Native-endian bytes of the embedding block (fingerprint and encoder).
    pub fn embedding_bytes(&self) -> &[u8] {
        bytes::f32_bytes(self.embeddings())
    }

    /// Native-endian bytes of the context block, if present.
    pub fn context_bytes(&self) -> Option<&[u8]> {
        self.contexts().map(bytes::f32_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_parts_lays_out_aligned_blocks() {
        let emb: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let ctx: Vec<f32> = (0..12).map(|i| (i as f32) * 0.5).collect();
        let s = TieStore::from_parts(4, 3, &emb, Some(&ctx)).unwrap();
        assert_eq!(s.dim(), 4);
        assert_eq!(s.rows(), 3);
        assert!(s.has_contexts());
        for (a, b) in s.embedding_row(1).iter().zip(&emb[4..8]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in s.context_row(2).unwrap().iter().zip(&ctx[8..12]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(s.embeddings().as_ptr() as usize % BLOCK_ALIGN, 0);
        assert_eq!(s.contexts().unwrap().as_ptr() as usize % BLOCK_ALIGN, 0);
    }

    #[test]
    fn from_parts_rejects_shape_mismatches() {
        let emb = vec![0.0f32; 11];
        assert!(TieStore::from_parts(4, 3, &emb, None).unwrap_err().contains("11 values"));
        let emb = vec![0.0f32; 12];
        let ctx = vec![0.0f32; 8];
        assert!(TieStore::from_parts(4, 3, &emb, Some(&ctx)).is_err());
    }

    #[test]
    fn adopt_checks_alignment_and_bounds() {
        let buf = AlignedBuf::zeroed(256);
        assert!(TieStore::adopt(buf.clone(), 4, 3, 0, Some(64)).is_ok());
        assert!(TieStore::adopt(buf.clone(), 4, 3, 8, None).unwrap_err().contains("aligned"));
        assert!(TieStore::adopt(buf, 8, 8, 64, None).unwrap_err().contains("past"));
    }
}
