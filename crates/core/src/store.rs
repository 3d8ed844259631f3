//! Structure-of-arrays storage for tie embeddings.
//!
//! [`TieStore`] keeps the embedding block (and the optional connection
//! block) as contiguous `f32` rows inside one 64-byte-aligned allocation,
//! so the scoring hot path streams cache-resident rows straight into the
//! unrolled kernels of [`dd_linalg::kernels`]. The blocks are laid out as a
//! `.ddm` file lays them out: row-major `rows × dim`, the context block
//! after the embedding block. A store starts zeroed and is filled in place
//! through `TieStore::blocks_mut`: by copying (training) or by the model
//! loader streaming a file's blocks straight into it.

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
    /// Where the context block starts; the embedding block starts at 0.
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
        let mut store = TieStore::zeroed(dim, rows, ctx.is_some());
        let (emb_block, ctx_block) = store.blocks_mut();
        emb_block.copy_from_slice(bytes::f32_bytes(emb));
        if let (Some(block), Some(c)) = (ctx_block, ctx) {
            block.copy_from_slice(bytes::f32_bytes(c));
        }
        Ok(store)
    }

    /// A store whose blocks (the context block only with `contexts`) hold
    /// `rows × dim` zeros, to be filled through [`Self::blocks_mut`]. The
    /// caller has proved that a block's `rows × dim × 4` bytes fit in
    /// memory: it holds them in a slice or in a checked section of a file.
    pub(crate) fn zeroed(dim: usize, rows: usize, contexts: bool) -> TieStore {
        let block = rows * dim * std::mem::size_of::<f32>();
        let ctx_off = contexts.then(|| align_up(block));
        let buf = AlignedBuf::zeroed(ctx_off.map_or(block, |off| off + block));
        TieStore { buf, dim, rows, ctx_off }
    }

    /// The native-endian bytes of the embedding block and of the context
    /// block, if present, to fill in place.
    pub(crate) fn blocks_mut(&mut self) -> (&mut [u8], Option<&mut [u8]>) {
        let len = self.rows * self.dim * std::mem::size_of::<f32>();
        let (emb, ctx) = self.buf.as_mut_bytes().split_at_mut(self.ctx_off.unwrap_or(len));
        (&mut emb[..len], self.ctx_off.map(|_| ctx))
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
        self.block(0)
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
}
