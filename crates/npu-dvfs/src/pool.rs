//! Flat, allocation-free genome storage for the GA hot path.
//!
//! A GA generation used to live as `Vec<Vec<usize>>`: one heap
//! allocation per individual, 8 bytes per gene, and a full O(n) pass
//! (fingerprint + diff scan) per evaluation. [`GenomePool`] replaces
//! that with a struct-of-arrays arena:
//!
//! * **Bit-packed genes.** A gene indexes one of at most 256 frequency
//!   points, so it fits in 4 bits (≤16 points — the paper's ladder has
//!   9) or 8 bits. A GPT-3-sized genome (960 stages) is 60 `u64` words
//!   instead of 7.7 KB of `usize`s.
//! * **One contiguous buffer.** Genome `i` occupies
//!   `words[i*W .. (i+1)*W]`. Building the next generation reuses the
//!   arena via [`GenomePool::clear`] — after warm-up, a generation
//!   allocates nothing.
//! * **Incremental fingerprints.** Every genome carries a 64-bit
//!   fingerprint maintained as `base ^ XOR_w contrib(w, word_w)`, so a
//!   single-gene mutation updates the fingerprint in O(1) (XOR the old
//!   word's contribution out, the new one in) instead of re-hashing all
//!   n genes.
//! * **Lineage block sums.** The pool is built from the
//!   [`StageTable`] it will be scored against, and every genome carries
//!   the nodes of [`StageTable::evaluate`]'s fixed pairwise summation
//!   tree at one level: `n_pad / B` block sums, where `n_pad` is the
//!   stage count rounded up to a power of two and the block width is
//!   `B = 2^ceil(log2(n_pad) / 2)` (32 leaves for GPT-3's 1,024, 8 for a
//!   48-stage table). Every edit keeps them in step with the genes,
//!   starting from the parents' sums: a copy copies them, a crossover
//!   swaps the whole blocks past its cut and rebuilds the one block the
//!   cut falls in, a mutation rebuilds the one block it touches. A child
//!   therefore costs at most two block rebuilds, whatever its parents
//!   look like, and scoring it is a pairwise reduce over its blocks
//!   ([`GenomePool::blocks_of`]). Each block is the same subtree of the
//!   same tree the reference sums, with the same `left + right`
//!   additions, so the root is bit-identical to a full evaluation by
//!   construction.
//!
//! [`genome_fingerprint`] computes the identical fingerprint for an
//! unpacked `&[usize]` genome.

use crate::strategy::{StageTable, Sums};

/// How genes map onto `u64` words for a given table shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackLayout {
    n_stages: usize,
    n_freqs: usize,
    /// Bits per gene: 4 when the alphabet fits a nibble, else 8.
    gene_bits: u32,
    genes_per_word: usize,
    /// `log2(genes_per_word)`: locating a gene takes shifts, not a
    /// division.
    genes_per_word_log2: u32,
    words_per_genome: usize,
    gene_mask: u64,
}

impl PackLayout {
    fn new(n_stages: usize, n_freqs: usize) -> Self {
        assert!(
            (1..=256).contains(&n_freqs),
            "gene alphabet must fit one byte: {n_freqs} frequency points"
        );
        let gene_bits: u32 = if n_freqs <= 16 { 4 } else { 8 };
        let genes_per_word = (64 / gene_bits) as usize;
        Self {
            n_stages,
            n_freqs,
            gene_bits,
            genes_per_word,
            genes_per_word_log2: genes_per_word.trailing_zeros(),
            words_per_genome: n_stages.div_ceil(genes_per_word),
            gene_mask: (1u64 << gene_bits) - 1,
        }
    }

    #[inline]
    fn word_and_shift(&self, stage: usize) -> (usize, u32) {
        debug_assert!(stage < self.n_stages);
        (
            stage >> self.genes_per_word_log2,
            (stage & (self.genes_per_word - 1)) as u32 * self.gene_bits,
        )
    }
}

/// splitmix64 finalizer: the one mixing primitive behind every genome
/// fingerprint in this module.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const FP_SEED: u64 = 0xA076_1D64_78BD_642F;
const FP_WORD_SALT: u64 = 0x2545_F491_4F6C_DD1D;

/// Length-dependent fingerprint base: two genomes of different stage
/// counts can never collide through word contributions alone.
#[inline]
fn fp_base(n_stages: usize) -> u64 {
    mix(FP_SEED ^ n_stages as u64)
}

/// Position-salted contribution of one packed word. XORing contributions
/// makes the whole-genome fingerprint incrementally updatable: changing
/// word `w` from `a` to `b` is `fp ^= contrib(w, a) ^ contrib(w, b)`.
#[inline]
fn word_contrib(word_idx: usize, word: u64) -> u64 {
    mix(word ^ mix(word_idx as u64 ^ FP_WORD_SALT))
}

/// Fingerprint of an unpacked genome, identical to the fingerprint a
/// [`GenomePool`] with the same `n_freqs` maintains for these genes.
///
/// # Panics
///
/// Panics if `n_freqs` is outside `1..=256` or a gene is out of range.
#[must_use]
pub fn genome_fingerprint(genes: &[usize], n_freqs: usize) -> u64 {
    let layout = PackLayout::new(genes.len(), n_freqs);
    let mut fp = fp_base(genes.len());
    for (w, chunk) in genes.chunks(layout.genes_per_word).enumerate() {
        fp ^= word_contrib(w, pack_word(&layout, chunk));
    }
    fp
}

/// Packs up to `genes_per_word` genes into one word (low lanes first).
#[inline]
fn pack_word(layout: &PackLayout, chunk: &[usize]) -> u64 {
    let mut word = 0u64;
    for (k, &g) in chunk.iter().enumerate() {
        assert!(
            g < layout.n_freqs,
            "gene {g} out of range ({} frequency points)",
            layout.n_freqs
        );
        word |= (g as u64) << (k as u32 * layout.gene_bits);
    }
    word
}

/// Leaf width of one block: `2^ceil(log2(n_pad) / 2)`, so a genome holds
/// about `sqrt(n_pad)` blocks of about `sqrt(n_pad)` leaves each.
fn block_width(n_pad: usize) -> usize {
    1 << n_pad.trailing_zeros().div_ceil(2)
}

/// A flat arena of bit-packed genomes with per-genome fingerprints and
/// block sums, bound to the [`StageTable`] its genomes are scored
/// against.
///
/// All genomes share one `Vec<u64>` (and one `Vec` of block sums);
/// [`Self::clear`] keeps the buffers for the next generation, so a
/// warmed pool never allocates.
#[derive(Debug, Clone)]
pub struct GenomePool<'t> {
    table: &'t StageTable,
    layout: PackLayout,
    /// Genome `i` is `words[i*W .. (i+1)*W]`, `W = words_per_genome`.
    words: Vec<u64>,
    /// One fingerprint per genome, maintained incrementally.
    fps: Vec<u64>,
    base_fp: u64,
    /// Leaves per block (a power of two).
    block_width: usize,
    /// Blocks per genome, `n_pad / block_width` (a power of two).
    blocks_per_genome: usize,
    /// Blocks holding at least one stage; the rest stay zero.
    live_blocks: usize,
    /// Genome `i`'s block sums are `blocks[i*K .. (i+1)*K]`,
    /// `K = blocks_per_genome`.
    blocks: Vec<Sums>,
    /// Leaf buffer for one block rebuild.
    leaves: Vec<Sums>,
}

impl<'t> GenomePool<'t> {
    /// Creates an empty pool for genomes over `table`'s stages and
    /// frequency points.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than 256 frequency points (or none).
    #[must_use]
    pub fn new(table: &'t StageTable) -> Self {
        Self::with_capacity(table, 0)
    }

    /// [`Self::new`] with space pre-reserved for `genomes` individuals.
    #[must_use]
    pub fn with_capacity(table: &'t StageTable, genomes: usize) -> Self {
        let n_stages = table.n_stages();
        let layout = PackLayout::new(n_stages, table.n_freqs());
        let n_pad = n_stages.next_power_of_two(); // 0usize -> 1
        let block_width = block_width(n_pad);
        let blocks_per_genome = n_pad / block_width;
        Self {
            table,
            layout,
            words: Vec::with_capacity(genomes * layout.words_per_genome),
            fps: Vec::with_capacity(genomes),
            base_fp: fp_base(n_stages),
            block_width,
            blocks_per_genome,
            live_blocks: n_stages.div_ceil(block_width),
            blocks: Vec::with_capacity(genomes * blocks_per_genome),
            leaves: vec![Sums::ZERO; block_width],
        }
    }

    /// Genes per genome.
    #[must_use]
    pub fn n_stages(&self) -> usize {
        self.layout.n_stages
    }

    /// Alphabet size.
    #[must_use]
    pub fn n_freqs(&self) -> usize {
        self.layout.n_freqs
    }

    /// Leaves per block sum (see the module docs).
    #[must_use]
    pub fn block_width(&self) -> usize {
        self.block_width
    }

    /// Number of genomes currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// Whether the pool holds no genomes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// Drops all genomes, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.fps.clear();
        self.blocks.clear();
    }

    /// Drops genomes past index `len` (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.fps.len() {
            self.fps.truncate(len);
            self.words.truncate(len * self.layout.words_per_genome);
            self.blocks.truncate(len * self.blocks_per_genome);
        }
    }

    /// Appends a genome from unpacked genes, building every block sum;
    /// returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the gene count disagrees or a gene is out of range.
    pub fn push_genes(&mut self, genes: &[usize]) -> usize {
        assert_eq!(
            genes.len(),
            self.layout.n_stages,
            "gene count must match stages"
        );
        let mut fp = self.base_fp;
        for (w, chunk) in genes.chunks(self.layout.genes_per_word.max(1)).enumerate() {
            let word = pack_word(&self.layout, chunk);
            self.words.push(word);
            fp ^= word_contrib(w, word);
        }
        self.fps.push(fp);
        let idx = self.fps.len() - 1;
        self.blocks
            .resize(self.blocks.len() + self.blocks_per_genome, Sums::ZERO);
        for b in 0..self.live_blocks {
            self.rebuild_block(idx, b);
        }
        idx
    }

    /// Appends a copy of genome `src` from `other`, block sums included;
    /// returns the new index.
    ///
    /// # Panics
    ///
    /// Panics if `other` was built from a different table or `src` is
    /// out of range.
    pub fn push_copy_from(&mut self, other: &GenomePool<'_>, src: usize) -> usize {
        assert!(
            std::ptr::eq(self.table, other.table),
            "pools must be built from the same table"
        );
        self.words.extend_from_slice(other.words_of(src));
        self.blocks.extend_from_slice(other.blocks_of(src));
        self.fps.push(other.fps[src]);
        self.fps.len() - 1
    }

    /// Appends a copy of this pool's own genome `src`; returns the index.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn push_clone(&mut self, src: usize) -> usize {
        assert!(src < self.fps.len(), "genome {src} out of range");
        let (w, k) = (self.layout.words_per_genome, self.blocks_per_genome);
        self.words.extend_from_within(src * w..(src + 1) * w);
        self.blocks.extend_from_within(src * k..(src + 1) * k);
        self.fps.push(self.fps[src]);
        self.fps.len() - 1
    }

    /// Reads one gene.
    #[must_use]
    pub fn gene(&self, idx: usize, stage: usize) -> usize {
        let (w, shift) = self.layout.word_and_shift(stage);
        ((self.words[idx * self.layout.words_per_genome + w] >> shift) & self.layout.gene_mask)
            as usize
    }

    /// Sets one gene, updating the genome's fingerprint in O(1) and
    /// rebuilding the one block sum it falls in.
    ///
    /// # Panics
    ///
    /// Panics if `idx`, `stage` or `gene` is out of range.
    pub fn set_gene(&mut self, idx: usize, stage: usize, gene: usize) {
        assert!(
            gene < self.layout.n_freqs,
            "gene {gene} out of range ({} frequency points)",
            self.layout.n_freqs
        );
        let (w, shift) = self.layout.word_and_shift(stage);
        let slot = idx * self.layout.words_per_genome + w;
        let old = self.words[slot];
        let new = (old & !(self.layout.gene_mask << shift)) | ((gene as u64) << shift);
        if new != old {
            self.words[slot] = new;
            self.fps[idx] ^= word_contrib(w, old) ^ word_contrib(w, new);
            self.rebuild_block(idx, stage / self.block_width);
        }
    }

    /// Swaps the gene suffix `[from_stage, n_stages)` between genomes
    /// `a` and `b` — the GA's last-`k` crossover — word-at-a-time, with
    /// O(changed words) fingerprint updates. The whole blocks past the
    /// cut swap their sums; the one block the cut falls inside is
    /// rebuilt in both genomes when its genes changed.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `from_stage > n_stages`.
    pub fn swap_suffix(&mut self, a: usize, b: usize, from_stage: usize) {
        assert!(from_stage <= self.layout.n_stages, "suffix start past end");
        if a == b || from_stage == self.layout.n_stages {
            return;
        }
        let (wpg, gpw) = (self.layout.words_per_genome, self.layout.genes_per_word);
        let (wb, off) = (from_stage / gpw, from_stage % gpw);
        let cut_block = from_stage / self.block_width;
        // First stage past the block the cut falls inside.
        let cut_block_end = (cut_block + 1) * self.block_width;
        let mut cut_block_changed = false;
        for w in wb..wpg {
            let (ia, ib) = (a * wpg + w, b * wpg + w);
            let (va, vb) = (self.words[ia], self.words[ib]);
            // Boundary word: only lanes at or above `off` swap.
            let keep_mask = if w == wb && off > 0 {
                (1u64 << (off as u32 * self.layout.gene_bits)) - 1
            } else {
                0
            };
            let na = (va & keep_mask) | (vb & !keep_mask);
            let nb = (vb & keep_mask) | (va & !keep_mask);
            if na != va {
                // The contribution delta is symmetric: both genomes
                // exchange the same pair of word values.
                self.words[ia] = na;
                self.words[ib] = nb;
                self.fps[a] ^= word_contrib(w, va) ^ word_contrib(w, na);
                self.fps[b] ^= word_contrib(w, vb) ^ word_contrib(w, nb);
                cut_block_changed |= w * gpw < cut_block_end;
            }
        }
        // A cut on a block boundary moves that block whole.
        let first_whole = if from_stage.is_multiple_of(self.block_width) {
            cut_block
        } else {
            cut_block + 1
        };
        if first_whole < self.live_blocks {
            let k = self.blocks_per_genome;
            let (lo, hi) = (a.min(b), a.max(b));
            let (head, tail) = self.blocks.split_at_mut(hi * k);
            head[lo * k + first_whole..lo * k + self.live_blocks]
                .swap_with_slice(&mut tail[first_whole..self.live_blocks]);
        }
        if first_whole != cut_block && cut_block_changed {
            self.rebuild_block(a, cut_block);
            self.rebuild_block(b, cut_block);
        }
    }

    /// Unpacks genome `idx` into `out` (cleared first).
    pub fn read_genes(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.layout.n_stages).map(|s| self.gene(idx, s)));
    }

    /// The genome's 64-bit fingerprint (identical to
    /// [`genome_fingerprint`] of its unpacked genes).
    #[must_use]
    pub fn fp(&self, idx: usize) -> u64 {
        self.fps[idx]
    }

    /// The table this pool's block sums are read from.
    #[must_use]
    pub fn table(&self) -> &'t StageTable {
        self.table
    }

    /// The packed words of genome `idx`.
    fn words_of(&self, idx: usize) -> &[u64] {
        let w = self.layout.words_per_genome;
        &self.words[idx * w..(idx + 1) * w]
    }

    /// The block sums of genome `idx`, in stage order: the nodes of
    /// [`StageTable::evaluate`]'s summation tree at the block level
    /// (blocks past the last stage are zero).
    pub(crate) fn blocks_of(&self, idx: usize) -> &[Sums] {
        let k = self.blocks_per_genome;
        &self.blocks[idx * k..(idx + 1) * k]
    }

    /// Recomputes block `b` of genome `idx` from its genes: the block's
    /// cells, padded with zeros past the last stage, summed pairwise.
    fn rebuild_block(&mut self, idx: usize, b: usize) {
        let wpg = self.layout.words_per_genome;
        let genome = &self.words[idx * wpg..(idx + 1) * wpg];
        let first = b * self.block_width;
        for (stage, leaf) in (first..).zip(&mut self.leaves) {
            *leaf = if stage < self.layout.n_stages {
                let (w, shift) = self.layout.word_and_shift(stage);
                let gene = (genome[w] >> shift) & self.layout.gene_mask;
                self.table.cell(stage, gene as usize)
            } else {
                Sums::ZERO
            };
        }
        self.blocks[idx * self.blocks_per_genome + b] = Sums::reduce_in_place(&mut self.leaves);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{Stage, StageKind};
    use npu_sim::FreqMhz;

    fn table(n_stages: usize, n_freqs: usize) -> StageTable {
        let freqs: Vec<FreqMhz> = (0..n_freqs)
            .map(|k| FreqMhz::new(1000 + 50 * k as u32))
            .collect();
        let mut stages = Vec::new();
        let mut time = Vec::new();
        let mut ea = Vec::new();
        let mut es = Vec::new();
        for i in 0..n_stages {
            stages.push(Stage {
                start_us: i as f64 * 100.0,
                dur_us: 100.0,
                op_range: i..i + 1,
                kind: if i % 2 == 0 {
                    StageKind::Lfc
                } else {
                    StageKind::Hfc
                },
            });
            let mut trow = Vec::new();
            let mut arow = Vec::new();
            let mut srow = Vec::new();
            for (j, &f) in freqs.iter().enumerate() {
                let x = f.as_f64() / 1800.0;
                let t = 100.0 / x + (i as f64).mul_add(0.37, 0.013 * j as f64);
                trow.push(t);
                arow.push((12.0 + 30.0 * x * x) * t);
                srow.push((190.0 + 25.0 * x) * t);
            }
            time.push(trow);
            ea.push(arow);
            es.push(srow);
        }
        StageTable::from_parts(freqs, stages, time, ea, es).unwrap()
    }

    fn genome(n: usize, m: usize, salt: usize) -> Vec<usize> {
        (0..n).map(|s| (s * 7 + salt * 13 + 3) % m).collect()
    }

    /// Asserts genome `idx`'s block sums reduce to exactly the full
    /// evaluation of its genes.
    fn assert_blocks_match(t: &StageTable, pool: &GenomePool<'_>, idx: usize) {
        let mut genes = Vec::new();
        pool.read_genes(idx, &mut genes);
        let mut level = pool.blocks_of(idx).to_vec();
        let fast = t.finish_sums(Sums::reduce_in_place(&mut level));
        let full = t.evaluate(&genes);
        assert_eq!(
            fast.time_us.to_bits(),
            full.time_us.to_bits(),
            "genome {idx}"
        );
        assert_eq!(
            fast.aicore_energy_wus.to_bits(),
            full.aicore_energy_wus.to_bits(),
            "genome {idx}"
        );
        assert_eq!(
            fast.soc_energy_wus.to_bits(),
            full.soc_energy_wus.to_bits(),
            "genome {idx}"
        );
    }

    #[test]
    fn pack_layout_picks_nibbles_for_small_alphabets() {
        let nib = PackLayout::new(37, 9);
        assert_eq!(nib.gene_bits, 4);
        assert_eq!(nib.genes_per_word, 16);
        assert_eq!(nib.words_per_genome, 3);
        let byte = PackLayout::new(37, 17);
        assert_eq!(byte.gene_bits, 8);
        assert_eq!(byte.genes_per_word, 8);
        assert_eq!(byte.words_per_genome, 5);
    }

    #[test]
    fn push_and_read_round_trip() {
        for m in [2, 9, 16, 17, 200] {
            let t = table(21, m);
            let mut pool = GenomePool::new(&t);
            let g = genome(21, m, 1);
            let idx = pool.push_genes(&g);
            let mut out = Vec::new();
            pool.read_genes(idx, &mut out);
            assert_eq!(out, g, "m = {m}");
            for (s, &want) in g.iter().enumerate() {
                assert_eq!(pool.gene(idx, s), want);
            }
        }
    }

    #[test]
    fn fingerprints_match_the_free_function_through_every_mutation_path() {
        let m = 9;
        let t = table(33, m);
        let mut pool = GenomePool::new(&t);
        let a = pool.push_genes(&genome(33, m, 0));
        let b = pool.push_clone(a);
        let c = pool.push_genes(&genome(33, m, 5));
        pool.set_gene(b, 0, 3);
        pool.set_gene(b, 17, 8);
        pool.set_gene(b, 32, 1);
        pool.set_gene(b, 32, 1); // no-op keeps fp coherent
        pool.swap_suffix(b, c, 13);
        pool.swap_suffix(a, c, 32);
        let mut out = Vec::new();
        for idx in [a, b, c] {
            pool.read_genes(idx, &mut out);
            assert_eq!(
                pool.fp(idx),
                genome_fingerprint(&out, m),
                "genome {idx} fingerprint drifted from its genes"
            );
        }
        // Distinct genomes get distinct fingerprints here.
        assert_ne!(pool.fp(a), pool.fp(b));
        assert_ne!(pool.fp(b), pool.fp(c));
    }

    #[test]
    fn swap_suffix_swaps_exactly_the_suffix() {
        for (n, m, from) in [
            (20, 9, 7),
            (16, 9, 0),
            (16, 9, 16),
            (11, 30, 5),
            (48, 9, 16),
        ] {
            let t = table(n, m);
            let mut pool = GenomePool::new(&t);
            let ga = genome(n, m, 1);
            let gb = genome(n, m, 2);
            let a = pool.push_genes(&ga);
            let b = pool.push_genes(&gb);
            pool.swap_suffix(a, b, from);
            for s in 0..n {
                let (wa, wb) = if s < from {
                    (ga[s], gb[s])
                } else {
                    (gb[s], ga[s])
                };
                assert_eq!(pool.gene(a, s), wa, "n={n} m={m} from={from} stage {s}");
                assert_eq!(pool.gene(b, s), wb, "n={n} m={m} from={from} stage {s}");
            }
            assert_blocks_match(&t, &pool, a);
            assert_blocks_match(&t, &pool, b);
        }
    }

    #[test]
    fn copy_truncate_and_clear_manage_the_arena() {
        let t = table(10, 9);
        let mut cur = GenomePool::with_capacity(&t, 4);
        let g0 = genome(10, 9, 0);
        let g1 = genome(10, 9, 1);
        cur.push_genes(&g0);
        cur.push_genes(&g1);
        let mut next = GenomePool::new(&t);
        next.push_copy_from(&cur, 1);
        next.push_copy_from(&cur, 0);
        next.push_copy_from(&cur, 0);
        assert_eq!(next.len(), 3);
        assert_eq!(next.fp(0), cur.fp(1));
        assert_blocks_match(&t, &next, 0);
        next.truncate(1);
        assert_eq!(next.len(), 1);
        let mut out = Vec::new();
        next.read_genes(0, &mut out);
        assert_eq!(out, g1);
        next.clear();
        assert!(next.is_empty());
        next.push_genes(&g0);
        assert_eq!(next.fp(0), cur.fp(0));
    }

    #[test]
    fn block_width_is_the_square_root_of_the_padded_stage_count() {
        for (n, width) in [
            (0, 1),
            (1, 1),
            (2, 2),
            (3, 2),
            (48, 8),
            (257, 32),
            (960, 32),
        ] {
            let t = table(n, 9);
            assert_eq!(GenomePool::new(&t).block_width(), width, "n = {n}");
        }
    }

    #[test]
    fn block_sums_stay_bit_identical_to_full_evaluation() {
        for (n, m) in [(13, 9), (13, 30), (37, 9), (64, 17)] {
            let t = table(n, m);
            let mut pool = GenomePool::new(&t);
            for salt in 0..4 {
                pool.push_genes(&genome(n, m, salt));
            }
            let c = pool.push_clone(1);
            pool.set_gene(c, n / 2, (pool.gene(c, n / 2) + 1) % m);
            pool.set_gene(c, 0, pool.gene(c, 0)); // no-op
            for (a, b, from) in [(0, 2, 1), (1, 3, n - 1), (c, 0, n / 2), (2, 3, 8)] {
                pool.swap_suffix(a, b, from);
            }
            let mut next = GenomePool::new(&t);
            for idx in [c, 3, 0] {
                next.push_copy_from(&pool, idx);
            }
            next.set_gene(1, n - 1, 0);
            for idx in 0..pool.len() {
                assert_blocks_match(&t, &pool, idx);
            }
            for idx in 0..next.len() {
                assert_blocks_match(&t, &next, idx);
            }
        }
    }

    #[test]
    fn crossover_rebuilds_the_cut_block_when_only_a_later_word_differs() {
        // 300 stages: 32-leaf blocks over 16-gene words, so block 0 spans
        // words 0 and 1. Two genomes equal except in word 1, cut inside
        // word 0: the cut's own word does not change, the block does.
        let t = table(300, 9);
        let mut pool = GenomePool::new(&t);
        let a = pool.push_genes(&genome(300, 9, 0));
        let b = pool.push_clone(a);
        pool.set_gene(b, 20, (pool.gene(b, 20) + 1) % 9);
        pool.swap_suffix(a, b, 3);
        assert_eq!(pool.block_width(), 32);
        assert_blocks_match(&t, &pool, a);
        assert_blocks_match(&t, &pool, b);
    }

    #[test]
    fn empty_genomes_are_supported() {
        let t = table(0, 9);
        let mut pool = GenomePool::new(&t);
        let idx = pool.push_genes(&[]);
        assert_eq!(pool.fp(idx), genome_fingerprint(&[], 9));
        assert_blocks_match(&t, &pool, idx);
    }

    #[test]
    #[should_panic(expected = "same table")]
    fn copies_between_pools_of_different_tables_are_rejected() {
        let (t1, t2) = (table(5, 9), table(5, 9));
        let mut src = GenomePool::new(&t1);
        src.push_genes(&genome(5, 9, 0));
        let _ = GenomePool::new(&t2).push_copy_from(&src, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range_genes() {
        let t = table(3, 9);
        let mut pool = GenomePool::new(&t);
        let _ = pool.push_genes(&[0, 9, 0]);
    }

    #[test]
    #[should_panic(expected = "alphabet")]
    fn rejects_oversized_alphabets() {
        let _ = GenomePool::new(&table(3, 257));
    }
}
