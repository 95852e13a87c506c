//! Sparse vectors and the cosine kernel.
//!
//! Dimensions are `u32` (interned token ids or feature ids), entries are
//! kept sorted by dimension, so dot products are linear merges — this is
//! the hot kernel of Steps III and IV.

/// A sparse vector: sorted `(dimension, value)` pairs with no duplicate
/// dimensions and no explicit zeros.
///
/// The Euclidean norm is cached at construction and kept in sync by the
/// mutating operations, so [`SparseVector::cosine`] in the Step-III/IV
/// inner loops never recomputes `sqrt(Σv²)` per call.
///
/// ```
/// use boe_corpus::SparseVector;
///
/// let a = SparseVector::from_pairs([(0, 3.0), (1, 4.0)]);
/// let b = SparseVector::from_pairs([(1, 1.0)]);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!(a.dot(&b), 4.0);
/// assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseVector {
    entries: Vec<(u32, f64)>,
    /// Cached Euclidean norm of `entries` (0.0 for the empty vector).
    norm: f64,
}

/// Equality is defined by the entries alone; the cached norm is derived
/// from them deterministically.
impl PartialEq for SparseVector {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl SparseVector {
    /// The empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted `(dim, value)` pairs, summing duplicates and
    /// dropping zeros.
    ///
    /// Sort and merge, with no hash map and nothing sized by the dimension
    /// values. The pairs are taken in blocks of 4 096 pairs, or
    /// as many as the vector has entries so far if that is more. Each
    /// block is sorted by `(dim, position in the block)` and merged into
    /// the entries: a dimension's sum starts at `0.0`, adds the entry's
    /// value if there is one, then the block's values in input order, and
    /// is kept if nonzero. A sum kept between blocks is an exact value and
    /// a dropped one is `+0.0`, so every dimension sees `0.0` plus its
    /// values in the order they were given, whatever the blocking. Memory
    /// stays within about one block plus twice the distinct dimensions.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, f64)>) -> Self {
        let mut pairs = pairs.into_iter();
        let mut entries: Vec<(u32, f64)> = Vec::new();
        // `(dim, position, value)` is 16 bytes, the size of an entry, and
        // the unstable sort needs no merge buffer.
        let mut block: Vec<(u32, u32, f64)> = Vec::new();
        loop {
            let len = Self::BLOCK.max(entries.len());
            block.clear();
            block.extend(
                pairs
                    .by_ref()
                    .take(len)
                    .zip(0u32..)
                    .map(|((d, v), i)| (d, i, v)),
            );
            if block.is_empty() {
                break;
            }
            block.sort_unstable_by_key(|&(d, i, _)| (d, i));
            entries = merge_block(&entries, &block);
            if block.len() < len {
                break;
            }
        }
        Self::from_sorted(entries)
    }

    /// How many pairs [`Self::from_pairs`] sorts at a time (64 KiB), at
    /// least.
    const BLOCK: usize = 4096;

    /// Build from already-sorted, deduplicated, zero-free entries,
    /// computing the cached norm once.
    pub(crate) fn from_sorted(entries: Vec<(u32, f64)>) -> Self {
        let norm = compute_norm(&entries);
        SparseVector { entries, norm }
    }

    /// Build from integer counts.
    pub fn from_counts(counts: impl IntoIterator<Item = (u32, u32)>) -> Self {
        Self::from_pairs(counts.into_iter().map(|(d, c)| (d, f64::from(c))))
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Number of nonzero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is all zeros.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Value at `dim` (0.0 if absent).
    pub fn get(&self, dim: u32) -> f64 {
        match self.entries.binary_search_by_key(&dim, |(d, _)| *d) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Dot product (merge join over sorted entries).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (a, b) = (&self.entries, &other.entries);
        let mut i = 0;
        let mut j = 0;
        let mut sum = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Euclidean norm (cached; O(1)).
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Sum of values (L1 mass for non-negative vectors).
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|(_, v)| v).sum()
    }

    /// The vector of `entries` (sorted, zero-free) with one unit
    /// subtracted per listed dimension (`removals` sorted ascending,
    /// repeats allowed); entries reaching zero are dropped. For integral
    /// count vectors the subtraction is exact, so the result is
    /// bit-identical to rebuilding the vector without the removed
    /// contributions.
    pub(crate) fn minus_counts(entries: &[(u32, f64)], removals: &[u32]) -> SparseVector {
        debug_assert!(removals.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let mut out = Vec::with_capacity(entries.len());
        let mut r = 0usize;
        for &(d, v) in entries {
            while r < removals.len() && removals[r] < d {
                r += 1;
            }
            let mut k = 0.0;
            while r < removals.len() && removals[r] == d {
                k += 1.0;
                r += 1;
            }
            let nv = v - k;
            if nv != 0.0 {
                out.push((d, nv));
            }
        }
        Self::from_sorted(out)
    }

    /// Cosine similarity; 0.0 when either vector is zero.
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            (self.dot(other) / denom).clamp(-1.0, 1.0)
        }
    }

    /// In-place scale by `s` (dropping entries if `s == 0`).
    pub fn scale(&mut self, s: f64) {
        if s == 0.0 {
            self.entries.clear();
        } else {
            for (_, v) in &mut self.entries {
                *v *= s;
            }
        }
        // Recompute rather than multiplying the cached value by |s|: the
        // cache must stay bit-identical to a fresh computation over the
        // scaled entries.
        self.norm = compute_norm(&self.entries);
    }

    /// Return a unit-norm copy (zero vector stays zero).
    pub fn normalized(&self) -> SparseVector {
        let n = self.norm();
        let mut out = self.clone();
        if n > 0.0 {
            out.scale(1.0 / n);
        }
        out
    }

    /// Apply `f` to every stored value in place, dropping entries that
    /// become zero and recomputing the cached norm.
    pub fn map_values(&mut self, f: impl Fn(f64) -> f64) {
        for (_, v) in &mut self.entries {
            *v = f(*v);
        }
        self.entries.retain(|(_, v)| *v != 0.0);
        self.norm = compute_norm(&self.entries);
    }

    /// Drop non-finite entries (NaN, ±∞) and recompute the cached norm,
    /// returning how many entries were removed. Downstream kernels
    /// (cosine, clustering) assume finite weights; corrupted or
    /// ill-conditioned inputs are repaired here instead of poisoning
    /// every similarity they touch.
    pub fn sanitize(&mut self) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, v)| v.is_finite());
        let dropped = before - self.entries.len();
        if dropped > 0 {
            self.norm = compute_norm(&self.entries);
        }
        dropped
    }

    /// Add `other` into `self` (merge).
    pub fn add_assign(&mut self, other: &SparseVector) {
        if other.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (a, b) = (&self.entries, &other.entries);
        let mut i = 0;
        let mut j = 0;
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(&(da, va)), Some(&(db, vb))) => match da.cmp(&db) {
                    std::cmp::Ordering::Less => {
                        merged.push((da, va));
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((db, vb));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        let v = va + vb;
                        if v != 0.0 {
                            merged.push((da, v));
                        }
                        i += 1;
                        j += 1;
                    }
                },
                (Some(&(da, va)), None) => {
                    merged.push((da, va));
                    i += 1;
                }
                (None, Some(&(db, vb))) => {
                    merged.push((db, vb));
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        self.entries = merged;
        self.norm = compute_norm(&self.entries);
    }

    /// Sum a slice of vectors (centroid numerator).
    ///
    /// One [`SparseVector::from_pairs`] over every entry in slice order:
    /// each dimension's values are added in slice order, starting from
    /// `0.0`, as folding with [`SparseVector::add_assign`] adds them. The
    /// inputs hold no zeros, so where the fold drops an entry that
    /// cancels to `0.0` and restarts from the next value, the sum adds
    /// that value to `+0.0` and gets the same bits. The result is
    /// bit-identical to the fold, without its quadratic re-merging of
    /// the growing accumulator.
    pub fn sum_of(vectors: &[SparseVector]) -> SparseVector {
        match vectors {
            [] => SparseVector::new(),
            [one] => one.clone(),
            many => Self::from_pairs(many.iter().flat_map(SparseVector::iter)),
        }
    }

    /// Centroid (mean) of a slice; the empty slice yields the zero vector.
    pub fn centroid(vectors: &[SparseVector]) -> SparseVector {
        let mut acc = Self::sum_of(vectors);
        if !vectors.is_empty() {
            acc.scale(1.0 / vectors.len() as f64);
        }
        acc
    }

    /// Iterate `(dim, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }
}

/// `entries` (sorted, zero-free) plus `block` (sorted by dimension, then
/// input position): per dimension, `0.0` plus the entry's value plus the
/// block's values in order, kept if nonzero.
fn merge_block(entries: &[(u32, f64)], block: &[(u32, u32, f64)]) -> Vec<(u32, f64)> {
    let runs = 1 + block.windows(2).filter(|w| w[0].0 != w[1].0).count();
    let mut out = Vec::with_capacity(entries.len() + runs);
    let mut e = 0usize;
    let mut r = 0usize;
    while r < block.len() {
        let dim = block[r].0;
        while e < entries.len() && entries[e].0 < dim {
            out.push(entries[e]);
            e += 1;
        }
        let mut sum = 0.0;
        if e < entries.len() && entries[e].0 == dim {
            sum += entries[e].1;
            e += 1;
        }
        while r < block.len() && block[r].0 == dim {
            sum += block[r].2;
            r += 1;
        }
        if sum != 0.0 {
            out.push((dim, sum));
        }
    }
    out.extend_from_slice(&entries[e..]);
    out
}

/// Euclidean norm of an entry list (the single source of truth for the
/// cached field).
///
/// The squares are summed from `+0.0`, so every empty vector's norm is
/// `+0.0`, as [`SparseVector::new`]'s is, however it was built (the
/// standard `f64` sum starts from `-0.0`). A square is never `-0.0`, so
/// for any other entry list the two starting values give the same bits.
fn compute_norm(entries: &[(u32, f64)]) -> f64 {
    entries.iter().fold(0.0, |acc, (_, v)| acc + v * v).sqrt()
}

impl FromIterator<(u32, f64)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn sanitize_drops_non_finite_and_fixes_norm() {
        let mut x = v(&[(0, 3.0), (1, 4.0)]);
        assert_eq!(x.sanitize(), 0, "finite vectors are untouched");
        assert_eq!(x.norm(), 5.0);
        x.map_values(|val| if val > 3.5 { f64::NAN } else { val });
        assert!(x.norm().is_nan());
        assert_eq!(x.sanitize(), 1);
        assert_eq!(x.entries(), &[(0, 3.0)]);
        assert_eq!(x.norm(), 3.0);
        let mut y = v(&[(0, 1.0), (2, 2.0)]);
        y.map_values(|_| f64::INFINITY);
        assert_eq!(y.sanitize(), 2);
        assert!(y.is_empty());
        assert_eq!(y.norm(), 0.0);
    }

    #[test]
    fn map_values_drops_zeros_and_recomputes_norm() {
        let mut x = v(&[(0, 3.0), (1, 4.0)]);
        x.map_values(|val| if val > 3.5 { 0.0 } else { val * 2.0 });
        assert_eq!(x.entries(), &[(0, 6.0)]);
        assert_eq!(x.norm(), 6.0);
    }

    #[test]
    fn from_pairs_sorts_and_merges() {
        let x = v(&[(3, 1.0), (1, 2.0), (3, 4.0), (2, 0.0)]);
        assert_eq!(x.entries(), &[(1, 2.0), (3, 5.0)]);
        assert_eq!(x.nnz(), 2);
    }

    #[test]
    fn dot_product() {
        let a = v(&[(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = v(&[(2, 4.0), (5, 1.0), (7, 9.0)]);
        assert_eq!(a.dot(&b), 2.0 * 4.0 + 3.0 * 1.0);
    }

    #[test]
    fn cosine_identity_and_orthogonal() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        let b = v(&[(2, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        let a = v(&[(0, 1.0)]);
        let z = SparseVector::new();
        assert_eq!(a.cosine(&z), 0.0);
        assert_eq!(z.cosine(&z), 0.0);
    }

    #[test]
    fn norm_and_sum() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        assert!((a.sum() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
        assert!(SparseVector::new().normalized().is_empty());
    }

    #[test]
    fn add_assign_merges_and_cancels() {
        let mut a = v(&[(0, 1.0), (2, 2.0)]);
        a.add_assign(&v(&[(1, 5.0), (2, -2.0)]));
        assert_eq!(a.entries(), &[(0, 1.0), (1, 5.0)]);
    }

    #[test]
    fn centroid_of_two() {
        let c = SparseVector::centroid(&[v(&[(0, 2.0)]), v(&[(0, 4.0), (1, 2.0)])]);
        assert_eq!(c.entries(), &[(0, 3.0), (1, 1.0)]);
        assert!(SparseVector::centroid(&[]).is_empty());
    }

    #[test]
    fn get_by_dim() {
        let a = v(&[(4, 2.5)]);
        assert_eq!(a.get(4), 2.5);
        assert_eq!(a.get(5), 0.0);
    }

    #[test]
    fn from_counts() {
        let a = SparseVector::from_counts([(1, 2u32), (1, 3u32)]);
        assert_eq!(a.entries(), &[(1, 5.0)]);
    }

    #[test]
    fn cached_norm_tracks_mutations() {
        let fresh = |v: &SparseVector| compute_norm(v.entries());
        let mut a = v(&[(0, 3.0), (1, 4.0)]);
        assert_eq!(a.norm().to_bits(), fresh(&a).to_bits());
        a.scale(2.5);
        assert_eq!(a.norm().to_bits(), fresh(&a).to_bits());
        a.add_assign(&v(&[(1, -10.0), (7, 2.0)]));
        assert_eq!(a.norm().to_bits(), fresh(&a).to_bits());
        a.scale(0.0);
        assert_eq!(a.norm(), 0.0);
        assert_eq!(SparseVector::new().norm(), 0.0);
    }

    #[test]
    fn sum_of_matches_add_assign_fold() {
        // Mixed magnitudes + a dimension that cancels mid-way: the fast
        // single-pass accumulation must agree bit-for-bit with the old
        // pairwise-merge fold.
        let vs = vec![
            v(&[(0, 1.0e16), (2, 3.0), (9, -1.0)]),
            v(&[(0, 1.0), (2, -3.0)]),
            v(&[(2, 0.125), (5, 2.0), (9, 1.0)]),
            SparseVector::new(),
            v(&[(0, -0.625)]),
        ];
        let mut slow = SparseVector::new();
        for x in &vs {
            slow.add_assign(x);
        }
        let fast = SparseVector::sum_of(&vs);
        assert_eq!(fast.entries().len(), slow.entries().len());
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "dim {}", a.0);
        }
    }
}
