//! Multi-word possible-color bitmaps.
//!
//! Each vertex owns `indegree + 1` bits stored in consecutive
//! `CountedU64` words of one flat array (the `runLarge` layout; small
//! vertices simply occupy one word). A vertex's bits are written only
//! by its own thread; neighbors read them concurrently for the
//! shortcut tests, which is why the words are atomics. Possible-color
//! sets only ever *shrink*, the monotonicity both shortcuts rely on.

use ecl_gpusim::{CountedU64, Hooks};

/// Layout of all vertices' bitmaps in one flat word array.
#[derive(Clone, Debug)]
pub struct BitmapLayout {
    /// Word offset of each vertex (length `n + 1`).
    pub offsets: Vec<usize>,
    /// Bit width (possible-color count) of each vertex.
    pub widths: Vec<u32>,
}

impl BitmapLayout {
    /// Builds the layout for bitmaps of `width[v] = indeg[v] + 1` bits.
    pub fn new(in_degrees: &[u32]) -> Self {
        let n = in_degrees.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut widths = Vec::with_capacity(n);
        let mut acc = 0usize;
        for &d in in_degrees {
            let width = d + 1;
            offsets.push(acc);
            widths.push(width);
            acc += width.div_ceil(64) as usize;
        }
        offsets.push(acc);
        Self { offsets, widths }
    }

    /// Total words needed.
    pub fn total_words(&self) -> usize {
        *self.offsets.last().expect("layout has n+1 offsets")
    }

    /// Word range of vertex `v`.
    #[inline]
    pub fn words(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Allocates the word array with every vertex's `width` low bits
    /// set (all colors initially possible).
    pub fn allocate(&self) -> Vec<CountedU64> {
        let mut words = Vec::with_capacity(self.total_words());
        for v in 0..self.widths.len() as u32 {
            let width = self.widths[v as usize];
            let nwords = self.words(v).len();
            for w in 0..nwords {
                let bits_before = (w as u32) * 64;
                let bits_here = width.saturating_sub(bits_before).min(64);
                let mask = if bits_here == 0 {
                    0
                } else if bits_here == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits_here) - 1
                };
                words.push(CountedU64::new(mask));
            }
        }
        words
    }
}

/// True if bit `c` is set in `v`'s bitmap. Out-of-range bits read as 0
/// (a color beyond the width is never under consideration).
#[inline]
pub fn has_bit(words: &[CountedU64], layout: &BitmapLayout, v: u32, c: u32, h: Hooks) -> bool {
    if c >= layout.widths[v as usize] {
        return false;
    }
    let w = layout.offsets[v as usize] + (c / 64) as usize;
    words[w].load(h) & (1u64 << (c % 64)) != 0
}

/// Clears bit `c` in `v`'s bitmap (no-op when out of range). Only
/// `v`'s owning thread calls this.
#[inline]
pub fn clear_bit(words: &[CountedU64], layout: &BitmapLayout, v: u32, c: u32, h: Hooks) {
    if c >= layout.widths[v as usize] {
        return;
    }
    let w = layout.offsets[v as usize] + (c / 64) as usize;
    let old = words[w].load(h);
    words[w].store(old & !(1u64 << (c % 64)), h);
}

/// Lowest set bit of `v`'s bitmap, or `None` if empty (cannot happen
/// for an uncolored vertex: at most `indegree` of its `indegree + 1`
/// bits can ever be cleared).
#[inline]
pub fn lowest_set(words: &[CountedU64], layout: &BitmapLayout, v: u32, h: Hooks) -> Option<u32> {
    for (i, w) in layout.words(v).enumerate() {
        let bits = words[w].load(h);
        if bits != 0 {
            return Some(i as u32 * 64 + bits.trailing_zeros());
        }
    }
    None
}

/// Collapses `v`'s bitmap to the single bit `c` (done at assignment so
/// neighbors' shortcut tests see exactly one remaining possibility).
#[inline]
pub fn collapse_to(words: &[CountedU64], layout: &BitmapLayout, v: u32, c: u32, h: Hooks) {
    debug_assert!(c < layout.widths[v as usize]);
    for (i, w) in layout.words(v).enumerate() {
        let target = if (c / 64) as usize == i { 1u64 << (c % 64) } else { 0 };
        words[w].store(target, h);
    }
}

/// True if the bitmaps of `a` and `b` share no set bit (shortcut 2's
/// condition). Reads are word-atomic; since sets only shrink, a
/// "disjoint" verdict can never be invalidated later.
pub fn disjoint(words: &[CountedU64], layout: &BitmapLayout, a: u32, b: u32, h: Hooks) -> bool {
    let ra = layout.words(a);
    let rb = layout.words(b);
    let common = ra.len().min(rb.len());
    for i in 0..common {
        if words[ra.start + i].load(h) & words[rb.start + i].load(h) != 0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn setup(in_degrees: &[u32]) -> (Vec<CountedU64>, BitmapLayout) {
        let layout = BitmapLayout::new(in_degrees);
        let words = layout.allocate();
        (words, layout)
    }

    #[test]
    fn allocation_sets_width_bits() {
        let (words, layout) = setup(&[0, 2, 63, 64, 130]);
        assert!(has_bit(&words, &layout, 0, 0, Hooks::OFF));
        assert!(!has_bit(&words, &layout, 0, 1, Hooks::OFF));
        assert!(has_bit(&words, &layout, 1, 2, Hooks::OFF));
        assert!(!has_bit(&words, &layout, 1, 3, Hooks::OFF));
        // width 64: one full word.
        assert!(has_bit(&words, &layout, 2, 63, Hooks::OFF));
        assert!(!has_bit(&words, &layout, 2, 64, Hooks::OFF));
        // width 65: spills into a second word.
        assert!(has_bit(&words, &layout, 3, 64, Hooks::OFF));
        assert!(!has_bit(&words, &layout, 3, 65, Hooks::OFF));
        // width 131.
        assert!(has_bit(&words, &layout, 4, 130, Hooks::OFF));
        assert!(!has_bit(&words, &layout, 4, 131, Hooks::OFF));
    }

    #[test]
    fn layout_word_counts() {
        let layout = BitmapLayout::new(&[0, 63, 64, 127, 128]);
        // widths 1, 64, 65, 128, 129 -> 1, 1, 2, 2, 3 words.
        assert_eq!(layout.words(0).len(), 1);
        assert_eq!(layout.words(1).len(), 1);
        assert_eq!(layout.words(2).len(), 2);
        assert_eq!(layout.words(3).len(), 2);
        assert_eq!(layout.words(4).len(), 3);
        assert_eq!(layout.total_words(), 9);
    }

    #[test]
    fn clear_and_lowest() {
        let (words, layout) = setup(&[5]);
        assert_eq!(lowest_set(&words, &layout, 0, Hooks::OFF), Some(0));
        clear_bit(&words, &layout, 0, 0, Hooks::OFF);
        assert_eq!(lowest_set(&words, &layout, 0, Hooks::OFF), Some(1));
        clear_bit(&words, &layout, 0, 1, Hooks::OFF);
        clear_bit(&words, &layout, 0, 2, Hooks::OFF);
        assert_eq!(lowest_set(&words, &layout, 0, Hooks::OFF), Some(3));
        // Out-of-range clear is a no-op.
        clear_bit(&words, &layout, 0, 99, Hooks::OFF);
        assert_eq!(lowest_set(&words, &layout, 0, Hooks::OFF), Some(3));
    }

    #[test]
    fn lowest_crosses_word_boundary() {
        let (words, layout) = setup(&[70]);
        for c in 0..64 {
            clear_bit(&words, &layout, 0, c, Hooks::OFF);
        }
        assert_eq!(lowest_set(&words, &layout, 0, Hooks::OFF), Some(64));
    }

    #[test]
    fn collapse_leaves_single_bit() {
        let (words, layout) = setup(&[100]);
        collapse_to(&words, &layout, 0, 77, Hooks::OFF);
        assert_eq!(lowest_set(&words, &layout, 0, Hooks::OFF), Some(77));
        assert!(has_bit(&words, &layout, 0, 77, Hooks::OFF));
        assert!(!has_bit(&words, &layout, 0, 0, Hooks::OFF));
        assert!(!has_bit(&words, &layout, 0, 78, Hooks::OFF));
    }

    #[test]
    fn disjointness() {
        let (words, layout) = setup(&[3, 3]);
        // Both start {0,1,2,3}: overlap.
        assert!(!disjoint(&words, &layout, 0, 1, Hooks::OFF));
        collapse_to(&words, &layout, 0, 0, Hooks::OFF);
        collapse_to(&words, &layout, 1, 3, Hooks::OFF);
        assert!(disjoint(&words, &layout, 0, 1, Hooks::OFF));
        assert!(disjoint(&words, &layout, 1, 0, Hooks::OFF));
    }

    #[test]
    fn disjoint_different_widths() {
        let (words, layout) = setup(&[1, 200]);
        // v0 = {0,1}; clear v1's low bits 0..2 -> disjoint.
        clear_bit(&words, &layout, 1, 0, Hooks::OFF);
        clear_bit(&words, &layout, 1, 1, Hooks::OFF);
        assert!(disjoint(&words, &layout, 0, 1, Hooks::OFF));
    }

    #[test]
    fn empty_bitmap_lowest_none() {
        let (words, layout) = setup(&[0]);
        clear_bit(&words, &layout, 0, 0, Hooks::OFF);
        assert_eq!(lowest_set(&words, &layout, 0, Hooks::OFF), None);
    }
}
