//! [`Aligned`] — a buffer whose window starts on a cache line.

/// A reusable buffer of `T` handed out as a window that starts on a
/// cache-line boundary, wherever the allocator placed the block.
///
/// Kernel operands are walked by 32-byte vector loads and stores at
/// multiples of 8 elements; from an aligned start none of them splits a
/// cache line or a page. With plain `Vec`s the kernels' speed depended on
/// allocation history: a decoded-row buffer that happened to straddle a page
/// cost the 1024² f16 SpMV 1.5× (38 vs 25 µs), 27 % of an on-device frame,
/// and the `39 × 1024` head's row tiles took 3.0–3.4 µs a call from a
/// 16-byte offset against 2.25 from a line (AVX2, one stream). The element
/// is `f32` for planes and scratch ([`AlignedF32`]) and `u16` for stored
/// f16 bit patterns.
#[derive(Debug, Default)]
pub struct Aligned<T> {
    buf: Vec<T>,
    /// Length of the last window handed out.
    len: usize,
}

/// The f32 plane and kernel-scratch buffer.
pub type AlignedF32 = Aligned<f32>;

impl<T: Copy + Default> Aligned<T> {
    /// Elements per 64-byte cache line.
    const LINE: usize = 64 / std::mem::size_of::<T>();

    /// An empty buffer (allocates nothing until the first window).
    pub const fn new() -> Aligned<T> {
        Aligned {
            buf: Vec::new(),
            len: 0,
        }
    }

    /// A buffer whose window holds a copy of `values`.
    pub fn from_slice(values: &[T]) -> Aligned<T> {
        let mut out = Aligned::new();
        out.window(values.len()).copy_from_slice(values);
        out
    }

    /// The aligned window's first `len` elements (contents unspecified —
    /// callers overwrite all of it). Grows the block on demand; steady
    /// state allocates nothing.
    #[inline]
    pub fn window(&mut self, len: usize) -> &mut [T] {
        if self.buf.len() < len + Self::LINE {
            self.buf.resize(len + Self::LINE, T::default());
        }
        self.len = len;
        let start = self.start();
        &mut self.buf[start..start + len]
    }

    /// The last window handed out (by [`window`](Self::window) or
    /// [`from_slice`](Self::from_slice)).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        let start = self.start();
        &self.buf[start..start + self.len]
    }

    #[inline]
    fn start(&self) -> usize {
        // `align_offset` may decline (usize::MAX); any in-range start is
        // correct, alignment is only the fast case. A block never windowed
        // is empty.
        let start = self.buf.as_ptr().align_offset(64).min(Self::LINE);
        start.min(self.buf.len())
    }
}

/// Equal windows, wherever their blocks sit.
impl<T: Copy + Default + PartialEq> PartialEq for Aligned<T> {
    fn eq(&self, other: &Aligned<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A new block, aligned for itself (a derived clone would keep the old
/// block's offset).
impl<T: Copy + Default> Clone for Aligned<T> {
    fn clone(&self) -> Aligned<T> {
        Aligned::from_slice(self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_start_on_a_cache_line_and_clones_re_align() {
        let values: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let a = AlignedF32::from_slice(&values);
        for t in [a.clone(), a] {
            assert_eq!(t.as_slice().as_ptr() as usize % 64, 0);
            assert_eq!(t.as_slice(), &values[..]);
        }
        let mut w = AlignedF32::default();
        assert!(w.as_slice().is_empty());
        for len in [0, 1, 17, 3, 4096] {
            assert_eq!(w.window(len).len(), len);
            assert_eq!(w.as_slice().as_ptr() as usize % 64, 0);
            assert_eq!(w.as_slice().len(), len);
        }
        let halves: Vec<u16> = (0..100_000).map(|i| i as u16).collect();
        let h = Aligned::from_slice(&halves);
        for t in [h.clone(), h] {
            assert_eq!(t.as_slice().as_ptr() as usize % 64, 0);
            assert_eq!(t.as_slice(), &halves[..]);
        }
    }
}
