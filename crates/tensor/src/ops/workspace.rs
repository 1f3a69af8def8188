//! Reusable scratch-buffer arena for the kernel layer.
//!
//! The training hot loop calls conv forward/backward thousands of times
//! per epoch; allocating fresh im2col/col2im matrices and GEMM packing
//! panels on every call dominated the allocator profile of the seed
//! implementation. A [`Workspace`] owns those buffers and hands them out
//! by name: the first step of a layer grows each slot to its steady-state
//! size, and every later step reuses the same memory.
//!
//! Buffers move **out** of the arena while in use (`take`) and back in
//! when done (`give`), so several buffers can be live at once without
//! fighting the borrow checker — including across nested calls (the conv
//! path takes its column buffer, then the GEMM underneath takes its
//! packing panels from the same workspace).
//!
//! The arena counts every allocation event (slot creation or capacity
//! growth). After warm-up a workspace can be [frozen](Workspace::freeze):
//! any further growth trips a debug assertion and still increments the
//! counter, which is how the zero-allocation-per-step guarantee of the
//! conv path is enforced in tests.

use std::cell::RefCell;

/// Named scratch-buffer arena with allocation accounting.
///
/// # Example
///
/// ```
/// use alf_tensor::ops::Workspace;
///
/// let mut ws = Workspace::new();
/// let mut buf = ws.take("cols", 128);
/// buf[0] = 1.0;
/// ws.give("cols", buf);
/// assert_eq!(ws.alloc_events(), 1);
///
/// // Steady state: same slot, same size — no new allocation.
/// let buf = ws.take("cols", 128);
/// ws.give("cols", buf);
/// assert_eq!(ws.alloc_events(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    slots: Vec<Slot>,
    i8_slots: Vec<I8Slot>,
    i32_slots: Vec<I32Slot>,
    alloc_events: u64,
    frozen: bool,
}

#[derive(Debug)]
struct Slot {
    name: &'static str,
    buf: Vec<f32>,
    /// Largest capacity ever observed for this slot, in elements. The
    /// buffer itself is moved out while in use, so the high-water mark
    /// must be recorded here rather than read off `buf`.
    cap: usize,
}

#[derive(Debug)]
struct I8Slot {
    name: &'static str,
    buf: Vec<i8>,
    cap: usize,
}

#[derive(Debug)]
struct I32Slot {
    name: &'static str,
    buf: Vec<i32>,
    cap: usize,
}

impl Workspace {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the named buffer out of the arena, resized to `len`
    /// elements. Contents are unspecified (previous contents are
    /// preserved up to the common length — the conv backward pass relies
    /// on re-taking the column buffer its forward pass filled).
    ///
    /// Counts an allocation event when the slot is new or must grow; in a
    /// [frozen](Workspace::freeze) workspace growth additionally trips a
    /// debug assertion.
    pub fn take(&mut self, name: &'static str, len: usize) -> Vec<f32> {
        let idx = match self.slots.iter().position(|s| s.name == name) {
            Some(i) => i,
            None => {
                self.note_alloc(name, len);
                self.slots.push(Slot {
                    name,
                    buf: Vec::with_capacity(len),
                    cap: 0,
                });
                self.slots.len() - 1
            }
        };
        let mut buf = std::mem::take(&mut self.slots[idx].buf);
        if buf.capacity() < len {
            self.note_grow(name, buf.capacity(), len);
            buf.reserve(len - buf.len());
        }
        buf.resize(len, 0.0);
        self.slots[idx].cap = self.slots[idx].cap.max(buf.capacity());
        buf
    }

    /// Returns a buffer to the arena, normally one previously obtained
    /// from [`Workspace::take`]. A buffer whose slot does not exist is
    /// adopted (slot created, counted as an allocation event) — this is
    /// what lets a cloned layer, whose clone carried live cached buffers
    /// but a fresh workspace, donate them back on its first step.
    pub fn give(&mut self, name: &'static str, buf: Vec<f32>) {
        match self.slots.iter_mut().find(|s| s.name == name) {
            Some(slot) => {
                slot.cap = slot.cap.max(buf.capacity());
                slot.buf = buf;
            }
            None => {
                self.note_alloc(name, buf.capacity());
                let cap = buf.capacity();
                self.slots.push(Slot { name, buf, cap });
            }
        }
    }

    /// Takes the named i8 buffer out of the arena, resized to `len`
    /// elements; contents semantics and allocation accounting match
    /// [`Workspace::take`]. Used by the int8 inference path for quantized
    /// im2col matrices and GEMM packing panels.
    pub fn take_i8(&mut self, name: &'static str, len: usize) -> Vec<i8> {
        let idx = match self.i8_slots.iter().position(|s| s.name == name) {
            Some(i) => i,
            None => {
                self.note_alloc(name, len);
                self.i8_slots.push(I8Slot {
                    name,
                    buf: Vec::with_capacity(len),
                    cap: 0,
                });
                self.i8_slots.len() - 1
            }
        };
        let mut buf = std::mem::take(&mut self.i8_slots[idx].buf);
        if buf.capacity() < len {
            self.note_grow(name, buf.capacity(), len);
            buf.reserve(len - buf.len());
        }
        buf.resize(len, 0);
        self.i8_slots[idx].cap = self.i8_slots[idx].cap.max(buf.capacity());
        buf
    }

    /// Returns an i8 buffer to the arena; adoption semantics match
    /// [`Workspace::give`].
    pub fn give_i8(&mut self, name: &'static str, buf: Vec<i8>) {
        match self.i8_slots.iter_mut().find(|s| s.name == name) {
            Some(slot) => {
                slot.cap = slot.cap.max(buf.capacity());
                slot.buf = buf;
            }
            None => {
                self.note_alloc(name, buf.capacity());
                let cap = buf.capacity();
                self.i8_slots.push(I8Slot { name, buf, cap });
            }
        }
    }

    /// Takes the named i32 buffer out of the arena, resized to `len`
    /// elements; contents semantics and allocation accounting match
    /// [`Workspace::take`]. Used for the int8 GEMM's i32 accumulators.
    pub fn take_i32(&mut self, name: &'static str, len: usize) -> Vec<i32> {
        let idx = match self.i32_slots.iter().position(|s| s.name == name) {
            Some(i) => i,
            None => {
                self.note_alloc(name, len);
                self.i32_slots.push(I32Slot {
                    name,
                    buf: Vec::with_capacity(len),
                    cap: 0,
                });
                self.i32_slots.len() - 1
            }
        };
        let mut buf = std::mem::take(&mut self.i32_slots[idx].buf);
        if buf.capacity() < len {
            self.note_grow(name, buf.capacity(), len);
            buf.reserve(len - buf.len());
        }
        buf.resize(len, 0);
        self.i32_slots[idx].cap = self.i32_slots[idx].cap.max(buf.capacity());
        buf
    }

    /// Returns an i32 buffer to the arena; adoption semantics match
    /// [`Workspace::give`].
    pub fn give_i32(&mut self, name: &'static str, buf: Vec<i32>) {
        match self.i32_slots.iter_mut().find(|s| s.name == name) {
            Some(slot) => {
                slot.cap = slot.cap.max(buf.capacity());
                slot.buf = buf;
            }
            None => {
                self.note_alloc(name, buf.capacity());
                let cap = buf.capacity();
                self.i32_slots.push(I32Slot { name, buf, cap });
            }
        }
    }

    /// Number of allocation events (slot creations + capacity growths)
    /// since construction.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// High-water mark of the arena in bytes: the sum over all slots of
    /// the largest capacity each has ever reached. Buffers move out of the
    /// arena while in use, so this is tracked per slot rather than summed
    /// from resident buffers; it is what the profiler reports as scratch
    /// footprint.
    pub fn high_water_bytes(&self) -> usize {
        let f32s: usize = self.slots.iter().map(|s| s.cap).sum();
        let i8s: usize = self.i8_slots.iter().map(|s| s.cap).sum();
        let i32s: usize = self.i32_slots.iter().map(|s| s.cap).sum();
        f32s * std::mem::size_of::<f32>() + i8s + i32s * std::mem::size_of::<i32>()
    }

    /// Marks the workspace as warmed up: any further buffer growth trips
    /// a debug assertion (and is still counted), turning per-step
    /// allocation churn into a loud failure in tests.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Re-allows growth after [`Workspace::freeze`].
    pub fn thaw(&mut self) {
        self.frozen = false;
    }

    /// Whether the workspace is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    fn note_alloc(&mut self, name: &'static str, len: usize) {
        self.alloc_events += 1;
        debug_assert!(
            !self.frozen,
            "workspace frozen but slot '{name}' created ({len} elements)"
        );
    }

    fn note_grow(&mut self, name: &'static str, from: usize, to: usize) {
        self.alloc_events += 1;
        debug_assert!(
            !self.frozen,
            "workspace frozen but slot '{name}' grew {from} -> {to} elements"
        );
    }
}

/// A `Clone` that yields a fresh, empty workspace.
///
/// Workspaces hold scratch state only, so cloning a layer that owns one
/// must not duplicate megabytes of dead buffers; the clone warms up its
/// own arena on first use.
impl Clone for Workspace {
    fn clone(&self) -> Self {
        Self::new()
    }
}

thread_local! {
    static THREAD_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's shared scratch workspace.
///
/// The tensor-level convenience entry points ([`matmul`](crate::ops::matmul)
/// and friends, [`conv2d`](crate::ops::conv2d)) use this so repeated calls
/// reuse packing and column buffers without threading a workspace through
/// every signature. Do **not** call it reentrantly from inside `f` — the
/// kernel layer instead passes the already-borrowed workspace down
/// explicitly.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WS.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_roundtrip_preserves_contents() {
        let mut ws = Workspace::new();
        let mut a = ws.take("a", 4);
        a.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        ws.give("a", a);
        let a = ws.take("a", 4);
        assert_eq!(a, vec![1.0, 2.0, 3.0, 4.0]);
        ws.give("a", a);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let mut ws = Workspace::new();
        for name in ["x", "y"] {
            let b = ws.take(name, 256);
            ws.give(name, b);
        }
        let warmup = ws.alloc_events();
        ws.freeze();
        for _ in 0..10 {
            for name in ["x", "y"] {
                let b = ws.take(name, 256);
                ws.give(name, b);
            }
        }
        assert_eq!(ws.alloc_events(), warmup);
    }

    #[test]
    fn shrinking_then_regrowing_within_capacity_is_free() {
        let mut ws = Workspace::new();
        let b = ws.take("x", 512);
        ws.give("x", b);
        let events = ws.alloc_events();
        let b = ws.take("x", 64);
        ws.give("x", b);
        let b = ws.take("x", 512);
        ws.give("x", b);
        assert_eq!(ws.alloc_events(), events);
    }

    #[test]
    fn growth_counts_an_event() {
        let mut ws = Workspace::new();
        let b = ws.take("x", 16);
        ws.give("x", b);
        assert_eq!(ws.alloc_events(), 1);
        let b = ws.take("x", 1024);
        ws.give("x", b);
        assert_eq!(ws.alloc_events(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "workspace frozen")]
    fn frozen_growth_trips_debug_assertion() {
        let mut ws = Workspace::new();
        let b = ws.take("x", 8);
        ws.give("x", b);
        ws.freeze();
        let _ = ws.take("x", 8192);
    }

    #[test]
    fn give_adopts_unknown_buffers() {
        let mut ws = Workspace::new();
        ws.give("adopted", vec![1.0; 4]);
        assert_eq!(ws.alloc_events(), 1);
        let b = ws.take("adopted", 4);
        assert_eq!(b, vec![1.0; 4]);
        ws.give("adopted", b);
        assert_eq!(ws.alloc_events(), 1);
    }

    #[test]
    fn high_water_tracks_peak_capacity() {
        let mut ws = Workspace::new();
        assert_eq!(ws.high_water_bytes(), 0);
        let b = ws.take("x", 100);
        // Live buffers count even while taken out.
        assert!(ws.high_water_bytes() >= 100 * 4);
        ws.give("x", b);
        let b = ws.take("x", 10); // shrinking never lowers the mark
        ws.give("x", b);
        assert!(ws.high_water_bytes() >= 100 * 4);
        let q = ws.take_i8("q", 8);
        ws.give_i8("q", q);
        assert!(ws.high_water_bytes() >= 100 * 4 + 8);
    }

    #[test]
    fn i8_and_i32_slots_reuse_capacity() {
        let mut ws = Workspace::new();
        let mut q = ws.take_i8("q", 64);
        q[0] = -5;
        ws.give_i8("q", q);
        let a = ws.take_i32("acc", 32);
        ws.give_i32("acc", a);
        let events = ws.alloc_events();
        ws.freeze();
        let q = ws.take_i8("q", 64);
        assert_eq!(q[0], -5, "contents preserved up to common length");
        ws.give_i8("q", q);
        let a = ws.take_i32("acc", 32);
        ws.give_i32("acc", a);
        assert_eq!(ws.alloc_events(), events);
        ws.thaw();
        assert!(ws.high_water_bytes() >= 64 + 32 * 4);
    }

    #[test]
    fn clone_is_fresh() {
        let mut ws = Workspace::new();
        let b = ws.take("x", 1000);
        ws.give("x", b);
        let clone = ws.clone();
        assert_eq!(clone.alloc_events(), 0);
    }
}
