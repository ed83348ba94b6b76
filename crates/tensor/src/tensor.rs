//! The autograd layer: [`Tensor`] wraps an [`NdArray`] value in a node of a
//! dynamically recorded computation graph.
//!
//! Every differentiable operation (see [`crate::ops`]) produces a new tensor
//! holding a backward closure that maps the output gradient to gradients for
//! each parent. [`Tensor::backward`] walks the graph once in reverse
//! topological order, accumulating gradients into every reachable node that
//! requires them.
//!
//! Graph recording can be suspended with [`no_grad`], which makes evaluation
//! passes allocation-light: operations executed inside the closure produce
//! constant tensors with no parents.

use crate::ndarray::NdArray;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(1) };
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

fn next_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Runs `f` with gradient recording disabled, restoring the previous state
/// afterwards (also on panic). Nested calls are fine.
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    struct Guard(bool);
    impl Drop for Guard {
        fn drop(&mut self) {
            GRAD_ENABLED.with(|c| c.set(self.0));
        }
    }
    let prev = GRAD_ENABLED.with(|c| {
        let p = c.get();
        c.set(false);
        p
    });
    let _g = Guard(prev);
    f()
}

/// True when operations should record the computation graph.
pub(crate) fn grad_enabled() -> bool {
    GRAD_ENABLED.with(|c| c.get())
}

/// Backward closure: receives the gradient w.r.t. this node's output and
/// returns one optional gradient per parent (in parent order). `None` means
/// "no gradient flows to this parent" (e.g. integer-indexed operands).
type BackFn = Box<dyn Fn(&NdArray) -> Vec<Option<NdArray>>>;

pub(crate) struct Inner {
    id: u64,
    value: RefCell<NdArray>,
    version: Cell<u64>,
    grad: RefCell<Option<NdArray>>,
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward_fn: Option<BackFn>,
}

/// A node in the autograd graph. Cheap to clone (reference counted).
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<Inner>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.inner.value.borrow();
        write!(
            f,
            "Tensor(id={}, shape={:?}, requires_grad={})",
            self.inner.id,
            v.shape(),
            self.inner.requires_grad
        )
    }
}

impl Tensor {
    /// A trainable leaf: gradients accumulate here during [`backward`].
    ///
    /// [`backward`]: Tensor::backward
    pub fn param(value: NdArray) -> Self {
        Tensor {
            inner: Rc::new(Inner {
                id: next_id(),
                value: RefCell::new(value),
                version: Cell::new(0),
                grad: RefCell::new(None),
                requires_grad: true,
                parents: Vec::new(),
                backward_fn: None,
            }),
        }
    }

    /// A non-trainable leaf (inputs, masks, detached values).
    pub fn constant(value: NdArray) -> Self {
        Tensor {
            inner: Rc::new(Inner {
                id: next_id(),
                value: RefCell::new(value),
                version: Cell::new(0),
                grad: RefCell::new(None),
                requires_grad: false,
                parents: Vec::new(),
                backward_fn: None,
            }),
        }
    }

    /// Internal constructor used by every operation: if recording is enabled
    /// and any parent participates in the graph, the node keeps `parents` and
    /// `back`; otherwise it degenerates to a constant leaf.
    pub(crate) fn from_op(
        value: NdArray,
        parents: Vec<Tensor>,
        back: impl Fn(&NdArray) -> Vec<Option<NdArray>> + 'static,
    ) -> Self {
        let track = grad_enabled() && parents.iter().any(|p| p.inner.requires_grad);
        if !track {
            return Tensor::constant(value);
        }
        Tensor {
            inner: Rc::new(Inner {
                id: next_id(),
                value: RefCell::new(value),
                version: Cell::new(0),
                grad: RefCell::new(None),
                requires_grad: true,
                parents,
                backward_fn: Some(Box::new(back)),
            }),
        }
    }

    /// Unique id of this node (stable for the lifetime of the tensor).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Whether gradients accumulate into this node.
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// Borrows the value. Keep the borrow short: optimisers take a mutable
    /// borrow of parameter values during updates.
    pub fn value(&self) -> std::cell::Ref<'_, NdArray> {
        self.inner.value.borrow()
    }

    /// Clones the current value out of the node.
    pub fn value_clone(&self) -> NdArray {
        self.inner.value.borrow().clone()
    }

    /// Mutably borrows the value (used by optimisers on leaf parameters).
    /// The only path that mutates a value, so it bumps [`Tensor::version`].
    pub fn value_mut(&self) -> std::cell::RefMut<'_, NdArray> {
        self.inner.version.set(self.inner.version.get().wrapping_add(1));
        self.inner.value.borrow_mut()
    }

    /// How many times the value has been mutably borrowed (PyTorch's
    /// `_version`): equal versions mean an unchanged value, which is what
    /// caches derived from parameters key on.
    pub fn version(&self) -> u64 {
        self.inner.version.get()
    }

    /// `(rows, cols)` of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.value.borrow().shape()
    }

    /// Number of rows of the value.
    pub fn rows(&self) -> usize {
        self.shape().0
    }

    /// Number of columns of the value.
    pub fn cols(&self) -> usize {
        self.shape().1
    }

    /// Clones the accumulated gradient, if any.
    pub fn grad(&self) -> Option<NdArray> {
        self.inner.grad.borrow().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Returns a constant tensor sharing this node's current value but cut
    /// off from the graph.
    pub fn detach(&self) -> Tensor {
        Tensor::constant(self.value_clone())
    }

    fn accumulate_grad(&self, g: NdArray) {
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => existing.add_assign(&g),
            None => *slot = Some(g),
        }
    }

    /// Reverse-mode differentiation seeded with `∂out/∂out = 1` for every
    /// element (callers almost always invoke this on a `[1,1]` loss).
    /// Gradients accumulate into every `requires_grad` node reachable from
    /// `self`; call [`Tensor::zero_grad`] (or an optimiser's `zero_grad`)
    /// between steps.
    pub fn backward(&self) {
        let (r, c) = self.shape();
        self.backward_with(NdArray::full(r, c, 1.0));
    }

    /// Reverse-mode differentiation with an explicit seed gradient.
    pub fn backward_with(&self, seed: NdArray) {
        assert_eq!(seed.shape(), self.shape(), "backward seed shape mismatch");
        if !self.inner.requires_grad {
            return;
        }
        // Iterative post-order DFS to get a reverse topological order.
        let mut order: Vec<Tensor> = Vec::new();
        // BTreeSet, not HashSet: membership-only today, but the lint's
        // determinism rule bans hash-ordered collections on the gradient
        // path outright so an iteration can never sneak in.
        let mut visited: BTreeSet<u64> = BTreeSet::new();
        let mut stack: Vec<(Tensor, bool)> = vec![(self.clone(), false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                order.push(node);
                continue;
            }
            if !visited.insert(node.inner.id) {
                continue;
            }
            stack.push((node.clone(), true));
            for p in &node.inner.parents {
                if p.inner.requires_grad && !visited.contains(&p.inner.id) {
                    stack.push((p.clone(), false));
                }
            }
        }
        self.accumulate_grad(seed);
        for node in order.into_iter().rev() {
            let Some(back) = node.inner.backward_fn.as_ref() else {
                continue;
            };
            // Take (not clone) the grad of interior nodes: it is fully
            // consumed here and freeing it bounds peak memory.
            let grad = node.inner.grad.borrow_mut().take();
            let Some(grad) = grad else { continue };
            let parent_grads = back(&grad);
            debug_assert_eq!(parent_grads.len(), node.inner.parents.len());
            for (p, g) in node.inner.parents.iter().zip(parent_grads) {
                if let Some(g) = g {
                    if p.inner.requires_grad {
                        debug_assert_eq!(
                            g.shape(),
                            p.shape(),
                            "gradient shape mismatch for parent {}",
                            p.inner.id
                        );
                        p.accumulate_grad(g);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ops_do_not_build_graph() {
        let a = Tensor::constant(NdArray::scalar(2.0));
        let b = Tensor::constant(NdArray::scalar(3.0));
        let c = a.add(&b);
        assert!(!c.requires_grad());
        c.backward();
        assert!(a.grad().is_none());
    }

    #[test]
    fn no_grad_suppresses_recording() {
        let p = Tensor::param(NdArray::scalar(2.0));
        let out = no_grad(|| p.mul(&p));
        assert!(!out.requires_grad());
        assert_eq!(out.value().item(), 4.0);
    }

    #[test]
    fn no_grad_restores_on_nested_use() {
        assert!(grad_enabled());
        no_grad(|| {
            assert!(!grad_enabled());
            no_grad(|| assert!(!grad_enabled()));
            assert!(!grad_enabled());
        });
        assert!(grad_enabled());
    }

    #[test]
    fn gradient_accumulates_over_multiple_uses() {
        let p = Tensor::param(NdArray::scalar(3.0));
        // y = p + p -> dy/dp = 2
        let y = p.add(&p);
        y.backward();
        assert_eq!(p.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn diamond_graph_backward_is_correct() {
        // y = (p*p) + (p*p); dy/dp = 4p
        let p = Tensor::param(NdArray::scalar(5.0));
        let sq = p.mul(&p);
        let y = sq.add(&sq);
        y.backward();
        assert_eq!(p.grad().unwrap().item(), 20.0);
    }

    #[test]
    fn detach_blocks_gradient() {
        let p = Tensor::param(NdArray::scalar(2.0));
        let y = p.detach().mul(&p);
        y.backward();
        // d/dp of (c * p) with c = detached value 2 is 2, not 4.
        assert_eq!(p.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn value_mut_bumps_the_version() {
        let p = Tensor::param(NdArray::scalar(1.0));
        assert_eq!(p.version(), 0);
        let _ = p.value();
        let _ = p.mul(&p);
        assert_eq!(p.version(), 0, "reads must not bump the version");
        p.value_mut().as_mut_slice()[0] = 2.0;
        assert_eq!(p.version(), 1);
    }

    #[test]
    fn zero_grad_resets() {
        let p = Tensor::param(NdArray::scalar(1.0));
        let y = p.mul(&p);
        y.backward();
        assert!(p.grad().is_some());
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn backward_twice_accumulates_into_leaves() {
        let p = Tensor::param(NdArray::scalar(4.0));
        let y = p.mul(&p);
        y.backward();
        let y2 = p.mul(&p);
        y2.backward();
        assert_eq!(p.grad().unwrap().item(), 16.0);
    }
}
