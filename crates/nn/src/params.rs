//! Trainable-parameter storage shared across forward passes.
//!
//! A [`ParamStore`] owns parameter tensors plus their Adam moment buffers;
//! each forward pass reads values into a fresh [`crate::tape::Tape`] and the
//! optimizer applies the tape's collected gradients back here.

use crate::tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Identifier of a parameter within its store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

struct Entry {
    name: String,
    value: Tensor,
    /// Adam first-moment buffer.
    m: Tensor,
    /// Adam second-moment buffer.
    v: Tensor,
}

/// Owns every trainable tensor of a model.
pub struct ParamStore {
    entries: Vec<Entry>,
    rng: ChaCha8Rng,
}

impl ParamStore {
    /// Creates an empty store whose initializers draw from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            entries: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Registers a parameter with explicit initial value.
    pub fn register(&mut self, name: &str, value: Tensor) -> ParamId {
        let (r, c) = (value.rows, value.cols);
        self.entries.push(Entry {
            name: name.to_string(),
            value,
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
        });
        ParamId(self.entries.len() - 1)
    }

    /// Registers a Xavier-initialized `rows x cols` parameter.
    pub fn register_xavier(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        let t = Tensor::xavier(rows, cols, &mut self.rng);
        self.register(name, t)
    }

    /// Registers an all-zeros parameter (typical for biases).
    pub fn register_zeros(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.register(name, Tensor::zeros(rows, cols))
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable value access (e.g. for target-network copies).
    // audit:allow(MCPB017) the nn grad-check and eval-equivalence suites set parameters through it
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    /// Name the parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every parameter id.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// Copies every parameter value from `src` (shapes must match);
    /// used to sync DQN target networks.
    pub fn copy_values_from(&mut self, src: &ParamStore) {
        assert_eq!(self.entries.len(), src.entries.len(), "store size mismatch");
        for (dst, s) in self.entries.iter_mut().zip(&src.entries) {
            assert_eq!(
                (dst.value.rows, dst.value.cols),
                (s.value.rows, s.value.cols),
                "shape mismatch for {}",
                dst.name
            );
            dst.value = s.value.clone();
        }
    }

    /// Snapshots every parameter value (in id order) — pair with
    /// [`ParamStore::load_snapshot`] to keep the best checkpoint during
    /// training.
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.entries.iter().map(|e| e.value.clone()).collect()
    }

    /// Restores values from a snapshot taken on an identically-shaped store.
    pub fn load_snapshot(&mut self, snapshot: &[Tensor]) {
        assert_eq!(snapshot.len(), self.entries.len(), "snapshot size mismatch");
        for (e, s) in self.entries.iter_mut().zip(snapshot) {
            assert_eq!(
                (e.value.rows, e.value.cols),
                (s.rows, s.cols),
                "snapshot shape mismatch for {}",
                e.name
            );
            e.value = s.clone();
        }
    }

    pub(crate) fn adam_buffers(&mut self, id: ParamId) -> (&mut Tensor, &mut Tensor, &mut Tensor) {
        let e = &mut self.entries[id.0];
        (&mut e.value, &mut e.m, &mut e.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_read_back() {
        let mut s = ParamStore::new(0);
        let id = s.register("w", Tensor::scalar(1.5));
        assert_eq!(s.value(id).item(), 1.5);
        assert_eq!(s.name(id), "w");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn xavier_init_is_seeded() {
        let mut a = ParamStore::new(7);
        let mut b = ParamStore::new(7);
        let ia = a.register_xavier("w", 3, 3);
        let ib = b.register_xavier("w", 3, 3);
        assert_eq!(a.value(ia), b.value(ib));
        let mut c = ParamStore::new(8);
        let ic = c.register_xavier("w", 3, 3);
        assert_ne!(a.value(ia), c.value(ic));
    }

    #[test]
    fn copy_values_syncs_target_network() {
        let mut online = ParamStore::new(1);
        let w = online.register_xavier("w", 2, 2);
        let mut target = ParamStore::new(2);
        let tw = target.register_xavier("w", 2, 2);
        assert_ne!(online.value(w), target.value(tw));
        target.copy_values_from(&online);
        assert_eq!(online.value(w), target.value(tw));
    }

    #[test]
    fn ids_enumerate_all() {
        let mut s = ParamStore::new(0);
        s.register_zeros("a", 1, 2);
        s.register_zeros("b", 2, 1);
        assert_eq!(s.ids().count(), 2);
        assert!(!s.is_empty());
    }
}
