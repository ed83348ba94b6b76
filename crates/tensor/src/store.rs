//! A named registry of trainable parameters with crash-safe JSON
//! checkpointing.
//!
//! On-disk checkpoints are wrapped in the versioned, checksummed envelope
//! of [`hisres_util::fsio`] and written atomically (temp file + fsync +
//! rename), so a crash mid-save can never destroy the previous
//! checkpoint, and loading detects truncation, bit-flips and version
//! mismatches with the typed [`CheckpointError`] instead of panicking.

use crate::ndarray::NdArray;
use crate::tensor::Tensor;
use hisres_util::fsio::{self, EnvelopeError, FaultInjector};
use hisres_util::impl_json;
use hisres_util::json::{FromJson, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

/// Envelope kind tag for bare parameter-table checkpoints.
pub const PARAMS_KIND: &str = "params";

/// Typed checkpoint failure hierarchy: I/O, envelope-level corruption
/// (truncation / checksum / version), JSON-level malformation, and
/// parameter-level mismatches against the live model.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Envelope rejected the file (wrong magic/version/kind, truncated,
    /// checksum mismatch).
    Envelope(EnvelopeError),
    /// The payload is not the JSON shape a checkpoint promises.
    Malformed(String),
    /// A parameter registered in the model is absent from the checkpoint.
    MissingParam(String),
    /// A parameter exists but with a different shape than the model's.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape registered in the live model.
        model: (usize, usize),
        /// Shape stored in the checkpoint.
        checkpoint: (usize, usize),
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Envelope(e) => write!(f, "{e}"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::MissingParam(n) => {
                write!(f, "checkpoint missing parameter {n:?}")
            }
            CheckpointError::ShapeMismatch { name, model, checkpoint } => write!(
                f,
                "parameter {name:?} shape mismatch: model {model:?}, checkpoint {checkpoint:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Envelope(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<EnvelopeError> for CheckpointError {
    fn from(e: EnvelopeError) -> Self {
        CheckpointError::Envelope(e)
    }
}

/// Owns the trainable leaves of a model. Layers register their parameters
/// under hierarchical names (`"evo.compgcn0.w_rel"`), the optimiser walks
/// [`ParamStore::params`], and checkpoints round-trip through JSON.
#[derive(Default)]
pub struct ParamStore {
    entries: Vec<(String, Tensor)>,
}

struct Checkpoint {
    params: BTreeMap<String, SavedParam>,
}
impl_json!(Checkpoint { params });

struct SavedParam {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}
impl_json!(SavedParam { rows, cols, data });

/// One parameter's entry in the tensor table of a binary checkpoint: its
/// name and shape. The table lists the little-endian f32 sections that
/// follow it, in order ([`ParamStore::tensor_table`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TensorInfo {
    /// Parameter name.
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
}
impl_json!(TensorInfo { name, rows, cols });

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates, registers and returns a parameter tensor. Names must be
    /// unique within the store.
    pub fn param(&mut self, name: impl Into<String>, init: NdArray) -> Tensor {
        let name = name.into();
        assert!(
            !self.entries.iter().any(|(n, _)| *n == name),
            "duplicate parameter name {name:?}"
        );
        let t = Tensor::param(init);
        self.entries.push((name, t.clone()));
        t
    }

    /// All registered parameters, in registration order.
    pub fn params(&self) -> impl Iterator<Item = &Tensor> {
        self.entries.iter().map(|(_, t)| t)
    }

    /// `(name, tensor)` pairs, in registration order.
    pub fn named_params(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.value().len()).sum()
    }

    /// Clears the gradient of every parameter.
    pub fn zero_grad(&self) {
        for (_, t) in &self.entries {
            t.zero_grad();
        }
    }

    /// Serialises all parameter values to a JSON string.
    pub fn to_json(&self) -> String {
        let params = self
            .entries
            .iter()
            .map(|(n, t)| {
                let v = t.value();
                (
                    n.clone(),
                    SavedParam {
                        rows: v.rows(),
                        cols: v.cols(),
                        data: v.as_slice().to_vec(),
                    },
                )
            })
            .collect();
        hisres_util::json::to_string(&Checkpoint { params }).expect("checkpoint serialisation")
    }

    /// Sum of every parameter's [`Tensor::version`]. It grows whenever
    /// any value is mutated (optimiser steps, [`ParamStore::load_json`],
    /// [`ParamStore::import_flat`]), so an unchanged sum means unchanged
    /// parameters — the key of caches derived from them.
    pub fn version(&self) -> u64 {
        self.entries.iter().fold(0u64, |acc, (_, t)| acc.wrapping_add(t.version()))
    }

    /// Restores parameter values from [`ParamStore::to_json`] output.
    /// Every registered parameter must be present with a matching shape;
    /// extra entries in the checkpoint are ignored.
    pub fn load_json(&self, json: &str) -> Result<(), CheckpointError> {
        let v = hisres_util::json::parse(json)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        self.load_value(&v)
    }

    /// [`ParamStore::load_json`] from an already-parsed document, so a
    /// caller holding the parsed payload (a model checkpoint embeds the
    /// parameter table) need not serialise and re-parse it.
    pub fn load_value(&self, v: &Value) -> Result<(), CheckpointError> {
        let ckpt =
            Checkpoint::from_json(v).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        for (name, t) in &self.entries {
            let saved = ckpt
                .params
                .get(name)
                .ok_or_else(|| CheckpointError::MissingParam(name.clone()))?;
            let mut v = t.value_mut();
            if v.shape() != (saved.rows, saved.cols) {
                return Err(CheckpointError::ShapeMismatch {
                    name: name.clone(),
                    model: v.shape(),
                    checkpoint: (saved.rows, saved.cols),
                });
            }
            v.as_mut_slice().copy_from_slice(&saved.data);
        }
        Ok(())
    }

    /// Name and shape of every parameter, in registration order — the
    /// order of [`ParamStore::write_le`]'s sections.
    pub fn tensor_table(&self) -> Vec<TensorInfo> {
        self.entries
            .iter()
            .map(|(n, t)| {
                let (rows, cols) = t.shape();
                TensorInfo {
                    name: n.clone(),
                    rows,
                    cols,
                }
            })
            .collect()
    }

    /// Appends every parameter value to `out` as little-endian f32, one
    /// section per parameter in registration order. Bit-exact.
    pub fn write_le(&self, out: &mut Vec<u8>) {
        out.reserve(4 * self.num_scalars());
        for (_, t) in &self.entries {
            for v in t.value().as_slice() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// Restores parameter values from little-endian f32 `sections` laid
    /// out as `table` says ([`ParamStore::write_le`] output under its
    /// [`ParamStore::tensor_table`]). Like [`ParamStore::load_value`],
    /// every registered parameter must be present with a matching shape
    /// and extra entries are ignored; the sections must hold exactly the
    /// bytes the table promises.
    pub fn load_le(&self, table: &[TensorInfo], sections: &[u8]) -> Result<(), CheckpointError> {
        let mut at = BTreeMap::new();
        let mut offset = 0usize;
        for info in table {
            let bytes = info
                .rows
                .checked_mul(info.cols)
                .and_then(|n| n.checked_mul(4))
                .ok_or_else(|| {
                    CheckpointError::Malformed(format!("tensor {:?} too large", info.name))
                })?;
            at.insert(info.name.as_str(), (offset, info));
            offset = offset
                .checked_add(bytes)
                .ok_or_else(|| CheckpointError::Malformed("tensor table too large".into()))?;
        }
        if offset != sections.len() {
            return Err(CheckpointError::Malformed(format!(
                "tensor table promises {offset} bytes of sections, found {}",
                sections.len()
            )));
        }
        for (name, t) in &self.entries {
            let &(start, info) = at
                .get(name.as_str())
                .ok_or_else(|| CheckpointError::MissingParam(name.clone()))?;
            let mut v = t.value_mut();
            if v.shape() != (info.rows, info.cols) {
                return Err(CheckpointError::ShapeMismatch {
                    name: name.clone(),
                    model: v.shape(),
                    checkpoint: (info.rows, info.cols),
                });
            }
            let section = sections.get(start..start + 4 * v.len()).ok_or_else(|| {
                CheckpointError::Malformed(format!("section of {name:?} out of range"))
            })?;
            for (dst, b) in v.as_mut_slice().iter_mut().zip(section.chunks_exact(4)) {
                *dst = f32::from_le_bytes(b.try_into().unwrap_or_default());
            }
        }
        Ok(())
    }

    /// Flattens every parameter value into one vector, in registration
    /// order, bit-exact. Two models built from the same config register
    /// their parameters in the same order, so they share this layout.
    pub fn export_flat(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.num_scalars());
        for (_, t) in &self.entries {
            flat.extend_from_slice(t.value().as_slice());
        }
        flat
    }

    /// Restores parameter values from an [`ParamStore::export_flat`]
    /// vector. Fails with a typed error when the total length disagrees
    /// with the registered parameters.
    pub fn import_flat(&self, flat: &[f32]) -> Result<(), CheckpointError> {
        let expected = self.num_scalars();
        if flat.len() != expected {
            return Err(CheckpointError::Malformed(format!(
                "flat parameter vector has {} scalars, model expects {}",
                flat.len(),
                expected
            )));
        }
        let mut at = 0;
        for (_, t) in &self.entries {
            let mut v = t.value_mut();
            let n = v.len();
            v.as_mut_slice().copy_from_slice(&flat[at..at + n]);
            at += n;
        }
        Ok(())
    }

    /// Writes a checkpoint file atomically: versioned + checksummed
    /// envelope, temp file + fsync + rename. A crash mid-save leaves the
    /// previous file intact.
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.save_file_with(path, &FaultInjector::none())
    }

    /// [`ParamStore::save_file`] with scripted fault injection (tests).
    pub fn save_file_with(
        &self,
        path: impl AsRef<Path>,
        faults: &FaultInjector,
    ) -> Result<(), CheckpointError> {
        let sealed = fsio::seal(PARAMS_KIND, &self.to_json());
        fsio::atomic_write_with(path, sealed.as_bytes(), faults)?;
        Ok(())
    }

    /// Loads a checkpoint file, verifying the envelope (version, length,
    /// checksum) before touching any parameter.
    pub fn load_file(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let file = std::fs::read(path)?;
        let payload = fsio::open(&file, PARAMS_KIND)?;
        self.load_json(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisres_util::fsio::FaultMode;

    #[test]
    fn le_sections_round_trip_bit_exactly_and_are_checked() {
        let mut s = ParamStore::new();
        let odd = [
            f32::MIN_POSITIVE / 2.0,
            -0.0,
            f32::MAX,
            1.0e-7,
            -3.5,
            f32::NAN,
        ];
        s.param("a", NdArray::from_vec(odd.to_vec(), &[2, 3]));
        s.param("b", NdArray::from_vec(vec![0.25], &[1, 1]));
        let mut bytes = Vec::new();
        s.write_le(&mut bytes);
        let table = s.tensor_table();
        assert_eq!(bytes.len(), 4 * 7);

        let mut t = ParamStore::new();
        let a = t.param("a", NdArray::zeros(2, 3));
        let b = t.param("b", NdArray::zeros(1, 1));
        t.load_le(&table, &bytes).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.value().as_slice()), bits(&odd));
        assert_eq!(b.value().item(), 0.25);

        assert!(matches!(
            t.load_le(&table, &bytes[1..]),
            Err(CheckpointError::Malformed(_))
        ));
        let renamed = vec![
            TensorInfo {
                name: "c".into(),
                ..table[0].clone()
            },
            table[1].clone(),
        ];
        assert!(matches!(
            t.load_le(&renamed, &bytes),
            Err(CheckpointError::MissingParam(_))
        ));
        let reshaped = vec![
            TensorInfo {
                rows: 3,
                cols: 2,
                ..table[0].clone()
            },
            table[1].clone(),
        ];
        assert!(matches!(
            t.load_le(&reshaped, &bytes),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hisres_store_{tag}_{}", std::process::id()))
    }

    #[test]
    fn registers_and_counts() {
        let mut s = ParamStore::new();
        s.param("a", NdArray::zeros(2, 3));
        s.param("b", NdArray::zeros(1, 4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 10);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let mut s = ParamStore::new();
        s.param("a", NdArray::zeros(1, 1));
        s.param("a", NdArray::zeros(1, 1));
    }

    #[test]
    fn json_round_trip_restores_values() {
        let mut s = ParamStore::new();
        let w = s.param("w", NdArray::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let json = s.to_json();
        w.value_mut().as_mut_slice().fill(0.0);
        s.load_json(&json).unwrap();
        assert_eq!(w.value().as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let mut a = ParamStore::new();
        a.param("w", NdArray::zeros(2, 2));
        let json = a.to_json();
        let mut b = ParamStore::new();
        b.param("w", NdArray::zeros(2, 3));
        match b.load_json(&json) {
            Err(CheckpointError::ShapeMismatch { name, model, checkpoint }) => {
                assert_eq!(name, "w");
                assert_eq!(model, (2, 3));
                assert_eq!(checkpoint, (2, 2));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_missing_param() {
        let a = ParamStore::new();
        let json = a.to_json();
        let mut b = ParamStore::new();
        b.param("w", NdArray::zeros(1, 1));
        assert!(matches!(
            b.load_json(&json),
            Err(CheckpointError::MissingParam(n)) if n == "w"
        ));
    }

    #[test]
    fn file_round_trip_through_envelope() {
        let path = tmp_path("roundtrip");
        let mut s = ParamStore::new();
        let w = s.param("w", NdArray::from_vec(vec![0.5, -1.25], &[1, 2]));
        s.save_file(&path).unwrap();
        w.value_mut().as_mut_slice().fill(0.0);
        s.load_file(&path).unwrap();
        assert_eq!(w.value().as_slice(), &[0.5, -1.25]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let path = tmp_path("trunc");
        let mut s = ParamStore::new();
        s.param("w", NdArray::zeros(4, 4));
        s.save_file(&path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 10]).unwrap();
        assert!(matches!(
            s.load_file(&path),
            Err(CheckpointError::Envelope(EnvelopeError::Truncated { .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_byte_is_a_typed_error() {
        let path = tmp_path("flip");
        let mut s = ParamStore::new();
        s.param("w", NdArray::from_vec(vec![3.0], &[1, 1]));
        s.save_file(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01; // flip a bit inside the payload
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            s.load_file(&path),
            Err(CheckpointError::Envelope(EnvelopeError::ChecksumMismatch { .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_is_a_typed_error() {
        let path = tmp_path("version");
        let s = ParamStore::new();
        s.save_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap().replace(" v2 ", " v7 ");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            s.load_file(&path),
            Err(CheckpointError::Envelope(EnvelopeError::UnsupportedVersion {
                found: 7,
                ..
            }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crashed_save_leaves_previous_checkpoint_loadable() {
        let path = tmp_path("crashsave");
        let mut s = ParamStore::new();
        let w = s.param("w", NdArray::from_vec(vec![1.0], &[1, 1]));
        s.save_file(&path).unwrap();
        w.value_mut().as_mut_slice().fill(9.0);
        let inj = FaultInjector::fail_nth_write(0, FaultMode::TornWrite(20));
        assert!(s.save_file_with(&path, &inj).is_err());
        // the old checkpoint is still complete and loads the old value
        s.load_file(&path).unwrap();
        assert_eq!(w.value().as_slice(), &[1.0]);
        std::fs::remove_file(&path).ok();
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        std::fs::remove_file(path.with_file_name(format!(".{name}.tmp"))).ok();
    }

    #[test]
    fn flat_round_trip_is_bit_exact() {
        let mut s = ParamStore::new();
        let a = s.param("a", NdArray::from_vec(vec![1.5, -0.0, f32::MIN_POSITIVE], &[1, 3]));
        let b = s.param("b", NdArray::from_vec(vec![2.0, 4.0], &[2, 1]));
        let flat = s.export_flat();
        assert_eq!(flat.len(), 5);
        a.value_mut().as_mut_slice().fill(9.0);
        b.value_mut().as_mut_slice().fill(9.0);
        s.import_flat(&flat).unwrap();
        assert_eq!(a.value().as_slice()[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(b.value().as_slice(), &[2.0, 4.0]);
        assert!(matches!(
            s.import_flat(&flat[..4]),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn every_mutation_path_bumps_the_version() {
        use crate::optim::{Adam, Sgd};
        let mut s = ParamStore::new();
        let w = s.param("w", NdArray::from_vec(vec![1.0, -2.0], &[1, 2]));
        let json = s.to_json();
        let flat = s.export_flat();
        let mut seen = vec![s.version()];
        let mut bumped = |s: &ParamStore, path: &str| {
            let v = s.version();
            assert!(seen.iter().all(|&old| old != v), "{path} left the version at {v}");
            seen.push(v);
        };
        s.load_json(&json).unwrap();
        bumped(&s, "load_json");
        s.load_value(&hisres_util::json::parse(&json).unwrap()).unwrap();
        bumped(&s, "load_value");
        s.import_flat(&flat).unwrap();
        bumped(&s, "import_flat");
        let path = tmp_path("version_file");
        s.save_file(&path).unwrap();
        s.load_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bumped(&s, "load_file");
        w.mul(&w).backward();
        Adam::new(s.params().cloned().collect(), 0.1).step();
        bumped(&s, "Adam::step");
        w.mul(&w).backward();
        Sgd::new(s.params().cloned().collect(), 0.1).step();
        bumped(&s, "Sgd::step");
        // reads, serialisation and gradient bookkeeping leave it alone
        let before = s.version();
        let _ = (s.to_json(), s.export_flat(), s.num_scalars());
        s.zero_grad();
        assert_eq!(s.version(), before);
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut s = ParamStore::new();
        let w = s.param("w", NdArray::scalar(2.0));
        w.mul(&w).backward();
        assert!(w.grad().is_some());
        s.zero_grad();
        assert!(w.grad().is_none());
    }
}
