//! Binary model serialization — the FINISH phase's "leader worker outputs
//! the trained model".
//!
//! A compact, versioned little-endian format with no external codec
//! dependencies: header (magic, version, loss, η, M, T) followed by each
//! tree's full node array (one tagged 13-byte record per slot). Loading
//! validates structure via [`Tree::check_consistency`], so a corrupted file
//! cannot produce a silently-broken model.

use std::io::{Read, Write};
use std::path::Path;

use bytes::{BufMut, Bytes, BytesMut};

use crate::config::LossKind;
use crate::cursor::{Cursor, ReadError};
use crate::model::GbdtModel;
use crate::tree::{Node, Tree};

const MAGIC: &[u8; 8] = b"DIMBGBDT";
const VERSION: u32 = 1;

/// Errors from model (de)serialization.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the model magic.
    BadMagic,
    /// The format version is newer than this library understands.
    UnsupportedVersion(u32),
    /// Structurally invalid content.
    Corrupt(String),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "I/O error: {e}"),
            ModelIoError::BadMagic => write!(f, "not a DimBoost model file (bad magic)"),
            ModelIoError::UnsupportedVersion(v) => write!(f, "unsupported model version {v}"),
            ModelIoError::Corrupt(msg) => write!(f, "corrupt model file: {msg}"),
        }
    }
}

impl std::error::Error for ModelIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

impl From<ReadError> for ModelIoError {
    fn from(e: ReadError) -> Self {
        ModelIoError::Corrupt(e.to_string())
    }
}

/// Loss encoding: a tag byte plus a class-count word (1 for scalar losses).
/// Shared with the checkpoint format.
pub(crate) fn loss_tag(kind: LossKind) -> (u8, u32) {
    match kind {
        LossKind::Logistic => (0, 1),
        LossKind::Square => (1, 1),
        LossKind::Softmax { classes } => (2, classes),
    }
}

pub(crate) fn loss_from_tag(tag: u8, classes: u32) -> Result<LossKind, ModelIoError> {
    match tag {
        0 => Ok(LossKind::Logistic),
        1 => Ok(LossKind::Square),
        2 if classes >= 2 => Ok(LossKind::Softmax { classes }),
        2 => Err(ModelIoError::Corrupt(format!(
            "softmax with {classes} classes"
        ))),
        t => Err(ModelIoError::Corrupt(format!("unknown loss tag {t}"))),
    }
}

/// Serializes a model to bytes.
pub fn model_to_bytes(model: &GbdtModel) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        40 + model
            .trees()
            .iter()
            .map(|t| 8 + t.capacity() * 13)
            .sum::<usize>(),
    );
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    let (tag, classes) = loss_tag(model.loss());
    buf.put_u8(tag);
    buf.put_u32_le(classes);
    buf.put_f32_le(model.learning_rate());
    buf.put_u64_le(model.num_features() as u64);
    buf.put_u32_le(model.num_trees() as u32);
    for tree in model.trees() {
        buf.put_u32_le(tree.max_depth() as u32);
        buf.put_u32_le(tree.capacity() as u32);
        for node in tree.nodes() {
            match *node {
                Node::Unused => {
                    buf.put_u8(0);
                    buf.put_u32_le(0);
                    buf.put_f32_le(0.0);
                    buf.put_f32_le(0.0);
                }
                Node::Internal {
                    feature,
                    threshold,
                    gain,
                    default_left,
                } => {
                    buf.put_u8(if default_left { 3 } else { 1 });
                    buf.put_u32_le(feature);
                    buf.put_f32_le(threshold);
                    buf.put_f32_le(gain);
                }
                Node::Leaf { weight } => {
                    buf.put_u8(2);
                    buf.put_u32_le(0);
                    buf.put_f32_le(weight);
                    buf.put_f32_le(0.0);
                }
            }
        }
    }
    buf.freeze()
}

/// Deserializes a model from bytes, validating structure.
pub fn model_from_bytes(bytes: Bytes) -> Result<GbdtModel, ModelIoError> {
    read_model(&mut Cursor::new(&bytes))
}

/// Reads one model off `c` (a model file, or the blob a checkpoint embeds).
pub(crate) fn read_model(c: &mut Cursor<'_>) -> Result<GbdtModel, ModelIoError> {
    if c.take(8)? != MAGIC {
        return Err(ModelIoError::BadMagic);
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(ModelIoError::UnsupportedVersion(version));
    }
    let tag = c.u8()?;
    let classes = c.u32()?;
    let loss = loss_from_tag(tag, classes)?;
    let learning_rate = c.f32()?;
    if !learning_rate.is_finite() || learning_rate <= 0.0 {
        return Err(ModelIoError::Corrupt(format!(
            "bad learning rate {learning_rate}"
        )));
    }
    let num_features = c.u64()? as usize;
    // A tree is at least its two header words; a node is 13 bytes.
    let num_trees = c.count(Cursor::u32, "tree", 8)?;

    let mut trees = Vec::with_capacity(num_trees);
    for t in 0..num_trees {
        let max_depth = c.u32()? as usize;
        if max_depth > 30 {
            return Err(ModelIoError::Corrupt(format!(
                "tree {t}: depth {max_depth} too large"
            )));
        }
        let capacity = c.count(Cursor::u32, "node", 13)?;
        let mut nodes = Vec::with_capacity(capacity);
        for i in 0..capacity {
            let tag = c.u8()?;
            let feature = c.u32()?;
            let value = c.f32()?;
            let gain = c.f32()?;
            nodes.push(match tag {
                0 => Node::Unused,
                1 | 3 => {
                    if num_features > 0 && feature as usize >= num_features {
                        return Err(ModelIoError::Corrupt(format!(
                            "tree {t} node {i}: feature {feature} out of {num_features}"
                        )));
                    }
                    Node::Internal {
                        feature,
                        threshold: value,
                        gain,
                        default_left: tag == 3,
                    }
                }
                2 => Node::Leaf { weight: value },
                t => return Err(ModelIoError::Corrupt(format!("unknown node tag {t}"))),
            });
        }
        let tree = Tree::from_nodes(nodes, max_depth)
            .map_err(|e| ModelIoError::Corrupt(format!("tree {t}: {e}")))?;
        trees.push(tree);
    }
    Ok(GbdtModel::new(trees, learning_rate, loss, num_features))
}

/// Writes a model to any writer.
pub fn save_model<W: Write>(model: &GbdtModel, mut writer: W) -> Result<(), ModelIoError> {
    writer.write_all(&model_to_bytes(model))?;
    Ok(())
}

/// Reads a model from any reader.
pub fn load_model<R: Read>(mut reader: R) -> Result<GbdtModel, ModelIoError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    model_from_bytes(Bytes::from(buf))
}

/// Writes a model to a file.
pub fn save_model_file<P: AsRef<Path>>(model: &GbdtModel, path: P) -> Result<(), ModelIoError> {
    save_model(model, std::fs::File::create(path)?)
}

/// Reads a model from a file.
pub fn load_model_file<P: AsRef<Path>>(path: P) -> Result<GbdtModel, ModelIoError> {
    load_model(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_single_machine;
    use crate::GbdtConfig;
    use dimboost_data::synthetic::{generate, SparseGenConfig};

    fn trained_model() -> GbdtModel {
        let ds = generate(&SparseGenConfig::new(500, 60, 8, 7));
        let cfg = GbdtConfig {
            num_trees: 3,
            max_depth: 3,
            ..GbdtConfig::default()
        };
        train_single_machine(&ds, &cfg).unwrap()
    }

    #[test]
    fn roundtrip_preserves_model_exactly() {
        let model = trained_model();
        let bytes = model_to_bytes(&model);
        let back = model_from_bytes(bytes).unwrap();
        assert_eq!(model, back);
        // Predictions identical too.
        let ds = generate(&SparseGenConfig::new(100, 60, 8, 9));
        assert_eq!(model.predict_dataset(&ds), back.predict_dataset(&ds));
    }

    #[test]
    fn file_roundtrip() {
        let model = trained_model();
        let path = std::env::temp_dir().join("dimboost_model_io_test.bin");
        save_model_file(&model, &path).unwrap();
        let back = load_model_file(&path).unwrap();
        assert_eq!(model, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multiclass_roundtrip() {
        use dimboost_data::synthetic::LabelKind;
        let cfg_data = SparseGenConfig::new(600, 50, 8, 3)
            .with_label_kind(LabelKind::Multiclass { classes: 3 });
        let ds = generate(&cfg_data);
        let cfg = GbdtConfig {
            num_trees: 2,
            max_depth: 3,
            loss: crate::LossKind::Softmax { classes: 3 },
            ..GbdtConfig::default()
        };
        let model = train_single_machine(&ds, &cfg).unwrap();
        assert_eq!(model.num_trees(), 6);
        let back = model_from_bytes(model_to_bytes(&model)).unwrap();
        assert_eq!(model, back);
        assert_eq!(back.num_classes(), 3);
        assert_eq!(back.predict_dataset(&ds), model.predict_dataset(&ds));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = model_from_bytes(Bytes::from_static(b"NOTMODELextra...")).unwrap_err();
        assert!(matches!(err, ModelIoError::BadMagic));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = model_to_bytes(&trained_model());
        for cut in [4usize, 12, 20, 30, bytes.len() - 1] {
            let err = model_from_bytes(bytes.slice(0..cut)).unwrap_err();
            assert!(
                matches!(err, ModelIoError::Corrupt(_) | ModelIoError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn rejects_future_version() {
        let mut raw = model_to_bytes(&trained_model()).to_vec();
        raw[8] = 99; // version LE byte
        let err = model_from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, ModelIoError::UnsupportedVersion(99)));
    }

    #[test]
    fn rejects_out_of_range_feature() {
        let mut raw = model_to_bytes(&trained_model()).to_vec();
        // Find the first internal node record and blow up its feature id.
        // Header = 8 magic + 4 ver + 1 tag + 4 classes + 4 lr + 8 M + 4 T
        // = 33 bytes, then per tree 8 bytes + records.
        let mut off = 33 + 8;
        loop {
            if raw[off] == 1 || raw[off] == 3 {
                raw[off + 1..off + 5].copy_from_slice(&u32::MAX.to_le_bytes());
                break;
            }
            off += 13;
        }
        let err = model_from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, ModelIoError::Corrupt(_)), "{err}");
    }

    #[test]
    fn rejects_structural_corruption() {
        let mut raw = model_to_bytes(&trained_model()).to_vec();
        // Turn the root of tree 0 into Unused: consistency check must fire.
        raw[33 + 8] = 0;
        let err = model_from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, ModelIoError::Corrupt(_)), "{err}");
    }

    #[test]
    fn error_display_and_source() {
        let e = ModelIoError::Corrupt("boom".into());
        assert!(e.to_string().contains("boom"));
        let io = ModelIoError::from(std::io::Error::other("x"));
        assert!(std::error::Error::source(&io).is_some());
    }
}
