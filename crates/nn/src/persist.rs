//! Versioned binary persistence for [`Sequential`] networks.
//!
//! # Layout (`BNSQ`, version 1)
//!
//! ```text
//! magic        4 bytes   b"BNSQ"
//! version      u16 LE
//! layer_count  u64 LE
//! layers       layer_count × (tag u8 + tag-specific body)
//! ```
//!
//! Per-layer bodies (tensors use the `BNTR` record of
//! [`blurnet_tensor::persist`]):
//!
//! | tag | layer | body |
//! |---|---|---|
//! | 1 | [`Conv2d`] | stride u64, padding u64, weight, bias |
//! | 2 | [`DepthwiseConv2d`] | stride u64, padding u64, trainable u8, weight, bias |
//! | 3 | [`Relu`] | — |
//! | 4 | [`MaxPool2d`] | window u64, stride u64 |
//! | 5 | [`Flatten`] | — |
//! | 6 | [`Dense`] | weight, bias |
//!
//! Parameters are a layer's whole state — gradient accumulators and
//! backward records live with the caller of each pass, never in a layer —
//! so the `from_parts` constructors rebuild exactly the trained network and
//! save→load→infer is **bit-identical** to inferring with the original.

use blurnet_tensor::persist::{put_u64, read_tensor, write_tensor, ByteReader};
use blurnet_tensor::{ConvSpec, TensorError};

use crate::{
    Conv2d, Dense, DepthwiseConv2d, Flatten, LayerKind, MaxPool2d, NnError, Relu, Result,
    Sequential,
};

/// Magic bytes opening a serialized [`Sequential`].
pub const SEQUENTIAL_MAGIC: [u8; 4] = *b"BNSQ";
/// Newest network format version this build reads and writes.
pub const SEQUENTIAL_VERSION: u16 = 1;

const TAG_CONV: u8 = 1;
const TAG_DEPTHWISE: u8 = 2;
const TAG_RELU: u8 = 3;
const TAG_MAX_POOL: u8 = 4;
const TAG_FLATTEN: u8 = 5;
const TAG_DENSE: u8 = 6;

/// Appends the binary form of `net` to `buf` (embeddable inside larger
/// containers — [`sequential_to_bytes`] is the standalone form).
pub fn write_sequential(buf: &mut Vec<u8>, net: &Sequential) {
    buf.extend_from_slice(&SEQUENTIAL_MAGIC);
    buf.extend_from_slice(&SEQUENTIAL_VERSION.to_le_bytes());
    put_u64(buf, net.len() as u64);
    for layer in net.iter() {
        match layer {
            LayerKind::Conv2d(conv) => {
                buf.push(TAG_CONV);
                put_u64(buf, conv.spec().stride as u64);
                put_u64(buf, conv.spec().padding as u64);
                write_tensor(buf, conv.weight());
                write_tensor(buf, conv.bias());
            }
            LayerKind::Depthwise(dw) => {
                buf.push(TAG_DEPTHWISE);
                put_u64(buf, dw.spec().stride as u64);
                put_u64(buf, dw.spec().padding as u64);
                buf.push(dw.is_trainable() as u8);
                write_tensor(buf, dw.weight());
                write_tensor(buf, dw.bias());
            }
            LayerKind::Relu(_) => buf.push(TAG_RELU),
            LayerKind::MaxPool(pool) => {
                buf.push(TAG_MAX_POOL);
                put_u64(buf, pool.spec().window as u64);
                put_u64(buf, pool.spec().stride as u64);
            }
            LayerKind::Flatten(_) => buf.push(TAG_FLATTEN),
            LayerKind::Dense(dense) => {
                buf.push(TAG_DENSE);
                write_tensor(buf, dense.weight());
                write_tensor(buf, dense.bias());
            }
        }
    }
}

/// Reads one serialized [`Sequential`] from `reader` (the inverse of
/// [`write_sequential`]; the reader may hold further embedded records).
///
/// # Errors
///
/// Returns [`NnError::Serialization`] wrapping the typed tensor persist
/// errors, an unknown layer tag, or invalid reassembled layer shapes.
pub fn read_sequential(reader: &mut ByteReader<'_>) -> Result<Sequential> {
    let fail = |e: TensorError| NnError::Serialization(e.to_string());
    reader.expect_magic(SEQUENTIAL_MAGIC).map_err(fail)?;
    reader.expect_version(SEQUENTIAL_VERSION).map_err(fail)?;
    let count = reader.usize_le().map_err(fail)?;
    let mut net = Sequential::new();
    for _ in 0..count {
        let tag = reader.u8().map_err(fail)?;
        match tag {
            TAG_CONV => {
                let spec = read_conv_spec(reader)?;
                let weight = read_tensor(reader).map_err(fail)?;
                let bias = read_tensor(reader).map_err(fail)?;
                net.push(Conv2d::from_parts(weight, bias, spec)?);
            }
            TAG_DEPTHWISE => {
                let spec = read_conv_spec(reader)?;
                let trainable = reader.u8().map_err(fail)? != 0;
                let weight = read_tensor(reader).map_err(fail)?;
                let bias = read_tensor(reader).map_err(fail)?;
                net.push(DepthwiseConv2d::from_parts(weight, bias, spec, trainable)?);
            }
            TAG_RELU => {
                net.push(Relu::new());
            }
            TAG_MAX_POOL => {
                let window = reader.usize_le().map_err(fail)?;
                let stride = reader.usize_le().map_err(fail)?;
                net.push(MaxPool2d::new(window, stride)?);
            }
            TAG_FLATTEN => {
                net.push(Flatten::new());
            }
            TAG_DENSE => {
                let weight = read_tensor(reader).map_err(fail)?;
                let bias = read_tensor(reader).map_err(fail)?;
                net.push(Dense::from_parts(weight, bias)?);
            }
            other => {
                return Err(NnError::Serialization(format!(
                    "unknown layer tag {other} in persisted network"
                )))
            }
        }
    }
    Ok(net)
}

fn read_conv_spec(reader: &mut ByteReader<'_>) -> Result<ConvSpec> {
    let fail = |e: TensorError| NnError::Serialization(e.to_string());
    let stride = reader.usize_le().map_err(fail)?;
    let padding = reader.usize_le().map_err(fail)?;
    ConvSpec::new(stride, padding).map_err(|e| NnError::Serialization(e.to_string()))
}

/// Serializes a network as a standalone binary record.
pub fn sequential_to_bytes(net: &Sequential) -> Vec<u8> {
    let mut buf = Vec::new();
    write_sequential(&mut buf, net);
    buf
}

/// Deserializes a standalone network record, rejecting trailing bytes.
///
/// # Errors
///
/// Returns [`NnError::Serialization`] for every malformed-input case (see
/// [`read_sequential`]).
pub fn sequential_from_bytes(bytes: &[u8]) -> Result<Sequential> {
    let mut reader = ByteReader::new(bytes);
    let net = read_sequential(&mut reader)?;
    reader
        .finish()
        .map_err(|e| NnError::Serialization(e.to_string()))?;
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LisaCnn;
    use blurnet_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn nets() -> Vec<Sequential> {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        vec![
            LisaCnn::new(18)
                .input_size(16)
                .conv1_filters(4)
                .build(&mut rng)
                .unwrap(),
            LisaCnn::new(18)
                .input_size(16)
                .conv1_filters(4)
                .with_fixed_blur(Tensor::full(&[3, 3], 1.0 / 9.0))
                .build(&mut rng)
                .unwrap(),
            LisaCnn::new(18)
                .input_size(16)
                .conv1_filters(4)
                .with_trainable_depthwise(5)
                .build(&mut rng)
                .unwrap(),
        ]
    }

    #[test]
    fn roundtrip_preserves_inference_bitwise() {
        let batch =
            Tensor::rand_uniform(&[3, 3, 16, 16], 0.0, 1.0, &mut ChaCha8Rng::seed_from_u64(2));
        for net in nets() {
            let restored = sequential_from_bytes(&sequential_to_bytes(&net)).unwrap();
            assert_eq!(restored.len(), net.len());
            let a = net.forward_batch(&batch).unwrap();
            let b = restored.forward_batch(&batch).unwrap();
            assert_eq!(a, b, "save→load→infer diverged");
            // Double roundtrip produces identical bytes (canonical form).
            assert_eq!(sequential_to_bytes(&net), sequential_to_bytes(&restored));
        }
    }

    #[test]
    fn unknown_tags_and_truncation_are_rejected() {
        let bytes = sequential_to_bytes(&nets()[0]);
        let mut bad_tag = bytes.clone();
        // First tag byte sits right after magic(4) + version(2) + count(8).
        bad_tag[14] = 0xEE;
        assert!(matches!(
            sequential_from_bytes(&bad_tag),
            Err(NnError::Serialization(_))
        ));
        assert!(matches!(
            sequential_from_bytes(&bytes[..bytes.len() / 2]),
            Err(NnError::Serialization(_))
        ));
    }
}
