//! Binary model format and the layer registry.
//!
//! This is the "file that contains trained weights and biases" of the
//! paper's Fig. 4 pipeline. The format is self-describing:
//!
//! ```text
//! magic  "FFDL"            4 bytes
//! version u32              2 (f32 only) or 3 (quantized layers present)
//! n_layers u32
//! v3 only — quantization header:
//!   n_entries u32          one entry per quantized layer
//!   per entry:
//!     layer_index u32
//!     scheme u32           1 = symmetric fixed point, per-block scale
//!     bits u32             effective bits per level (8/12/16)
//!     n_scales u32, scales f32…
//!     n_levels u32, levels (1 byte each for int8, i16 LE otherwise)
//! per layer:
//!   tag      length-prefixed UTF-8 (e.g. "dense", "circulant_dense")
//!   config   length-prefixed blob  (layer-specific geometry)
//!   n_params u32
//!   params   tensors (rank, dims…, f32 data)
//! trailer  u64 little-endian FNV-1a digest of every preceding byte
//! ```
//!
//! Version 3 exists so quantized spectra travel as narrow integers: the
//! header carries each quantized layer's levels + block scales
//! (`wire::QuantPayload`), keeping those bytes out of the 4-byte-f32
//! tensor path. The writer only bumps to 3 when at least one layer
//! returns [`Layer::quant_payload`]; all-f32 networks keep producing
//! byte-identical version-2 files, and the loader accepts both.
//! Truncation inside the quantization header is a typed
//! [`NnError::ModelFormat`] naming the missing section (see
//! `wire::quant_section`), not a bare EOF.
//!
//! The trailer (since format version 2) makes corruption a *typed* error:
//! [`load_network`] hashes the stream as it parses and compares against
//! the stored digest, so a bit-flipped weight file fails with
//! [`NnError::ModelFormat`] naming the expected and actual digests
//! instead of silently loading garbage weights. This is the integrity
//! guarantee the model registry (`ffdl-registry`) builds on.
//!
//! Loading needs a [`LayerRegistry`] mapping tags to constructors, so
//! downstream crates (notably `ffdl-core`'s block-circulant layers) can
//! register their own layer types without this crate knowing about them.

use crate::activation::{Relu, Sigmoid, Tanh};
use crate::conv::conv2d_from_config;
use crate::dense::dense_from_config;
use crate::error::NnError;
use crate::flatten::flatten_from_config;
use crate::layer::Layer;
use crate::network::Network;
use crate::pool::maxpool2d_from_config;
use crate::softmax::softmax_from_config;
use crate::wire;
use std::collections::HashMap;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"FFDL";
/// Written for all-f32 networks (and the floor the loader accepts).
const VERSION: u32 = 2;
/// Written when at least one layer carries a quantization payload.
const VERSION_QUANT: u32 = 3;

/// Constructor signature stored in the registry: builds an un-parameterized
/// layer from its config blob (parameters are loaded separately).
pub type LayerBuilder = fn(&[u8]) -> Result<Box<dyn Layer>, NnError>;

/// Maps layer type tags to constructors for model loading.
pub struct LayerRegistry {
    builders: HashMap<String, LayerBuilder>,
}

impl LayerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            builders: HashMap::new(),
        }
    }

    /// A registry pre-populated with every layer type this crate defines
    /// (`dense`, `conv2d`, `relu`, `sigmoid`, `tanh`, `maxpool2d`,
    /// `flatten`, `softmax`).
    pub fn with_builtin_layers() -> Self {
        let mut r = Self::new();
        r.register("dense", dense_from_config);
        r.register("conv2d", conv2d_from_config);
        r.register("maxpool2d", maxpool2d_from_config);
        r.register("flatten", flatten_from_config);
        r.register("softmax", softmax_from_config);
        r.register("relu", |_| Ok(Box::new(Relu::new())));
        r.register("sigmoid", |_| Ok(Box::new(Sigmoid::new())));
        r.register("tanh", |_| Ok(Box::new(Tanh::new())));
        r
    }

    /// Registers (or replaces) a builder for a tag.
    pub fn register(&mut self, tag: &str, builder: LayerBuilder) {
        self.builders.insert(tag.to_string(), builder);
    }

    /// Looks up a builder.
    pub fn builder(&self, tag: &str) -> Option<LayerBuilder> {
        self.builders.get(tag).copied()
    }

    /// Number of registered tags.
    pub fn len(&self) -> usize {
        self.builders.len()
    }

    /// `true` when no tags are registered.
    pub fn is_empty(&self) -> bool {
        self.builders.is_empty()
    }
}

impl Default for LayerRegistry {
    fn default() -> Self {
        Self::with_builtin_layers()
    }
}

/// Writes a network (architecture + parameters) to `writer`.
///
/// A `&mut` reference can be passed for `writer`.
///
/// The payload is streamed through an FNV-1a hasher and an 8-byte
/// little-endian digest trailer is appended, so [`load_network`] can
/// detect corruption without a second pass.
///
/// # Errors
///
/// Returns [`NnError::Io`] on write failure.
pub fn save_network<W: Write>(network: &Network, writer: W) -> Result<(), NnError> {
    let quant: Vec<(u32, wire::QuantPayload)> = network
        .layers()
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.quant_payload().map(|p| (i as u32, p)))
        .collect();
    let mut writer = wire::Fnv1aWriter::new(writer);
    writer.write_all(MAGIC)?;
    let version = if quant.is_empty() {
        VERSION
    } else {
        VERSION_QUANT
    };
    wire::write_u32(&mut writer, version)?;
    wire::write_u32(&mut writer, network.len() as u32)?;
    if version == VERSION_QUANT {
        wire::write_u32(&mut writer, quant.len() as u32)?;
        for (layer_index, payload) in &quant {
            wire::write_quant_entry(&mut writer, *layer_index, payload)?;
        }
    }
    for layer in network.layers() {
        wire::write_string(&mut writer, layer.type_tag())?;
        let config = layer.config_bytes();
        wire::write_u32(&mut writer, config.len() as u32)?;
        writer.write_all(&config)?;
        let params = layer.param_tensors();
        wire::write_u32(&mut writer, params.len() as u32)?;
        for p in params {
            wire::write_tensor(&mut writer, p)?;
        }
    }
    let digest = writer.digest();
    writer.into_inner().write_all(&digest.to_le_bytes())?;
    Ok(())
}

/// Reads a network written by [`save_network`], resolving layer types
/// through `registry`.
///
/// A `&mut` reference can be passed for `reader`.
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`] on a bad magic/version/structure, a
/// quantized layer the quantization header has no entry for (naming its
/// index and tag), or a checksum-trailer mismatch (naming the expected
/// and actual FNV-1a digests), [`NnError::UnknownLayerTag`] for
/// unregistered layers, and [`NnError::Io`] on truncated input.
pub fn load_network<R: Read>(reader: R, registry: &LayerRegistry) -> Result<Network, NnError> {
    let mut reader = wire::Fnv1aReader::new(reader);
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(NnError::ModelFormat(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let version = wire::read_u32(&mut reader)?;
    if version != VERSION && version != VERSION_QUANT {
        return Err(NnError::ModelFormat(format!(
            "unsupported version {version}, expected {VERSION} or {VERSION_QUANT}"
        )));
    }
    let n_layers = wire::read_u32(&mut reader)? as usize;
    if n_layers > 10_000 {
        return Err(NnError::ModelFormat(format!(
            "layer count {n_layers} exceeds sanity bound"
        )));
    }
    let mut quant: Vec<(u32, wire::QuantPayload)> = Vec::new();
    if version == VERSION_QUANT {
        let n_entries = wire::quant_section(wire::read_u32(&mut reader), "entry count")? as usize;
        if n_entries > n_layers {
            return Err(NnError::ModelFormat(format!(
                "quantization header claims {n_entries} entries for {n_layers} layers"
            )));
        }
        for _ in 0..n_entries {
            let (layer_index, payload) = wire::read_quant_entry(&mut reader)?;
            if layer_index as usize >= n_layers {
                return Err(NnError::ModelFormat(format!(
                    "quantization entry targets layer {layer_index} of {n_layers}"
                )));
            }
            if quant.iter().any(|(i, _)| *i == layer_index) {
                return Err(NnError::ModelFormat(format!(
                    "duplicate quantization entry for layer {layer_index}"
                )));
            }
            quant.push((layer_index, payload));
        }
    }
    let mut network = Network::new();
    for layer_index in 0..n_layers {
        let tag = wire::read_string(&mut reader)?;
        let config_len = wire::read_u32(&mut reader)? as usize;
        if config_len > 1 << 20 {
            return Err(NnError::ModelFormat(format!(
                "config blob of {config_len} bytes exceeds sanity bound"
            )));
        }
        let mut config = vec![0u8; config_len];
        reader.read_exact(&mut config)?;
        let n_params = wire::read_u32(&mut reader)? as usize;
        if n_params > 64 {
            return Err(NnError::ModelFormat(format!(
                "parameter count {n_params} exceeds sanity bound"
            )));
        }
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            params.push(wire::read_tensor(&mut reader)?);
        }
        let builder = registry
            .builder(&tag)
            .ok_or_else(|| NnError::UnknownLayerTag(tag.clone()))?;
        let mut layer = builder(&config)?;
        layer.load_params(&params)?;
        match quant.iter().find(|(i, _)| *i as usize == layer_index) {
            Some((_, payload)) => layer.load_quant_payload(payload)?,
            // Its config builder's placeholder levels must not be served.
            None if layer.quant_payload().is_some() => {
                return Err(NnError::ModelFormat(format!(
                    "layer {layer_index} ({tag}) is quantized but has no quantization entry"
                )))
            }
            None => {}
        }
        network.push_boxed(layer);
    }
    let actual = reader.digest();
    let mut trailer = [0u8; 8];
    reader.into_inner().read_exact(&mut trailer)?;
    let expected = u64::from_le_bytes(trailer);
    if expected != actual {
        return Err(NnError::ModelFormat(format!(
            "checksum mismatch: trailer expects fnv1a {expected:016x}, payload hashes to {actual:016x}"
        )));
    }
    Ok(network)
}

/// Clones a network for serving, layer by layer through
/// [`copy_layer`]: for built-in layers O(layers) pointer bumps with no
/// serialization. The clone starts with empty forward caches and is
/// safe to run on another thread — this is how the serving runtime
/// gives each worker its own copy of the model.
///
/// # Errors
///
/// Those of [`copy_layer`].
pub fn clone_network(network: &Network, registry: &LayerRegistry) -> Result<Network, NnError> {
    let mut clone = Network::new();
    for layer in network.layers() {
        clone.push_boxed(copy_layer(layer.as_ref(), registry)?);
    }
    Ok(clone)
}

/// Copies one layer — the routine under every network rewrite
/// ([`clone_network`], the spectral freeze, the quantizer): the
/// [`Layer::clone_layer`] fast path when the layer has one — a
/// structural clone whose parameter tensors *share* the original's
/// buffers (copy-on-write, so a later parameter write on either side
/// detaches a private copy) — else a wire round trip (tag + config +
/// parameters) through `registry`.
///
/// # Errors
///
/// Returns [`NnError::UnknownLayerTag`] when a layer without a fast
/// path is not in `registry`, and propagates format errors (which
/// indicate a bug in a layer's `config_bytes`/`load_params` pair rather
/// than a user input condition).
pub fn copy_layer(layer: &dyn Layer, registry: &LayerRegistry) -> Result<Box<dyn Layer>, NnError> {
    if let Some(copied) = layer.clone_layer() {
        return Ok(copied);
    }
    let builder = registry
        .builder(layer.type_tag())
        .ok_or_else(|| NnError::UnknownLayerTag(layer.type_tag().to_string()))?;
    let mut rebuilt = builder(&layer.config_bytes())?;
    let params: Vec<_> = layer.param_tensors().into_iter().cloned().collect();
    rebuilt.load_params(&params)?;
    Ok(rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use crate::flatten::Flatten;
    use crate::pool::MaxPool2d;
    use crate::scratch::Scratch;
    use crate::softmax::Softmax;
    use ffdl_tensor::{ConvGeometry, Tensor};
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;
    use std::io::Cursor;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    fn roundtrip(net: &Network) -> Network {
        let mut buf = Vec::new();
        save_network(net, &mut buf).unwrap();
        load_network(Cursor::new(buf), &LayerRegistry::with_builtin_layers()).unwrap()
    }

    #[test]
    fn dense_network_roundtrip_preserves_outputs() {
        let mut rng = rng();
        let mut net = Network::new();
        net.push(Dense::new(6, 10, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(10, 3, &mut rng));
        net.push(Softmax::new());

        let mut loaded = roundtrip(&net);
        let x = Tensor::from_fn(&[2, 6], |i| (i as f32 * 0.37).sin());
        let y1 = net.forward(&x).unwrap();
        let y2 = loaded.forward(&x).unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice());
        assert_eq!(loaded.param_count(), net.param_count());
    }

    #[test]
    fn conv_network_roundtrip() {
        let mut rng = rng();
        let mut net = Network::new();
        net.push(Conv2d::new(1, 4, 8, 8, ConvGeometry::valid(3), &mut rng).unwrap());
        net.push(Relu::new());
        net.push(MaxPool2d::new(2));
        net.push(Flatten::new());
        net.push(Dense::new(4 * 3 * 3, 2, &mut rng));

        let mut loaded = roundtrip(&net);
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i % 7) as f32 * 0.1);
        let y1 = net.forward(&x).unwrap();
        let y2 = loaded.forward(&x).unwrap();
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00".to_vec();
        let err = load_network(Cursor::new(buf), &LayerRegistry::default()).unwrap_err();
        assert!(matches!(err, NnError::ModelFormat(_)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        wire::write_u32(&mut buf, 999).unwrap();
        wire::write_u32(&mut buf, 0).unwrap();
        assert!(matches!(
            load_network(Cursor::new(buf), &LayerRegistry::default()),
            Err(NnError::ModelFormat(_))
        ));
    }

    #[test]
    fn unknown_tag_is_reported() {
        let mut net = Network::new();
        net.push(Relu::new());
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        let empty = LayerRegistry::new();
        assert!(matches!(
            load_network(Cursor::new(buf), &empty),
            Err(NnError::UnknownLayerTag(tag)) if tag == "relu"
        ));
    }

    #[test]
    fn truncated_file_is_io_error() {
        let mut net = Network::new();
        net.push(Dense::new(4, 4, &mut rng()));
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(matches!(
            load_network(Cursor::new(buf), &LayerRegistry::default()),
            Err(NnError::Io(_))
        ));
    }

    #[test]
    fn bit_flip_corruption_is_a_named_checksum_mismatch() {
        let mut net = Network::new();
        net.push(Dense::new(4, 4, &mut rng()));
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();

        // Flip one bit in the middle of the weight payload (past the
        // header, before the trailer) — the classic silent-garbage case.
        let victim = buf.len() / 2;
        buf[victim] ^= 0x10;
        let err =
            load_network(Cursor::new(&buf), &LayerRegistry::with_builtin_layers()).unwrap_err();
        match err {
            NnError::ModelFormat(msg) => {
                assert!(msg.contains("checksum mismatch"), "{msg}");
                // Both digests are named so operators can compare files.
                assert!(msg.contains("fnv1a"), "{msg}");
            }
            other => panic!("expected ModelFormat, got {other:?}"),
        }

        // Flipping a trailer bit is caught the same way.
        buf[victim] ^= 0x10; // restore payload
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(
            load_network(Cursor::new(&buf), &LayerRegistry::with_builtin_layers()),
            Err(NnError::ModelFormat(_))
        ));

        // And the pristine file still loads.
        buf[last] ^= 0x01;
        assert!(load_network(Cursor::new(&buf), &LayerRegistry::with_builtin_layers()).is_ok());
    }

    /// Minimal quantized layer exercising the v3 path without the core
    /// crate's spectral machinery: a bias through the tensor path, the
    /// levels + scales through the quantization header.
    struct QuantStub {
        bias: Tensor,
        payload: wire::QuantPayload,
    }

    impl QuantStub {
        fn example() -> Self {
            Self {
                bias: Tensor::from_fn(&[4], |i| i as f32 * 0.5 - 1.0),
                payload: wire::QuantPayload {
                    scheme: wire::QUANT_SCHEME_SYMMETRIC,
                    bits: 16,
                    scales: vec![0.5, 0.25],
                    levels: (-8..8).map(|l| l * 100).collect(),
                },
            }
        }

        fn empty() -> Self {
            Self {
                bias: Tensor::zeros(&[4]),
                payload: wire::QuantPayload {
                    scheme: wire::QUANT_SCHEME_SYMMETRIC,
                    bits: 16,
                    scales: Vec::new(),
                    levels: Vec::new(),
                },
            }
        }
    }

    impl Layer for QuantStub {
        fn type_tag(&self) -> &'static str {
            "test_quant_stub"
        }
        fn forward_with(&mut self, input: &Tensor, _: &mut Scratch, _: bool) -> Result<Tensor, NnError> {
            Ok(input.clone())
        }
        fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
            Ok(grad.clone())
        }
        fn param_tensors(&self) -> Vec<&Tensor> {
            vec![&self.bias]
        }
        fn load_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
            self.bias = params[0].clone();
            Ok(())
        }
        fn quant_payload(&self) -> Option<wire::QuantPayload> {
            Some(self.payload.clone())
        }
        fn load_quant_payload(&mut self, payload: &wire::QuantPayload) -> Result<(), NnError> {
            self.payload = payload.clone();
            Ok(())
        }
    }

    fn quant_registry() -> LayerRegistry {
        let mut r = LayerRegistry::with_builtin_layers();
        r.register("test_quant_stub", |_| Ok(Box::new(QuantStub::empty())));
        r
    }

    fn quant_net() -> Network {
        let mut net = Network::new();
        net.push(Dense::new(4, 4, &mut rng()));
        net.push(QuantStub::example());
        net
    }

    #[test]
    fn all_f32_networks_still_write_version_2() {
        let mut net = Network::new();
        net.push(Dense::new(4, 4, &mut rng()));
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        assert_eq!(buf[4], 2, "f32-only model must stay version 2");
    }

    #[test]
    fn v3_roundtrip_restores_quant_payload() {
        let net = quant_net();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        assert_eq!(buf[4], 3, "quantized layer must bump the version");

        let loaded = load_network(Cursor::new(&buf), &quant_registry()).unwrap();
        assert_eq!(loaded.len(), 2);
        let want = QuantStub::example();
        assert_eq!(
            loaded.layers()[1].quant_payload().unwrap(),
            want.payload,
            "levels + scales survive the round trip"
        );
        assert_eq!(
            loaded.layers()[1].param_tensors()[0].as_slice(),
            want.bias.as_slice()
        );
    }

    #[test]
    fn truncated_v3_quant_header_names_missing_section() {
        let net = quant_net();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        // magic(4) version(4) n_layers(4) | n_entries(4) | layer_index(4)
        // scheme(4) bits(4) n_scales(4) scales… — cut inside each.
        for (keep, section) in [(14, "entry count"), (18, "layer index"), (34, "scales")] {
            let cut = buf[..keep].to_vec();
            match load_network(Cursor::new(cut), &quant_registry()) {
                Err(NnError::ModelFormat(msg)) => assert!(
                    msg.contains("truncated v3 quantization header") && msg.contains(section),
                    "cut at {keep}: {msg}"
                ),
                other => panic!("cut at {keep}: expected ModelFormat, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_in_v3_scales_is_a_named_checksum_mismatch() {
        let net = quant_net();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        // First scale starts after magic(4) version(4) n_layers(4)
        // n_entries(4) layer_index(4) scheme(4) bits(4) n_scales(4) = 32.
        // A flipped scale bit still parses as a valid f32, so only the
        // trailer can catch it — the v2 guarantee must extend to the
        // quantization header bytes.
        buf[33] ^= 0x40;
        match load_network(Cursor::new(&buf), &quant_registry()) {
            Err(NnError::ModelFormat(msg)) => {
                assert!(msg.contains("checksum mismatch"), "{msg}");
                assert!(msg.contains("fnv1a"), "{msg}");
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // Restored, the file loads again.
        buf[33] ^= 0x40;
        assert!(load_network(Cursor::new(&buf), &quant_registry()).is_ok());
    }

    #[test]
    fn quant_entry_for_f32_layer_is_rejected() {
        // Hand-craft a v3 file whose single entry targets a dense layer.
        let mut net = Network::new();
        net.push(Dense::new(2, 2, &mut rng()));
        let mut v2 = Vec::new();
        save_network(&net, &mut v2).unwrap();

        let mut buf = Vec::new();
        let mut w = wire::Fnv1aWriter::new(&mut buf);
        w.write_all(MAGIC).unwrap();
        wire::write_u32(&mut w, 3).unwrap();
        wire::write_u32(&mut w, 1).unwrap(); // n_layers
        wire::write_u32(&mut w, 1).unwrap(); // n_entries
        wire::write_quant_entry(
            &mut w,
            0,
            &wire::QuantPayload {
                scheme: wire::QUANT_SCHEME_SYMMETRIC,
                bits: 16,
                scales: vec![1.0],
                levels: vec![1, 2],
            },
        )
        .unwrap();
        // Layer body: copy the dense layer's body bytes from the v2 file
        // (skip magic+version+n_layers, drop the trailer).
        w.write_all(&v2[12..v2.len() - 8]).unwrap();
        let digest = w.digest();
        let _ = w.into_inner();
        buf.extend_from_slice(&digest.to_le_bytes());

        match load_network(Cursor::new(buf), &LayerRegistry::with_builtin_layers()) {
            Err(NnError::ModelFormat(msg)) => {
                assert!(msg.contains("does not accept a quantization payload"), "{msg}")
            }
            other => panic!("expected ModelFormat, got {other:?}"),
        }
    }

    #[test]
    fn missing_trailer_is_io_error() {
        let net = Network::new();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        buf.truncate(buf.len() - 8); // drop the whole trailer
        assert!(matches!(
            load_network(Cursor::new(buf), &LayerRegistry::default()),
            Err(NnError::Io(_))
        ));
    }

    #[test]
    fn clone_network_is_independent_and_identical() {
        let mut rng = rng();
        let mut net = Network::new();
        net.push(Dense::new(5, 7, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(7, 3, &mut rng));

        let mut cloned = clone_network(&net, &LayerRegistry::with_builtin_layers()).unwrap();
        assert!(cloned.layers()[0].param_tensors()[0]
            .shares_buffer(net.layers()[0].param_tensors()[0]));
        let x = Tensor::from_fn(&[3, 5], |i| (i as f32 * 0.21).cos());
        let y1 = net.forward(&x).unwrap();
        let y2 = cloned.forward(&x).unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice());

        // Mutating the clone's parameters must not touch the original
        // (copy-on-write detaches the shared buffers on first write).
        for p in cloned.parameters() {
            p.value.map_inplace(|v| v + 1.0);
        }
        let y3 = net.forward(&x).unwrap();
        assert_eq!(y1.as_slice(), y3.as_slice());

        // Built-in layers clone structurally, so even an empty registry
        // suffices for them.
        assert!(clone_network(&net, &LayerRegistry::new()).is_ok());
    }

    /// A layer without a `clone_layer` fast path: `clone_network` must
    /// fall back to the wire round-trip and fail typed when the
    /// registry cannot rebuild the tag.
    #[test]
    fn clone_network_falls_back_to_registry_for_foreign_layers() {
        struct Foreign;
        impl Layer for Foreign {
            fn type_tag(&self) -> &'static str {
                "test_foreign"
            }
            fn forward_with(
                &mut self,
                input: &Tensor,
                _: &mut Scratch,
                _: bool,
            ) -> Result<Tensor, NnError> {
                Ok(input.clone())
            }
            fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
                Ok(grad.clone())
            }
        }
        let mut net = Network::new();
        net.push(Foreign);
        assert!(matches!(
            clone_network(&net, &LayerRegistry::with_builtin_layers()),
            Err(NnError::UnknownLayerTag(tag)) if tag == "test_foreign"
        ));
        let mut registry = LayerRegistry::with_builtin_layers();
        registry.register("test_foreign", |_| Ok(Box::new(Foreign)));
        let cloned = clone_network(&net, &registry).unwrap();
        assert_eq!(cloned.layers()[0].type_tag(), "test_foreign");
    }

    #[test]
    fn registry_basics() {
        let r = LayerRegistry::with_builtin_layers();
        assert!(r.builder("dense").is_some());
        assert!(r.builder("nope").is_none());
        assert_eq!(r.len(), 8);
        assert!(r.builder("avgpool2d").is_none());
        assert!(!r.is_empty());
        assert!(LayerRegistry::new().is_empty());
    }

    #[test]
    fn empty_network_roundtrip() {
        let net = Network::new();
        let loaded = roundtrip(&net);
        assert!(loaded.is_empty());
    }
}
