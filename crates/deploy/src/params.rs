//! The parameters parser — Fig. 4's second module ("reads a file that
//! contains trained weights and biases").
//!
//! The parameters file is a flat sequence of tensors, applied in order to
//! the layers of an architecture-parser-built network. This matches the
//! paper's separation of concerns: the architecture file describes the
//! topology, the parameters file carries only numbers.
//!
//! Format: magic `FFDP`, version u32, tensor count u32, then tensors in
//! the `ffdl_nn::wire` encoding. The format has no section for
//! fixed-point levels ([`Layer::quant_payload`](ffdl_nn::Layer::quant_payload)):
//! a network holding a quantized layer is refused in both directions —
//! it ships through [`ffdl_nn::save_network`].

use crate::error::DeployError;
use ffdl_nn::{wire, Network};
use ffdl_tensor::Tensor;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"FFDP";
const VERSION: u32 = 1;

/// The parameters file carries tensors only: refuses a network whose
/// weights live (partly) in a quantization payload, which the file
/// would silently drop on write and leave in place on read.
fn refuse_quantized(network: &Network) -> Result<(), DeployError> {
    for (index, layer) in network.layers().iter().enumerate() {
        if layer.quant_payload().is_some() {
            return Err(DeployError::ParamsMismatch(format!(
                "layer {index} ({}) keeps fixed-point levels, which a parameters file cannot \
                 carry; ship the network with save_network",
                layer.type_tag()
            )));
        }
    }
    Ok(())
}

/// Writes every parameter tensor of `network` (in layer order).
///
/// A `&mut` reference can be passed for `writer`.
///
/// # Errors
///
/// Returns [`DeployError::ParamsMismatch`] for a network holding a
/// quantized layer, and [`DeployError::Io`] on write failure.
pub fn write_parameters<W: Write>(network: &Network, mut writer: W) -> Result<(), DeployError> {
    refuse_quantized(network)?;
    let tensors: Vec<&Tensor> = network
        .layers()
        .iter()
        .flat_map(|l| l.param_tensors())
        .collect();
    writer.write_all(MAGIC)?;
    wire::write_u32(&mut writer, VERSION).map_err(nn_to_deploy)?;
    wire::write_u32(&mut writer, tensors.len() as u32).map_err(nn_to_deploy)?;
    for t in tensors {
        wire::write_tensor(&mut writer, t).map_err(nn_to_deploy)?;
    }
    Ok(())
}

fn nn_to_deploy(e: ffdl_nn::NnError) -> DeployError {
    match e {
        ffdl_nn::NnError::Io(io) => DeployError::Io(io),
        other => DeployError::Nn(other),
    }
}

/// Reads a parameters file and loads the tensors into `network`'s layers
/// in order.
///
/// A `&mut` reference can be passed for `reader`.
///
/// # Errors
///
/// Returns [`DeployError::ParamsMismatch`] when the tensor count or any
/// shape disagrees with the network or the network holds a quantized
/// layer, and [`DeployError::Io`] on truncated input.
pub fn read_parameters_into<R: Read>(
    network: &mut Network,
    mut reader: R,
) -> Result<(), DeployError> {
    refuse_quantized(network)?;
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(DeployError::ParamsMismatch(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let version = wire::read_u32(&mut reader).map_err(nn_to_deploy)?;
    if version != VERSION {
        return Err(DeployError::ParamsMismatch(format!(
            "unsupported version {version}"
        )));
    }
    let count = wire::read_u32(&mut reader).map_err(nn_to_deploy)? as usize;
    if count > 100_000 {
        return Err(DeployError::ParamsMismatch(format!(
            "tensor count {count} exceeds sanity bound"
        )));
    }
    let mut tensors = Vec::with_capacity(count);
    for _ in 0..count {
        tensors.push(wire::read_tensor(&mut reader).map_err(nn_to_deploy)?);
    }

    // Distribute to layers in order, each taking as many tensors as it
    // exposes.
    let mut cursor = 0usize;
    for layer in network.layers_mut() {
        let need = layer.param_tensors().len();
        if cursor + need > tensors.len() {
            return Err(DeployError::ParamsMismatch(format!(
                "file has {} tensors but the network needs more (layer {} wants {need} at offset {cursor})",
                tensors.len(),
                layer.type_tag()
            )));
        }
        layer
            .load_params(&tensors[cursor..cursor + need])
            .map_err(|e| DeployError::ParamsMismatch(e.to_string()))?;
        cursor += need;
    }
    if cursor != tensors.len() {
        return Err(DeployError::ParamsMismatch(format!(
            "file has {} tensors but the network consumed only {cursor}",
            tensors.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::parse_architecture;
    use std::io::Cursor;

    const ARCH: &str = "\
input 16
circulant_fc 8 block=4
relu
fc 4
softmax
";

    #[test]
    fn roundtrip_preserves_behaviour() {
        let mut trained = parse_architecture(ARCH, 42).unwrap().network;
        let mut buf = Vec::new();
        write_parameters(&trained, &mut buf).unwrap();

        // Fresh network with different random init must differ, then match
        // after loading.
        let mut fresh = parse_architecture(ARCH, 999).unwrap().network;
        let x = ffdl_tensor::Tensor::from_fn(&[2, 16], |i| (i as f32 * 0.31).sin());
        let y_trained = trained.forward(&x).unwrap();
        let y_fresh = fresh.forward(&x).unwrap();
        assert_ne!(y_trained.as_slice(), y_fresh.as_slice());

        read_parameters_into(&mut fresh, Cursor::new(buf)).unwrap();
        let y_loaded = fresh.forward(&x).unwrap();
        for (a, b) in y_loaded.as_slice().iter().zip(y_trained.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// The two deployable forms of a block-circulant layer. The
    /// fixed-point one keeps its levels in `quant_payload`, which the
    /// file has no section for, so both directions refuse it instead of
    /// dropping (write) or keeping stale (read) weights; the frozen one
    /// is all tensors and round-trips.
    #[test]
    fn quantized_form_is_refused_and_frozen_form_roundtrips() {
        use ffdl_core::{BlockCirculantMatrix, QuantBits, QuantizedSpectralDense, SpectralDense};
        use ffdl_rng::{rngs::SmallRng, SeedableRng};
        let matrix = |seed| {
            BlockCirculantMatrix::random(16, 8, 4, &mut SmallRng::seed_from_u64(seed)).unwrap()
        };
        let bias = |seed: u64| Tensor::from_fn(&[8], |i| (i as f32 + seed as f32) * 0.1);

        let quantized = |seed| {
            let mut net = Network::new();
            net.push(ffdl_nn::Relu::new());
            let (weights, bits) = (matrix(seed), QuantBits::Eight);
            net.push(QuantizedSpectralDense::from_matrix(&weights, bias(seed), bits));
            net
        };
        let refused = |result: Result<(), DeployError>| match result {
            Err(DeployError::ParamsMismatch(msg)) => {
                assert!(msg.contains("layer 1"), "{msg}");
                assert!(msg.contains("quantized_spectral_dense"), "{msg}");
                assert!(msg.contains("save_network"), "{msg}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        };
        refused(write_parameters(&quantized(1), Vec::new()));
        // All a quantized layer would have written is "no tensors": a
        // file of none must not pass for the weights of another one.
        let mut no_tensors = Vec::new();
        write_parameters(&Network::new(), &mut no_tensors).unwrap();
        refused(read_parameters_into(&mut quantized(2), &no_tensors[..]));

        let frozen = |seed| {
            let mut net = Network::new();
            net.push(SpectralDense::from_matrix(&matrix(seed), bias(seed)));
            net
        };
        let (mut shipped, mut device) = (frozen(1), frozen(2));
        let mut file = Vec::new();
        write_parameters(&shipped, &mut file).unwrap();
        read_parameters_into(&mut device, &file[..]).unwrap();
        let x = Tensor::from_fn(&[2, 16], |i| (i as f32 * 0.31).sin());
        assert_eq!(
            device.forward(&x).unwrap().as_slice(),
            shipped.forward(&x).unwrap().as_slice()
        );
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut net = parse_architecture(ARCH, 0).unwrap().network;
        assert!(matches!(
            read_parameters_into(&mut net, Cursor::new(b"XXXX".to_vec())),
            Err(DeployError::Io(_)) | Err(DeployError::ParamsMismatch(_))
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(b"FFDP");
        buf.extend_from_slice(&9u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_parameters_into(&mut net, Cursor::new(buf)),
            Err(DeployError::ParamsMismatch(_))
        ));
    }

    #[test]
    fn rejects_wrong_network() {
        let trained = parse_architecture(ARCH, 1).unwrap().network;
        let mut buf = Vec::new();
        write_parameters(&trained, &mut buf).unwrap();

        // Different topology: too few tensors consumed / shape mismatch.
        let other = "input 16\nfc 8\nrelu\nfc 4\nsoftmax\n";
        let mut net = parse_architecture(other, 0).unwrap().network;
        assert!(matches!(
            read_parameters_into(&mut net, Cursor::new(buf.clone())),
            Err(DeployError::ParamsMismatch(_))
        ));

        // Network needing more tensors than the file provides.
        let bigger = "input 16\ncirculant_fc 8 block=4\nrelu\nfc 8\nrelu\nfc 4\n";
        let mut net = parse_architecture(bigger, 0).unwrap().network;
        assert!(matches!(
            read_parameters_into(&mut net, Cursor::new(buf)),
            Err(DeployError::ParamsMismatch(_))
        ));
    }

    #[test]
    fn leftover_tensors_detected() {
        let trained = parse_architecture(ARCH, 1).unwrap().network;
        let mut buf = Vec::new();
        write_parameters(&trained, &mut buf).unwrap();
        let smaller = "input 16\ncirculant_fc 8 block=4\nsoftmax\n";
        let mut net = parse_architecture(smaller, 0).unwrap().network;
        assert!(matches!(
            read_parameters_into(&mut net, Cursor::new(buf)),
            Err(DeployError::ParamsMismatch(_))
        ));
    }

    #[test]
    fn truncated_file_is_io_error() {
        let trained = parse_architecture(ARCH, 1).unwrap().network;
        let mut buf = Vec::new();
        write_parameters(&trained, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        let mut net = parse_architecture(ARCH, 0).unwrap().network;
        assert!(matches!(
            read_parameters_into(&mut net, Cursor::new(buf)),
            Err(DeployError::Io(_))
        ));
    }
}
