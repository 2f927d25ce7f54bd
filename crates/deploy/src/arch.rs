//! The architecture parser — the first module of the paper's Fig. 4
//! pipeline ("responsible for constructing the network architecture").
//!
//! Grammar (one directive per line; `#` starts a comment):
//!
//! ```text
//! input 256                 # flat input,  or:  input 3x32x32
//! circulant_fc 128 block=64
//! circulant_gru 128 block=64      # recurrent cell (sequence semantics)
//! relu
//! fc 10
//! softmax
//! conv 64 kernel=3 [stride=1] [pad=0]
//! circulant_conv 128 kernel=3 block=27 [stride=1] [pad=0]
//! maxpool 2 [stride=k]
//! flatten
//! relu | sigmoid | tanh | softmax
//! ```
//!
//! The parser tracks the activation shape line by line, so CONV layers
//! know their spatial extents and `fc` after an image shape auto-inserts
//! a `flatten`.

use crate::error::DeployError;
use ffdl_core::{CirculantConv2d, CirculantDense, CirculantGru};
use ffdl_nn::{Conv2d, Dense, Flatten, MaxPool2d, Network, Relu, Sigmoid, Softmax, Tanh};
use ffdl_tensor::ConvGeometry;
use ffdl_rng::rngs::SmallRng;
use ffdl_rng::SeedableRng;
use std::collections::HashMap;

/// Activation shape flowing through the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Flat feature vector of the given width.
    Flat(usize),
    /// Image of `(channels, height, width)`.
    Image(usize, usize, usize),
}

impl Shape {
    /// Flattened element count.
    pub fn elements(&self) -> usize {
        match *self {
            Shape::Flat(n) => n,
            Shape::Image(c, h, w) => c * h * w,
        }
    }
}

/// A parsed network plus its interface shapes.
#[derive(Debug)]
pub struct ParsedNetwork {
    /// The constructed (randomly initialized) network.
    pub network: Network,
    /// Input shape declared by the `input` directive.
    pub input_shape: Shape,
    /// Output shape after the last layer.
    pub output_shape: Shape,
}

fn syntax(line: usize, message: impl Into<String>) -> DeployError {
    DeployError::ArchSyntax {
        line,
        message: message.into(),
    }
}

fn parse_usize(line: usize, tok: &str, what: &str) -> Result<usize, DeployError> {
    tok.parse::<usize>()
        .map_err(|_| syntax(line, format!("{what} must be an integer, got {tok:?}")))
}

/// Parses `key=value` options after positional tokens.
fn parse_options(
    line: usize,
    toks: &[&str],
    allowed: &[&str],
) -> Result<HashMap<String, usize>, DeployError> {
    let mut out = HashMap::new();
    for tok in toks {
        let (key, value) = tok
            .split_once('=')
            .ok_or_else(|| syntax(line, format!("expected key=value, got {tok:?}")))?;
        if !allowed.contains(&key) {
            return Err(syntax(
                line,
                format!("unknown option {key:?} (allowed: {allowed:?})"),
            ));
        }
        let v = parse_usize(line, value, key)?;
        if out.insert(key.to_string(), v).is_some() {
            return Err(syntax(line, format!("duplicate option {key:?}")));
        }
    }
    Ok(out)
}

fn parse_input_shape(line: usize, tok: &str) -> Result<Shape, DeployError> {
    let parts: Vec<&str> = tok.split('x').collect();
    match parts.len() {
        1 => Ok(Shape::Flat(parse_usize(line, parts[0], "input width")?)),
        3 => Ok(Shape::Image(
            parse_usize(line, parts[0], "channels")?,
            parse_usize(line, parts[1], "height")?,
            parse_usize(line, parts[2], "width")?,
        )),
        _ => Err(syntax(
            line,
            format!("input shape must be N or CxHxW, got {tok:?}"),
        )),
    }
}

/// Parses an architecture description into a randomly-initialized
/// [`Network`] (weights are then typically replaced by the parameters
/// parser).
///
/// # Errors
///
/// Returns [`DeployError::ArchSyntax`] with a line number for any
/// grammar or shape-flow violation.
pub fn parse_architecture(text: &str, seed: u64) -> Result<ParsedNetwork, DeployError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut network = Network::new();
    let mut shape: Option<Shape> = None;
    let mut input_shape: Option<Shape> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let toks: Vec<&str> = content.split_whitespace().collect();
        let keyword = toks[0];

        if keyword == "input" {
            if input_shape.is_some() {
                return Err(syntax(line, "duplicate input directive"));
            }
            if toks.len() != 2 {
                return Err(syntax(line, "usage: input <N> or input <C>x<H>x<W>"));
            }
            let s = parse_input_shape(line, toks[1])?;
            if s.elements() == 0 {
                return Err(syntax(line, "input shape must be non-empty"));
            }
            input_shape = Some(s);
            shape = Some(s);
            continue;
        }

        let current = shape.ok_or_else(|| syntax(line, "first directive must be `input`"))?;

        // Auto-flatten before FC layers when the activation is an image.
        let flat_for_fc = |network: &mut Network, current: Shape| -> usize {
            match current {
                Shape::Flat(n) => n,
                Shape::Image(..) => {
                    network.push(Flatten::new());
                    current.elements()
                }
            }
        };

        match keyword {
            "fc" => {
                if toks.len() != 2 {
                    return Err(syntax(line, "usage: fc <out>"));
                }
                let out = parse_usize(line, toks[1], "output width")?;
                let in_dim = flat_for_fc(&mut network, current);
                network.push(Dense::new(in_dim, out, &mut rng));
                shape = Some(Shape::Flat(out));
            }
            "circulant_fc" => {
                if toks.len() < 3 {
                    return Err(syntax(line, "usage: circulant_fc <out> block=<b>"));
                }
                let out = parse_usize(line, toks[1], "output width")?;
                let opts = parse_options(line, &toks[2..], &["block"])?;
                let block = *opts
                    .get("block")
                    .ok_or_else(|| syntax(line, "circulant_fc requires block=<b>"))?;
                let in_dim = flat_for_fc(&mut network, current);
                let layer = CirculantDense::new(in_dim, out, block, &mut rng)
                    .map_err(|e| syntax(line, e.to_string()))?;
                network.push(layer);
                shape = Some(Shape::Flat(out));
            }
            "circulant_gru" => {
                // Recurrent cell: dimension 0 of its input is *time*,
                // not batch (one session = one sequence). Served by
                // ffdl-stream; see `ffdl_core::CirculantGru`.
                if toks.len() < 3 {
                    return Err(syntax(line, "usage: circulant_gru <hidden> block=<b>"));
                }
                let hidden = parse_usize(line, toks[1], "hidden width")?;
                let opts = parse_options(line, &toks[2..], &["block"])?;
                let block = *opts
                    .get("block")
                    .ok_or_else(|| syntax(line, "circulant_gru requires block=<b>"))?;
                let in_dim = flat_for_fc(&mut network, current);
                let layer = CirculantGru::new(in_dim, hidden, block, &mut rng)
                    .map_err(|e| syntax(line, e.to_string()))?;
                network.push(layer);
                shape = Some(Shape::Flat(hidden));
            }
            "conv" | "circulant_conv" => {
                let (c, h, w) = match current {
                    Shape::Image(c, h, w) => (c, h, w),
                    Shape::Flat(_) => {
                        return Err(syntax(line, format!("{keyword} requires an image shape")))
                    }
                };
                if toks.len() < 3 {
                    return Err(syntax(
                        line,
                        format!("usage: {keyword} <out_channels> kernel=<k> [stride=] [pad=] …"),
                    ));
                }
                let p = parse_usize(line, toks[1], "output channels")?;
                let allowed: &[&str] = if keyword == "conv" {
                    &["kernel", "stride", "pad"]
                } else {
                    &["kernel", "stride", "pad", "block"]
                };
                let opts = parse_options(line, &toks[2..], allowed)?;
                let kernel = *opts
                    .get("kernel")
                    .ok_or_else(|| syntax(line, format!("{keyword} requires kernel=<k>")))?;
                let geom = ConvGeometry {
                    kernel,
                    stride: *opts.get("stride").unwrap_or(&1),
                    pad: *opts.get("pad").unwrap_or(&0),
                };
                let oh = geom
                    .output_extent(h)
                    .map_err(|e| syntax(line, e.to_string()))?;
                let ow = geom
                    .output_extent(w)
                    .map_err(|e| syntax(line, e.to_string()))?;
                if keyword == "conv" {
                    let layer = Conv2d::new(c, p, h, w, geom, &mut rng)
                        .map_err(|e| syntax(line, e.to_string()))?;
                    network.push(layer);
                } else {
                    let block = *opts
                        .get("block")
                        .ok_or_else(|| syntax(line, "circulant_conv requires block=<b>"))?;
                    let layer = CirculantConv2d::new(c, p, h, w, geom, block, &mut rng)
                        .map_err(|e| syntax(line, e.to_string()))?;
                    network.push(layer);
                }
                shape = Some(Shape::Image(p, oh, ow));
            }
            "maxpool" => {
                let (c, h, w) = match current {
                    Shape::Image(c, h, w) => (c, h, w),
                    Shape::Flat(_) => return Err(syntax(line, "maxpool requires an image shape")),
                };
                if toks.len() < 2 {
                    return Err(syntax(line, "usage: maxpool <k> [stride=<s>]"));
                }
                let k = parse_usize(line, toks[1], "pool size")?;
                let opts = parse_options(line, &toks[2..], &["stride"])?;
                let stride = *opts.get("stride").unwrap_or(&k);
                if k == 0 || stride == 0 || k > h || k > w {
                    return Err(syntax(line, format!("pool {k}/{stride} does not fit {h}×{w}")));
                }
                network.push(MaxPool2d::with_stride(k, stride));
                shape = Some(Shape::Image(
                    c,
                    (h - k) / stride + 1,
                    (w - k) / stride + 1,
                ));
            }
            "flatten" => {
                network.push(Flatten::new());
                shape = Some(Shape::Flat(current.elements()));
            }
            "relu" => network.push(Relu::new()),
            "sigmoid" => network.push(Sigmoid::new()),
            "tanh" => network.push(Tanh::new()),
            "softmax" => match current {
                Shape::Flat(_) => network.push(Softmax::new()),
                Shape::Image(..) => {
                    return Err(syntax(line, "softmax requires a flat shape"))
                }
            },
            other => {
                return Err(syntax(line, format!("unknown directive {other:?}")));
            }
        }
    }

    let input_shape = input_shape
        .ok_or_else(|| syntax(text.lines().count().max(1), "missing input directive"))?;
    let output_shape = shape.expect("set together with input_shape");
    Ok(ParsedNetwork {
        network,
        input_shape,
        output_shape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_tensor::Tensor;

    #[test]
    fn parses_paper_arch1() {
        let text = "\
# MNIST Arch. 1 (§V-B): 256-128-128-10, block-circulant FC layers
input 256
circulant_fc 128 block=64
relu
circulant_fc 128 block=64
relu
fc 10
softmax
";
        let mut parsed = parse_architecture(text, 1).unwrap();
        assert_eq!(parsed.input_shape, Shape::Flat(256));
        assert_eq!(parsed.output_shape, Shape::Flat(10));
        assert_eq!(parsed.network.len(), 6);
        let y = parsed.network.forward(&Tensor::zeros(&[2, 256])).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        // Softmax output: rows sum to 1.
        let s: f32 = y.row(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn parses_conv_pipeline() {
        let text = "\
input 3x16x16
conv 8 kernel=3 pad=1
relu
maxpool 2
circulant_conv 16 kernel=3 block=8
relu
flatten
circulant_fc 32 block=16
relu
fc 10
softmax
";
        let mut parsed = parse_architecture(text, 7).unwrap();
        assert_eq!(parsed.input_shape, Shape::Image(3, 16, 16));
        assert_eq!(parsed.output_shape, Shape::Flat(10));
        let y = parsed
            .network
            .forward(&Tensor::zeros(&[1, 3, 16, 16]))
            .unwrap();
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn auto_flatten_before_fc() {
        let text = "input 2x4x4\nfc 5\n";
        let mut parsed = parse_architecture(text, 0).unwrap();
        let y = parsed
            .network
            .forward(&Tensor::zeros(&[1, 2, 4, 4]))
            .unwrap();
        assert_eq!(y.shape(), &[1, 5]);
        assert_eq!(parsed.network.len(), 2); // flatten + dense
    }

    #[test]
    fn deterministic_under_seed() {
        let text = "input 8\ncirculant_fc 8 block=4\n";
        let mut a = parse_architecture(text, 9).unwrap().network;
        let mut b = parse_architecture(text, 9).unwrap().network;
        let x = Tensor::from_fn(&[1, 8], |i| i as f32);
        assert_eq!(
            a.forward(&x).unwrap().as_slice(),
            b.forward(&x).unwrap().as_slice()
        );
    }

    #[test]
    fn error_line_numbers() {
        let err = parse_architecture("input 8\nwat 5\n", 0).unwrap_err();
        match err {
            DeployError::ArchSyntax { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("wat"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_input() {
        assert!(parse_architecture("fc 10\n", 0).is_err());
        assert!(parse_architecture("", 0).is_err());
    }

    #[test]
    fn rejects_duplicate_input_and_zero_shape() {
        assert!(parse_architecture("input 8\ninput 8\n", 0).is_err());
        assert!(parse_architecture("input 0\n", 0).is_err());
        assert!(parse_architecture("input 2x0x4\n", 0).is_err());
        assert!(parse_architecture("input 2x4\n", 0).is_err());
    }

    #[test]
    fn rejects_bad_options() {
        assert!(parse_architecture("input 8\ncirculant_fc 4\n", 0).is_err()); // no block
        assert!(parse_architecture("input 8\ncirculant_fc 4 block=0\n", 0).is_err());
        assert!(parse_architecture("input 8\nfc 4 extra=1\n", 0).is_err());
        assert!(parse_architecture("input 8\ncirculant_fc 4 block=2 block=2\n", 0).is_err());
        assert!(parse_architecture("input 8\ncirculant_fc 4 bogus=2\n", 0).is_err());
    }

    #[test]
    fn rejects_shape_misuse() {
        assert!(parse_architecture("input 8\nconv 4 kernel=3\n", 0).is_err());
        assert!(parse_architecture("input 8\nmaxpool 2\n", 0).is_err());
        assert!(parse_architecture("input 2x4x4\nsoftmax\n", 0).is_err());
        assert!(parse_architecture("input 2x4x4\nconv 4 kernel=9\n", 0).is_err());
        assert!(parse_architecture("input 2x4x4\nmaxpool 9\n", 0).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# heading\ninput 4   # trailing\n\nrelu\n";
        let parsed = parse_architecture(text, 0).unwrap();
        assert_eq!(parsed.network.len(), 1);
    }

    #[test]
    fn avgpool_and_fft_conv_directives() {
        let text = "\ninput 2x8x8\nconv 4 kernel=3\nrelu\nmaxpool 2 stride=1\nflatten\nfc 5\n";
        let mut parsed = parse_architecture(text, 3).unwrap();
        assert_eq!(parsed.output_shape, Shape::Flat(5));
        let y = parsed
            .network
            .forward(&Tensor::zeros(&[1, 2, 8, 8]))
            .unwrap();
        assert_eq!(y.shape(), &[1, 5]);
        assert!(parse_architecture("input 1x4x4\nmaxpool 2 stride=0\n", 0).is_err());
        // Average pooling (no paper architecture uses it) and the §I
        // FFT-convolution baseline (a bench fixture) are not deployable
        // layers: their directives are unknown ones.
        for (directive, name) in [
            ("avgpool 2", "avgpool"),
            ("fft_conv 4 kernel=3", "fft_conv"),
        ] {
            match parse_architecture(&format!("input 2x8x8\n{directive}\n"), 0).unwrap_err() {
                DeployError::ArchSyntax { line, message } => {
                    assert_eq!(line, 2);
                    assert!(
                        message.contains(&format!("unknown directive {name:?}")),
                        "{message}"
                    );
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn circulant_gru_directive() {
        let text = "input 16\ncirculant_gru 32 block=8\nfc 4\nsoftmax\n";
        let mut parsed = parse_architecture(text, 11).unwrap();
        assert_eq!(parsed.output_shape, Shape::Flat(4));
        // Sequence semantics: [seq, in] -> [seq, classes].
        let y = parsed.network.forward(&Tensor::zeros(&[5, 16])).unwrap();
        assert_eq!(y.shape(), &[5, 4]);
        assert!(parse_architecture("input 16\ncirculant_gru 32\n", 0).is_err());
        assert!(parse_architecture("input 16\ncirculant_gru 32 block=0\n", 0).is_err());
        assert!(parse_architecture("input 16\ncirculant_gru 0 block=4\n", 0).is_err());
    }

    #[test]
    fn shape_elements() {
        assert_eq!(Shape::Flat(12).elements(), 12);
        assert_eq!(Shape::Image(3, 4, 5).elements(), 60);
    }
}
